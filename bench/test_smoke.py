"""Smoke test of the benchmark harness at tiny sizes (d=5 sweep, witness (3,3), check C1).

    python3 -m pytest -q bench/test_smoke.py

The default test run collects only ``tests/``, so this runs on request.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE = ("smoke-sweep-d5", "smoke-witness", "smoke-reproduce")

sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", SMOKE)
def test_every_benchmark_metric_is_emitted(workload, trace):
    done = bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    values = [v["value"] for v in result["metrics"].values()]
    assert all(isinstance(v, float) for v in values)
    if not trace:
        assert all(v > 0 for v in values)


def test_layer_map_covers_every_layer_metric():
    layers = json.loads((BENCH / "layers.json").read_text())
    assert set(layers) == {m["name"] for m in SPEC["per_layer"]}
    workload_names = {w["name"] for w in SPEC["workloads"]}
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    for entry in layers.values():
        assert set(entry["moves"]) <= end_to_end
        assert set(entry["on"]) | set(entry["little_or_none_on"]) <= workload_names


def _one_pass(name: str, plant=None, trace: bool = False) -> run.PassResult:
    wl = workloads.WORKLOADS[name]()
    wl.load_reference()
    if plant is not None:
        plant(wl)
    run.OUT.mkdir(exist_ok=True)
    return run.one_pass(wl, random.Random(0), tracer.Tracer() if trace else None)


def _perturb_sweep(wl):
    wl.reference.rows[3]["var_p"] *= 1.0 + 1e-6


def _perturb_witness(wl):
    wl.reference[(3, 3)]["a_n"] += Fraction(1, 10**30)


def _perturb_status(wl):
    wl.reference["C1"] = "FAIL"


@pytest.mark.parametrize("name, plant", [
    ("smoke-sweep-d5", _perturb_sweep),
    ("smoke-witness", _perturb_witness),
    ("smoke-reproduce", _perturb_status),
])
def test_planted_wrong_value_counts_in_error_rate(name, plant):
    clean = _one_pass(name)
    assert clean.failed == 0 and clean.attempted >= 1
    planted = _one_pass(name, plant)
    assert planted.attempted == clean.attempted
    assert planted.failed == 1 and planted.failed / planted.attempted > 0


def test_a_pass_that_raises_fails_every_unit():
    def explode(wl):
        def run_pass(rng, scratch):
            raise RuntimeError("planted")
        wl.run_pass = run_pass

    result = _one_pass("smoke-witness", explode)
    assert result.failed == result.attempted == 1


def test_traced_pass_restores_the_program():
    import hyperstate.sweep as sweep

    original = sweep.evaluate_record
    result = _one_pass("smoke-sweep-d5", trace=True)
    assert result.failed == 0
    assert sweep.evaluate_record is original


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = bench(tmp_path, "smoke-witness", 0)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
