"""hyperstate benchmark: one workload, timed warm passes, checked outputs.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root; the program is imported from ``src/``.  The
workloads are defined in ``workloads.py`` and listed, with the reason for
each, in ``BENCHMARK.json``.

With ``--trace 0`` it runs untraced passes for about ``--seconds`` and
reports the end-to-end metrics.  With ``--trace 1`` it alternates untraced
and traced passes (seed-chosen order in each pair) and reports the
per-layer metrics of ``tracer.py``, the median over traced passes, plus
``trace.overhead_s`` = median traced pass time - median untraced pass time.
Either way it checks every pass against the stored reference and counts
failed units.  The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
the details (environment, seed, samples, tail percentile and sample count,
error rate and its base), which are also written to ``bench/out/``.

BLAS and OpenMP threads are pinned to one for every timed run.  With
OpenBLAS's default count on a 2-core machine the first BLAS call made a d=6
sweep take about 0.47 s instead of 0.02 s, and BLAS threads oversubscribe
the cores as soon as the sweep thread pool runs.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
# Fresh interpreters per run for setup_s and cli.import_s; the median is reported.
PROBES = 5

END_TO_END_UNITS = {
    "pass_s": "s",
    "pass_s_tail": "s",
    "units_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}
LAYER_UNITS = {
    "operators.dense_bytes_per_record": "B-computed",
    "operators.fft_per_record": "count",
    "state.builds_per_record": "count",
    "hypergraph.kept_ratio": "ratio",
    "sweep.pool_busy_ratio": "ratio",
    "sweep.record_ms_p50": "ms",
    "sweep.record_ms_tail": "ms",
}


def import_program():
    """Import hyperstate from this checkout's ``src``, or exit with an error."""
    if not (SRC / "hyperstate" / "__init__.py").is_file():
        raise SystemExit(f"bench: no hyperstate package under {SRC}")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import hyperstate

    if Path(hyperstate.__file__).resolve().parent != (SRC / "hyperstate").resolve():
        raise SystemExit(f"bench: imported hyperstate from {hyperstate.__file__}, not {SRC}")
    return hyperstate


def git_commit() -> str | None:
    """Commit of the checkout, read from .git without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(hyperstate) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "hyperstate": hyperstate.__version__,
        "git_commit": git_commit(),
    }


def probe(mode: str, workload: str) -> float:
    """Seconds reported by one ``probe.py`` run in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(BENCH / "probe.py"), mode, workload],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=""),
        capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])["seconds"]


@dataclass
class PassResult:
    wall: float
    cpu: float
    attempted: int
    failed: int
    reasons: list[str]
    traced: bool


def one_pass(wl, rng: random.Random, tracer=None) -> PassResult:
    import workloads

    scratch = Path(tempfile.mkdtemp(prefix="pass-", dir=OUT))
    try:
        gc.collect()
        if tracer is not None:
            tracer.install()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            out = wl.run_pass(rng, scratch)
        except Exception as exc:
            out = exc
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        if tracer is not None:
            tracer.uninstall()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    try:
        if isinstance(out, Exception):
            raise out
        outcome = wl.check(out)
    except Exception as exc:  # a pass or a check that raises fails all its units
        units = wl.units_per_pass()
        outcome = workloads.Outcome(units, units, [f"{type(exc).__name__}: {exc}"])
    return PassResult(wall, cpu, outcome.attempted, outcome.failed, outcome.reasons,
                      tracer is not None)


def run_passes(wl, rng: random.Random, seconds: float, tracer, take_probe):
    """Passes until another round would overrun ``seconds``; at least one round.

    A round is one untraced pass, or with a tracer an untraced and a traced
    pass in seed-chosen order, each traced pass getting its own pass id.
    The PROBES set-up samples are taken between rounds, spread over the run,
    so that they see the machine in the same state as the passes do.
    Returns the pass results and the probe samples.
    """
    results: list[PassResult] = []
    rounds: list[float] = []
    probes: list[float] = []
    start = time.perf_counter()
    while True:
        if len(probes) < min(PROBES, PROBES * (time.perf_counter() - start) / seconds + 1):
            probes.append(take_probe())
        round_start = time.perf_counter()
        kinds = [False] if tracer is None else [False, True]
        rng.shuffle(kinds)
        for traced in kinds:
            if traced:
                tracer.pass_id = len(rounds)
            results.append(one_pass(wl, rng, tracer if traced else None))
        rounds.append(time.perf_counter() - round_start)
        if time.perf_counter() - start + statistics.median(rounds) > seconds:
            break
    while len(probes) < PROBES:
        probes.append(take_probe())
    return results, probes


def main(argv: list[str] | None = None) -> int:
    hyperstate = import_program()
    import tracer as tracing
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    rng = random.Random(args.seed)
    wl = workloads.WORKLOADS[args.workload]()
    wl.load_reference()
    wl.first_unit()  # warm-up: lazy imports, FFT plans, first BLAS call
    tracer = tracing.Tracer() if args.trace else None
    mode = "cli" if args.trace else "setup"
    results, setup = run_passes(wl, rng, args.seconds, tracer,
                                lambda: probe(mode, args.workload))

    untraced = [r for r in results if not r.traced]
    walls = [r.wall for r in untraced]
    tail_value, tail_pct, tail_n = tracing.tail(walls)
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    if args.trace:
        traced_walls = [r.wall for r in results if r.traced]
        by_pass: dict[int, list[tuple]] = {}
        for span in tracer.spans:
            by_pass.setdefault(span[5], []).append(span)
        per_pass = [tracing.layer_metrics(spans) for spans in by_pass.values()]
        values = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        values["cli.import_s"] = statistics.median(setup)
        values["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        units = {name: LAYER_UNITS.get(name, "s") for name in values}
    else:
        values = {
            "pass_s": statistics.median(walls),
            "pass_s_tail": tail_value,
            "units_per_s": statistics.median(wl.evaluated_per_pass() / w for w in walls),
            "cpu_s": statistics.median(r.cpu for r in untraced),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(setup),
        }
        units = END_TO_END_UNITS

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(hyperstate),
        "passes": [{"wall_s": r.wall, "cpu_s": r.cpu, "traced": r.traced,
                    "attempted": r.attempted, "failed": r.failed} for r in results],
        "pass_s_tail": {"percentile": tail_pct, "samples": tail_n},
        "error_rate": {"value": failed / attempted, "failed": failed, "attempted": attempted},
        "failures": [reason for r in results for reason in r.reasons][:10],
        ("cli_import_samples_s" if args.trace else "setup_samples_s"): setup,
    }
    if tracer is not None:
        spans_file = OUT / f"spans-{stem}.jsonl.gz"
        tracer.write(spans_file)
        detail["spans_file"] = str(spans_file.relative_to(ROOT))
        detail["traced_pass_s"] = statistics.median(traced_walls)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }
    (OUT / f"result-{stem}.json").write_text(
        json.dumps({"detail": detail, "result": result}, indent=1) + "\n")
    print(json.dumps(detail))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
