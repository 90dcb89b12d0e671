"""The one byte budget of ``hyperstate.errors``: refusal before allocation, and its edges.

Every byte-guarded route checks its peak before its first allocation, so with
numpy's allocators replaced by functions that raise, a refused input raises
GuardError and an admitted one reaches the allocator.  The extended test runs
the largest admitted CLI input of each route in a child process and measures
its peak resident memory.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hyperstate
import hyperstate.errors as errors
from hyperstate import cli
from hyperstate.errors import GuardError
from hyperstate.hypergraph import Hypergraph
from hyperstate.operators import (
    number_phase_commutator_dense,
    phase_operator_dense,
    spectral_profile,
    support_profile,
)
from hyperstate.state import (
    CIRCUIT_GATE_BYTES,
    emit_circuit,
    hypergraph_profile,
    hypergraph_state,
    membership_signs,
    simulate_circuit,
)
from hyperstate.sweep import Family, sweep_family

ONE_ROW = np.ones((1, 1))


def _operators(d: int, check_all: bool = False) -> int:
    return cli._cmd_operators(argparse.Namespace(d=d, check_all=check_all, format="json", out=None))


# Each route as a function of d, with the largest d the default budget admits.
ROUTES = {
    "membership_signs": (lambda d: membership_signs(d, [(0, 1)], ONE_ROW), 24),
    "hypergraph_state": (lambda d: hypergraph_state(Hypergraph(d, [(0, 1)])), 24),
    "hypergraph_profile": (lambda d: hypergraph_profile(Hypergraph(d, [(0, 1)])), 23),
    # The support route's own guard, on the edgeless state; hypergraph_profile
    # sends no state past d = 16 to it.
    "support_profile": (lambda d: support_profile(d, [], ONE_ROW[:, :0]), 23),
    # A read-only zero-stride view: no 2**d bytes exist before the route runs.
    "spectral_profile": (lambda d: spectral_profile(np.broadcast_to(1.0, (1 << d,))), 23),
    "simulate_circuit": (lambda d: simulate_circuit(emit_circuit(Hypergraph(d, [(0, 1)]))), 23),
    "phase_operator_dense": (lambda d: phase_operator_dense(1 << d), 12),
    "number_phase_commutator_dense": (lambda d: number_phase_commutator_dense(1 << d), 12),
    "_cmd_operators": (_operators, 11),
    "sweep_family single-full": (lambda d: sweep_family(Family("single-full", d)), 23),
}
# Beyond dim 256 its eigensolve is refused first, by the cubic work budget.
GUARDED = {
    **ROUTES,
    "_cmd_operators --check-all": (lambda d: _operators(d, check_all=True), None),
    "emit_circuit": (lambda d: emit_circuit(Hypergraph(d, [(0, 1)])), None),
}


class Allocated(Exception):
    pass


@pytest.fixture
def no_allocation(monkeypatch):
    """numpy's allocators of the guarded routes raise Allocated."""

    def allocate(*args, **kwargs):
        raise Allocated

    for owner, name in ((np, "arange"), (np, "zeros"), (np, "concatenate"),
                        (np.fft, "rfft"), (np.fft, "fft")):
        monkeypatch.setattr(owner, name, allocate)


@pytest.mark.parametrize("name", GUARDED)
def test_route_refuses_before_its_first_allocation(monkeypatch, no_allocation, name):
    route, _ = GUARDED[name]
    monkeypatch.setattr(errors, "MAX_BYTES", 1)
    with pytest.raises(GuardError, match="byte budget of 0 MiB"):
        route(4)


@pytest.mark.parametrize("name", ROUTES)
def test_budget_admits_the_documented_sizes(no_allocation, name):
    route, largest = ROUTES[name]
    with pytest.raises(Allocated):
        route(largest)
    with pytest.raises(GuardError, match="budget"):
        route(largest + 1)


def test_circuit_budget_counts_gates(monkeypatch):
    largest = errors.MAX_BYTES // CIRCUIT_GATE_BYTES
    with pytest.raises(GuardError, match=f"circuit of {largest + 1} gates"):
        emit_circuit(Hypergraph(largest + 1))
    monkeypatch.setattr(errors, "MAX_BYTES", 10 * CIRCUIT_GATE_BYTES)
    assert len(emit_circuit(Hypergraph(9, [(0, 1)])).gates) == 10
    with pytest.raises(GuardError, match="circuit of 11 gates"):
        emit_circuit(Hypergraph(10, [(0, 1)]))


def test_absurd_d_is_refused_without_a_huge_integer():
    with pytest.raises(GuardError, match="more than 2\\*\\*64 bytes"):
        hypergraph_state(Hypergraph(10**12))


# --- measured peaks ------------------------------------------------------------

SRC = str(Path(hyperstate.__file__).resolve().parents[1])
SIMULATE = "from hyperstate import *; simulate_circuit(emit_circuit(Hypergraph({}, [(0, 1), (2, 3, 4)])))"


def _peak(argv):
    """(exit code, stderr, peak resident bytes) of a fresh interpreter running ``argv``."""
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1")
    child = subprocess.Popen([sys.executable, *argv], env=env,
                             stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    with child.stderr:
        err = child.stderr.read().decode()
    return child.returncode, err, usage.ru_maxrss * 1024


@pytest.mark.extended
@pytest.mark.parametrize("largest, next_up", [
    (["state", "--d", "24", "--edges", "0,1", "--format", "csv"], ["state", "--d", "25"]),
    (["squeeze", "--d", "23", "--edges", "0,1"], ["squeeze", "--d", "24"]),
    (["coherence", "--d", "23", "--basis", "phase"], ["coherence", "--d", "24", "--basis", "phase"]),
    (["sweep", "--family", "single-full", "--d", "23"], ["sweep", "--family", "single-full", "--d", "24"]),
    (["operators", "--d", "11"], ["operators", "--d", "12"]),
    (["operators", "--d", "8", "--check-all"], ["operators", "--d", "12", "--check-all"]),
    (["simulate", "23"], ["simulate", "24"]),
    (["circuit", "--d", "4628197", "--format", "json"], ["circuit", "--d", "4628198", "--format", "json"]),
], ids=lambda argv: " ".join(argv))
def test_largest_admitted_input_stays_within_the_budget(largest, next_up):
    def command(argv):
        if argv[0] == "simulate":
            return ["-c", SIMULATE.format(argv[1])]
        return ["-m", "hyperstate.cli", *argv]

    _, _, baseline = _peak(["-c", "import hyperstate.cli"])
    code, err, peak = _peak(command(largest))
    assert code == 0, err
    assert peak <= errors.MAX_BYTES + baseline
    code, err, peak = _peak(command(next_up))
    if next_up[0] == "simulate":
        assert code == 1 and "GuardError: circuit simulation at d=24" in err
    else:
        assert code == 2 and err.startswith("error: guard:") and err.count("\n") == 1
    assert peak < 100 << 20
