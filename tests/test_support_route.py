"""The support route of the spectral profile against its rfft oracle and a 40-digit oracle.

A state whose support bound sum_e 2**(d - |e|) is at most 2d takes
``operators.support_profile``; ``spectral_profile`` of the built amplitudes
(the rfft route) stays its oracle.  Both are float64 sums over at most 2**d
bins of O(1) terms, so they agree to about 1e-15 relative; the bound here
is 1e-13 of max(|x|, 1).  The mpmath oracle evaluates the definitions (the
DFT of the signs, Parseval for <N psi|P psi>) at 40 digits.
"""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hyperstate
import hyperstate.state as state_mod
import hyperstate.sweep as sweep_mod
from hyperstate.hypergraph import Hypergraph
from hyperstate.operators import spectral_profile, support_profile
from hyperstate.state import hypergraph_profile, membership_amplitudes, membership_profile, support_rows
from hyperstate.sweep import Family, dminus1_family, sweep_family

from oracles import hypergraph_amplitudes

FIELDS = ("mean_p", "var_p", "half_comm", "c_l1_phase", "c_rel_phase")
TOL = 1e-13


def _support_bound(g: Hypergraph) -> int:
    return sum(1 << (g.d - len(e)) for e in g.edges)


def _assert_close(profile, oracle, index=()):
    for name in FIELDS:
        got, want = getattr(profile, name)[index], getattr(oracle, name)[index]
        assert abs(got - want) <= TOL * max(abs(want), 1.0), (name, got, want)


def support_hypergraphs(max_d: int = 10):
    """Hypergraphs at d <= max_d whose every edge misses few vertices, kept when b <= 2d."""

    def on(d):
        missing = st.lists(st.integers(0, d - 1), max_size=(2 * d).bit_length() - 1, unique=True)
        edge = missing.map(lambda gone: tuple(v for v in range(d) if v not in gone)).filter(bool)
        return st.lists(edge, max_size=d + 1).map(lambda edges: Hypergraph(d, edges))

    return st.integers(1, max_d).flatmap(on)


@settings(max_examples=120, deadline=None)
@given(support_hypergraphs())
def test_support_route_matches_the_rfft_oracle(g):
    assume(_support_bound(g) <= 2 * g.d)
    rows = np.ones((1, len(g.edges)))
    assert support_rows(g.d, g.edges, rows).all()
    oracle = spectral_profile(hypergraph_amplitudes([g])[0])
    _assert_close(hypergraph_profile(g), oracle)


@pytest.mark.parametrize("d", [4, 6, 8])
def test_family_row_own_edges_and_chunk_of_one_share_bits(d):
    family = dminus1_family(d)
    batch = membership_profile(d, family.edges, family.rows)
    for i in range(0, len(family.rows), max(1, len(family.rows) // 17)):
        row = family.rows[i : i + 1]
        own = hypergraph_profile(Hypergraph(d, itertools.compress(family.edges, row[0])))
        alone = membership_profile(d, family.edges, row)
        for name in FIELDS:
            bits = getattr(batch, name)[i].tobytes()
            assert getattr(own, name).tobytes() == bits, (name, i)
            assert getattr(alone, name)[0].tobytes() == bits, (name, i)


def test_mixed_chunk_routes_each_row_on_its_own():
    d = 6
    edges = [tuple(range(d)), (0, 1), tuple(range(1, d))]
    rows = np.array([[1, 0, 0], [1, 1, 0], [0, 0, 1], [1, 1, 1]], dtype=np.uint8)
    assert support_rows(d, edges, rows).tolist() == [True, False, True, False]
    merged = membership_profile(d, edges, rows)
    oracle = spectral_profile(membership_amplitudes(d, edges, rows))
    for i in range(len(rows)):
        alone = membership_profile(d, edges, rows[i : i + 1])
        for name in FIELDS:
            assert getattr(merged, name)[i].tobytes() == getattr(alone, name)[0].tobytes()
        _assert_close(merged, oracle, i)


def test_route_follows_edge_sizes(monkeypatch):
    for d in range(3, 13):
        for family in (dminus1_family(d), Family("single-full", d), Family("complete-k", d, d - 1)):
            assert support_rows(d, family.edges, family.rows).all(), family.descriptor
        below = Family("complete-k", d, d - 2)
        assert not support_rows(d, below.edges, below.rows).any()

    calls = []
    real = state_mod.spectral_profile
    monkeypatch.setattr(state_mod, "spectral_profile", lambda psi: calls.append(len(psi)) or real(psi))
    sweep_family(dminus1_family(6))
    sweep_family(Family("single-full", 6))
    sweep_family(Family("complete-k", 6, 5))
    assert calls == []
    sweep_family(Family("complete-k", 6, 4))
    assert calls == [1]


def test_support_profile_rejects_bad_input():
    with pytest.raises(ValueError, match="columns"):
        support_profile(4, [15], np.ones((1, 2)))
    with pytest.raises(ValueError, match="more than 2d"):
        support_profile(3, list(range(8)), np.ones((1, 8)))


def test_empty_hypergraph_is_the_zero_phase_state():
    profile = hypergraph_profile(Hypergraph(5))
    assert float(profile.half_comm) == 0.0
    assert float(profile.mean_p) == float(profile.var_p) == 0.0


# --- 40-digit oracle -------------------------------------------------------------


def _mp_profile(signs):
    """The five profile values of the state signs / sqrt(dim) from their definitions."""
    mpmath.mp.dps = 40
    dim = len(signs)
    root = mpmath.sqrt(dim)
    omega = [mpmath.expjpi(-2 * mpmath.mpf(k) / dim) for k in range(dim)]
    f = [sum(s * omega[m * n % dim] for n, s in enumerate(signs)) / root for m in range(dim)]
    g = [sum(n * s * omega[m * n % dim] for n, s in enumerate(signs)) / root for m in range(dim)]
    theta = [2 * mpmath.pi * m / dim for m in range(dim)]
    prob = [abs(x) ** 2 / dim for x in f]
    mean = sum(t * p for t, p in zip(theta, prob))
    var = sum((t - mean) ** 2 * p for t, p in zip(theta, prob))
    # Parseval: <N psi|P psi> = (1/dim) sum_m theta_m conj(G_m) F_m, and |<[N, P]>| / 2 = |Im|.
    half = abs(mpmath.im(sum(t * mpmath.conj(y) * x for t, x, y in zip(theta, f, g)) / dim))
    l1 = sum(mpmath.sqrt(p) for p in prob) ** 2 - 1
    rel = -sum(p * mpmath.log(p) for p in prob if p > 0)
    return {"mean_p": mean, "var_p": var, "half_comm": half, "c_l1_phase": l1, "c_rel_phase": rel}


def test_support_route_matches_a_40_digit_oracle():
    d = 8
    family = dminus1_family(d)
    picks = [2, 100, 255 - 1]  # two edges, a mixed set, all eight edges
    profile = membership_profile(d, family.edges, family.rows[picks])
    signs = np.sign(membership_amplitudes(d, family.edges, family.rows[picks])).astype(int)
    for i, row_signs in enumerate(signs):
        exact = _mp_profile(row_signs.tolist())
        for name in FIELDS:
            got, want = getattr(profile, name)[i], exact[name]
            assert abs(got - want) <= 1e-14 * max(abs(want), 1), (name, i, got, want)


# --- thread counts ------------------------------------------------------------------

SRC = str(Path(hyperstate.__file__).resolve().parents[1])


def test_sweep_bytes_identical_under_blas_thread_counts():
    outputs = set()
    for blas in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS=blas, OMP_NUM_THREADS=blas)
        env.pop("HYPERSTATE_CACHE", None)
        for threads in ("1", "2"):
            argv = [sys.executable, "-m", "hyperstate.cli", "sweep", "--family", "dminus1",
                    "--d", "9", "--threads", threads, "--format", "csv"]
            done = subprocess.run(argv, env=env, capture_output=True, check=True)
            outputs.add(done.stdout)
    assert len(outputs) == 1


# --- d = 13, 14 -------------------------------------------------------------------


@pytest.mark.extended
@pytest.mark.parametrize("d", [13, 14])
def test_every_large_record_matches_the_rfft_oracle(monkeypatch, d):
    records, summary = sweep_family(dminus1_family(d))
    monkeypatch.setattr(sweep_mod, "membership_profile",
                        lambda d, edges, rows: spectral_profile(membership_amplitudes(d, edges, rows)))
    oracle_records, oracle_summary = sweep_family(dminus1_family(d))
    assert [r.edges for r in records] == [r.edges for r in oracle_records]
    for record, oracle in zip(records, oracle_records):
        for name, want in oracle.metrics.items():
            got = record.metrics[name]
            assert abs(got - want) <= TOL * max(abs(want), 1.0), (record.edges, name, got, want)
    for name, metric in summary.metrics.items():
        assert (metric.argmin, metric.argmax) == (
            oracle_summary.metrics[name].argmin, oracle_summary.metrics[name].argmax), name
