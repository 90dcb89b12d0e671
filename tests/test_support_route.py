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
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hyperstate
import hyperstate.operators as operators_mod
import hyperstate.state as state_mod
from hyperstate.errors import GuardError
from hyperstate.hypergraph import Hypergraph, connected_rows
from hyperstate.operators import spectral_profile, support_profile
from hyperstate.state import hypergraph_profile, membership_signs, membership_profile, support_rows
from hyperstate.sweep import Family, dminus1_family, sweep_family

from oracles import hypergraph_signs, sorted_half_comm

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
    oracle = spectral_profile(hypergraph_signs([g])[0])
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


@pytest.mark.parametrize("d", range(3, 13))
def test_every_connected_dminus1_row_agrees_on_both_routes(d):
    family = Family("dminus1", d)
    rows = family.rows[connected_rows(d, family.edges, family.rows)]
    assert support_rows(d, family.edges, rows).all()
    support = membership_profile(d, family.edges, rows)
    rfft = [spectral_profile(membership_signs(d, family.edges, rows[i : i + 512])) for i in range(0, len(rows), 512)]
    for name in FIELDS:
        want = np.concatenate([getattr(part, name) for part in rfft])
        error = np.abs(getattr(support, name) - want) / np.maximum(np.abs(want), 1.0)
        assert error.max() <= TOL, (name, int(error.argmax()), error.max())


def test_membership_profile_builds_the_edge_weights_once(monkeypatch):
    # The split, the support route's byte guard and its points read one array.
    d = 6
    edges = [tuple(range(d)), (0, 1), tuple(range(1, d))]
    rows = np.array([[1, 0, 0], [1, 1, 0], [0, 0, 1], [1, 1, 1]], dtype=np.uint8)
    built, edge_weights = [], state_mod._edge_weights
    monkeypatch.setattr(state_mod, "_edge_weights", lambda d, edges: built.append(d) or edge_weights(d, edges))
    membership_profile(d, edges, rows)
    assert built == [d]


def test_mixed_chunk_routes_each_row_on_its_own():
    d = 6
    edges = [tuple(range(d)), (0, 1), tuple(range(1, d))]
    rows = np.array([[1, 0, 0], [1, 1, 0], [0, 0, 1], [1, 1, 1]], dtype=np.uint8)
    assert support_rows(d, edges, rows).tolist() == [True, False, True, False]
    merged = membership_profile(d, edges, rows)
    oracle = spectral_profile(membership_signs(d, edges, rows))
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


def test_support_route_ends_where_dminus1_sweeps_end():
    largest = state_mod.SUPPORT_MAX_D
    assert len(Family("dminus1", largest).rows) > 1
    with pytest.raises(GuardError, match="work budget"):
        Family("dminus1", largest + 1)
    for d, routed in ((largest, True), (largest + 1, False)):
        family = Family("single-full", d)
        assert support_rows(d, family.edges, family.rows).tolist() == [routed]


@pytest.mark.parametrize("threads", [1, 2])
def test_a_sweep_builds_its_dft_rows_once_per_support_profile_call(monkeypatch, threads):
    calls, builds = [], []
    profile, dft_rows = state_mod.support_profile, operators_mod._dft_rows
    monkeypatch.setattr(state_mod, "support_profile", lambda *args: calls.append(1) or profile(*args))
    monkeypatch.setattr(operators_mod, "_dft_rows", lambda *args: builds.append(1) or dft_rows(*args))
    sweep_family(dminus1_family(12), threads=threads)
    assert len(builds) == len(calls) >= 1
    if threads == 1:
        assert len(calls) == 1


ORDER_A = (("k-uniform", 4, 2), ("dminus1", 10, None))
ORDER_B = (("k-uniform", 4, 1), ("single-full", 10, None), ("complete-k", 10, 8), ("dminus1", 9, None))


def _profile_bits(specs) -> list[bytes]:
    """Every field of the profile of every row of each family (kind, d, k), as bytes."""
    out = []
    for kind, d, k in specs:
        family = Family(kind, d, k)
        profile = membership_profile(d, family.edges, family.rows)
        out.extend(getattr(profile, name).tobytes() for name in FIELDS)
    return out


def test_profile_call_order_invariance():
    # k-uniform(4, 2) has rows on both routes; B shares d with A over other edges and points.
    family = Family("k-uniform", 4, 2)
    routed = support_rows(4, family.edges, family.rows)
    assert routed.any() and not routed.all()
    first = _profile_bits(ORDER_A)
    _profile_bits(ORDER_B)
    assert _profile_bits(ORDER_A) == first
    # A alone, in a process that profiled nothing before it.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, str(Path(__file__).parent)]))
    script = "import sys, test_support_route as t; sys.stdout.write(b''.join(t._profile_bits(t.ORDER_A)).hex())"
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert done.stdout == b"".join(first).hex()


@pytest.mark.parametrize(
    "d, rows",
    [pytest.param(d, 1023, id=str(d)) for d in (10, 12)]
    + [pytest.param(d, None, marks=pytest.mark.extended, id=f"{d}-whole") for d in (15, 16)],
)
def test_support_profile_of_many_tiles_stays_within_its_byte_estimate(d, rows):
    # 1023 rows are 64 tiles at d = 10 and 1023 of 4095 rows 64 at d = 12: a tile's
    # spectrum held past its tile would grow the peak with the row count.  The whole
    # connected family is tiles of two rows at d = 15 and of one at d = 16, so what a
    # tile leaves behind is multiplied by about 2**d.
    family = dminus1_family(d)
    weights = state_mod._edge_weights(d, family.edges)
    points, indicators = state_mod._support_points(d, family.edges, weights)
    chosen = family.rows[:rows] if rows else family.rows[connected_rows(d, family.edges, family.rows)]
    t = (chosen.astype(np.float64) @ indicators) % 2
    tracemalloc.start()
    try:
        support_profile(d, points, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= operators_mod.support_bytes(len(t), len(points), 1 << d)


def test_support_profile_rejects_bad_input():
    with pytest.raises(ValueError, match="columns"):
        support_profile(4, [15], np.ones((1, 2)))
    with pytest.raises(ValueError, match="more than 2d"):
        support_profile(3, list(range(8)), np.ones((1, 8)))
    with pytest.raises(ValueError, match="d >= 1"):
        support_profile(0, [], np.ones((1, 0)))


def test_empty_hypergraph_is_the_zero_phase_state():
    profile = hypergraph_profile(Hypergraph(5))
    assert float(profile.half_comm) == 0.0
    assert float(profile.mean_p) == float(profile.var_p) == 0.0


@pytest.mark.parametrize(
    "g, mean",
    [pytest.param(Hypergraph(d), 0.0, id=f"theta_0-d{d}") for d in range(1, 18)]
    + [pytest.param(Hypergraph(d, [(d - 1,)]), np.pi, id=f"theta_half-d{d}") for d in range(1, 12)],
)
def test_phase_eigenstates_have_exactly_zero_phase_spread_and_coherence(g, mean):
    # The edgeless state is |theta_0>; one edge on the last vertex flips the odd
    # amplitudes, which gives |theta_{dim/2}>.  d = 17 and theta_half at d >= 5
    # take the rfft route.
    profile = hypergraph_profile(g)
    assert float(profile.mean_p) == mean
    for name in ("var_p", "c_l1_phase", "c_rel_phase"):
        assert float(getattr(profile, name)) == 0.0, name
    if g != Hypergraph(2, [(1,)]):  # there the support route's half_comm is 1.1e-16 of round-off
        assert float(profile.half_comm) == 0.0


@pytest.mark.parametrize("d", range(2, 12))
def test_rfft_route_reads_theta_half_exactly(d):
    # Sign rows scaled by exact powers of two: no rounded 1/sqrt(2**d) at odd d.
    profile = spectral_profile(membership_signs(d, [(d - 1,)], [[1]]))
    assert float(profile.mean_p[0]) == np.pi
    for name in ("var_p", "half_comm", "c_l1_phase", "c_rel_phase"):
        assert float(getattr(profile, name)[0]) == 0.0, name


def test_single_full_edge_at_d1_is_a_phase_eigenstate():
    (record,), _ = sweep_family(Family("single-full", 1))
    assert record.metrics == {"s_p": -1.0, "s_n": None, "var_p": 0.0, "var_n": 0.25,
                              "half_comm": 0.0, "c_l1_phase": 0.0, "c_rel_phase": 0.0}


@st.composite
def support_inputs(draw):
    """d <= 12, ascending points, and 0/1 rows with at most 2d ones each, one of them all zero."""
    d = draw(st.integers(1, 12))
    points = sorted(draw(st.lists(st.integers(0, (1 << d) - 1), max_size=3 * d, unique=True)))
    chosen = st.lists(st.integers(0, len(points) - 1), max_size=min(len(points), 2 * d), unique=True)
    t = np.zeros((draw(st.integers(1, 4)), len(points)))
    for row in t[1:]:
        row[draw(chosen) if points else []] = 1.0
    return d, points, t[draw(st.permutations(range(len(t))))]


@settings(max_examples=150, deadline=None)
@given(support_inputs())
def test_half_comm_from_the_pair_table_equals_the_sorted_gather_bit_for_bit(inputs):
    d, points, t = inputs
    assert support_profile(d, points, t).half_comm.tobytes() == sorted_half_comm(d, points, t).tobytes()
    for r in range(len(t)):
        alone = support_profile(d, points, t[r : r + 1]).half_comm
        assert alone.tobytes() == sorted_half_comm(d, points, t[r : r + 1]).tobytes(), r


def _assert_half_comm_bits(d, points, t):
    got = support_profile(d, points, t).half_comm
    assert got.tobytes() == sorted_half_comm(d, points, t).tobytes()
    return got


@pytest.mark.parametrize("d", [10, 12])
def test_half_comm_across_tile_blocks_equals_the_sorted_gather_bit_for_bit(d):
    family = dminus1_family(d)
    weights = state_mod._edge_weights(d, family.edges)
    points, indicators = state_mod._support_points(d, family.edges, weights)
    rows = family.rows[connected_rows(d, family.edges, family.rows)]
    t = (rows.astype(np.float64) @ indicators) % 2
    whole = _assert_half_comm_bits(d, points, t)
    block = operators_mod._half_comm_rows(len(points) * (len(points) + 1))
    assert len(t) > 2 * block + 1  # the family spans more than two blocks
    for count in (block - 1, block, block + 1):
        assert _assert_half_comm_bits(d, points, t[-count:]).tobytes() == whole[-count:].tobytes()
    for r in range(0, len(t), 97):
        assert _assert_half_comm_bits(d, points, t[r : r + 1])[0].tobytes() == whole[r].tobytes()
    assert not _assert_half_comm_bits(d, [], t[: block + 1, :0]).any()  # no points


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
    signs = np.sign(membership_signs(d, family.edges, family.rows[picks])).astype(int)
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
    # Every row takes the rfft route, a tile at a time.
    monkeypatch.setattr(state_mod, "support_rows", lambda d, edges, rows, weights: np.zeros(len(rows), dtype=bool))
    oracle_records, oracle_summary = sweep_family(dminus1_family(d))
    assert [r.edges for r in records] == [r.edges for r in oracle_records]
    for record, oracle in zip(records, oracle_records):
        for name, want in oracle.metrics.items():
            got = record.metrics[name]
            assert abs(got - want) <= TOL * max(abs(want), 1.0), (record.edges, name, got, want)
    for name, metric in summary.metrics.items():
        assert (metric.argmin, metric.argmax) == (
            oracle_summary.metrics[name].argmin, oracle_summary.metrics[name].argmax), name
