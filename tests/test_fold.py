"""The support route's folded spectra against the unfolded kernel, the rfft route and a 40-digit oracle.

When every point of a support state's K agrees with the first in its low v
bits, |F_m| has period P = dim / 2**v, and ``support_profile`` reads a row
over m = 0 .. P/2 only, at level min(v, d - FOLD_FLOOR), with orbit weights.
Patching ``FOLD_FLOOR`` down folds small states too, so that every support
row at d <= 4 can be held against the unfolded kernel and the rfft oracle.
The weighted sums are row dots over column blocks of at most ``DOT_BLOCK``,
so the bits do not depend on the batch, the tiles, the worker threads or
OpenBLAS's thread count.
"""

import functools
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperstate
import hyperstate.operators as operators_mod
import hyperstate.sweep as sweep_mod
from hyperstate.hypergraph import connected_rows
from hyperstate.operators import phase_angles, spectral_profile, support_profile
from hyperstate.state import _edge_weights, _support_points
from hyperstate.sweep import dminus1_family, evaluate_record, render_results, sweep_family

import oracles

FIELDS = ("mean_p", "var_p", "half_comm", "c_l1_phase", "c_rel_phase")
MOMENTS = ("mean_p", "var_p", "c_l1_phase", "c_rel_phase")
REL = 4e-15
SRC = str(Path(hyperstate.__file__).resolve().parents[1])


def _assert_close(got, want, rel=REL, floor=1e-15, names=MOMENTS):
    """Every phase moment within ``rel`` of |want|, plus ``floor`` for values that vanish: their
    round-off is that of the O(1) sums they are formed from."""
    for name in names:
        a, b = getattr(got, name), getattr(want, name)
        error = np.abs(a - b) - rel * np.abs(b)
        assert error.max(initial=0.0) <= floor, (name, int(error.argmax()), a[error.argmax()], b[error.argmax()])


def _signs(d, points, t):
    x = np.ones((len(t), 1 << d))
    x[:, points] -= 2.0 * t
    return x


def _brute_level(d, chosen, floor):
    """The largest level l <= d - floor with every chosen point congruent to the first mod 2**l."""
    top = max(0, d - floor)
    return max(l for l in range(top + 1) if all((k - chosen[0]) % (1 << l) == 0 for k in chosen)) if chosen else top


def _all_support_rows(d):
    """Every 0/1 row over all 2**d points with at most 2d ones."""
    dim = 1 << d
    sets = [c for size in range(min(2 * d, dim) + 1) for c in itertools.combinations(range(dim), size)]
    t = np.zeros((len(sets), dim))
    for r, chosen in enumerate(sets):
        t[r, list(chosen)] = 1.0
    return list(range(dim)), t


# --- the fold level and its weights -------------------------------------------------


@pytest.mark.parametrize("floor", [1, 3, operators_mod.FOLD_FLOOR])
def test_fold_levels_match_brute_force(monkeypatch, floor):
    monkeypatch.setattr(operators_mod, "FOLD_FLOOR", floor)
    rng = np.random.default_rng(floor)
    for d in range(1, 15):
        dim = 1 << d
        points = sorted(rng.choice(dim, size=min(dim, 3 * d), replace=False).tolist())
        t = np.zeros((64, len(points)))
        for r in range(64):
            step = 1 << int(rng.integers(0, d + 1))  # many rows share low bits
            start = int(rng.integers(0, dim))
            pool = [j for j, k in enumerate(points) if (k - start) % step == 0] or [0]
            t[r, rng.choice(pool, size=int(rng.integers(0, min(len(pool), 2 * d) + 1)), replace=False)] = 1.0
        levels = operators_mod._fold_levels(d, points, t)
        want = [_brute_level(d, [k for k, on in zip(points, row) if on], floor) for row in t]
        if d <= floor:
            assert levels is None and not any(want)
        else:
            assert levels.tolist() == want


def test_fold_levels_of_a_row_do_not_depend_on_its_batch(monkeypatch):
    monkeypatch.setattr(operators_mod, "FOLD_FLOOR", 1)
    points, t = _all_support_rows(3)
    levels = operators_mod._fold_levels(3, points, t)
    assert [operators_mod._fold_levels(3, points, t[r : r + 1])[0] for r in range(0, len(t), 37)] == levels[::37].tolist()


@pytest.mark.parametrize("d", range(1, 13))
def test_level_zero_fold_weights_are_the_mirror_weighted_spread_bit_for_bit(d):
    dim = 1 << d
    spread, extra_spread = operators_mod._fold_weights(d, 0)
    # The spread weights of the half-spectrum reduction before folding.
    want = np.full(dim // 2 + 1, 2.0)
    want[[0, -1]] = 1.0
    want *= (phase_angles(dim)[: dim // 2 + 1] - np.pi) ** 2
    assert spread.tobytes() == want.tobytes()
    assert extra_spread == 0.0


@pytest.mark.parametrize("d", [2, 5, 8, 12])
def test_fold_weights_are_orbit_sums(d):
    dim = 1 << d
    theta = [2 * math.pi * m / dim for m in range(dim)]
    for level in range(d):
        g, period = 1 << level, dim >> level
        spread, extra_spread = operators_mod._fold_weights(d, level)
        assert len(spread) == period // 2 + 1
        orbits = {m: {(s * m + j * period) % dim for j in range(g) for s in (1, -1)} for m in range(1, period // 2 + 1)}
        assert sum(map(len, orbits.values())) + g == dim  # with bin 0 and the g - 1 extra bins
        for m, orbit in orbits.items():
            want = math.fsum((theta[u] - math.pi) ** 2 for u in orbit)
            assert abs(spread[m] - want) <= 1e-15 * want, (level, m)
        want = math.fsum((theta[j * period] - math.pi) ** 2 for j in range(1, g))
        assert abs(extra_spread - want) <= 1e-15 * max(want, 1.0)


# --- folded against unfolded and the rfft oracle ------------------------------------


@pytest.mark.parametrize("d", range(1, 5))
def test_forced_fold_of_every_support_row_matches_the_unfolded_kernel_and_the_rfft_oracle(monkeypatch, d):
    points, t = _all_support_rows(d)
    unfolded = support_profile(d, points, t)
    monkeypatch.setattr(operators_mod, "FOLD_FLOOR", 1)
    assert d == 1 or operators_mod._fold_levels(d, points, t).max() == d - 1  # d = 1 is the floor: no fold
    folded = support_profile(d, points, t)
    assert folded.half_comm.tobytes() == unfolded.half_comm.tobytes()  # it reads no phase probability
    _assert_close(folded, unfolded)
    rfft = spectral_profile(_signs(d, points, t))
    _assert_close(folded, rfft)
    _assert_close(folded, rfft, rel=1e-13, floor=1e-13, names=("half_comm",))


@st.composite
def support_states(draw):
    """d <= 8, support points and 0/1 rows with at most 2d ones each, most rows on a coset of 2**v."""
    d = draw(st.integers(1, 8))
    dim = 1 << d
    sets = []
    for _ in range(draw(st.integers(1, 4))):
        step = 1 << draw(st.integers(0, d))
        start = draw(st.integers(0, dim - 1))
        point = st.integers(0, dim // step - 1).map(lambda j, s=start, q=step: (s + j * q) % dim)
        sets.append(draw(st.lists(point, max_size=min(2 * d, dim // step), unique=True)))
    points = sorted(set().union(*sets))
    t = np.array([[p in chosen for p in points] for chosen in sets], dtype=np.float64).reshape(len(sets), -1)
    return d, points, t


@settings(max_examples=150, deadline=None)
@given(support_states())
def test_forced_fold_of_hypothesis_rows_matches_the_unfolded_kernel_and_the_rfft_oracle(state):
    d, points, t = state
    unfolded = support_profile(d, points, t)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(operators_mod, "FOLD_FLOOR", 1)
        folded = support_profile(d, points, t)
        alone = [support_profile(d, points, t[r : r + 1]) for r in range(len(t))]
    assert folded.half_comm.tobytes() == unfolded.half_comm.tobytes()  # it reads no phase probability
    # Forced levels reach d - 1 (g = 128 at d = 8), far past the floor's: a last-digit
    # move of a sum is amplified by var_p's cancellation, and the square root of a bin
    # that is 0 in exact arithmetic reads the DFT table's 2**-48 rounding, weighted 2g
    # when folded.  Over 3000 examples the largest move was 5.9e-15 relative (var_p,
    # d = 8), so the bound here is that of the two-pass kernel tests, 1e-14.
    _assert_close(folded, unfolded, rel=1e-14)
    rfft = spectral_profile(_signs(d, points, t))
    _assert_close(folded, rfft, rel=1e-14)
    _assert_close(folded, rfft, rel=1e-13, floor=1e-13, names=("half_comm",))
    for r, row in enumerate(alone):  # a row's level and values do not depend on its batch
        for name in FIELDS:
            assert getattr(row, name)[0].tobytes() == getattr(folded, name)[r].tobytes(), (name, r)


def test_forced_fold_probabilities_sum_to_one_under_their_orbit_weights(monkeypatch):
    d = 4
    points, t = _all_support_rows(d)
    monkeypatch.setattr(operators_mod, "FOLD_FLOOR", 1)
    seen, real = [], operators_mod._phase_sums

    def recording(prob, scratch, d, level=0, extra=None):
        seen.append((prob.copy(), level, extra))
        return real(prob, scratch, d, level, extra)

    monkeypatch.setattr(operators_mod, "_phase_sums", recording)
    support_profile(d, points, t)
    assert sorted({level for _, level, _ in seen}) == list(range(d))
    for prob, level, extra in seen:
        g = 1 << level
        orbit = g * oracles._half_spectrum_weights(2 * (prob.shape[-1] - 1))[0]
        orbit[0] = 1.0
        total = prob @ orbit + (g - 1) * (0.0 if extra is None else extra)
        assert np.all(np.abs(total - 1.0) <= 1e-14), (level, total)


# --- 40-digit oracle at d = 12 --------------------------------------------------------


def _mp_support_profile(d, chosen):
    """The five profile values of the state (1 - 2 1_K) / sqrt(dim) from their definitions, at 40 digits.

    F_m = dim delta_m0 - 2 sum_{k in K} w**(mk) and G_m = sum_n n w**(mn) - 2 sum_{k in K} k w**(mk),
    w = exp(-2 pi i / dim), with sum_n n w**(mn) = dim (dim - 1) / 2 at m = 0 and dim / (w**m - 1)
    elsewhere: O(dim |K|) terms, not O(dim**2)."""
    mpmath.mp.dps = 40
    dim = 1 << d
    omega = [mpmath.expjpi(-2 * mpmath.mpf(j) / dim) for j in range(dim)]
    prob, cross = [], []
    for m in range(dim):
        powers = [omega[m * k % dim] for k in chosen]
        f = (dim if m == 0 else 0) - 2 * mpmath.fsum(powers)
        ramp = mpmath.mpf(dim * (dim - 1)) / 2 if m == 0 else dim / (omega[m] - 1)
        g = ramp - 2 * mpmath.fsum(k * p for k, p in zip(chosen, powers))
        prob.append(abs(f) ** 2 / dim**2)
        cross.append(mpmath.conj(g) * f)
    theta = [2 * mpmath.pi * m / dim for m in range(dim)]
    mean = mpmath.fsum(a * p for a, p in zip(theta, prob))
    return {
        "mean_p": mean,
        "var_p": mpmath.fsum((a - mean) ** 2 * p for a, p in zip(theta, prob)),
        "half_comm": abs(mpmath.im(mpmath.fsum(a * c for a, c in zip(theta, cross)))) / dim**2,
        "c_l1_phase": mpmath.fsum(mpmath.sqrt(p) for p in prob) ** 2 - 1,
        "c_rel_phase": -mpmath.fsum(p * mpmath.log(p) for p in prob if p > 0),
    }


def test_folded_rows_of_each_level_match_a_40_digit_oracle_at_d12():
    d = 12
    family = dminus1_family(d)
    points, indicators = _support_points(d, family.edges, _edge_weights(d, family.edges))
    rows = family.rows[connected_rows(d, family.edges, family.rows)]
    t = (rows.astype(np.float64) @ indicators) % 2
    levels = operators_mod._fold_levels(d, points, t)
    picks = [int(np.flatnonzero(levels == level)[-1]) for level in range(4)]
    profile = support_profile(d, points, t[picks])
    assert operators_mod._fold_levels(d, points, t[picks]).tolist() == [0, 1, 2, 3]
    for i, r in enumerate(picks):
        exact = _mp_support_profile(d, [k for k, on in zip(points, t[r]) if on])
        for name in FIELDS:
            got, want = getattr(profile, name)[i], exact[name]
            assert abs(got - want) <= 1e-14 * max(abs(want), 1), (r, name, got, want)


# --- row dots, tiles and threads -------------------------------------------------------


def test_row_dots_add_blocks_of_dot_block_columns_in_ascending_order():
    rng = np.random.default_rng(7)
    block = operators_mod.DOT_BLOCK
    for width in (1, 33, block, block + 1, 2 * block + 5):
        a, w = rng.random((5, width + 1)), rng.random(width + 1)
        got = operators_mod._row_dots(a[:, 1:], w[1:])
        for r in range(5):
            partials = [np.dot(a[r, 1 + s : 1 + s + block], w[1 + s : 1 + s + block]) for s in range(0, width, block)]
            want = partials[0]
            for partial in partials[1:]:
                want += partial
            assert got[r].tobytes() == want.tobytes(), (width, r)
            alone = operators_mod._row_dots(a[r : r + 1, 1:].copy(), w[1:])
            assert alone[0].tobytes() == got[r].tobytes(), (width, r)


FOLD_FAMILY = dminus1_family(10)


@functools.lru_cache(maxsize=None)
def _per_row_renders(floor):
    """CSV and JSON of FOLD_FAMILY's every row, each from its own ``evaluate_record``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(operators_mod, "FOLD_FLOOR", floor)
        records = oracles.columns([evaluate_record(g) for g in FOLD_FAMILY.configurations()])
    return {fmt: render_results(records, fmt) for fmt in ("csv", "json")}


@pytest.mark.parametrize("floor", [6, operators_mod.FOLD_FLOOR])
@pytest.mark.parametrize("tile", [1, 3])
@pytest.mark.parametrize("threads", [1, 2, 4])
def test_fold_invariance_under_tile_and_thread_count(monkeypatch, floor, tile, threads):
    # Floor 6 folds d = 10 rows up to level 4, the default floor up to level 1.
    want = _per_row_renders(floor)
    monkeypatch.setattr(operators_mod, "FOLD_FLOOR", floor)
    monkeypatch.setattr(operators_mod, "CHUNK_BYTES", 16 * (1 << FOLD_FAMILY.d) * tile)
    monkeypatch.setattr(sweep_mod.os, "cpu_count", lambda: threads)
    results, _ = sweep_family(FOLD_FAMILY, connectivity_filter=False, threads=threads)
    for fmt in ("csv", "json"):
        assert render_results(results, fmt) == want[fmt]


def test_row_dot_output_bytes_identical_under_blas_thread_counts():
    # d = 15 takes the rfft route over 16385 bins, so its spread dot spans two blocks.
    commands = [
        ["coherence", "--basis", "phase", "--d", "15", "--edges", "0,1;2,3", "--format", "json"],
        ["squeeze", "--d", "15", "--edges", "0,1;2,3", "--format", "json"],
        ["sweep", "--family", "dminus1", "--d", "10", "--format", "csv"],
    ]
    for argv in commands:
        outputs = set()
        for blas in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS=blas, OMP_NUM_THREADS=blas)
            env.pop("HYPERSTATE_CACHE", None)
            done = subprocess.run([sys.executable, "-m", "hyperstate.cli", *argv], env=env,
                                  capture_output=True, check=True)
            outputs.add(done.stdout)
        assert len(outputs) == 1, argv
