"""The phase-moment reduction and the support spectrum against the two-pass kernel they replaced.

``oracles._phase_moments`` reduces the half-spectrum phase probabilities with
explicit mirror weights and normalized probabilities, and
``oracles.support_probabilities`` squares the support route's spectrum in
seven passes; patched into a sweep they give the earlier results version bit
for bit.  The package reads each mirror-weighted sum as twice a plain row sum
less the end bins and takes c_rel_phase as log T - (sum p log p) / T, which
moves a value by a few ulps: the bound is 1e-14 relative, plus 1e-15 for
values that vanish, whose round-off is that of the O(1) total they are
formed from.  half_comm reads no phase probability; on the support route it
is held against the rfft route at that test's 1e-13 of max(|x|, 1).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperstate.operators as operators_mod
import hyperstate.state as state_mod
from hyperstate.operators import spectral_profile, support_profile
from hyperstate.sweep import dminus1_family, sweep_family

from oracles import (
    _half_spectrum_weights,
    _phase_moments,
    rfft_probabilities,
    support_probabilities,
    two_pass_support_profile,
)

MOMENTS = ("mean_p", "var_p", "c_l1_phase", "c_rel_phase")
PROPERTY_SETTINGS = settings(max_examples=80, deadline=None)


def _close(got, want, rel=1e-14, floor=1e-15):
    return abs(got - want) <= rel * abs(want) + floor


@st.composite
def support_states(draw):
    """d <= 12, support points and 0/1 rows with at most 2d ones each."""
    d = draw(st.integers(1, 12))
    point = st.integers(0, (1 << d) - 1)
    sets = draw(st.lists(st.lists(point, max_size=2 * d, unique=True), min_size=1, max_size=4))
    points = sorted(set().union(*sets))
    t = np.array([[p in chosen for p in points] for chosen in sets], dtype=np.float64).reshape(len(sets), -1)
    return d, points, t


@st.composite
def sign_states(draw):
    """Rows of random +-1 / sqrt(2**d) amplitudes at d <= 12."""
    d = draw(st.integers(1, 12))
    rows = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.choice([-1.0, 1.0], size=(rows, 1 << d)) / np.sqrt(float(1 << d))


def _amplitudes(d, points, t):
    psi = np.ones((len(t), 1 << d))
    psi[:, points] -= 2.0 * t
    return psi / np.sqrt(float(1 << d))


@PROPERTY_SETTINGS
@given(support_states())
def test_support_route_matches_the_two_pass_kernel(state):
    d, points, t = state
    profile = support_profile(d, points, t)
    oracle = dict(zip(MOMENTS, _phase_moments(support_probabilities(d, points, t.copy()))))
    rfft = spectral_profile(_amplitudes(d, points, t))
    for r in range(len(t)):
        for name in MOMENTS:
            assert _close(getattr(profile, name)[r], oracle[name][r]), (name, r)
        assert _close(profile.half_comm[r], rfft.half_comm[r], rel=1e-13, floor=1e-13), r


@PROPERTY_SETTINGS
@given(sign_states())
def test_rfft_route_matches_the_two_pass_kernel(psi):
    profile = spectral_profile(psi)
    oracle = dict(zip(MOMENTS, _phase_moments(rfft_probabilities(psi))))
    dim = psi.shape[-1]
    f = np.fft.rfft(psi, axis=-1)
    g = np.fft.rfft(psi * np.arange(dim), axis=-1)
    weight = 2.0 * _half_spectrum_weights(dim)[1]
    weight[[0, -1]] = 0.0
    half_comm = np.abs(np.sum((g.real * f.imag - g.imag * f.real) * weight, axis=-1)) / dim
    for r in range(len(psi)):
        for name in MOMENTS:
            assert _close(getattr(profile, name)[r], oracle[name][r]), (name, r)
        assert _close(profile.half_comm[r], half_comm[r]), r


@PROPERTY_SETTINGS
@given(sign_states(), st.sampled_from([0.25, 3.0]))
def test_reduction_of_unnormalized_probabilities_matches_the_two_pass_kernel(psi, factor):
    # A state's total is 1 up to round-off, so only a scaled input shows the log T term.
    prob = factor * rfft_probabilities(psi)
    d = psi.shape[-1].bit_length() - 1
    got = operators_mod._phase_moments(*operators_mod._phase_sums(prob.copy(), np.empty_like(prob), d))
    for name, value, want in zip(MOMENTS, got, _phase_moments(prob.copy())):
        assert all(_close(a, b) for a, b in zip(value, want)), name


def _reduced_probabilities(monkeypatch):
    """Record a copy of every probability array the routes hand to the reduction, with its d,
    fold level and extra term."""
    seen = []
    real = operators_mod._phase_sums

    def recording(prob, scratch, d, level=0, extra=None):
        seen.append((prob.copy(), d, level, None if extra is None else extra.copy()))
        return real(prob, scratch, d, level, extra)

    monkeypatch.setattr(operators_mod, "_phase_sums", recording)
    return seen


def _assert_mirror_sums_are_one(seen):
    # Under the orbit weights of its fold level, 1 at m = 0, 2g for 0 < m < P/2 and g at
    # m = P/2, plus g - 1 times the extra term: the mirror weights at level 0.
    assert seen
    for prob, d, level, extra in seen:
        g = 1 << level
        assert 2 * (prob.shape[-1] - 1) * g == 1 << d
        orbit = g * _half_spectrum_weights(2 * (prob.shape[-1] - 1))[0]
        orbit[0] = 1.0
        total = np.sum(orbit * prob, axis=-1) + (g - 1) * (0.0 if extra is None else extra)
        assert np.all(np.abs(total - 1.0) <= 1e-13), total


@PROPERTY_SETTINGS
@given(support_states())
def test_support_route_phase_probabilities_sum_to_one(state):
    with pytest.MonkeyPatch.context() as monkeypatch:
        seen = _reduced_probabilities(monkeypatch)
        support_profile(*state)
    _assert_mirror_sums_are_one(seen)


@PROPERTY_SETTINGS
@given(sign_states())
def test_rfft_route_phase_probabilities_sum_to_one(psi):
    with pytest.MonkeyPatch.context() as monkeypatch:
        seen = _reduced_probabilities(monkeypatch)
        spectral_profile(psi)
    _assert_mirror_sums_are_one(seen)


def _two_pass_sweep(monkeypatch, d):
    with monkeypatch.context() as patch:
        patch.setattr(state_mod, "support_profile", two_pass_support_profile)
        return sweep_family(dminus1_family(d))


def _assert_summaries_agree(monkeypatch, d):
    records, summary = sweep_family(dminus1_family(d))
    old_records, old_summary = _two_pass_sweep(monkeypatch, d)
    assert records.edges == old_records.edges
    moved = np.abs(records.values - old_records.values)
    assert np.all((moved <= 1e-14 * np.abs(old_records.values)) | np.isnan(moved)), d
    for name, metric in summary.metrics.items():
        old = old_summary.metrics[name]
        assert (metric.argmin, metric.argmax) == (old.argmin, old.argmax), name
        assert _close(metric.min_value, old.min_value) and _close(metric.max_value, old.max_value), name


@pytest.mark.parametrize("d", range(4, 13))
def test_dminus1_summaries_equal_the_two_pass_kernel(monkeypatch, d):
    _assert_summaries_agree(monkeypatch, d)


@pytest.mark.extended
@pytest.mark.parametrize("d", [13, 14])
def test_large_dminus1_summaries_equal_the_two_pass_kernel(monkeypatch, d):
    _assert_summaries_agree(monkeypatch, d)


def test_d3_coherence_ties_as_rounding_decides_them():
    # The (d-1)-graphs 0,1;0,2 and 0,1;1,2 and 0,1;0,2;1,2 are equal in exact
    # arithmetic in both coherences (the maximum), so round-off alone picks
    # which of them tie in float64.  The two-pass kernel listed only
    # 0,1;0,2;1,2 as the maximum, and a support spectrum scaled by a rounded
    # sqrt(8) also 0,1;1,2.  Scaled by exact powers of two, the spectrum gives
    # all three the same coherences to the last bit, so all three tie, as in
    # exact arithmetic.
    _, summary = sweep_family(dminus1_family(3))
    for name in ("c_l1_phase", "c_rel_phase"):
        metric = summary.metrics[name]
        assert metric.argmin == ("0,2;1,2",), name
        assert metric.argmax == ("0,1;0,2", "0,1;0,2;1,2", "0,1;1,2"), name
