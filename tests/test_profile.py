"""Property tests of the spectral profile against its dense and FFT oracles.

Random hypergraphs at d <= 8: the profile must agree with ``phase_stats``,
with the dense number-phase commutator, and with the coherence measures of
the phase-basis overlaps; a stacked batch must equal per-row calls bit for
bit.  Tolerances follow from float64 sums of at most 256 terms of size
<= (2 pi)**2 (means, variances) or <= 2**8 (l1 coherence).  Fixed
hypergraphs at d = 10, 12 check it against the FFT-applied commutator and
``phase_stats``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperstate.coherence import l1_coherence, rel_entropy_coherence
from hyperstate.hypergraph import Hypergraph, single_full_edge
from hyperstate.operators import number_phase_commutator_dense, spectral_profile
from hyperstate.state import hypergraph_state

from oracles import hypergraph_amplitudes, number_phase_commutator_expectation, phase_overlaps, phase_stats

FIELDS = ("mean_p", "var_p", "half_comm", "c_l1_phase", "c_rel_phase")
TOL = 1e-10

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)


def edge_sets(d: int):
    """Up to six nonempty vertex subsets of ``range(d)``, drawn as bit masks."""
    masks = st.lists(st.integers(1, (1 << d) - 1), max_size=6)
    return masks.map(lambda ms: [tuple(v for v in range(d) if m >> v & 1) for m in ms])


hypergraphs = st.integers(1, 8).flatmap(
    lambda d: edge_sets(d).map(lambda edges: Hypergraph(d, edges))
)


@PROPERTY_SETTINGS
@given(hypergraphs)
def test_phase_moments_match_phase_stats(g):
    profile = spectral_profile(hypergraph_amplitudes([g])[0])
    mean, var = phase_stats(hypergraph_state(g))
    assert float(profile.mean_p) == pytest.approx(mean, abs=TOL)
    assert float(profile.var_p) == pytest.approx(var, abs=TOL)


@PROPERTY_SETTINGS
@given(hypergraphs)
def test_half_comm_matches_dense_commutator(g):
    psi = hypergraph_state(g)
    dense = abs(np.vdot(psi, number_phase_commutator_dense(g.dim) @ psi)) / 2
    assert float(spectral_profile(psi.real).half_comm) == pytest.approx(dense, abs=TOL)


@PROPERTY_SETTINGS
@given(hypergraphs)
def test_phase_coherence_matches_overlaps(g):
    profile = spectral_profile(hypergraph_amplitudes([g])[0])
    overlaps = phase_overlaps(hypergraph_state(g))
    assert float(profile.c_l1_phase) == pytest.approx(l1_coherence(overlaps), rel=TOL, abs=TOL)
    assert float(profile.c_rel_phase) == pytest.approx(rel_entropy_coherence(overlaps), abs=TOL)


@PROPERTY_SETTINGS
@given(st.integers(1, 8).flatmap(lambda d: st.lists(edge_sets(d), min_size=1, max_size=5).map(
    lambda sets: [Hypergraph(d, edges) for edges in sets])))
def test_batch_equals_rows_bit_for_bit(graphs):
    batch = spectral_profile(hypergraph_amplitudes(graphs))
    for i, g in enumerate(graphs):
        row = spectral_profile(hypergraph_amplitudes([g])[0])
        for name in FIELDS:
            assert getattr(batch, name).shape == (len(graphs),)
            assert getattr(row, name).shape == ()
            assert getattr(batch, name)[i].tobytes() == getattr(row, name).tobytes(), name


@pytest.mark.parametrize("d", [10, 12])
def test_profile_matches_fft_oracles_beyond_dense_sizes(d):
    # The Parseval weights grow with dim, so check past the dense d <= 8 range.
    # Either route's round-off is O(eps dim) relative, about 1e-12 at d = 12.
    graphs = [
        single_full_edge(d),
        Hypergraph(d, [(0, 3), (0, 2, 3), (1, 2, 3)]),
        Hypergraph(d, [tuple(range(d - 1)), tuple(range(1, d)), (0,)]),
        Hypergraph(d, [tuple(range(1, d))]),
    ]
    profile = spectral_profile(hypergraph_amplitudes(graphs))
    for i, g in enumerate(graphs):
        psi = hypergraph_state(g)
        oracle = abs(number_phase_commutator_expectation(psi)) / 2
        assert profile.half_comm[i] == pytest.approx(oracle, rel=1e-12)
        mean, var = phase_stats(psi)
        assert profile.mean_p[i] == pytest.approx(mean, abs=1e-12)
        assert profile.var_p[i] == pytest.approx(var, abs=1e-12)


def test_profile_keeps_leading_shape():
    rng = np.random.default_rng(5)
    psi = rng.choice([-1.0, 1.0], size=(2, 3, 16)) / 4.0
    profile = spectral_profile(psi)
    flat = spectral_profile(psi.reshape(6, 16))
    for name in FIELDS:
        assert getattr(profile, name).shape == (2, 3)
        assert np.array_equal(getattr(profile, name).ravel(), getattr(flat, name))


def test_profile_rejects_bad_input():
    with pytest.raises(ValueError):
        spectral_profile(np.ones(4, dtype=complex) / 2)
    with pytest.raises(ValueError):
        spectral_profile(np.ones(6) / 6**0.5)
    with pytest.raises(ValueError):
        spectral_profile(np.ones(1))
