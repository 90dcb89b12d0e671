"""Unit tests for the l1 and relative-entropy coherence measures."""

import math

import numpy as np
import pytest

from hyperstate.coherence import coherence_report, l1_coherence, rel_entropy_coherence
from hyperstate.errors import GuardError
from hyperstate.hypergraph import Hypergraph, complete_k_graph, single_full_edge
from hyperstate.state import hypergraph_state

from conftest import random_hypergraph
from oracles import phase_overlaps, phase_state


def test_number_basis_l1_closed_form_exact():
    for d in range(1, 11):
        g = single_full_edge(d) if d > 1 else Hypergraph(1)
        assert l1_coherence(hypergraph_state(g)) == float((1 << d) - 1)


def test_number_basis_entropy_closed_form():
    for d in range(1, 11):
        for g in (Hypergraph(d), single_full_edge(d)):
            value = rel_entropy_coherence(hypergraph_state(g))
            assert value == pytest.approx(d * math.log(2.0), rel=1e-12)


def test_basis_state_has_no_coherence():
    basis_vec = np.zeros(8, dtype=complex)
    basis_vec[5] = 1.0
    assert l1_coherence(basis_vec) == 0.0
    assert rel_entropy_coherence(basis_vec) == 0.0


def test_phase_overlaps_map_phase_state_to_basis_vector():
    coeffs = phase_overlaps(phase_state(8, 3))
    expected = np.zeros(8, dtype=complex)
    expected[3] = 1.0
    assert np.max(np.abs(coeffs - expected)) < 1e-12


def test_phase_overlaps_preserve_norm():
    rng = np.random.default_rng(3)
    for _ in range(5):
        psi = rng.normal(size=16) + 1j * rng.normal(size=16)
        psi /= np.linalg.norm(psi)
        assert abs(np.linalg.norm(phase_overlaps(psi)) - 1.0) < 1e-12


def test_edgeless_state_has_no_phase_coherence():
    report = coherence_report(Hypergraph(3), "phase")
    assert report.c_l1 == pytest.approx(0.0, abs=1e-12)
    assert report.c_rel_ent == pytest.approx(0.0, abs=1e-12)


def test_global_phase_invariance():
    rng = np.random.default_rng(8)
    psi = hypergraph_state(single_full_edge(4))
    rotated = np.exp(1.234j) * psi
    assert l1_coherence(rotated) == pytest.approx(l1_coherence(psi), rel=1e-12)
    assert rel_entropy_coherence(rotated) == pytest.approx(
        rel_entropy_coherence(psi), rel=1e-12
    )


def test_l1_shortcut_equals_double_sum():
    rng = np.random.default_rng(21)
    for _ in range(10):
        d = int(rng.integers(1, 7))
        psi = rng.normal(size=1 << d) + 1j * rng.normal(size=1 << d)
        psi /= np.linalg.norm(psi)
        mags = np.abs(psi)
        double_sum = float(np.sum(np.outer(mags, mags)) - np.sum(mags**2))
        assert l1_coherence(psi) == pytest.approx(double_sum, abs=1e-10)


def test_coherence_bounds_on_random_states():
    rng = np.random.default_rng(31)
    for _ in range(10):
        d = int(rng.integers(1, 7))
        dim = 1 << d
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        psi /= np.linalg.norm(psi)
        assert -1e-12 <= rel_entropy_coherence(psi) <= d * math.log(2.0) + 1e-12
        assert -1e-12 <= l1_coherence(psi) <= dim - 1 + 1e-9


def test_report_number_basis(example_hypergraph):
    report = coherence_report(example_hypergraph, "number")
    assert report.c_l1 == 15.0
    assert report.c_rel_ent == pytest.approx(4 * math.log(2.0), rel=1e-12)
    assert report.basis == "number"
    assert report.edges == "0,3;0,2,3;1,2,3"


def test_report_number_basis_builds_no_state(monkeypatch):
    import hyperstate.state as state_mod

    def boom(*args, **kwargs):
        raise AssertionError("the number basis needs no state")

    monkeypatch.setattr(state_mod, "membership_signs", boom)
    report = coherence_report(Hypergraph(40, [(0, 39)]), "number")
    assert report.c_l1 == float(2**40 - 1)
    assert report.c_rel_ent == 40 * math.log(2.0)


def test_report_number_basis_matches_the_general_measures():
    rng = np.random.default_rng(11)
    for _ in range(10):
        g = random_hypergraph(rng, int(rng.integers(1, 9)))
        report, psi = coherence_report(g, "number"), hypergraph_state(g)
        assert report.c_l1 == l1_coherence(psi)
        assert report.c_rel_ent == pytest.approx(rel_entropy_coherence(psi), rel=1e-12)


def test_report_phase_basis_published_extrema_d4():
    complete = coherence_report(complete_k_graph(4, 3), "phase")
    assert complete.c_rel_ent == pytest.approx(2.4889, abs=1e-3)
    assert complete.c_l1 == pytest.approx(12.8646, abs=1e-3)
    minimal = coherence_report(Hypergraph(4, [(0, 2, 3), (1, 2, 3)]), "phase")
    assert minimal.c_rel_ent == pytest.approx(1.709, abs=1e-3)
    assert minimal.c_l1 == pytest.approx(7.4926, abs=1e-3)


def test_report_phase_basis_regression(example_hypergraph):
    report = coherence_report(example_hypergraph, "phase")
    assert report.c_l1 == pytest.approx(10.656854249492381, rel=1e-12)
    assert report.c_rel_ent == pytest.approx(2.2527283368198225, rel=1e-12)


def test_random_hypergraph_closed_forms():
    rng = np.random.default_rng(97)
    for _ in range(10):
        g = random_hypergraph(rng, int(rng.integers(1, 8)))
        psi = hypergraph_state(g)
        assert l1_coherence(psi) == float(g.dim - 1)
        assert rel_entropy_coherence(psi) == pytest.approx(g.d * math.log(2.0), rel=1e-12)


def test_guards_and_errors():
    with pytest.raises(GuardError):
        coherence_report(Hypergraph(24), "phase")
    with pytest.raises(ValueError):
        coherence_report(Hypergraph(2), "fock")
    with pytest.raises(ValueError):
        l1_coherence(np.zeros(4, dtype=complex))
    with pytest.raises(ValueError):
        rel_entropy_coherence(np.zeros(4, dtype=complex))
