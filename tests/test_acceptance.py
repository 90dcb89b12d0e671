"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criterion 10's
eigenvalue-bound clause is split out as test_c10b..., which fails by
design: the stated closed form does not bound the spectrum (see the
assertion message); every computable clause around it passes.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from hyperstate.coherence import l1_coherence, rel_entropy_coherence
from hyperstate.hypergraph import Hypergraph, complete_k_graph, single_full_edge
from hyperstate.moments import agarwal_tara, m_moment_oracle, moment_sequences, mu_moment_oracle
from hyperstate.operators import (
    apply_phase_operator,
    gershgorin_bound,
    number_operator,
    number_phase_commutator_dense,
    phase_angles,
    phase_operator_dense,
    quadrature_commutator,
    variance,
    verify_structure,
)
from hyperstate.reproduce import Reproducer
from hyperstate.squeezing import squeeze_report
from hyperstate.state import hypergraph_state
from hyperstate.sweep import dminus1_family, render_results, sweep_family, write_results

from conftest import EXAMPLE_EDGES
from oracles import k_uniform_hypergraphs

EXAMPLE_SIGNS = (1, 1, 1, 1, 1, 1, 1, -1, 1, -1, 1, 1, 1, -1, 1, -1)

TABLE1_SINGLE_FULL = {
    4: -0.2238, 5: -0.6817, 6: -0.8686, 7: -0.9449, 8: -0.9764,
    9: -0.9898, 10: -0.9955, 11: -0.998, 12: -0.9991, 13: -0.9996,
}

TABLE2_EXTREMA = {
    5: (-0.0265, -0.4968), 6: (-0.0066, -0.7862),
    7: (-0.1013, -0.9113), 8: (-0.1273, -0.9633),
}

TABLE2_EDGE_SETS = {
    5: ("0,1,2,3;0,1,2,4;0,1,3,4;0,2,3,4", "0,1,2,3;0,1,2,4;0,1,3,4"),
    6: ("0,1,2,3,4;0,1,3,4,5;0,2,3,4,5;1,2,3,4,5", "0,1,2,3,4;0,1,2,3,5;0,1,2,4,5"),
    7: ("0,1,2,3,5,6;0,1,3,4,5,6;0,2,3,4,5,6;1,2,3,4,5,6",
        "0,1,2,3,4,5;0,1,2,3,4,6;0,1,2,3,5,6"),
    8: ("0,1,2,4,5,6,7;1,2,3,4,5,6,7", "0,1,2,3,4,5,6;0,1,2,3,4,6,7"),
}

TABLE3_COMPLETE_K = {
    (5, 4): -0.401, (5, 5): -0.6817,
    (6, 3): -0.5061, (6, 4): -0.664, (6, 5): -0.5307, (6, 6): -0.8686,
    (7, 3): -0.2925, (7, 4): -0.8166, (7, 5): -0.6357, (7, 6): -0.8636, (7, 7): -0.9449,
    (8, 4): -0.873, (8, 5): -0.6821, (8, 6): -0.8753, (8, 7): -0.9253, (8, 8): -0.9764,
}


@pytest.fixture(scope="module")
def sweeps():
    return {d: sweep_family(dminus1_family(d)) for d in range(4, 9)}


@pytest.fixture(scope="module")
def reproducer():
    return Reproducer()


def _announce(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS  {detail}")


def test_c01_example_state_signs():
    g = Hypergraph(4, EXAMPLE_EDGES)
    psi = hypergraph_state(g)
    assert tuple(int(round(a.real * 4)) for a in psi) == EXAMPLE_SIGNS
    assert np.all(psi.imag == 0)
    durations = []
    for _ in range(5):
        t0 = time.perf_counter()
        hypergraph_state(g)
        durations.append(time.perf_counter() - t0)
    best = min(durations)
    assert best < 1e-3, f"state construction took {best * 1e3:.3f} ms"
    _announce("C1", f"published signs exact, construction {best * 1e6:.0f} us")


def test_c02_single_full_hyperedge_table():
    start = time.perf_counter()
    for d, expected in TABLE1_SINGLE_FULL.items():
        got = squeeze_report(single_full_edge(d)).s_p
        assert got == pytest.approx(expected, abs=1e-3), f"d={d}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _announce("C2", f"10 published values within 1e-3 in {elapsed:.2f} s")


def test_c03_example_statistics():
    g = Hypergraph(4, EXAMPLE_EDGES)
    report = squeeze_report(g)
    assert report.var_p == pytest.approx(3.4312, abs=1e-3)
    assert report.var_n == pytest.approx(21.25, abs=1e-3)
    assert report.half_comm == pytest.approx(1.8624, abs=1e-3)
    dense = variance(number_operator(16), hypergraph_state(g))
    assert dense == pytest.approx(report.var_n, abs=1e-9)
    _announce("C3", "var_p, var_n, half-commutator reproduced; dense var_n agrees")


def test_c04_dminus1_extrema(sweeps, reproducer):
    start = time.perf_counter()
    for d, (pub_max, pub_min) in TABLE2_EXTREMA.items():
        summary = sweeps[d][1].metrics["s_p"]
        assert summary.max_value == pytest.approx(pub_max, abs=1e-3), f"d={d} max"
        assert summary.min_value == pytest.approx(pub_min, abs=1e-3), f"d={d} min"
        pub_max_set, pub_min_set = TABLE2_EDGE_SETS[d]
        assert pub_max_set in summary.argmax, f"d={d} max edge set"
        assert pub_min_set in summary.argmin, f"d={d} min edge set"
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    result = reproducer.check_dminus1_extrema()
    assert result.status == "PASS", result.detail
    _announce("C4", f"extrema and edge sets for d=5..8 in {elapsed:.2f} s")


@pytest.mark.extended
def test_c04_extended_dminus1_d9_to_d12():
    runner = Reproducer(extended=True, threads=8)
    result = runner.check_dminus1_extrema()
    assert result.status == "PASS", result.detail
    _announce("C4x", f"extended rows compared; {len(result.notes)} documented misprints")


def test_c05_complete_k_table():
    for (d, k), expected in TABLE3_COMPLETE_K.items():
        got = squeeze_report(complete_k_graph(d, k)).s_p
        assert got == pytest.approx(expected, abs=1e-3), f"d={d}, k={k}"
    _announce("C5", f"{len(TABLE3_COMPLETE_K)} published cells within 1e-3")


def test_c06_witness_tables():
    start = time.perf_counter()
    assert agarwal_tara(2, 2).a_n == Fraction(-1, 6)
    assert agarwal_tara(3, 2).a_n == Fraction(1, 2)
    result = agarwal_tara(3, 3)
    assert result.det_m == Fraction(-245, 4)
    assert result.det_mu == Fraction(441, 4)
    assert float(result.a_n) == pytest.approx(-0.3571, abs=1e-4)
    assert float(agarwal_tara(4, 3).a_n) == pytest.approx(-0.2160, abs=1e-4)
    assert float(agarwal_tara(5, 3).a_n) == pytest.approx(0.1862, abs=1e-4)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _announce("C6", f"A_2 exact, A_3 within 1e-4, determinants exact in {elapsed:.3f} s")


def test_c07_moment_identities(reproducer):
    for d in range(1, 7):
        m, mu = moment_sequences(d, (1 << d) - 1)
        for k in range(1 << d):
            assert m[k] == m_moment_oracle(d, k)
            assert mu[k] == mu_moment_oracle(d, k)
    result = reproducer.check_moment_identities()
    assert result.status == "PASS", result.detail
    assert any("mu_5 at d=3 printed 3526" in note for note in result.notes)
    assert any("mu_6 at d=5 printed 1.371e+18" in note for note in result.notes)
    _announce("C7", "identities exact for d<=6; misprints documented in the report")


def test_c08_a4_exact_vs_float():
    for d in (3, 4, 5):
        exact = agarwal_tara(d, 4)
        m, mu = moment_sequences(d, 6)
        m_float = np.array([[float(m[i + j]) for j in range(4)] for i in range(4)])
        mu_float = np.array([[float(mu[i + j]) for j in range(4)] for i in range(4)])
        det_m, det_mu = np.linalg.det(m_float), np.linalg.det(mu_float)
        assert det_m / (det_mu - det_m) == pytest.approx(float(exact.a_n), rel=1e-9)
    from hyperstate.reference_tables import witness_discrepancies

    flagged = witness_discrepancies(n=4)
    assert flagged, "published A_4 table inconsistencies must be reported"
    _announce("C8", f"exact/float agreement to 1e-9; {len(flagged)} cells flagged")


def test_c09_coherence(sweeps):
    ln2 = math.log(2.0)
    for d in range(1, 11):
        psi = hypergraph_state(single_full_edge(d) if d > 1 else Hypergraph(1))
        assert l1_coherence(psi) == float((1 << d) - 1), f"d={d} l1 not exact"
        assert rel_entropy_coherence(psi) == pytest.approx(d * ln2, rel=1e-12)
    summary = sweeps[4][1]
    entropy = summary.metrics["c_rel_phase"]
    l1 = summary.metrics["c_l1_phase"]
    assert entropy.max_value == pytest.approx(2.4889, abs=1e-3)
    assert entropy.min_value == pytest.approx(1.709, abs=1e-3)
    assert l1.max_value == pytest.approx(12.8646, abs=1e-3)
    assert l1.min_value == pytest.approx(7.4926, abs=1e-3)
    _announce("C9", "closed forms exact to d=10; published d=4 phase extrema reproduced")


def test_c10_structure_suite(sweeps):
    for dim in (4, 8, 16, 64, 256):
        phase_op = phase_operator_dense(dim)
        report = verify_structure(phase_op)
        assert report.hermitian.holds and report.circulant.holds, f"dim={dim}"
        fourier = np.exp(2j * np.pi * np.outer(np.arange(dim), np.arange(dim)) / dim)
        fourier /= np.sqrt(dim)
        spectral = (fourier * phase_angles(dim)) @ fourier.conj().T
        assert np.max(np.abs(phase_op - spectral)) < 1e-10, f"dim={dim}"
        comm = number_phase_commutator_dense(dim)
        comm_report = verify_structure(comm)
        assert comm_report.skew_hermitian.holds and comm_report.toeplitz.holds
        assert np.all(np.diag(comm) == 0)
        rng = np.random.default_rng(dim)
        for _ in range(3):
            psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            psi /= np.linalg.norm(psi)
            assert np.max(np.abs(apply_phase_operator(psi) - phase_op @ psi)) < 1e-10
    checked = 0
    for d in range(4, 9):
        for record in sweeps[d][0]:
            m = record.metrics
            assert m["var_n"] * m["var_p"] >= m["half_comm"] ** 2 * (1 - 1e-9), record.edges
            checked += 1
    _announce("C10", f"structure, spectral sum, FFT agreement; Robertson on {checked} states")


def test_c10b_eigenvalues_within_stated_gershgorin_formula():
    for dim in (4, 8, 16, 64, 256):
        eigenvalues = np.linalg.eigvalsh(1j * number_phase_commutator_dense(dim))
        radius = float(np.max(np.abs(eigenvalues)))
        assert radius <= gershgorin_bound(dim), (
            f"dim={dim}: spectral radius {radius:.4f} exceeds the stated closed form "
            f"{gershgorin_bound(dim):.4f}. The stated formula drops a dim**2 factor in "
            f"the row-sum evaluation and cannot bound the spectrum (at dim=2 the "
            f"commutator [[0, pi/2], [-pi/2, 0]] already has eigenvalues +-pi/2 vs a "
            f"claimed pi/8, and the published |<[N,P]>| = 3.7248 at dim=16 exceeds the "
            f"claimed 1.3806). The matrix row sums and the corrected relaxation "
            f"pi(dim-1)**2/2 do bound every eigenvalue; see test_c10_structure_suite "
            f"and the operators module."
        )
    _announce("C10b", "eigenvalues within the stated closed form")


def test_c11_quadrature_nullity(reproducer):
    states = [single_full_edge(d) for d in range(2, 7)]
    for d, k in ((3, 2), (4, 3), (5, 4), (6, 5)):
        states.extend(list(k_uniform_hypergraphs(d, k))[:10])
    for g in states:
        psi = hypergraph_state(g)
        for k in (1, 2):
            assert abs(np.vdot(psi, quadrature_commutator(len(psi), k) @ psi)) < 1e-10, g
    result = reproducer.check_quadrature_claims()
    assert result.status == "PASS", result.detail
    assert any("X^3" in note and "nonzero" in note for note in result.notes)
    assert any("X^4" in note for note in result.notes)
    _announce("C11", f"k=1,2 commutators vanish on {len(states)} states; k=3,4 recorded")


def test_c12_no_number_squeezing(reproducer):
    result = reproducer.check_no_number_squeezing()
    assert result.status == "PASS", result.detail
    assert not result.notes, "no undefined squeezing degrees expected in swept families"
    _announce("C12", result.detail)


def test_c13_thread_determinism(tmp_path):
    family = dminus1_family(6)
    records_1, _ = sweep_family(family, threads=1)
    records_8, _ = sweep_family(family, threads=8)
    for fmt in ("csv", "json"):
        path_1 = tmp_path / f"t1.{fmt}"
        path_8 = tmp_path / f"t8.{fmt}"
        write_results(records_1, path_1, fmt)
        write_results(records_8, path_8, fmt)
        assert path_1.read_bytes() == path_8.read_bytes()
        assert render_results(records_1, fmt) == render_results(records_8, fmt)
    _announce("C13", "1-thread and 8-thread sweeps byte-identical (csv and json)")
