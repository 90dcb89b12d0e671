"""Unit tests for the truncated oscillator algebra and phase operator."""

import numpy as np
import pytest

from hyperstate.errors import GuardError
from hyperstate.hypergraph import Hypergraph, single_full_edge
from hyperstate.operators import (
    annihilation,
    apply_phase_operator,
    gershgorin_bound,
    momentum,
    number_operator,
    number_phase_commutator_dense,
    phase_angles,
    phase_operator_agreement,
    phase_operator_dense,
    position,
    quadrature_commutator,
    spectral_bound_check,
    variance,
    verify_structure,
)
from hyperstate.operators import _real_form
from hyperstate.state import hypergraph_state

from conftest import EXAMPLE_EDGES
from oracles import (
    commutator,
    creation,
    expectation,
    fourier_spectral_sum,
    gathered_phase_operator,
    gathered_structure,
    k_uniform_hypergraphs,
    number_phase_commutator_expectation,
    phase_overlaps,
    phase_state,
)


# ladder operators


def test_annihilation_2x2():
    assert np.array_equal(annihilation(2), np.array([[0, 1], [0, 0]], dtype=complex))


def test_annihilation_action():
    a = annihilation(4)
    top = np.zeros(4, dtype=complex)
    top[3] = 1.0
    assert np.allclose(a @ top, np.sqrt(3) * np.eye(4, dtype=complex)[2])
    zero = np.zeros(4, dtype=complex)
    zero[0] = 1.0
    assert np.all(a @ zero == 0)


def test_creation_is_transpose():
    assert np.array_equal(creation(5), annihilation(5).T)


def test_creation_kills_top_state():
    top = np.zeros(4, dtype=complex)
    top[3] = 1.0
    assert np.all(creation(4) @ top == 0)


def test_ladder_dim_guard():
    with pytest.raises(ValueError):
        annihilation(1)


def test_number_operator():
    n_op = number_operator(4)
    assert np.array_equal(np.diag(n_op).real, np.arange(4))
    # (sqrt(k))**2 rounds once, so the ladder product matches to one ulp
    assert np.allclose(n_op, creation(4) @ annihilation(4), rtol=0, atol=1e-14)
    assert np.trace(number_operator(7)).real == 21


def test_position_2x2():
    expected = np.array([[0, 1], [1, 0]]) / np.sqrt(2)
    assert np.allclose(position(2), expected)


def test_momentum_hermitian_imaginary_entries():
    p = momentum(6)
    assert np.allclose(p, p.conj().T)
    assert np.all(p.real == 0.0)


def test_position_momentum_commutator_closed_form():
    for dim in (2, 4, 8):
        expected = 1j * np.eye(dim, dtype=complex)
        expected[dim - 1, dim - 1] -= 1j * dim
        assert np.allclose(commutator(position(dim), momentum(dim)), expected, atol=1e-12)


def test_ladder_commutator():
    assert np.allclose(
        commutator(annihilation(4), creation(4)), np.diag([1, 1, 1, -3]).astype(complex)
    )
    n_op = number_operator(5)
    assert np.all(commutator(n_op, n_op) == 0)
    expected = np.eye(8, dtype=complex)
    expected[7, 7] = 1 - 8
    assert np.allclose(commutator(annihilation(8), creation(8)), expected)


def test_commutator_shape_mismatch():
    with pytest.raises(ValueError):
        commutator(annihilation(2), annihilation(4))


# expectation / variance


def test_number_statistics_on_d4_states():
    n_op = number_operator(16)
    for edges in ((), EXAMPLE_EDGES, ((0, 1, 2, 3),)):
        psi = hypergraph_state(Hypergraph(4, edges))
        assert abs(expectation(n_op, psi) - 7.5) < 1e-12
        assert abs(variance(n_op, psi) - 21.25) < 1e-9


def test_expectation_on_vacuum():
    vacuum = np.zeros(8, dtype=complex)
    vacuum[0] = 1.0
    assert expectation(number_operator(8), vacuum) == 0


def test_expectation_dim_mismatch():
    with pytest.raises(ValueError):
        expectation(number_operator(4), np.ones(8) / np.sqrt(8))


# phase basis


def test_phase_state_m0_uniform():
    assert np.allclose(phase_state(8, 0), np.full(8, 1 / np.sqrt(8)))


def test_phase_state_d2_m1():
    assert np.allclose(phase_state(2, 1), np.array([1, -1]) / np.sqrt(2))


def test_phase_states_orthonormal():
    dim = 8
    basis = np.column_stack([phase_state(dim, m) for m in range(dim)])
    assert np.max(np.abs(basis.conj().T @ basis - np.eye(dim))) < 1e-12


def test_phase_state_resolution_of_identity():
    dim = 16
    total = sum(np.outer(phase_state(dim, m), phase_state(dim, m).conj()) for m in range(dim))
    assert np.max(np.abs(total - np.eye(dim))) < 1e-12


def test_phase_state_index_range():
    with pytest.raises(ValueError):
        phase_state(8, 8)


def test_phase_overlaps_edgeless_is_theta0():
    overlaps = phase_overlaps(hypergraph_state(Hypergraph(3)))
    expected = np.zeros(8, dtype=complex)
    expected[0] = 1.0
    assert np.max(np.abs(overlaps - expected)) < 1e-12


def test_phase_overlaps_parseval(example_hypergraph):
    overlaps = phase_overlaps(hypergraph_state(example_hypergraph))
    assert abs(np.sum(np.abs(overlaps) ** 2) - 1.0) < 1e-12


def test_phase_overlaps_match_direct_inner_products(example_hypergraph):
    psi = hypergraph_state(example_hypergraph)
    overlaps = phase_overlaps(psi)
    direct = np.array([np.vdot(phase_state(16, m), psi) for m in range(16)])
    assert np.max(np.abs(overlaps - direct)) < 1e-12


def test_phase_overlaps_requires_power_of_two():
    with pytest.raises(ValueError):
        phase_overlaps(np.ones(6) / np.sqrt(6))


# dense phase operator


def test_phase_operator_dense_2x2_closed_form():
    expected = np.array([[np.pi / 2, -np.pi / 2], [-np.pi / 2, np.pi / 2]], dtype=complex)
    assert np.max(np.abs(phase_operator_dense(2) - expected)) < 1e-12


def test_phase_operator_dense_structure():
    report = verify_structure(phase_operator_dense(16))
    assert report.hermitian.holds and report.circulant.holds
    assert not report.skew_hermitian.holds


def test_phase_operator_dense_eigenvalues_are_angles():
    dim = 8
    eigenvalues = np.sort(np.linalg.eigvalsh(phase_operator_dense(dim)))
    assert np.max(np.abs(eigenvalues - phase_angles(dim))) < 1e-10


def test_phase_operator_dense_equals_spectral_sum():
    for dim in (4, 16, 64):
        spectral = sum(
            theta * np.outer(phase_state(dim, m), phase_state(dim, m).conj())
            for m, theta in enumerate(phase_angles(dim))
        )
        assert np.max(np.abs(phase_operator_dense(dim) - spectral)) < 1e-10


def test_phase_operator_dense_is_the_gather_bit_for_bit():
    for dim in (1 << j for j in range(11)):  # dim 1 .. 1024
        built, gathered = phase_operator_dense(dim), gathered_phase_operator(dim)
        assert built.tobytes() == gathered.tobytes(), dim  # every bit, the sign of zero included
        assert built.flags.c_contiguous and built.flags.writeable, dim
        built[0, 0] = 0.0  # its own memory, no view of a shared vector
        assert built[-1, -1] == gathered[-1, -1]


def _structured_matrices(rng, dim):
    """A random complex, the identity, a random Toeplitz and a random circulant matrix."""
    column, row = (rng.normal(size=(2, dim)) + 1j * rng.normal(size=(2, dim)))
    k = np.arange(dim)
    diff = k[:, None] - k[None, :]
    return {
        "random": rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)),
        "identity": np.eye(dim, dtype=complex),
        "toeplitz": np.where(diff >= 0, column[np.abs(diff)], row[np.abs(diff)]),
        "circulant": column[diff % dim],
    }


def test_verify_structure_matches_the_gathered_oracle():
    rng = np.random.default_rng(25)
    for dim in range(1, 66):  # powers of two and all the sizes between them
        for name, op in _structured_matrices(rng, dim).items():
            assert verify_structure(op).to_dict() == gathered_structure(op), (name, dim)
    report = verify_structure(_structured_matrices(rng, 12)["toeplitz"])
    assert report.toeplitz.holds and report.toeplitz.max_deviation == 0.0


def test_phase_operator_agreement_spectral_error_is_at_round_off():
    rng = np.random.default_rng(7)
    for dim in (1 << j for j in range(11)):  # dim 1 .. 1024
        state = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        spectral_error, fft_error = phase_operator_agreement(phase_operator_dense(dim), [state / np.linalg.norm(state)])
        assert spectral_error < 4e-15, dim
        assert fft_error < 1e-12, dim


def test_per_difference_spectral_sum_matches_the_fourier_product():
    # With the dim**3 product as the phase operator, the spectral error is the
    # largest gap between it and the circulant of the per-difference sums.
    for dim in (1 << j for j in range(9)):  # dim 1 .. 256
        product = fourier_spectral_sum(dim)
        assert phase_operator_agreement(product, [np.eye(dim)[0]])[0] < 4e-15, dim


def test_planted_phase_operator_error_fails_the_spectral_sum_and_c10(monkeypatch):
    import hyperstate.reproduce as reproduce_mod

    def planted(dim):
        op = phase_operator_dense(dim)
        if dim == 256:
            op[3, 7] += 1e-9
        return op

    op = planted(256)
    # Within the structure checks' tolerance 1e-10 * dim, but not the spectral sum's 1e-10.
    assert verify_structure(op).hermitian.holds and verify_structure(op).circulant.holds
    assert phase_operator_agreement(op, [np.eye(256)[0]])[0] > 1e-10
    monkeypatch.setattr(reproduce_mod, "phase_operator_dense", planted)
    result = reproduce_mod.Reproducer().check_structure_suite()
    assert result.status == "FAIL"
    assert result.detail.startswith("dim=256: entry formula differs from spectral sum")


def test_phase_operator_agreement_guard_counts_bytes():
    # A zero-stride view: the 16 dim**2 bytes of a dense operator at dim 8192 do not exist.
    with pytest.raises(GuardError, match="spectral sum at dim=8192 needs .* beyond the byte budget"):
        phase_operator_agreement(np.broadcast_to(0j, (8192, 8192)), [])


def test_phase_operator_dense_guard():
    with pytest.raises(GuardError):
        phase_operator_dense(8192)


def test_apply_phase_operator_on_eigenvector():
    dim = 8
    vec = phase_state(dim, 3)
    assert np.max(np.abs(apply_phase_operator(vec) - phase_angles(dim)[3] * vec)) < 1e-12


def test_apply_phase_operator_kills_theta0():
    psi = hypergraph_state(Hypergraph(3))
    assert np.max(np.abs(apply_phase_operator(psi))) < 1e-12


def test_apply_phase_operator_matches_dense():
    rng = np.random.default_rng(5)
    for dim in (16, 64, 256):
        dense = phase_operator_dense(dim)
        for _ in range(3):
            psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            psi /= np.linalg.norm(psi)
            assert np.max(np.abs(apply_phase_operator(psi) - dense @ psi)) < 1e-10


# number/phase commutator


def test_commutator_dense_matches_matrix_arithmetic():
    for dim in (4, 16):
        direct = commutator(number_operator(dim), phase_operator_dense(dim))
        assert np.max(np.abs(number_phase_commutator_dense(dim) - direct)) < 1e-12


def test_commutator_dense_structure():
    report = verify_structure(number_phase_commutator_dense(16))
    assert report.skew_hermitian.holds and report.toeplitz.holds
    assert not report.circulant.holds
    assert np.all(np.diag(number_phase_commutator_dense(16)) == 0)


def test_commutator_expectation_example_half_value(example_hypergraph):
    psi = hypergraph_state(example_hypergraph)
    value = number_phase_commutator_expectation(psi)
    assert abs(value.real) < 1e-12
    assert abs(abs(value) / 2 - 1.8624) < 1e-3


def test_commutator_expectation_vanishes_on_phase_states():
    for m in (0, 3, 7):
        assert abs(number_phase_commutator_expectation(phase_state(8, m))) < 1e-10


def test_commutator_expectation_matches_dense():
    rng = np.random.default_rng(9)
    for dim in (16, 256):
        dense = number_phase_commutator_dense(dim)
        for _ in range(3):
            psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            psi /= np.linalg.norm(psi)
            assert abs(number_phase_commutator_expectation(psi) - np.vdot(psi, dense @ psi)) < 1e-10


# bounds


def test_gershgorin_bound_values():
    assert abs(gershgorin_bound(4) - 9 * np.pi / 32) < 1e-15
    assert abs(gershgorin_bound(2) - np.pi / 8) < 1e-15


def test_row_sum_bound_contains_spectrum():
    for dim in (2, 8, 64):
        radius = np.max(np.abs(np.linalg.eigvalsh(1j * number_phase_commutator_dense(dim))))
        assert radius <= spectral_bound_check(dim).row_sum_bound * (1 + 1e-12)
        assert radius <= np.pi * (dim - 1) ** 2 / 2


def _assert_real_form_spectrum(comm):
    """The real form's spectrum is eigvalsh(1j * comm) within 1e-12 max(1, radius); returns the radius."""
    want = np.linalg.eigvalsh(1j * comm)
    radius = float(np.max(np.abs(want), initial=0.0))
    assert np.max(np.abs(np.linalg.eigvalsh(_real_form(comm)) - want)) <= 1e-12 * max(1.0, radius)
    return radius


def test_real_form_spectrum_matches_complex_eigvalsh_for_number_phase_commutator():
    k = np.arange(256)
    for dim in range(1, 257):  # the entry formula holds at every dim, a power of two or not
        comm = (k[:dim, None] - k[None, :dim]) * gathered_phase_operator(dim)
        radius = _assert_real_form_spectrum(comm)
        if not dim & (dim - 1):
            got = spectral_bound_check(dim).spectral_radius
            assert abs(got - radius) <= 1e-12 * max(1.0, radius), dim


def test_real_form_spectrum_matches_complex_eigvalsh_for_random_hermitian_toeplitz():
    rng = np.random.default_rng(27)
    for dim in (*range(1, 65), 100, 127, 128, 255, 256):
        k = np.arange(dim)
        diff = k[:, None] - k[None, :]
        for scale in (1e-3, 1.0, 1e3):
            h = scale * (rng.normal(size=dim) + 1j * rng.normal(size=dim))
            h[0] = h[0].real
            hermitian = np.where(diff >= 0, h[np.abs(diff)], h[np.abs(diff)].conj())
            _assert_real_form_spectrum(-1j * hermitian)  # the skew-Hermitian C with i C = H


def test_spectral_bound_check_refuses_a_commutator_of_another_dim():
    with pytest.raises(ValueError, match=r"dim=4 must have shape \(4, 4\), got \(8, 8\)"):
        spectral_bound_check(4, number_phase_commutator_dense(8))
    with pytest.raises(ValueError, match="shape"):
        spectral_bound_check(4, number_phase_commutator_dense(4)[:, :3])


def _bound_and_expectation(psi):
    """``spectral_bound_check`` at len(psi) and |<psi|[N, P]|psi>|."""
    comm = number_phase_commutator_dense(len(psi))
    return spectral_bound_check(len(psi), comm), abs(np.vdot(psi, comm @ psi))


def test_spectral_bound_check(example_hypergraph):
    report, expect = _bound_and_expectation(hypergraph_state(example_hypergraph))
    assert expect <= report.spectral_radius and report.within_row_sum
    assert expect == pytest.approx(2 * 1.8624, abs=2e-3)
    report0, expect0 = _bound_and_expectation(phase_state(8, 0))
    assert expect0 <= report0.spectral_radius and expect0 < 1e-10
    report2, expect2 = _bound_and_expectation(hypergraph_state(Hypergraph(2)))
    assert expect2 <= report2.spectral_radius


def test_c10b_reads_the_spectral_bounds_of_c10(monkeypatch):
    import hyperstate.reproduce as reproduce_mod

    alone = reproduce_mod.Reproducer().check_stated_eigenvalue_bound()
    assert alone.status == "FAIL" and alone.detail.startswith("dim=4: spectral radius 5.1239 > stated 0.8836")
    runner = reproduce_mod.Reproducer()
    assert runner.check_structure_suite().status == "PASS"

    def rebuilt(*args):
        raise AssertionError("C10b redid C10's work")

    monkeypatch.setattr(reproduce_mod, "spectral_bound_check", rebuilt)
    monkeypatch.setattr(reproduce_mod, "number_phase_commutator_dense", rebuilt)
    monkeypatch.setattr(np.linalg, "eigvalsh", rebuilt)
    assert runner.check_stated_eigenvalue_bound() == alone


def test_spectral_bound_check_guard():
    with pytest.raises(GuardError):
        spectral_bound_check(512)


# quadrature commutators


def _quadrature_expectation(psi, k):
    return complex(np.vdot(psi, quadrature_commutator(len(psi), k) @ psi))


def test_quadrature_commutator_vanishes_k1_k2():
    for g in list(k_uniform_hypergraphs(3, 2)) + [single_full_edge(4), Hypergraph(4, EXAMPLE_EDGES)]:
        psi = hypergraph_state(g)
        assert abs(_quadrature_expectation(psi, 1)) < 1e-10
        assert abs(_quadrature_expectation(psi, 2)) < 1e-10


def test_quadrature_commutator_k3_nonzero_regression():
    value = _quadrature_expectation(hypergraph_state(single_full_edge(3)), 3)
    assert abs(value.real) < 1e-10
    assert value.imag == pytest.approx(-17.77881974235878, abs=1e-6)


def test_quadrature_commutator_k4_vanishes():
    value = _quadrature_expectation(hypergraph_state(single_full_edge(3)), 4)
    assert abs(value) < 1e-10


def test_quadrature_commutator_guard_and_range():
    with pytest.raises(GuardError):
        quadrature_commutator(512, 1)
    with pytest.raises(ValueError):
        quadrature_commutator(4, 0)


# structure report


def test_verify_structure_identity():
    report = verify_structure(np.eye(6, dtype=complex))
    assert report.hermitian.holds and report.toeplitz.holds and report.circulant.holds
    assert not report.skew_hermitian.holds  # identity is not skew


def test_verify_structure_toeplitz_not_circulant():
    column = np.arange(5, dtype=float)
    matrix = np.empty((5, 5), dtype=complex)
    for i in range(5):
        for j in range(5):
            matrix[i, j] = column[abs(i - j)]
    report = verify_structure(matrix)
    assert report.toeplitz.holds and not report.circulant.holds


def test_verify_structure_rejects_nonsquare():
    with pytest.raises(ValueError):
        verify_structure(np.zeros((2, 3)))
