"""Unit tests for the exact-rational moment and witness machinery."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import hyperstate.moments as moments_mod
from hyperstate.errors import MAX_WITNESS_BITS, GuardError
from hyperstate.hypergraph import Hypergraph, complete_k_graph, single_full_edge
from hyperstate.moments import (
    agarwal_tara,
    determinant,
    m_hankel_determinant,
    m_moment_oracle,
    moment_sequences,
    mu_hankel_determinant,
    mu_moment_oracle,
    presentable,
    stirling_coefficients,
    w_factor,
)
from hyperstate.operators import annihilation
from hyperstate.reference_tables import witness_discrepancies
from hyperstate.state import hypergraph_state

import oracles


# W factors


def test_w_factor_values():
    assert w_factor(3, 3) == Fraction(15, 4)
    assert w_factor(2, 3) == Fraction(3, 4)
    for d in (2, 3, 4, 6):
        top = (1 << d) - 1
        assert w_factor(d, top) == Fraction(top, 1 << d)


def test_w_factor_range():
    with pytest.raises(ValueError):
        w_factor(2, 0)
    with pytest.raises(ValueError):
        w_factor(2, 4)


# factorial moments


def test_m_moment_values():
    assert moment_sequences(2, 2)[0][2] == 2
    assert moment_sequences(3, 4)[0][4] == 168
    assert moment_sequences(4, 0)[0] == (1,)


def test_m_moment_oracle_values():
    assert m_moment_oracle(3, 2) == 14
    assert m_moment_oracle(2, 1) == Fraction(3, 2)
    assert m_moment_oracle(5, 0) == 1


def test_m_moment_agrees_with_oracle_exactly():
    """The last m of a pass that stops at k is the oracle's m_k, for every k."""
    for d in range(1, 7):
        for k in range((1 << d)):
            assert moment_sequences(d, k)[0][-1] == m_moment_oracle(d, k)


# Stirling coefficients


def test_stirling_published_cells():
    rows = stirling_coefficients(6)
    assert len(rows) == 6
    assert rows[3][1] == 7  # S(4, 2)
    assert rows[3][2] == 6
    assert rows[5][2] == 90
    assert rows[5][3] == 65
    for k in range(1, 7):
        assert len(rows[k - 1]) == k
        assert rows[k - 1][0] == rows[k - 1][-1] == 1


def _partitions(items):
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for partial in _partitions(rest):
        for i in range(len(partial)):
            yield partial[:i] + [partial[i] + [head]] + partial[i + 1 :]
        yield [[head]] + partial


def test_stirling_matches_set_partition_counts():
    """S(k, j) counts partitions of a k-set into j nonempty blocks."""
    rows = stirling_coefficients(8)
    for k in range(1, 9):
        counts = {}
        for partition in _partitions(list(range(k))):
            counts[len(partition)] = counts.get(len(partition), 0) + 1
        assert rows[k - 1] == tuple(counts[j] for j in range(1, k + 1))


def test_stirling_rows_sum_to_bell_numbers():
    """Row sums are the Bell numbers, derived here via the Bell triangle."""
    bells = [1]
    row = [1]
    for _ in range(8):
        next_row = [row[-1]]
        for value in row:
            next_row.append(next_row[-1] + value)
        row = next_row
        bells.append(row[0])
    rows = stirling_coefficients(8)
    for k in range(1, 9):
        assert sum(rows[k - 1]) == bells[k]


# number-operator moments


def test_mu_moment_values():
    mu = moment_sequences(3, 5)[1]
    assert mu[4] == Fraction(1169, 2)  # 584.5
    assert mu[5] == 3626
    for d in (2, 3, 5):
        assert moment_sequences(d, 1)[1][1] == Fraction((1 << d) - 1, 2)


def test_mu_moment_oracle_values():
    assert mu_moment_oracle(3, 6) == Fraction(46205, 2)  # 23102.5
    assert mu_moment_oracle(2, 2) == Fraction(7, 2)
    assert mu_moment_oracle(4, 0) == 1


def test_mu_moment_agrees_with_oracle_exactly():
    """The last mu of a pass that stops at k is the oracle's mu_k, for every k."""
    for d in range(1, 7):
        for k in range(1, 1 << d):
            assert moment_sequences(d, k)[1][-1] == mu_moment_oracle(d, k)


def test_moments_match_dense_expectations():
    """<(a+)^k a^k> from dense ladder matrices, for two hypergraphs per d."""
    for d in range(2, 6):
        dim = 1 << d
        lower = annihilation(dim)
        m = moment_sequences(d, dim - 1)[0]
        for g in (single_full_edge(d), complete_k_graph(d, 2)):
            vec = hypergraph_state(g)
            for k in range(1, dim):
                vec = lower @ vec
                dense = float(np.vdot(vec, vec).real)
                exact = float(m[k])
                assert dense == pytest.approx(exact, rel=1e-9, abs=1e-12)


def test_moment_sequences_agree_with_oracles_exactly():
    for d in range(1, 7):
        top = (1 << d) - 1
        m, mu = moment_sequences(d, top)
        assert m == tuple(m_moment_oracle(d, k) for k in range(top + 1))
        assert mu == tuple(mu_moment_oracle(d, k) for k in range(top + 1))


def test_moment_sequences_range():
    assert moment_sequences(3, 0) == ((Fraction(1),), (Fraction(1),))
    with pytest.raises(ValueError):
        moment_sequences(2, 4)
    with pytest.raises(ValueError):
        moment_sequences(0, 0)


def test_moment_set_bundle():
    """m_k = W_1 ... W_k: each m of one pass is the one before it times w_factor."""
    for d in range(1, 7):
        top = (1 << d) - 1
        m = moment_sequences(d, top)[0]
        w = [w_factor(d, k) for k in range(1, top + 1)]
        assert all(x > 0 for x in w)
        for k in range(1, top + 1):
            assert m[k] == m[k - 1] * w[k - 1], (d, k)


# determinants


def test_determinant_known_values():
    matrix = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]
    assert determinant(matrix) == -2
    assert determinant([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]) == -1
    singular = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert determinant(singular) == 0


def test_determinant_rejects_nonsquare():
    with pytest.raises(ValueError):
        determinant([[Fraction(1), Fraction(2)]])


def test_determinant_of_empty_matrix_is_one():
    assert determinant([]) == Fraction(1)


def test_determinant_int_and_float_entries_are_exact():
    assert determinant([[2, 3], [4, 5]]) == -2
    floats = [[0.1, 0.5], [0.25, 3.0]]
    exact = [[Fraction(x) for x in row] for row in floats]
    assert determinant(floats) == exact[0][0] * exact[1][1] - exact[0][1] * exact[1][0]


def _gauss_determinant(matrix):
    """Independent route: plain Fraction elimination with row swaps."""
    work = [[Fraction(x) for x in row] for row in matrix]
    n = len(work)
    det = Fraction(1)
    for i in range(n):
        pivot = next((r for r in range(i, n) if work[r][i] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != i:
            work[i], work[pivot] = work[pivot], work[i]
            det = -det
        det *= work[i][i]
        for r in range(i + 1, n):
            factor = work[r][i] / work[i][i]
            for c in range(i, n):
                work[r][c] -= factor * work[i][c]
    return det


# Zero entries are drawn often, so leading pivots vanish and need a swap.
_entries = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)),
)


@st.composite
def rational_matrices(draw):
    n = draw(st.integers(0, 6))
    rows = [draw(st.lists(_entries, min_size=n, max_size=n)) for _ in range(n)]
    if n >= 2 and draw(st.booleans()):
        # make it singular: one row a rational multiple of another
        src, dst = draw(st.permutations(range(n)))[:2]
        factor = draw(_entries)
        rows[dst] = [factor * x for x in rows[src]]
    return rows


@given(rational_matrices())
def test_determinant_matches_gaussian_elimination(matrix):
    assert determinant(matrix) == _gauss_determinant(matrix)


def _hankel(seq, n):
    return [[seq[i + j] for j in range(n)] for i in range(n)]


def test_mu_hankel_closed_form_matches_oracle_bareiss():
    """Gram-norm product equals Bareiss on the power-sum-oracle Hankel."""
    for d in range(1, 7):
        dim = 1 << d
        for n in range(1, (dim + 1) // 2 + 1):
            mu = [mu_moment_oracle(d, k) for k in range(2 * n - 1)]
            assert mu_hankel_determinant(d, n) == determinant(_hankel(mu, n)), (d, n)


def test_mu_hankel_closed_form_matches_sequence_bareiss():
    for d in (7, 8):
        mu = moment_sequences(d, 26)[1]
        for n in range(1, 15):
            assert mu_hankel_determinant(d, n) == determinant(_hankel(mu, n)), (d, n)


def test_mu_hankel_closed_form_vanishes_beyond_rank():
    """D support points give a Hankel of rank D: zero from n = D + 1 on."""
    for d in (1, 2):
        dim = 1 << d
        for n in range(1, dim + 3):
            mu = [mu_moment_oracle(d, k) for k in range(2 * n - 1)]
            assert mu_hankel_determinant(d, n) == determinant(_hankel(mu, n)), (d, n)
        assert mu_hankel_determinant(d, dim + 1) == 0


def test_mu_hankel_closed_form_range():
    with pytest.raises(ValueError):
        mu_hankel_determinant(0, 2)
    with pytest.raises(ValueError):
        mu_hankel_determinant(3, 0)


def _falling_m(big_n, top):
    """m_j = (N)_j / (j + 1) for j = 0 .. top, straight from the definition."""
    return [Fraction(math.perm(big_n, j), j + 1) for j in range(top + 1)]


def test_m_hankel_condensation_matches_oracle_bareiss():
    """Condensation equals Bareiss on the summation-oracle Hankel, every valid (d, n), d <= 6."""
    for d in range(1, 7):
        dim = 1 << d
        m = [m_moment_oracle(d, k) for k in range(dim)]
        for n in range(1, (dim + 1) // 2 + 1):
            assert m_hankel_determinant(d, n) == determinant(_hankel(m, n)), (d, n)


@pytest.mark.parametrize("d,n", [(8, 12), (16, 32), (20, 24), (14, 24), (12, 16)])
def test_m_hankel_condensation_matches_bareiss_at_witness_pairs(d, n):
    m = _falling_m((1 << d) - 1, 2 * n - 2)
    assert m_hankel_determinant(d, n) == determinant(_hankel(m, n))


@pytest.mark.extended
@pytest.mark.parametrize("d,n", [(20, 40), (16, 45)])
def test_m_hankel_condensation_matches_bareiss_at_budget_edge(d, n):
    assert n * n * d <= MAX_WITNESS_BITS
    m = _falling_m((1 << d) - 1, 2 * n - 2)
    assert m_hankel_determinant(d, n) == determinant(_hankel(m, n))


def test_m_hankel_condensation_matches_bareiss_at_general_n(monkeypatch):
    """Every N <= 30 with 2n - 2 <= N, zero-divisor fallbacks included."""
    fallbacks = []

    def recording_determinant(matrix):
        fallbacks.append((big_n, n))
        return determinant(matrix)

    monkeypatch.setattr(moments_mod, "determinant", recording_determinant)
    for big_n in range(31):
        for n in range(1, big_n // 2 + 2):
            m = _falling_m(big_n, 2 * n - 2)
            assert moments_mod._m_hankel_determinant(big_n, n) == determinant(_hankel(m, n)), (big_n, n)
    assert fallbacks == [(18, n) for n in range(4, 11)] + [(28, n) for n in range(5, 16)]


def test_m_hankel_condensation_matches_lcm_scaled_oracle(monkeypatch):
    """The Cauchy-normalised recurrence equals the lcm(1 .. 2n - 1)-scaled one, and both fall
    back to Bareiss at the same pairs: the zero divisors, never a nonzero remainder.  The pairs
    are every N < 200 with n <= 10, then N = 2**d - 1 for every d <= 7 with n <= 40; 2n - 2 <= N."""
    pairs = [(big_n, n) for big_n in range(200) for n in range(1, 11) if 2 * n - 2 <= big_n]
    pairs += [((1 << d) - 1, n) for d in range(1, 8) for n in range(1, min(40, (1 << d) // 2) + 1)]
    fallbacks = {"route": [], "oracle": []}

    def recording(side):
        def record(matrix):
            fallbacks[side].append((big_n, n))
            return determinant(matrix)

        return record

    monkeypatch.setattr(moments_mod, "determinant", recording("route"))
    monkeypatch.setattr(oracles, "determinant", recording("oracle"))
    for big_n, n in pairs:
        want = oracles.lcm_scaled_m_hankel_determinant(big_n, n)
        assert moments_mod._m_hankel_determinant(big_n, n) == want, (big_n, n)
    assert fallbacks["route"] == fallbacks["oracle"]
    # Measured: below N = 200 the Hankel minors vanish at N = j (j + 1) - 2 from n = (j + 1) // 2 + 2.
    assert fallbacks["route"] == [(j * (j + 1) - 2, n) for j in range(4, 14) for n in range((j + 1) // 2 + 2, 11)]


def test_m_hankel_remainder_falls_back_to_bareiss(monkeypatch):
    """A nonzero condensation remainder hands the Hankel to Bareiss, so det m stays exact."""
    fallbacks = []

    def recording_determinant(matrix):
        fallbacks.append(len(matrix))
        return determinant(matrix)

    monkeypatch.setattr(moments_mod, "determinant", recording_determinant)
    monkeypatch.setattr(moments_mod, "divmod", lambda a, b: (a // b, 1), raising=False)
    for d, n in [(3, 2), (4, 5), (8, 12)]:
        m = _falling_m((1 << d) - 1, 2 * n - 2)
        assert m_hankel_determinant(d, n) == determinant(_hankel(m, n)), (d, n)
    assert fallbacks == [2, 5, 12]


@pytest.mark.extended
@pytest.mark.parametrize("d,n", [(7, 64), (8, 64)])
def test_m_hankel_condensation_matches_lcm_scaled_oracle_at_dearest_witnesses(d, n):
    assert n * n * d <= MAX_WITNESS_BITS
    assert m_hankel_determinant(d, n) == oracles.lcm_scaled_m_hankel_determinant((1 << d) - 1, n)


def test_m_hankel_condensation_range():
    with pytest.raises(ValueError, match="need d >= 1"):
        m_hankel_determinant(0, 2)
    with pytest.raises(ValueError, match="need n >= 1"):
        m_hankel_determinant(3, 0)
    with pytest.raises(ValueError, match="order 4"):
        m_hankel_determinant(1, 3)
    assert m_hankel_determinant(2, 2) == Fraction(-1, 4)  # m_0, m_1, m_2 = 1, 3/2, 2


# presentation


def test_presentable_in_float_range_is_float():
    assert presentable(Fraction(-245, 4)) == -61.25
    assert isinstance(presentable(Fraction(10**300)), float)


def test_presentable_beyond_float_range_is_exact_text():
    big = 10**400
    assert presentable(Fraction(12345678905 * big)) == "1.23456789e+410"  # half-even down
    assert presentable(Fraction(12345678915 * big)) == "1.234567892e+410"  # half-even up
    assert presentable(Fraction(-7 * big, 3)) == "-2.333333333e+400"
    assert presentable(Fraction(5 * big)) == "5e+400"


# witness


def test_witness_d2_n2_exact():
    result = agarwal_tara(2, 2)
    assert result.det_m == Fraction(-1, 4)
    assert result.det_mu == Fraction(5, 4)
    assert result.a_n == Fraction(-1, 6)
    assert result.nonclassical


def test_witness_a2_equals_w2_minus_w1():
    for d in range(2, 9):
        assert agarwal_tara(d, 2).a_n == w_factor(d, 2) - w_factor(d, 1)


def test_witness_d3_n3_published_determinants():
    result = agarwal_tara(3, 3)
    assert result.det_m == Fraction(-245, 4)  # -61.25
    assert result.det_mu == Fraction(441, 4)  # 110.25
    assert float(result.a_n) == pytest.approx(-0.357142857, abs=1e-8)


@pytest.mark.parametrize("d,expected", [(4, -0.2160), (5, 0.1862)])
def test_witness_a3_published_decimals(d, expected):
    assert float(agarwal_tara(d, 3).a_n) == pytest.approx(expected, abs=1e-4)


def test_witness_dimension_requirement():
    with pytest.raises(ValueError):
        agarwal_tara(2, 3)  # needs moments to order 4, beyond 2**2 - 1


@pytest.mark.parametrize("d", [0, -1])
def test_witness_rejects_nonpositive_d(d):
    with pytest.raises(ValueError, match=f"need d >= 1, got {d}"):
        agarwal_tara(d, 2)


def test_witness_d8_n12_matches_oracle_hankels():
    result = agarwal_tara(8, 12)
    m = [m_moment_oracle(8, k) for k in range(23)]
    mu = [mu_moment_oracle(8, k) for k in range(23)]
    assert result.det_m == determinant(_hankel(m, 12))
    assert result.det_mu == determinant(_hankel(mu, 12))
    assert result.a_n == result.det_m / (result.det_mu - result.det_m)


def test_witness_to_dict_beyond_float_range():
    data = agarwal_tara(12, 16).to_dict()
    assert data["det_m"] == "-5.530442026e+724"
    assert data["det_mu"] == "1.313021061e+725"
    assert data["a_n"] == pytest.approx(-0.29636916, abs=1e-8)


@pytest.mark.parametrize("d,n", [(20, 64), (16, 48), (10**9, 3)])
def test_witness_beyond_work_budget_is_refused_before_any_work(monkeypatch, d, n):
    def no_work(*args):
        raise AssertionError("the guard must fire before any moment or determinant")

    monkeypatch.setattr(moments_mod, "_m_sequence", no_work)
    monkeypatch.setattr(moments_mod, "determinant", no_work)
    monkeypatch.setattr(moments_mod, "mu_hankel_determinant", no_work)
    monkeypatch.setattr(moments_mod, "m_hankel_determinant", no_work)
    monkeypatch.setattr(moments_mod, "_m_hankel_determinant", no_work)
    with pytest.raises(GuardError, match="witness budget"):
        agarwal_tara(d, n)


def test_witness_budget_admits_every_pair_in_use():
    # Benchmark witnesses, the largest test and CLI pairs, and the guard's own edge.
    for d, n in ((12, 16), (16, 32), (20, 24), (14, 24), (8, 12), (64, 3), (20, 40)):
        assert n * n * d <= MAX_WITNESS_BITS
    assert 20 * 41 * 41 > MAX_WITNESS_BITS


def test_witness_n1_degenerate():
    with pytest.raises(ArithmeticError):
        agarwal_tara(3, 1)  # both determinants are 1


def test_witness_a4_exact_vs_float_determinants():
    for d in (3, 4, 5):
        result = agarwal_tara(d, 4)
        m, mu = moment_sequences(d, 6)
        m_float = np.array([[float(m[i + j]) for j in range(4)] for i in range(4)])
        mu_float = np.array([[float(mu[i + j]) for j in range(4)] for i in range(4)])
        a4 = np.linalg.det(m_float) / (np.linalg.det(mu_float) - np.linalg.det(m_float))
        assert a4 == pytest.approx(float(result.a_n), rel=1e-9)


def test_moments_are_hypergraph_independent():
    d, dim = 4, 16
    lower = annihilation(dim)
    values = []
    for edges in ((), ((0, 1, 2, 3),), ((0, 1), (1, 2, 3))):
        vec = hypergraph_state(Hypergraph(d, edges))
        row = []
        for _ in range(3):
            vec = lower @ vec
            row.append(float(np.vdot(vec, vec).real))
        values.append(row)
    assert values[0] == pytest.approx(values[1], rel=1e-12)
    assert values[0] == pytest.approx(values[2], rel=1e-12)


def test_witness_discrepancies_run_one_witness_per_table_row(monkeypatch):
    import hyperstate.reference_tables as ref

    calls = []

    def counted(d, n):
        calls.append((d, n))
        return agarwal_tara(d, n)

    monkeypatch.setattr(ref, "agarwal_tara", counted)
    described = [r.describe() for r in witness_discrepancies()]
    assert sorted(calls) == sorted((d, n) for n, rows in ref.WITNESS_TABLES.items() for d in rows)
    assert any("mu_5 at d=3 printed 3526" in line for line in described)
    calls.clear()
    witness_discrepancies(d=5, n=4)
    assert calls == [(5, 4)]


def test_witness_discrepancy_records():
    records = witness_discrepancies()
    described = [r.describe() for r in records]
    assert any("mu_5 at d=3 printed 3526" in line for line in described)
    assert any("mu_6 at d=5 printed 1.371e+18" in line for line in described)
    # the published A_2/A_3 determinants are consistent with the exact values
    assert not any(r.table == "A_2 table" for r in records)
    assert not any(r.quantity.startswith("det") and r.table == "A_3 table" for r in records)
