"""Moment-based nonclassicality witness with exact rational arithmetic.

For a hypergraph state on d qubits, with D = 2**d, the factorial moments
m_k = <(a-dagger)**k a**k> factor as W_1 W_2 ... W_k with
W_k = k (D - k) / (k + 1), which telescopes to the closed form
m_k = (D - 1)(D - 2) ... (D - k) / (k + 1).  The number-operator moments
mu_k = <N**k> expand over the m_j with Stirling-second-kind coefficients.
``moment_sequences`` is the one route to both sequences: one pass up to
the highest order a caller needs, with a running falling factorial for m
and one Stirling table for mu.  ``w_factor`` gives a single W_k, so
m_k = m_{k-1} W_k can be checked against that pass.  Both sequences admit
independent summation oracles over the uniform amplitude distribution:
m_k is the mean falling factorial and mu_k the mean power.

The witness A_n = det m / (det mu - det m) is negative for nonclassical
states; it is built from n x n Hankel matrices whose (i, j) entry is the
moment of order i + j.  ``determinant`` clears denominators and runs
fraction-free (Bareiss) elimination on integers.  The mu_k are the moments
of the uniform distribution on {0, ..., D - 1}, so det mu is the product
of the squared norms of the monic discrete Chebyshev (Gram) polynomials,
``mu_hankel_determinant``; Bareiss on the mu Hankel is its test oracle.
det m has no such product, but its Hankel minors obey the Desnanot-Jacobi
(Dodgson condensation) identity and every row carries a falling factorial;
``m_hankel_determinant`` takes those factors out and condenses the minors
scaled by P(s, k) / S(k)**3, where P(s, k) = prod_{i,j<k} (s + i + j + 1)
is the denominator of the Cauchy determinant det [1 / (s + i + j + 1)] and
S(k) = prod_{t<k} t!.  The ratios of these scales across the identity give
its three small coefficients, (N - s - k)(s + k + 1)**2,
(N - s)(s + 1)(s + 2k + 1) and k**3, so the recurrence runs on integers in
about n**2 steps.  Each step divides with ``divmod``; a zero divisor or a
nonzero remainder hands the Hankel to Bareiss, which is also the test
oracle, so det m is exact even where the scaled minors fail to be integers.
Results are exact ``fractions.Fraction`` values because the determinants
cancel catastrophically in floats; floats appear only at the presentation
edge, and ``presentable`` renders values beyond float range as exact
decimal scientific text instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import MAX_EMAX, Decimal, localcontext
from fractions import Fraction
from itertools import repeat
from typing import Sequence

from .errors import require_witness_bits

__all__ = [
    "w_factor",
    "m_moment_oracle",
    "mu_moment_oracle",
    "moment_sequences",
    "stirling_coefficients",
    "determinant",
    "mu_hankel_determinant",
    "m_hankel_determinant",
    "presentable",
    "AgarwalTaraResult",
    "agarwal_tara",
]


def _check_k(d: int, k: int, low: int) -> None:
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    if not low <= k <= (1 << d) - 1:
        raise ValueError(f"k={k} outside [{low}, 2**{d} - 1]")


def w_factor(d: int, k: int) -> Fraction:
    """Normalization factor W_k = k (2**d - k) / (k + 1), exact."""
    _check_k(d, k, 1)
    return Fraction(k * ((1 << d) - k), k + 1)


def _m_sequence(dim: int, top: int) -> list[Fraction]:
    """m_0 .. m_top from one running falling factorial (dim - 1) ... (dim - k)."""
    out = [Fraction(1)]
    falling = 1
    for k in range(1, top + 1):
        falling *= dim - k
        out.append(Fraction(falling, k + 1))
    return out


def m_moment_oracle(d: int, k: int) -> Fraction:
    """Independent route: mean falling factorial over n = 0 .. 2**d - 1.

    m_k = 2**-d sum_n n (n-1) ... (n-k+1), exact; must equal the m_k of
    ``moment_sequences``.  Each term is ``math.perm(n, k)``, which is 0 for
    n < k, and the sum runs over every n: the summation itself, not the
    closed form (dim - 1) ... (dim - k) / (k + 1).
    """
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    dim = 1 << d
    return Fraction(sum(map(math.perm, range(dim), repeat(k))), dim)


def stirling_coefficients(max_k: int) -> tuple[tuple[int, ...], ...]:
    """Rows k = 1 .. max_k of S(k, j), 1 <= j <= k, in N**k = sum_j S(k, j) (a-dagger)**j a**j.

    Built from S(k, 1) = S(k, k) = 1 and S(k+1, j) = S(k, j-1) + j S(k, j);
    these are the Stirling numbers of the second kind.
    """
    if max_k < 1:
        raise ValueError(f"need max_k >= 1, got {max_k}")
    rows: list[tuple[int, ...]] = [(1,)]
    for k in range(1, max_k):
        prev = rows[-1]
        row = [
            (prev[j - 2] if j >= 2 else 0) + (j * prev[j - 1] if j <= k else 0)
            for j in range(1, k + 2)
        ]
        rows.append(tuple(row))
    return tuple(rows)


def moment_sequences(d: int, top: int) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """(m_0 .. m_top, mu_0 .. mu_top) in one pass, exact; m_0 = mu_0 = 1.

    m_k comes from a running falling factorial, and mu_k = sum_j S(k, j) m_j
    from one Stirling table, summed as integers over the common denominator
    of the m_j.
    """
    _check_k(d, top, 0)
    m = _m_sequence(1 << d, top)
    scale = math.lcm(*(x.denominator for x in m))
    scaled = [x.numerator * (scale // x.denominator) for x in m[1:]]
    mu = [Fraction(1)]
    if top:
        for row in stirling_coefficients(top):
            mu.append(Fraction(sum(s * x for s, x in zip(row, scaled)), scale))
    return tuple(m), tuple(mu)


def mu_moment_oracle(d: int, k: int) -> Fraction:
    """Independent route: mu_k = 2**-d sum_n n**k, exact power-sum mean (0**0 = 1), summed over every n."""
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    dim = 1 << d
    return Fraction(sum(map(pow, range(dim), repeat(k))), dim)


def determinant(matrix: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact determinant by fraction-free (Bareiss) elimination.

    Entries may be Fractions, ints or floats (taken exactly).  The matrix is
    scaled to integers by the lcm of its denominators, eliminated with exact
    integer division, and the scale divided back out.  The 0 x 0
    determinant is the empty product, 1.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    if n == 0:
        return Fraction(1)
    exact = [[Fraction(x) for x in row] for row in matrix]
    scale = math.lcm(*(x.denominator for row in exact for x in row))
    work = [[x.numerator * (scale // x.denominator) for x in row] for row in exact]
    sign = 1
    prev = 1
    for i in range(n - 1):
        if work[i][i] == 0:
            for r in range(i + 1, n):
                if work[r][i] != 0:
                    work[i], work[r] = work[r], work[i]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        pivot_row = work[i]
        pivot = pivot_row[i]
        for r in range(i + 1, n):
            row = work[r]
            lead = row[i]
            for c in range(i + 1, n):
                row[c] = (row[c] * pivot - lead * pivot_row[c]) // prev
            row[i] = 0
        prev = pivot
    return Fraction(sign * work[n - 1][n - 1], scale**n)


def mu_hankel_determinant(d: int, n: int) -> Fraction:
    """det [mu_{i+j}] for 0 <= i, j < n in closed form, exact.

    The mu_k are the moments of the uniform distribution on
    {0, .., D - 1}, D = 2**d, so the Hankel determinant is the product of
    the squared norms of the monic discrete Chebyshev (Gram) polynomials,
    h_k = (k!)**4 prod_{j=1..k} (D**2 - j**2) / ((2k)! (2k + 1)!).
    """
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    dim_sq = 1 << (2 * d)
    norm_num = norm_den = 1
    num = den = 1
    for k in range(1, n):
        norm_num *= k**4 * (dim_sq - k * k)
        norm_den *= (2 * k) ** 2 * (2 * k - 1) * (2 * k + 1)
        num *= norm_num
        den *= norm_den
    return Fraction(num, den)


def _m_hankel_bareiss(big_n: int, n: int) -> Fraction:
    """Bareiss on the n x n Hankel of m_j = (N)_j / (j + 1): the condensation's fallback."""
    m_seq = _m_sequence(big_n + 1, 2 * n - 2)
    return determinant([m_seq[i : i + n] for i in range(n)])


def _m_hankel_determinant(big_n: int, n: int) -> Fraction:
    """det [m_{i+j}] for m_j = (N)_j / (j + 1), 0 <= i, j < n, any N >= 2n - 2.

    Row i of the shifted Hankel [m_{s+i+j}] carries the falling factorial
    (N)_{s+i}; the rest is the minor g(s, k) = det [(N - s - i)_j /
    (s + i + j + 1)] over 0 <= i, j < k, which obeys the Desnanot-Jacobi
    identity g(s, k + 1) g(s + 2, k - 1) = (N - s - k) g(s, k) g(s + 2, k)
    - (N - s) g(s + 1, k)**2.  The condensed minors are Cauchy-normalised,
    G(s, k) = g(s, k) P(s, k) / S(k)**3 with P(s, k) = prod_{i,j<k}
    (s + i + j + 1), the denominator of the Cauchy determinant
    det [1 / (s + i + j + 1)], and S(k) = prod_{t<k} t!.  The exponents of
    P form triangles with generating function (1 - z**k)**2 / (1 - z)**2, so
    P(s, k + 1) P(s + 2, k - 1) / (P(s, k) P(s + 2, k)) = (s + k + 1)**2 and
    P(s, k + 1) P(s + 2, k - 1) / P(s + 1, k)**2 = (s + 1)(s + 2k + 1), and
    S(k + 1) S(k - 1) / S(k)**2 = k; the identity becomes
    k**3 G(s, k + 1) G(s + 2, k - 1) = (N - s - k)(s + k + 1)**2 G(s, k)
    G(s + 2, k) - (N - s)(s + 1)(s + 2k + 1) G(s + 1, k)**2, from
    G(s, 0) = G(s, 1) = 1.  Then det m = G(0, n) prod_{i<n} (N)_i S(n)**3
    / P(0, n), with P(0, n) = prod_{i<n} (i + n)! / i!.  That G is an
    integer is checked, not proven: each step divides with ``divmod``, and
    a zero divisor or a nonzero remainder hands the Hankel to Bareiss, so
    the result is exact either way.
    """
    top = 2 * n - 2
    prev = [1] * (top + 3)
    cur = [1] * (top + 1)
    for k in range(1, n):
        cube = k**3
        nxt = []
        for s in range(top + 1 - 2 * k):
            divisor = cube * prev[s + 2]
            if divisor == 0:
                return _m_hankel_bareiss(big_n, n)
            quotient, remainder = divmod(
                (big_n - s - k) * (s + k + 1) ** 2 * cur[s] * cur[s + 2]
                - (big_n - s) * (s + 1) * (s + 2 * k + 1) * cur[s + 1] ** 2,
                divisor,
            )
            if remainder:
                return _m_hankel_bareiss(big_n, n)
            nxt.append(quotient)
        prev, cur = cur, nxt
    rows = math.prod(math.perm(big_n, i) for i in range(n))
    cubes = math.prod(map(math.factorial, range(n))) ** 3
    return Fraction(cur[0] * rows * cubes, math.prod(math.perm(n + i, n) for i in range(n)))


def m_hankel_determinant(d: int, n: int) -> Fraction:
    """det [m_{i+j}] for 0 <= i, j < n by Hankel condensation, exact.

    The m_k are the factorial moments with N = 2**d - 1; the order-(2n - 2)
    moment must exist, so 2n - 2 <= N.  About n**2 integer steps instead
    of Bareiss's n**3 / 3; Bareiss on the m Hankel is its test oracle.
    """
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    big_n = (1 << d) - 1
    if 2 * n - 2 > big_n:
        raise ValueError(f"det m for n={n} needs moments up to order {2 * n - 2}, beyond 2**{d} - 1")
    return _m_hankel_determinant(big_n, n)


def presentable(value: Fraction) -> float | str:
    """``float(value)``, or exact scientific text when that would overflow.

    Out-of-range values are rounded half-even to 10 significant digits and
    rendered like ``format(x, ".10g")`` (trailing zeros dropped), e.g.
    ``-5.530442026e+724``, so JSON and CSV output stay valid.
    """
    try:
        return float(value)
    except OverflowError:
        with localcontext() as ctx:
            ctx.prec = 10
            ctx.Emax = MAX_EMAX
            quotient = Decimal(value.numerator) / Decimal(value.denominator)
            return format(quotient.normalize(), "e")


@dataclass(frozen=True)
class AgarwalTaraResult:
    """Exact witness A_n with the two Hankel determinants behind it."""

    d: int
    n: int
    det_m: Fraction
    det_mu: Fraction
    a_n: Fraction

    @property
    def nonclassical(self) -> bool:
        return self.a_n < 0

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "n": self.n,
            "det_m": presentable(self.det_m),
            "det_mu": presentable(self.det_mu),
            "a_n": presentable(self.a_n),
        }


def agarwal_tara(d: int, n: int) -> AgarwalTaraResult:
    """Witness A_n = det m / (det mu - det m) from n x n moment matrices.

    Requires moments up to order 2n - 2, so 2n - 2 <= 2**d - 1; at d = 2
    this limits the witness to n = 2.  Raises GuardError, before any work,
    when n**2 d exceeds ``errors.MAX_WITNESS_BITS``.
    """
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    require_witness_bits(f"A_{n} at d={d}", n * n * d)
    top = 2 * n - 2
    if top > (1 << d) - 1:
        raise ValueError(
            f"A_{n} needs moments up to order {top}, beyond the 2**{d} - 1 "
            f"available at d={d}"
        )
    det_m = m_hankel_determinant(d, n)
    det_mu = mu_hankel_determinant(d, n)
    if det_mu == det_m:
        raise ArithmeticError("witness undefined: det mu equals det m exactly")
    return AgarwalTaraResult(d=d, n=n, det_m=det_m, det_mu=det_mu, a_n=det_m / (det_mu - det_m))
