"""Truncated oscillator algebra and the discrete phase operator.

All operators act on the 2**d dimensional space spanned by the number
states |0>, ..., |2**d - 1>.  The ladder operators are the finite
truncations (a annihilates |0>, a-dagger annihilates the top state), so
[a, a-dagger] = I - dim |dim-1><dim-1| instead of the identity.

The phase basis consists of the discrete-Fourier vectors |theta_m> with
angles theta_m = 2 pi m / dim, theta_0 = 0.  The phase operator is
sum_m theta_m |theta_m><theta_m|, a Hermitian circulant matrix; its
commutator with the number operator is skew-Hermitian Toeplitz.

Squeezing and phase-basis coherence of real states are evaluated along two
routes that share one scaling rule and one set of reductions.  Both read
unnormalised +-1 sign rows x = 1 - 2 1_K (``state.membership_signs``) as the
states x / sqrt(dim), and scale their sums by exact powers of two: p_m =
|F_m|**2 / dim**2 and half_comm = |Im <N x|P x>| / dim, with F = fft(x).
``_phase_sums`` reduces rows of bins m = 0 .. P/2 under orbit weights
(below; at P = dim, the mirror weights of the half spectrum).  The spread is
a row dot with its weights (``_row_dots``): each row its own BLAS dot, over
column blocks of at most DOT_BLOCK = 8192 bins added in ascending order,
since OpenBLAS threads a dot above 10000 elements (at 10001 the bits moved
between 1 and 2 BLAS threads, at 8193 they did not).  The sums of p, sqrt p
and p log p are plain row sums, doubled and scaled by exact powers of two.
``_phase_moments`` finishes the sums, with the relative entropy as
log T - (sum p log p) / T for the total T (p = 0 adds exactly 0).
``spectral_profile`` (the rfft route) takes the half spectra of x and n x
from one length-dim real FFT, batched over a stack of rows and read with
mirror weights (Parseval turns <[N, P]> into a weighted sum over those
bins); any other real row is scaled by its own dim |row|**2.
``support_profile`` (the support route) takes sign rows with few points in
K: their spectra are exact sums over the rows of an integer DFT table at K,
pre-scaled by a power of two, and <[N, P]> is a masked sum over a pair
table of closed forms of the Pegg–Barnett kernel, both built once per call;
the pair terms of a block of rows are added by one running sum along the
pair axis.  The rfft route is its test oracle.
The support route folds each spectrum to its period.  Every point of K
agrees with the first, k_0, in its low v bits (v = d when |K| <= 1), so
every difference in K is a multiple of g = 2**v, and by the shift theorem
F_m = dim delta_m0 - 2 w**(m k_0) sum_{k in K} w**(m (k - k_0)),
w = exp(-2 pi i / dim), has |F_m| of period P = dim / g for m != 0, mirror
symmetric within the period.  A row is read over m = 0 .. P/2 only, each bin
weighted by the size of its orbit {+-m + jP}: 2g for 0 < m < P/2 and g at
m = P/2.  Bin 0 stands alone, with p_0 = (1 - 2 |K| / dim)**2, and each of
the g - 1 bins m = jP, 0 < j < g, holds p' = (2 |K| / dim)**2, an extra term
of weight g - 1.  Every orbit is mirror-closed, so mean_p = pi (T - p_0)
still holds.  The fold level is min(v, d - FOLD_FLOOR): the floor 9 keeps
at least 257 bins, since each level's rows pay a tile's fixed numpy cost
(folding every level made a d = 6 call 3.1 times and a d = 8 call 1.4 times
as slow; at d = 12 the floor cost nothing measurable).  A level's tiles hold
``tile_rows(d) << level`` rows, the same bytes as an unfolded tile.  A row's
level reads that row alone, so no tile size or thread count moves a bit.
Only values that depend on d (and a point index or fold level) alone are
cached: ``_support_tables``, ``_im_w``, ``_half_spectrum_weights`` and
``_fold_weights``.  Anything
built from a family's edges or points is built once per call and dropped
when the call returns, so no call's bits depend on the calls before it.
Dense matrices, functions of the dimension alone (a caller takes a state's
expectation with ``np.vdot``), and ``apply_phase_operator``, the FFT
application of P to any complex state, serve the structure and spectral
checks and the tests' oracles.  H = i[N, P] is Hermitian Toeplitz, so
J H J = conj H for the exchange matrix J, and the unitary
U = (I + iJ) / sqrt(2) takes it to the real symmetric
U^dagger H U = Re H - (Im H) J: ``spectral_bound_check`` takes the spectrum
from that real matrix, not from a complex eigensolve.  F diag(theta) F^dagger
is circulant, so ``phase_operator_agreement`` evaluates its spectral sum once
per difference k - l mod dim, O(dim**2) in all, not as a dim**3 product.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import dimension, require_bytes, require_cubic_work

# Rows per tile of a profile call: a tile's rfft stacks the half spectra of psi
# and n psi, 2 (2**(d-1) + 1) complex128 values per row, about 1 MiB per tile.
CHUNK_BYTES = 1 << 20

# Columns per BLAS row dot of ``_row_dots``: OpenBLAS threads a dot above
# 10000 elements, whose bits then depend on its thread count.
DOT_BLOCK = 1 << 13

# The support route folds a row's spectrum at most d - FOLD_FLOOR levels, so a
# folded row keeps at least 2**(FOLD_FLOOR - 1) + 1 bins.
FOLD_FLOOR = 9

# The smallest normal float64: the phase sums take the log of max(p, _TINY), so p = 0 adds 0.
_TINY = np.finfo(np.float64).tiny


def _require_power_of_two(dim: int) -> None:
    if dim < 1 or dim & (dim - 1):
        raise ValueError(f"dimension must be a power of two, got {dim}")


def annihilation(dim: int) -> np.ndarray:
    """Lowering operator: a|i> = sqrt(i)|i-1>, a|0> = 0."""
    if dim < 2:
        raise ValueError(f"need dim >= 2, got {dim}")
    return np.diag(np.sqrt(np.arange(1, dim)), k=1).astype(np.complex128)


def number_operator(dim: int) -> np.ndarray:
    """Diagonal number operator diag(0, 1, ..., dim-1)."""
    if dim < 1:
        raise ValueError(f"need dim >= 1, got {dim}")
    return np.diag(np.arange(dim, dtype=np.float64)).astype(np.complex128)


def position(dim: int) -> np.ndarray:
    """Position quadrature (a + a-dagger) / sqrt(2)."""
    a = annihilation(dim)
    return (a + a.conj().T) / np.sqrt(2.0)


def momentum(dim: int) -> np.ndarray:
    """Momentum quadrature (a - a-dagger) / (i sqrt(2))."""
    a = annihilation(dim)
    return (a - a.conj().T) / (1j * np.sqrt(2.0))


def variance(op: np.ndarray, psi: np.ndarray) -> float:
    """<op**2> - <op>**2; real for Hermitian op on a normalized state."""
    if op.shape != (len(psi), len(psi)):
        raise ValueError(f"operator shape {op.shape} does not match state length {len(psi)}")
    op_psi = op @ psi
    mean = complex(np.vdot(psi, op_psi))
    second = complex(np.vdot(psi, op @ op_psi))
    return float((second - mean * mean).real)


def phase_angles(dim: int) -> np.ndarray:
    """Angle grid theta_m = 2 pi m / dim for m = 0 .. dim-1."""
    _require_power_of_two(dim)
    return 2.0 * np.pi * np.arange(dim) / dim


def apply_phase_operator(psi: np.ndarray) -> np.ndarray:
    """Apply the phase operator: transform, weight by theta_m, transform back."""
    dim = len(psi)
    _require_power_of_two(dim)
    return np.fft.ifft(phase_angles(dim) * np.fft.fft(psi))


@dataclass(frozen=True)
class SpectralProfile:
    """Phase statistics of real states, one entry per state (shape ``psi.shape[:-1]``).

    ``mean_p``/``var_p`` are the moments of the phase distribution
    |<theta_m|psi>|**2, ``half_comm`` is |<[N, P]>| / 2, and ``c_l1_phase``/
    ``c_rel_phase`` are the l1 and relative-entropy coherence of the state's
    phase-basis coefficients.
    """

    mean_p: np.ndarray
    var_p: np.ndarray
    half_comm: np.ndarray
    c_l1_phase: np.ndarray
    c_rel_phase: np.ndarray


def tile_rows(d: int) -> int:
    """Rows per tile of a profile call at ``d``: CHUNK_BYTES // (16 * 2**d), at least 1."""
    return max(1, CHUNK_BYTES // (16 * dimension(d)))


def profile_bytes(count: int, dim: int) -> int:
    """Bytes ``spectral_profile`` holds at its peak, the rfft, for ``count`` states of length ``dim``."""
    # The float64 states (8 per amplitude), the stacked psi and n psi (16), their
    # half spectra, at most one float64 buffer per transformed row (16) and the
    # length-dim plan (8 per amplitude of one state).
    return count * (40 * dim + 32 * (dim // 2 + 1)) + 8 * dim


def spectral_profile(psi: np.ndarray) -> SpectralProfile:
    """Phase statistics of real states ``psi`` (shape ``(..., dim)``) from one batched rfft.

    A row need not be normalised: each is read as psi / |psi|, so with
    F = fft(psi) and G = fft(n psi) the phase probabilities are
    p_m = |F_m|**2 / (dim |psi|**2), and half_comm is divided by the same
    dim |psi|**2.  For the +-1 rows of ``state.membership_signs`` that factor
    is exactly 2**(2d), so both scales are exact powers of two; a zero row is
    refused.  Real amplitudes make the spectra Hermitian,
    F_{dim-m} = conj(F_m), so p_{dim-m} = p_m and the half spectrum
    m = 0 .. dim/2 carries everything: each bin counts with its mirror
    weight, 1 at m = 0 and m = dim/2 and 2 elsewhere.  The mirrored angle of
    theta_m is 2 pi - theta_m, so
      mean_p = pi sum_{m>0} p_m (mirror-weighted);
      var_p pairs (theta_m - mean)**2 + (2 pi - theta_m - mean)**2, which
      equals 2 (theta_m - pi)**2 + 2 (pi - mean)**2, so every term is a
      square and nothing cancels (E[theta**2] - mean**2 loses ~1e-14, enough
      to reorder near-tied variances in a sweep summary).
    Both operators are Hermitian, so <[N, P]> = 2i Im <N psi|P psi>, and by
    Parseval <N psi|P psi> = (1/dim) sum_m theta_m conj(G_m) F_m.  The
    mirrored bin contributes the conjugate at angle 2 pi - theta_m, and both
    end bins are real, hence
      |<[N, P]>| / 2 = |sum_{0<m<dim/2} (2 theta_m - 2 pi) Im(conj(G_m) F_m)| / dim.
    The two coherences are mirror-weighted sums over the same p_m,
    normalized by their total T: the l1 coherence is (sum sqrt p)**2 / T - 1
    and the relative entropy log T - (sum p log p) / T.

    F and G come from one ``rfft`` of length dim over the stacked rows of
    psi and n psi.  ``_phase_sums`` reduces p at fold level 0, with the
    squared imaginary parts' array as its scratch, and ``_phase_moments``
    finishes the sums.  Every reduction (a row-wise ``np.sum``, or a row
    dot of ``_row_dots``) reads one row alone, so a state's values do not
    depend on which other states share its batch.
    """
    psi = np.asarray(psi)
    if np.iscomplexobj(psi):
        raise ValueError("spectral_profile needs real amplitudes")
    dim = psi.shape[-1] if psi.ndim else 0
    _require_power_of_two(dim)
    if dim < 2:
        raise ValueError(f"need dim >= 2, got {dim}")
    count = psi.size // dim
    require_bytes(f"spectral profile of {count} x {dim} amplitudes", profile_bytes(count, dim))
    rows = psi.reshape(-1, dim).astype(np.float64, copy=False)
    scale = dim * np.sum(np.square(rows), axis=-1)  # dim |psi|**2, row by row
    if not scale.all():
        raise ValueError("spectral_profile needs nonzero rows")
    spectra = np.fft.rfft(np.concatenate((rows, rows * np.arange(dim))), axis=-1)
    f, g = spectra[:count], spectra[count:]
    prob, scratch = f.real**2, f.imag**2
    prob += scratch
    prob /= scale[:, None]
    cross = g.real * f.imag - g.imag * f.real
    half_comm = np.abs(np.sum(cross * _half_spectrum_weights(dim), axis=-1)) / scale
    mean, var, c_l1, c_rel = _phase_moments(*_phase_sums(prob, scratch, dim.bit_length() - 1))
    shape = psi.shape[:-1]
    return SpectralProfile(
        *(value.reshape(shape) for value in (mean, var, half_comm, c_l1, c_rel))
    )


@lru_cache(maxsize=2)
def _half_spectrum_weights(dim: int) -> np.ndarray:
    """half_comm weights over the half spectrum m = 0 .. dim/2: 2 (theta_m - pi), with 0 at both ends."""
    comm = 2.0 * (phase_angles(dim)[: dim // 2 + 1] - np.pi)
    comm[[0, -1]] = 0.0
    comm.flags.writeable = False
    return comm


@lru_cache(maxsize=None)  # one per (d, level) used: under 2 float64 values per index of the largest d in all
def _fold_weights(d: int, level: int) -> tuple[np.ndarray, float]:
    """Spread weights of the bins m = 0 .. P/2 of a spectrum folded to its period P = dim / g, g = 2**level,
    and the spread weight of its extra term, the bins m = jP, 0 < j < g: their (theta - pi)**2 summed.

    The spread weight of a bin is the sum of (theta - pi)**2 over its orbit,
    m + jP and -m + jP for 0 <= j < g (2g bins for 0 < m < P/2, g at
    m = P/2), taken as twice the sum over the half {m + jP}, which the other
    half mirrors; at m = 0, which the sums skip, it is (theta_0 - pi)**2.  At
    level 0 the weights are mirror_m (theta_m - pi)**2, mirror_m = 1 at m = 0
    and m = dim/2, else 2, and the extra weight is 0.
    """
    g, period = 1 << level, 1 << d >> level
    half = period // 2
    square = (phase_angles(1 << d) - np.pi) ** 2
    orbit = square.reshape(g, period).sum(axis=0)  # sum over j of (theta_{r + jP} - pi)**2
    spread = 2.0 * orbit[: half + 1]
    spread[0], spread[half] = square[0], orbit[half]
    spread.flags.writeable = False
    return spread, float(np.sum(square[period::period]))


def _row_dots(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_j a[r, j] w[j] for each row r: per column block of at most DOT_BLOCK, each row its own
    (1 x n)(n x 1) ``np.matmul``, a BLAS dot, and the blocks' partials added in ascending order.

    A row's dot does not depend on the other rows or on the row's alignment,
    and OpenBLAS runs a dot of up to 10000 elements on one thread, so a block
    does not depend on the BLAS thread count (at 10001 elements the bits
    moved between 1 and 2 threads).
    """
    out = np.matmul(a[:, None, :DOT_BLOCK], w[:DOT_BLOCK, None])[:, 0, 0]
    for start in range(DOT_BLOCK, a.shape[1], DOT_BLOCK):
        out += np.matmul(a[:, None, start : start + DOT_BLOCK], w[start : start + DOT_BLOCK, None])[:, 0, 0]
    return out


def _orbit_sum(x: np.ndarray, level: int) -> np.ndarray:
    """sum_m (orbit size of m) x_m over m = 0 .. P/2 for each row of ``x``: 1 at m = 0, 2g for
    0 < m < P/2 and g at m = P/2, g = 2**level.  At level 0, twice the plain row sum less the two
    end bins; above it, x_0 plus g times (twice the row sum over m >= 1 less x_{P/2}).  Doubling
    and scaling by g are exact."""
    if not level:
        return 2.0 * np.add.reduce(x, axis=-1) - x[:, 0] - x[:, -1]
    return x[:, 0] + (1 << level) * (2.0 * np.add.reduce(x[:, 1:], axis=-1) - x[:, -1])


def _phase_sums(prob: np.ndarray, scratch: np.ndarray, d: int, level: int = 0,
                extra: np.ndarray | None = None) -> np.ndarray:
    """Per row of folded phase probabilities, the five sums ``_phase_moments`` finishes, as a (5, rows) array:
    p_0, and the orbit-weighted sums over m >= 1 of p and of the variance terms, and over every bin
    of sqrt p and of p log p.

    ``prob`` holds p_m for m = 0 .. P/2 of spectra folded at ``level`` (the
    half spectrum at level 0), one row per state, and is left as it is;
    ``extra`` holds each row's p at m = jP, 0 < j < g (read only above level
    0), which adds with weight g - 1 to the sums of p, sqrt p and p log p,
    and with the sum of its (theta - pi)**2 to the spread.  The weights are
    ``_fold_weights(d, level)``.  ``scratch``, of the shape of ``prob``,
    holds in turn the square roots and the logs.  The spread is a row dot
    with its weights (``_row_dots``: a BLAS dot per row over column blocks
    of at most DOT_BLOCK = 8192 bins, which OpenBLAS keeps on one thread,
    added in ascending order); the sums of p, sqrt p and p log p,
    whose weights are the orbit sizes, are plain row sums doubled and scaled
    by g (``_orbit_sum``), at level 0 bit for bit the mirror-weighted sums of
    the half spectrum.  (A BLAS dot there moved a d = 6 s_p by 4.9e-15 and
    broke the d = 3 ties of c_rel_phase; an einsum moved a d = 14
    c_rel_phase by 5.7e-15.)  Sums over m >= 1 are taken directly, not as
    T - p_0, which would cancel when p_0 is close to 1.  The log is taken of
    max(p_m, tiny), the smallest normal float, so a bin with p_m = 0 adds
    exactly 0.  Every sum reads one row alone, so a state's sums do not
    depend on its batch.
    """
    spread, extra_spread = _fold_weights(d, level)
    sums = np.empty((5, len(prob)))
    sums[0] = prob[:, 0]
    sums[1] = 2.0 * np.add.reduce(prob[:, 1:], axis=-1) - prob[:, -1]
    sums[2] = _row_dots(prob[:, 1:], spread[1:])
    sums[3] = _orbit_sum(np.sqrt(prob, out=scratch), level)
    logs = np.log(np.maximum(prob, _TINY, out=scratch), out=scratch)
    logs *= prob
    sums[4] = _orbit_sum(logs, level)
    if level:
        g = 1 << level
        sums[1] *= g
        sums[1] += (g - 1) * extra
        sums[2] += extra_spread * extra
        sums[3] += (g - 1) * np.sqrt(extra)
        sums[4] += (g - 1) * (extra * np.log(np.maximum(extra, _TINY)))
    return sums


def _phase_moments(p0, rest, spread, roots, logs) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """mean_p, var_p (the m = 0 term is p_0 mean**2), c_l1_phase = (sum sqrt p)**2 / T - 1 and c_rel_phase =
    log T - (sum p log p) / T, elementwise from ``_phase_sums``, with T the mirror-weighted total."""
    total = p0 + rest
    mean = np.pi * rest
    var = spread + (np.pi - mean) ** 2 * rest + p0 * mean**2
    return mean, var, roots**2 / total - 1.0, np.log(total) - logs / total


def _support_scale(d: int) -> int:
    """Bits s of the support route's integer DFT table: 2d terms of at most 2**s sum below 2**52."""
    return 52 - (2 * d).bit_length()


@lru_cache(maxsize=None)  # one entry per d: all of them take less than twice the largest
def _support_tables(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-d constants of ``support_profile``, each indexed by j = 0 .. dim-1.

    round(2**s cos(2 pi j / dim)) and round(-2**s sin(2 pi j / dim)), the integer
    DFT table, and cot(pi j / dim) (0 at j = 0), which gives Im P_kl =
    -(pi / dim) cot(pi (k - l) / dim).  Each cotangent is taken at an angle of
    at most pi / 4, so that it keeps its relative accuracy next to j = dim / 2.
    The tables are whole so that no value depends on which points a state gathers: numpy's
    float64 ``tan`` can round a strided array differently from a contiguous copy (numpy 2.4.6:
    98 of the 16383 reversed angles below at d = 16, 1 of 255 at d = 10); ``cos`` did not.
    """
    dim, half, quarter = 1 << d, 1 << d >> 1, 1 << d >> 2
    angle = (2.0 * np.pi / dim) * np.arange(dim)
    cos = np.round(np.ldexp(np.cos(angle), _support_scale(d)))
    msin = np.round(np.ldexp(-np.sin(angle), _support_scale(d)))
    x = (np.pi / dim) * np.arange(half + 1)
    cot = np.zeros(dim)
    cot[1 : quarter + 1] = 1.0 / np.tan(x[1 : quarter + 1])
    cot[quarter + 1 : half] = np.tan(x[half - quarter - 1 : 0 : -1])  # cot(x) = tan(pi/2 - x)
    cot[half + 1 :] = -cot[half - 1 : 0 : -1]
    cos.flags.writeable = msin.flags.writeable = cot.flags.writeable = False
    return cos, msin, cot


@lru_cache(maxsize=1 << 12)
def _im_w(d: int, point: int) -> float:
    """Im (P n)_point, exactly rounded from the cotangent table.

    Since P 1 = 0, (P n)_l = sum_j (j - l) P_lj, and (j - l) Im P_lj =
    g(l - j) with g(u) = (pi u / dim) cot(pi u / dim), an even function of u.
    So Im (P n)_l = sum_{u=1}^{l} g(u) + sum_{u=1}^{dim-1-l} g(u), whose
    terms reach about -dim near u = dim; ``math.fsum`` adds them exactly.
    """
    dim = 1 << d
    top = max(point, dim - 1 - point)
    g = (np.pi / dim) * np.arange(1, top + 1) * _support_tables(d)[2][1 : top + 1]
    return math.fsum(itertools.chain(g[:point], g[: dim - 1 - point]))


def _dft_rows(d: int, points: Sequence[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The integer DFT table's cos and -sin rows at ``points``, over m = 0 .. dim/2, times
    2**(1 + shift) (see ``support_profile``), and the half_comm pair table over the points:
    row l is (2 / dim) Im (P n)_l, then (4 / dim) k Im P_kl for each point k."""
    dim = 1 << d
    cos, msin, cot = _support_tables(d)
    k = np.array(points, dtype=np.int64)
    index = np.multiply.outer(k, np.arange(dim // 2 + 1))
    index &= dim - 1  # in place: fewer fresh pages
    im_p = (-np.pi / dim) * cot[(k[None, :] - k[:, None]) & (dim - 1)]
    linear = (2.0 / dim) * np.array([_im_w(d, p) for p in points]).reshape(-1, 1)
    pairs = np.concatenate((linear, ((4.0 / dim) * k) * im_p), axis=1)
    rows = np.take(cos, index), np.take(msin, index)
    for row in rows:
        row *= np.ldexp(1.0, 1 - d - _support_scale(d))  # exact: integers times a power of two
    return rows[0], rows[1], pairs


def _half_comm_rows(entries: int) -> int:
    """Rows per block of ``_half_comm`` over a pair table of ``entries`` entries:
    CHUNK_BYTES // (16 * entries), at least 1 (about 360 rows at d = 12)."""
    return max(1, CHUNK_BYTES // (16 * max(entries, 1)))


def support_bytes(count: int, points: int, dim: int) -> int:
    """Bytes ``support_profile`` holds at its peak for ``count`` states over ``points`` support points."""
    half = dim // 2 + 1
    pairs = points * (points + 1)
    top = max(0, dim.bit_length() - 1 - FOLD_FLOOR)  # the highest fold level
    tile = min(count, tile_rows(dim.bit_length() - 1))
    block = min(count, _half_comm_rows(pairs))
    # The three float64 tables of this d and the kept tables of smaller d
    # (under 48 per index) and, while Im (P n) is summed at one point, its
    # int64 index and two float64 term arrays (24 per index; building the
    # tables peaks at 40, measured with tracemalloc at d = 16).  Building the
    # DFT rows: the int64 index and the two float64 rows, 24 per point and
    # bin, and the pair table with its temporaries, 24 per entry.  Then the
    # larger of two phases: per state of a half_comm block its terms over
    # every pair-table entry and their running sums (16 per entry), or, after
    # it, per state of a tile the spectrum's two parts, squared in place into
    # the probabilities and the reductions' scratch (16 per bin), kept at 32;
    # a tile at level l holds 2**l times the states over (dim / 2**l) / 2 + 1
    # bins.  Per state of the call its row of t, and its half_comm, five phase
    # sums and finished profile with the temporaries of finishing it (8 per
    # point and 104; 94 to 99 measured at d = 4 and 8), and above the floor
    # its fold level and its index in its level's group (16).  Measured peaks
    # at d = 8 .. 16, for 1 row, 1023 rows and the whole connected dminus1
    # family, with the tables built in the call or before it, are 0.43 to 0.91
    # of this sum.
    return (72 * dim + 24 * points * half + 24 * pairs
            + max(block * 16 * pairs, tile * 32 * (half + (1 << top) - 1))
            + count * (8 * points + 104 + (16 if top else 0)))


def _half_comm(pairs: np.ndarray, t: np.ndarray) -> np.ndarray:
    """half_comm of each row of ``support_profile``'s t from the pair table ``pairs`` of
    ``_dft_rows``, a running sum along the pair axis for a block of rows at a time.

    A block's terms stand as (pair entries x rows): entry (l, j) is the table's, masked by
    t_l and, for j = 1 + k, by t_k.  ``np.cumsum`` along the entry axis adds them in the
    same order for every row, over l, then k, ascending over every point.  ``np.add.reduce``
    would not: along a short axis, or over one row, it can sum pairwise.
    """
    count, width = t.shape
    half_comm = np.zeros(count)
    if not width:
        return half_comm
    block = _half_comm_rows(pairs.size)
    for start in range(0, count, block):
        part = t[start : start + block].T
        terms = np.empty((width, width + 1, part.shape[1]))
        terms[:, 0] = part
        np.multiply(part[:, None], part, out=terms[:, 1:])
        terms *= pairs[:, :, None]
        np.abs(np.cumsum(terms.reshape(pairs.size, -1), axis=0)[-1], out=half_comm[start : start + block])
    return half_comm


def support_profile(d: int, points: Sequence[int], t: np.ndarray) -> SpectralProfile:
    """Phase statistics of the sign rows x_r = 1 - 2 1_K_r, K_r = {points[j] : t[r, j] = 1}.

    ``points`` ascend and ``t`` is 0/1 with at most 2d ones per row.  Each
    row is read as the state x / sqrt(dim) = |theta_0> - (2 / sqrt(dim)) 1_K,
    with p_m = |F_m|**2 / dim**2 for F = fft(x), as in ``spectral_profile``:
      F_m / dim = delta_m0 - (t @ Q)_m,
    where Q holds the integer DFT rows round(2**s exp(-2 pi i m u / dim)) of
    the points, pre-scaled by ``_dft_rows`` by 2**(1 + shift), shift = -d - s.
    t @ Q adds at most 2d integers of at most 2**s times that power of two,
    so every partial sum is exact in any order: F does not depend on BLAS,
    its threads, or the other rows and points.  The real bin m = 0, where
    t @ Q is 2 |K| / dim, is formed on its own as p_0 = (1 - (t @ Q)_0)**2,
    and every bin as |t @ Q|**2 in place, in 3 passes, before p_0 is written
    back; |theta_0> gets p_0 = 1 exactly.  The phase
    moments and coherences are ``spectral_profile``'s reductions of those p,
    with the imaginary part's array as the scratch of ``_phase_sums``, each
    row folded to its period.  By the shift theorem, when every point of K
    is k_0 mod g = 2**v, |F_m| has period P = dim / g for m != 0 and is
    mirror symmetric within it, so a row at fold level l
    (``_fold_levels``: l = min(v, d - FOLD_FLOOR)) takes the product with the
    first P/2 + 1 columns of the DFT rows alone, P = dim / 2**l, and
    ``_phase_sums`` weights each bin by its orbit, 2**(l + 1) bins for
    0 < m < P/2 and 2**l at m = P/2, with p' = (t @ Q)_0**2 at the
    2**l - 1 bins m = jP, 0 < j < 2**l.  The floor keeps at least 257 bins,
    as each level pays a tile's fixed numpy cost (folding every level made
    a d = 6 call 3.1 times as slow).
    P theta_0 = 0, so with w = P n
      Im <N x|P x> / dim = (2 / dim) sum_{l in K} Im w_l
                           + (4 / dim) sum_{k, l in K} k Im P_kl,
    and half_comm is its magnitude: the pair table of ``_dft_rows`` masked by
    t_l, then t_l t_k, and summed by ``_half_comm`` as a running sum along
    the pair axis (sequential, no BLAS) over l, then k, ascending over every
    point.  The terms off K are exact zeros, so a state's values are a
    function of K alone.

    half_comm runs on ``_half_comm_rows`` rows at a time, then the DFT
    product, the squaring and ``_phase_sums`` on ``tile_rows(d) << l`` rows
    of one level l at a time, the same bytes as an unfolded tile, and the
    finishing once per call.
    """
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    t = np.asarray(t, dtype=np.float64)
    count, width = t.shape
    if width != len(points):
        raise ValueError(f"{width} columns of t for {len(points)} support points")
    if t.sum(axis=1).max(initial=0) > 2 * d:
        raise ValueError(f"a support state has more than 2d = {2 * d} points")
    require_bytes(f"support profile of {count} states over {width} points at d={d}",
                  support_bytes(count, width, 1 << d))
    cos, msin, pairs = _dft_rows(d, points)
    half_comm = _half_comm(pairs, t)
    sums = np.empty((5, count))  # the five phase sums of every row
    levels = _fold_levels(d, points, t)
    groups = [(0, None)] if levels is None else [
        (level, np.flatnonzero(levels == level)) for level in range(levels.max(initial=0) + 1)]
    for level, chosen in groups:
        bins, tile = (1 << d - level >> 1) + 1, tile_rows(d) << level
        for start in range(0, count if chosen is None else len(chosen), tile):
            rows = slice(start, start + tile) if chosen is None else chosen[start : start + tile]
            part = t[rows]
            re, im = part @ cos[:, :bins], part @ msin[:, :bins]
            extra = re[:, 0] ** 2 if level else None
            first = (1.0 - re[:, 0]) ** 2
            re *= re
            im *= im
            re += im
            re[:, 0] = first
            sums[:, rows] = _phase_sums(re, im, d, level, extra)
    mean, var, c_l1, c_rel = _phase_moments(*sums)
    return SpectralProfile(mean, var, half_comm, c_l1, c_rel)


def _fold_levels(d: int, points: Sequence[int], t: np.ndarray) -> np.ndarray | None:
    """Fold level of each row of ``support_profile``'s t, or None when d <= FOLD_FLOOR (every level 0).

    The level is min(v, d - FOLD_FLOOR), v the number of low bits in which
    every point of the row's K agrees (v = d when |K| <= 1): bit b agrees
    when the count of points of K with it set, t @ bit_b, an exact integer,
    is 0 or |K|.  It reads the row alone.
    """
    top = d - FOLD_FLOOR
    if top <= 0:
        return None
    bits = (np.asarray(points, dtype=np.int64)[:, None] >> np.arange(top)) & 1
    ones = t @ bits
    agree = (ones == 0) | (ones == t.sum(axis=1)[:, None])
    return np.logical_and.accumulate(agree, axis=1).sum(axis=1)


def _toeplitz(column: np.ndarray, row_tail: np.ndarray) -> np.ndarray:
    """Read-only strided view of the Toeplitz matrix with first column ``column`` and first
    row ``column[0], *row_tail``: entry (k, l) is column[k - l] for k >= l, else row_tail[l - k - 1].

    Row k is the window at dim - 1 - k of the vector (column reversed, then
    row_tail), so every entry is a copy of one of its 2 dim - 1 values; a
    circulant matrix is the case row_tail = column[:0:-1].
    """
    return sliding_window_view(np.concatenate((column[::-1], row_tail)), len(column))[::-1]


def phase_operator_dense(dim: int) -> np.ndarray:
    """Dense phase operator from its circulant entry formula, as a writable C-order array.

    Entry (k, l) is (2 pi / dim**2) sum_r r exp(i theta_r (k - l)); the
    value depends only on (k - l) mod dim, so a single column determines
    the matrix, copied out of the strided circulant view of ``_toeplitz``
    (bit for bit the gather column[(k - l) mod dim]).  Equals
    sum_m theta_m |theta_m><theta_m|.
    """
    _require_power_of_two(dim)
    # The complex128 matrix, and the ramp, its transform, the column and the
    # windowed vector (72 per index).
    require_bytes(f"dense phase operator at dim={dim}", 16 * dim * dim + 72 * dim)
    # conj(fft) of the ramp r -> sum_r r exp(+i theta_r s), s = 0 .. dim-1
    column = (2.0 * np.pi / dim**2) * np.conj(np.fft.fft(np.arange(dim, dtype=np.float64)))
    return _toeplitz(column, column[:0:-1]).copy()


def number_phase_commutator_dense(dim: int) -> np.ndarray:
    """Dense [N, P]: entry (k, l) equals (k - l) P_kl, Toeplitz by shape."""
    _require_power_of_two(dim)
    # The int64 differences k - l, the phase operator and their product.
    require_bytes(f"dense [N, P] at dim={dim}", 40 * dim * dim)
    k = np.arange(dim)
    return (k[:, None] - k[None, :]) * phase_operator_dense(dim)


def gershgorin_bound(dim: int) -> float:
    """Published closed form 2 pi (dim-1)**2 / (4 dim**2) for the [N, P] spectrum.

    Reported for comparison with the published account; the spectrum does
    not actually respect it (see SpectralBoundReport for the bound that
    holds and the counterexample).
    """
    _require_power_of_two(dim)
    return 2.0 * np.pi * (dim - 1) ** 2 / (4.0 * dim**2)


@dataclass(frozen=True)
class PropertyCheck:
    holds: bool
    max_deviation: float


@dataclass(frozen=True)
class StructureReport:
    """Structural classification of a square matrix at tolerance 1e-10 * dim."""

    dim: int
    tolerance: float
    hermitian: PropertyCheck
    skew_hermitian: PropertyCheck
    toeplitz: PropertyCheck
    circulant: PropertyCheck

    def to_dict(self) -> dict:
        return asdict(self)


def verify_structure(op: np.ndarray) -> StructureReport:
    """Check Hermitian / skew-Hermitian / Toeplitz / circulant structure.

    Each deviation is the largest entry of |op - M|, with M the adjoint, minus
    the adjoint, or the Toeplitz (circulant) matrix that the first column and
    first row (the first column alone) of ``op`` determine, read as a strided
    view by ``_toeplitz`` rather than gathered entry by entry.
    """
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {op.shape}")
    dim = op.shape[0]
    tol = 1e-10 * dim
    adjoint = op.conj().T
    dev_h = float(np.max(np.abs(op - adjoint)))
    dev_s = float(np.max(np.abs(op + adjoint)))
    column = op[:, 0]
    dev_t = float(np.max(np.abs(op - _toeplitz(column, op[0, 1:])))) if dim > 1 else 0.0
    dev_c = float(np.max(np.abs(op - _toeplitz(column, column[:0:-1])))) if dim > 1 else 0.0

    def check(dev: float) -> PropertyCheck:
        return PropertyCheck(holds=bool(dev <= tol), max_deviation=dev)

    return StructureReport(
        dim=dim,
        tolerance=tol,
        hermitian=check(dev_h),
        skew_hermitian=check(dev_s),
        toeplitz=check(dev_t),
        circulant=check(dev_c),
    )


def phase_operator_agreement(phase_op: np.ndarray, states: Sequence[np.ndarray]) -> tuple[float, float]:
    """Largest errors of the dense phase operator ``phase_op`` against its two other routes.

    Returns max |P - F diag(theta) F^dagger| over entries, with F the unitary
    Fourier matrix, and max |apply_phase_operator(psi) - P psi| over ``states``.
    Entry (k, l) of F diag(theta) F^dagger is the spectral sum
    s_j = (1 / dim) sum_m theta_m omega**(j m), omega = exp(2 pi i / dim), at
    the difference j = (k - l) mod dim, so each s_j is evaluated once, as a
    direct sum over a table of the dim roots of unity gathered at jm mod dim
    (exp of the exact reduced angle, not of jm itself, whose rounding grows
    with jm): O(dim**2) in all.  Every entry of P is compared with the
    circulant view of s that ``_toeplitz`` reads.
    """
    dim = len(phase_op)
    angles = phase_angles(dim)
    # The int64 index jm mod dim and the gathered roots (complex128), then P minus
    # the circulant view of s and its magnitudes (float64): 24 per entry either way.
    # The vectors of the sum and of the FFT check take about 50 per index (measured
    # with tracemalloc at dim = 256 and 1024: 24.05 to 24.2 per entry in all).
    require_bytes(f"spectral sum at dim={dim}", 24 * dim * dim + 64 * dim)
    n = np.arange(dim)
    roots = np.exp(2j * np.pi * n / dim)
    spectral = roots[np.multiply.outer(n, n) & (dim - 1)] @ angles / dim
    spectral_error = float(np.max(np.abs(phase_op - _toeplitz(spectral, spectral[:0:-1]))))
    fft_error = max(float(np.max(np.abs(apply_phase_operator(s) - phase_op @ s))) for s in states)
    return spectral_error, fft_error


@dataclass(frozen=True)
class SpectralBoundReport:
    """Spectral-radius and row-sum bounds on the [N, P] spectrum, so on any |<[N, P]>|.

    ``stated_bound`` is the published closed form 2 pi (dim-1)**2 / (4 dim**2),
    reported for comparison: it drops a dim**2 factor and does not bound the
    spectrum (counterexample at dim = 2: eigenvalues +-pi/2 vs a claimed
    pi/8).  ``row_sum_bound``, the max absolute row sum of the matrix, is the
    Gershgorin bound that the spectrum provably respects.
    """

    dim: int
    spectral_radius: float
    row_sum_bound: float
    stated_bound: float
    within_row_sum: bool

    def to_dict(self) -> dict:
        return asdict(self)


def _real_form(comm: np.ndarray) -> np.ndarray:
    """The real symmetric R = -Im C - (Re C) J, with the spectrum of i C for a skew-Hermitian Toeplitz C.

    H = i C is Hermitian Toeplitz, so J H J = conj H for the exchange matrix
    J, and with the unitary U = (I + iJ) / sqrt(2),
    U^dagger H U = Re H - (Im H) J = -Im C - (Re C) J.
    """
    return -comm.imag - comm.real[:, ::-1]


def spectral_bound_check(dim: int, comm: np.ndarray | None = None) -> SpectralBoundReport:
    """Bounds on the spectrum of i[N, P] at ``dim``; ``comm`` is the dense [N, P] if already built.

    ``comm`` must be the (dim, dim) dense [N, P] (any other shape is a
    ValueError): the spectrum comes from a real symmetric eigensolve of
    ``_real_form(comm)``, similar to i[N, P] through U = (I + iJ) / sqrt(2)
    only because i[N, P] is Hermitian Toeplitz.
    """
    _require_power_of_two(dim)
    require_cubic_work("eigensolver", dim)
    if comm is None:
        comm = number_phase_commutator_dense(dim)
    elif np.shape(comm) != (dim, dim):
        raise ValueError(f"[N, P] at dim={dim} must have shape ({dim}, {dim}), got {np.shape(comm)}")
    eigenvalues = np.linalg.eigvalsh(_real_form(comm))
    radius = float(np.max(np.abs(eigenvalues)))
    row_sum = float(np.max(np.sum(np.abs(comm), axis=1)))
    return SpectralBoundReport(
        dim=dim,
        spectral_radius=radius,
        row_sum_bound=row_sum,
        stated_bound=gershgorin_bound(dim),
        within_row_sum=bool(radius <= row_sum + 1e-12 * max(1.0, radius)),
    )


def quadrature_commutator(dim: int, k: int) -> np.ndarray:
    """Dense [X**k, P**k] of the position/momentum quadratures at ``dim``."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    require_cubic_work("dense quadrature commutator", dim)
    x_k = np.linalg.matrix_power(position(dim), k)
    p_k = np.linalg.matrix_power(momentum(dim), k)
    return x_k @ p_k - p_k @ x_k
