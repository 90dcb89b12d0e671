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
``_phase_sums`` reads each mirror-weighted row sum over the half spectrum as
twice the plain row sum less the unmirrored end bins, in 9 passes over one
scratch array, each over whole rows, and ``_phase_moments`` finishes the
sums, with the relative entropy as log T - (sum p log p) / T for the total
T (p = 0 adds exactly 0).
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
Only values that depend on d (and a point index) alone are cached:
``_support_tables``, ``_im_w`` and ``_half_spectrum_weights``.  Anything
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
    psi and n psi.  ``_phase_sums`` reduces p, reading each mirror-weighted
    sum as twice the row sum less the unmirrored end bins, with the squared
    imaginary parts' array as its scratch, and ``_phase_moments`` finishes
    the sums.  Every reduction is a row-wise
    ``np.sum``, so a state's values do not depend on which other states share
    its batch.
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
    half_comm = np.abs(np.sum(cross * _half_spectrum_weights(dim)[0], axis=-1)) / scale
    mean, var, c_l1, c_rel = _phase_moments(*_phase_sums(prob, scratch))
    shape = psi.shape[:-1]
    return SpectralProfile(
        *(value.reshape(shape) for value in (mean, var, half_comm, c_l1, c_rel))
    )


@lru_cache(maxsize=2)
def _half_spectrum_weights(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Weights over the half spectrum m = 0 .. dim/2: 2 (theta_m - pi) with 0 at both ends (half_comm),
    and mirror_m (theta_m - pi)**2 (the variance), mirror_m = 1 at m = 0 and m = dim/2, else 2."""
    offset = phase_angles(dim)[: dim // 2 + 1] - np.pi
    comm = 2.0 * offset
    comm[[0, -1]] = 0.0
    spread = np.full(dim // 2 + 1, 2.0)
    spread[[0, -1]] = 1.0
    spread *= offset**2
    comm.flags.writeable = spread.flags.writeable = False
    return comm, spread


def _phase_sums(prob: np.ndarray, scratch: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per row of half-spectrum phase probabilities, the five sums ``_phase_moments`` finishes:
    p_0, and the mirror-weighted sums over m >= 1 of p and of the variance terms, and over
    every bin of sqrt p and of p log p.

    ``prob`` holds p_m = |F_m|**2 / dim for m = 0 .. dim/2, one row per state,
    and is left as it is; ``scratch``, of the same shape, holds in turn the
    variance terms, the square roots and the logs: 9 passes over the bins in
    all, each over whole rows (at d = 12 the product over the rows less their
    first bin measured 1.6 times as slow), so the variance terms include an
    unread one at m = 0.  A mirror-weighted sum is twice the plain row sum
    less the bins with no mirror (m = 0 and m = dim/2); the doubling is
    exact.  Sums over m >= 1 are taken directly, not as T - p_0, which would
    cancel when p_0 is close to 1.  The log is taken of max(p_m, tiny), the smallest normal float, so
    a bin with p_m = 0 adds exactly 0.  Every reduction is a row-wise
    ``np.sum``, so a state's sums do not depend on its batch.
    """
    spread_weights = _half_spectrum_weights(2 * (prob.shape[-1] - 1))[1]
    rest = 2.0 * np.sum(prob[:, 1:], axis=-1) - prob[:, -1]
    spread = np.sum(np.multiply(prob, spread_weights, out=scratch)[:, 1:], axis=-1)
    roots = np.sqrt(prob, out=scratch)
    roots = 2.0 * np.sum(roots, axis=-1) - roots[:, 0] - roots[:, -1]
    logs = np.log(np.maximum(prob, np.finfo(np.float64).tiny, out=scratch), out=scratch)
    logs *= prob
    logs = 2.0 * np.sum(logs, axis=-1) - logs[:, 0] - logs[:, -1]
    return prob[:, 0], rest, spread, roots, logs


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
    # the probabilities and the reductions' scratch (16 per bin), kept at 32.
    # Per state of the call its row of t, and its half_comm, five phase sums
    # and finished profile with the temporaries of finishing it (8 per point
    # and 104; 94 to 99 measured at d = 4 and 8).  Measured peaks at d = 8 .. 16,
    # for 1 row, 1023 rows and the whole connected dminus1 family, with the
    # tables built in the call or before it, are 0.43 to 0.91 of this sum.
    return (72 * dim + 24 * points * half + 24 * pairs + max(block * 16 * pairs, tile * 32 * half)
            + count * (8 * points + 104))


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
    with the imaginary part's array as the scratch of ``_phase_sums``.
    P theta_0 = 0, so with w = P n
      Im <N x|P x> / dim = (2 / dim) sum_{l in K} Im w_l
                           + (4 / dim) sum_{k, l in K} k Im P_kl,
    and half_comm is its magnitude: the pair table of ``_dft_rows`` masked by
    t_l, then t_l t_k, and summed by ``_half_comm`` as a running sum along
    the pair axis (sequential, no BLAS) over l, then k, ascending over every
    point.  The terms off K are exact zeros, so a state's values are a
    function of K alone.

    half_comm runs on ``_half_comm_rows`` rows at a time, then the DFT
    product, the squaring and ``_phase_sums`` on ``tile_rows(d)`` rows at a
    time, and the finishing once per call.
    """
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
    tile, sums = tile_rows(d), np.empty((5, count))  # the five phase sums of every row
    for start in range(0, count, tile):
        part = t[start : start + tile]
        re, im = part @ cos, part @ msin
        first = (1.0 - re[:, 0]) ** 2
        re *= re
        im *= im
        re += im
        re[:, 0] = first
        sums[:, start : start + tile] = _phase_sums(re, im)
    mean, var, c_l1, c_rel = _phase_moments(*sums)
    return SpectralProfile(mean, var, half_comm, c_l1, c_rel)


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
