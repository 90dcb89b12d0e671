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
routes that share one set of reductions, ``_phase_moments``.  It reads each
mirror-weighted sum over the half spectrum as twice the plain row sum less
the unmirrored end bins, takes the relative entropy as log T - (sum p log p)
/ T with T the total (a bin with p = 0 is logged at the smallest normal
float and adds exactly 0), and reuses one scratch array for its 9 passes.
``spectral_profile`` (the rfft route) takes the half spectra of psi and n psi
from one length-dim real FFT, batched over a stack of states and read with
mirror weights (Parseval turns <[N, P]> into a weighted sum over those
bins).  ``support_profile`` (the support route) takes states
psi = |theta_0> - (2 / sqrt(dim)) 1_K with few points in K: their spectra
are exact integer sums over a DFT table at K, squared in place, and
<[N, P]> comes from closed forms of the Pegg–Barnett kernel on K; the rfft
route is its test oracle.  Dense matrices, functions of the dimension alone
(a caller takes a state's expectation with ``np.vdot``), and
``apply_phase_operator``, the FFT application of P to any complex state,
serve the structure and spectral checks and the tests' oracles.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import require_bytes, require_cubic_work


def _require_power_of_two(dim: int) -> None:
    if dim < 1 or dim & (dim - 1):
        raise ValueError(f"dimension must be a power of two, got {dim}")


def annihilation(dim: int) -> np.ndarray:
    """Lowering operator: a|i> = sqrt(i)|i-1>, a|0> = 0."""
    if dim < 2:
        raise ValueError(f"need dim >= 2, got {dim}")
    return np.diag(np.sqrt(np.arange(1, dim)), k=1).astype(np.complex128)


def creation(dim: int) -> np.ndarray:
    """Raising operator: a-dagger|i> = sqrt(i+1)|i+1>, top state killed."""
    if dim < 2:
        raise ValueError(f"need dim >= 2, got {dim}")
    return np.diag(np.sqrt(np.arange(1, dim)), k=-1).astype(np.complex128)


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


def phase_state(dim: int, m: int) -> np.ndarray:
    """Phase basis vector |theta_m>, amplitudes exp(i theta_m n)/sqrt(dim)."""
    _require_power_of_two(dim)
    if not 0 <= m < dim:
        raise ValueError(f"phase index m={m} out of range for dim={dim}")
    n = np.arange(dim)
    return np.exp(2j * np.pi * m * n / dim) / np.sqrt(float(dim))


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


def profile_bytes(count: int, dim: int) -> int:
    """Bytes ``spectral_profile`` holds at its peak, the rfft, for ``count`` states of length ``dim``."""
    # The float64 states (8 per amplitude), the stacked psi and n psi (16), their
    # half spectra, at most one float64 buffer per transformed row (16) and the
    # length-dim plan (8 per amplitude of one state).
    return count * (40 * dim + 32 * (dim // 2 + 1)) + 8 * dim


def spectral_profile(psi: np.ndarray) -> SpectralProfile:
    """Phase statistics of real states ``psi`` (shape ``(..., dim)``) from one batched rfft.

    With F = fft(psi) and G = fft(n psi), the phase probabilities are
    p_m = |F_m|**2 / dim.  Real amplitudes make the spectra Hermitian,
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
    psi and n psi.  ``_phase_moments`` reduces p, reading each mirror-weighted
    sum as twice the row sum less the unmirrored end bins, with the squared
    imaginary parts' array as its scratch.  Every reduction is a row-wise
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
    spectra = np.fft.rfft(np.concatenate((rows, rows * np.arange(dim))), axis=-1)
    f, g = spectra[:count], spectra[count:]
    prob, scratch = f.real**2, f.imag**2
    prob += scratch
    prob /= dim
    cross = g.real * f.imag - g.imag * f.real
    half_comm = np.abs(np.sum(cross * _half_spectrum_weights(dim)[0], axis=-1)) / dim
    mean, var, c_l1, c_rel = _phase_moments(prob, scratch)
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


def _phase_moments(
    prob: np.ndarray, scratch: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """mean_p, var_p, c_l1_phase and c_rel_phase of half-spectrum phase probabilities.

    ``prob`` holds p_m = |F_m|**2 / dim for m = 0 .. dim/2, one row per state,
    and is left as it is; ``scratch``, of the same shape, is overwritten.  It
    holds in turn the variance terms, the square roots and the logs, so no
    reduction allocates a row: 9 passes over the bins in all.

    A mirror-weighted sum is read as twice the plain row sum minus the bins
    that have no mirror: 2 sum_{m>=1} - p_{dim/2} over m >= 1, and
    2 sum_m - (m = 0) - (m = dim/2) over every bin.  The doubling is exact.
    Sums over m >= 1 are taken directly, not as T - p_0, which would cancel
    when p_0 is close to 1; the m = 0 bin's variance term is p_0 mean**2.
    With T the mirror-weighted total (1 up to round-off),
      c_l1_phase = (sum_m sqrt p_m)**2 / T - 1,
      c_rel_phase = -sum_m (p_m / T) log(p_m / T) = log T - (sum_m p_m log p_m) / T,
    with the log taken of max(p_m, tiny), the smallest normal float, so a bin
    with p_m = 0 adds exactly 0 and no log(0) is taken.  Every reduction is a
    row-wise ``np.sum``, so a state's values do not depend on its batch.
    """
    spread_weights = _half_spectrum_weights(2 * (prob.shape[-1] - 1))[1]
    p0, last = prob[:, 0], prob[:, -1]
    rest = 2.0 * np.sum(prob[:, 1:], axis=-1) - last
    total = p0 + rest
    mean = np.pi * rest
    spread = np.sum(np.multiply(prob[:, 1:], spread_weights[1:], out=scratch[:, 1:]), axis=-1)
    var = spread + (np.pi - mean) ** 2 * rest + p0 * mean**2
    roots = np.sqrt(prob, out=scratch)
    c_l1 = (2.0 * np.sum(roots, axis=-1) - roots[:, 0] - roots[:, -1]) ** 2 / total - 1.0
    logs = np.log(np.maximum(prob, np.finfo(np.float64).tiny, out=scratch), out=scratch)
    logs *= prob
    c_rel = np.log(total) - (2.0 * np.sum(logs, axis=-1) - logs[:, 0] - logs[:, -1]) / total
    return mean, var, c_l1, c_rel


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


@lru_cache(maxsize=1)
def _dft_rows(d: int, points: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The integer DFT table's cos and -sin rows at ``points``, over m = 0 .. dim/2, and
    (2 / dim) Im (P n) at each point.

    One entry is kept, so a sweep whose chunks share their points builds them once.
    """
    dim = 1 << d
    cos, msin = _support_tables(d)[:2]
    index = np.multiply.outer(np.array(points, dtype=np.int64), np.arange(dim // 2 + 1))
    index &= dim - 1  # in place: fewer fresh pages
    rows = np.take(cos, index), np.take(msin, index), (2.0 / dim) * np.array([_im_w(d, p) for p in points])
    for row in rows:
        row.flags.writeable = False
    return rows


def support_bytes(count: int, points: int, dim: int) -> int:
    """Bytes ``support_profile`` holds at its peak for ``count`` states over ``points`` support points."""
    half = dim // 2 + 1
    # The three float64 tables of this d and the kept tables of smaller d
    # (under 48 per index) and, while Im (P n) is summed at one point, its
    # int64 index and two float64 term arrays (24 per index; building the
    # tables peaks at 40, measured with tracemalloc at d = 16); gathering the
    # DFT rows beside the kept rows of the last gather: the int64 index and
    # two float64 rows of each, 40 per point and bin; per state the
    # spectrum's two parts, squared in place into the probabilities and the
    # reductions' scratch (16 per bin; tracemalloc measured at most 23 per
    # bin, half_comm terms included, at d = 10 and 12), kept at 32; and the
    # half_comm terms of each state's at most 2d points, with their indices
    # and running sums (64 per pair).
    pairs = min(points, 2 * (dim.bit_length() - 1))
    return 72 * dim + 40 * points * half + 32 * count * half + 64 * count * pairs * (pairs + 1)


def support_profile(d: int, points: Sequence[int], t: np.ndarray) -> SpectralProfile:
    """Phase statistics of the states psi_r = (1 - 2 1_K_r) / sqrt(2**d), K_r = {points[j] : t[r, j] = 1}.

    ``points`` ascend and ``t`` is 0/1 with at most 2d ones per row.  Writing
    psi = |theta_0> - (2 / sqrt(dim)) 1_K,
      F_m = sqrt(dim) delta_m0 - (2 / sqrt(dim)) 2**-s (t @ Q)_m,
    where Q holds the integer DFT rows round(2**s exp(-2 pi i m u / dim)) of
    the points.  t @ Q adds at most 2d integers of at most 2**s, so every
    partial sum is an integer below 2**53 and exact in any order: F does not
    depend on BLAS, its threads, or the other rows and points.  With
    c = -(2 / sqrt(dim)) 2**-s, the real bin m = 0 is formed on its own as
    p_0 = (sqrt(dim) + c (t @ Q)_0)**2 / dim, and every bin as
    |t @ Q|**2 c**2 / dim in place, in 4 passes, before p_0 is written back.
    The phase moments and coherences are ``spectral_profile``'s reductions of
    those p, with the imaginary part's array as their scratch.
    P theta_0 = 0, so with w = P n
      Im <N psi|P psi> = (2 / dim) sum_{l in K} Im w_l
                         + (4 / dim) sum_{k, l in K} k Im P_kl,
    and half_comm is its magnitude, summed by ``np.cumsum`` (sequential, no
    BLAS) over l, then k, ascending in the row's K; the padding of shorter
    rows adds exact zeros.  A state's values are therefore a function of K
    alone.
    """
    dim = 1 << d
    t = np.asarray(t, dtype=np.float64)
    count, width = t.shape
    if width != len(points):
        raise ValueError(f"{width} columns of t for {len(points)} support points")
    width_k = int(t.sum(axis=1).max(initial=0))
    if width_k > 2 * d:
        raise ValueError(f"a support state has more than 2d = {2 * d} points")
    require_bytes(f"support profile of {count} states over {width} points at d={d}",
                  support_bytes(count, width, dim))
    cos, msin, linear = _dft_rows(d, tuple(points))
    re, im = t @ cos, t @ msin
    scale = -np.ldexp(2.0 / np.sqrt(dim), -_support_scale(d))
    first = (np.sqrt(dim) + scale * re[:, 0]) ** 2 / dim
    re *= re
    im *= im
    re += im
    re *= scale * scale / dim
    re[:, 0] = first
    mean, var, c_l1, c_rel = _phase_moments(re, im)
    # Each row's K in ascending order, padded with points outside K (present 0).
    order = np.argsort(-t, axis=1, kind="stable")[:, :width_k]
    present = np.take_along_axis(t, order, axis=1)
    k = np.asarray(points, dtype=np.int64)[order]
    # terms[r, l] = (2/dim) Im w_l, then (4/dim) k Im P_kl for each k, zero off K.
    linear = linear[order]
    im_p = (-np.pi / dim) * _support_tables(d)[2][(k[:, None, :] - k[:, :, None]) & (dim - 1)]
    pairs = ((4.0 / dim) * k)[:, None, :] * im_p
    terms = np.concatenate(
        ((present * linear)[:, :, None], (present[:, :, None] * present[:, None, :]) * pairs), axis=2
    ).reshape(count, width_k * (width_k + 1))
    half_comm = np.abs(np.cumsum(terms, axis=1)[:, -1]) if width_k else np.zeros(count)
    return SpectralProfile(mean, var, half_comm, c_l1, c_rel)


def phase_operator_dense(dim: int) -> np.ndarray:
    """Dense phase operator from its circulant entry formula.

    Entry (k, l) is (2 pi / dim**2) sum_r r exp(i theta_r (k - l)); the
    value depends only on (k - l) mod dim, so a single column determines
    the matrix.  Equals sum_m theta_m |theta_m><theta_m|.
    """
    _require_power_of_two(dim)
    # The int64 index (k - l) mod dim and the gathered complex128 matrix.
    require_bytes(f"dense phase operator at dim={dim}", 24 * dim * dim)
    # conj(fft) of the ramp r -> sum_r r exp(+i theta_r s), s = 0 .. dim-1
    column = (2.0 * np.pi / dim**2) * np.conj(np.fft.fft(np.arange(dim, dtype=np.float64)))
    k = np.arange(dim)
    return column[(k[:, None] - k[None, :]) % dim]


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
    """Check Hermitian / skew-Hermitian / Toeplitz / circulant structure."""
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {op.shape}")
    dim = op.shape[0]
    tol = 1e-10 * dim
    adjoint = op.conj().T
    dev_h = float(np.max(np.abs(op - adjoint)))
    dev_s = float(np.max(np.abs(op + adjoint)))
    k = np.arange(dim)
    diff = k[:, None] - k[None, :]
    # Toeplitz: constant along diagonals; representative entries come from
    # the first row (upper diagonals) and first column (lower), indexed by
    # (k - l) + dim - 1.
    first = np.concatenate((op[0, :0:-1], op[:, 0]))
    dev_t = float(np.max(np.abs(op - first[diff + dim - 1]))) if dim > 1 else 0.0
    dev_c = float(np.max(np.abs(op - op[:, 0][diff % dim]))) if dim > 1 else 0.0

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
    """
    dim = len(phase_op)
    require_cubic_work("spectral sum", dim)
    n = np.arange(dim)
    fourier = np.exp(2j * np.pi * np.outer(n, n) / dim) / np.sqrt(dim)
    spectral = (fourier * phase_angles(dim)) @ fourier.conj().T
    fft_error = max(float(np.max(np.abs(apply_phase_operator(s) - phase_op @ s))) for s in states)
    return float(np.max(np.abs(phase_op - spectral))), fft_error


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


def spectral_bound_check(dim: int, comm: np.ndarray | None = None) -> SpectralBoundReport:
    """Bounds on the spectrum of i[N, P] at ``dim``; ``comm`` is the dense [N, P] if already built."""
    _require_power_of_two(dim)
    require_cubic_work("eigensolver", dim)
    if comm is None:
        comm = number_phase_commutator_dense(dim)
    eigenvalues = np.linalg.eigvalsh(1j * comm)
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
