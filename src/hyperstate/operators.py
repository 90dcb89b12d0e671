"""Truncated oscillator algebra and the discrete phase operator.

All operators act on the 2**d dimensional space spanned by the number
states |0>, ..., |2**d - 1>.  The ladder operators are the finite
truncations (a annihilates |0>, a-dagger annihilates the top state), so
[a, a-dagger] = I - dim |dim-1><dim-1| instead of the identity.

The phase basis consists of the discrete-Fourier vectors |theta_m> with
angles theta_m = 2 pi m / dim, theta_0 = 0.  The phase operator is
sum_m theta_m |theta_m><theta_m|, a Hermitian circulant matrix; its
commutator with the number operator is skew-Hermitian Toeplitz.

Squeezing and phase-basis coherence of real states are evaluated along one
route, ``spectral_profile``: one zero-padded real FFT and its inverse per
state, batched over a stack of states.  Dense matrices and the complex-state
FFT helpers (``phase_overlaps``, ``apply_phase_operator``,
``number_phase_commutator_expectation``) serve general states, structure and
spectral checks, and act as the profile's test oracles.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import GuardError

MAX_DENSE_DIM = 4096
MAX_EIG_DIM = 256


def _require_power_of_two(dim: int, what: str = "dimension") -> None:
    if dim < 1 or dim & (dim - 1):
        raise ValueError(f"{what} must be a power of two, got {dim}")


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


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """AB - BA."""
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"incompatible shapes {a.shape} and {b.shape}")
    return a @ b - b @ a


def expectation(op: np.ndarray, psi: np.ndarray) -> complex:
    """<psi| op |psi> for a normalized state."""
    if op.shape != (len(psi), len(psi)):
        raise ValueError(f"operator shape {op.shape} does not match state length {len(psi)}")
    return complex(np.vdot(psi, op @ psi))


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


def phase_overlaps(psi: np.ndarray) -> np.ndarray:
    """Overlaps <theta_m|psi> for all m, via the discrete Fourier transform.

    Costs O(dim log dim); the squared magnitudes sum to 1 for a normalized
    state (the phase basis is orthonormal and complete).
    """
    dim = len(psi)
    _require_power_of_two(dim)
    return np.fft.fft(psi) / np.sqrt(float(dim))


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


def spectral_profile(psi: np.ndarray) -> SpectralProfile:
    """Phase statistics of real states ``psi`` (shape ``(..., dim)``) from two FFTs.

    With F = rfft(psi, 2 dim), the even bins F[2m] equal fft(psi)[m], so
    p_m = |F[2m]|**2 / dim for m <= dim/2; real amplitudes make the phase
    distribution mirror-symmetric, p_{dim-m} = p_m.  irfft(|F|**2, 2 dim) is
    the linear autocorrelation R(s) = sum_n psi_n psi_{n+s}.  [N, P] is
    Toeplitz with Im P[s, 0] = -(pi/dim) cot(pi s/dim), so
    |<[N, P]>| / 2 = (pi/dim) |sum_{s=1}^{dim-1} s R(s) cot(pi s/dim)|.

    Every reduction is a row-wise ``np.sum``, so a state's values do not
    depend on which other states share its batch.
    """
    psi = np.asarray(psi)
    if np.iscomplexobj(psi):
        raise ValueError("spectral_profile needs real amplitudes")
    dim = psi.shape[-1] if psi.ndim else 0
    _require_power_of_two(dim)
    if dim < 2:
        raise ValueError(f"need dim >= 2, got {dim}")
    rows = psi.reshape(-1, dim).astype(np.float64, copy=False)
    spectrum = np.fft.rfft(rows, 2 * dim, axis=-1)
    power = spectrum.real**2 + spectrum.imag**2
    half = power[:, ::2] / dim
    prob = np.concatenate((half, half[:, dim // 2 - 1 : 0 : -1]), axis=-1)
    theta = phase_angles(dim)
    mean = np.sum(theta * prob, axis=-1)
    # Centered form: E[theta**2] - mean**2 loses ~1e-14 to cancellation,
    # enough to reorder near-tied variances in a sweep summary.
    var = np.sum(prob * (theta - mean[:, None]) ** 2, axis=-1)
    autocorr = np.fft.irfft(power, 2 * dim, axis=-1)[:, 1:dim]
    s = np.arange(1, dim)
    weight = s / np.tan(np.pi * s / dim)
    weight[dim // 2 - 1] = 0.0  # s = dim/2: cot(pi/2) is exactly zero
    half_comm = (np.pi / dim) * np.abs(np.sum(autocorr * weight, axis=-1))
    total = np.sum(prob, axis=-1)
    c_l1 = np.sum(np.sqrt(prob), axis=-1) ** 2 / total - 1.0
    prob /= total[:, None]
    logs = np.log(prob, out=np.zeros_like(prob), where=prob > 0.0)
    c_rel = -np.sum(prob * logs, axis=-1)
    shape = psi.shape[:-1]
    return SpectralProfile(
        *(value.reshape(shape) for value in (mean, var, half_comm, c_l1, c_rel))
    )


def phase_operator_dense(dim: int) -> np.ndarray:
    """Dense phase operator from its circulant entry formula.

    Entry (k, l) is (2 pi / dim**2) sum_r r exp(i theta_r (k - l)); the
    value depends only on (k - l) mod dim, so a single column determines
    the matrix.  Equals sum_m theta_m |theta_m><theta_m|.
    """
    _require_power_of_two(dim)
    if dim > MAX_DENSE_DIM:
        raise GuardError(f"dim={dim} exceeds the dense-operator guard ({MAX_DENSE_DIM})")
    # conj(fft) of the ramp r -> sum_r r exp(+i theta_r s), s = 0 .. dim-1
    column = (2.0 * np.pi / dim**2) * np.conj(np.fft.fft(np.arange(dim, dtype=np.float64)))
    k = np.arange(dim)
    return column[(k[:, None] - k[None, :]) % dim]


def number_phase_commutator_dense(dim: int) -> np.ndarray:
    """Dense [N, P]: entry (k, l) equals (k - l) P_kl, Toeplitz by shape."""
    _require_power_of_two(dim)
    if dim > MAX_DENSE_DIM:
        raise GuardError(f"dim={dim} exceeds the dense-operator guard ({MAX_DENSE_DIM})")
    k = np.arange(dim)
    return (k[:, None] - k[None, :]) * phase_operator_dense(dim)


def number_phase_commutator_expectation(psi: np.ndarray) -> complex:
    """<psi|[N, P]|psi> evaluated with two FFT-based operator applications.

    Purely imaginary (both operators Hermitian); works at any power-of-two
    dimension without materializing the dense commutator.
    """
    dim = len(psi)
    _require_power_of_two(dim)
    n = np.arange(dim)
    n_then_p = np.vdot(psi, n * apply_phase_operator(psi))
    p_then_n = np.vdot(psi, apply_phase_operator(n * psi))
    return complex(n_then_p - p_then_n)


def gershgorin_bound(dim: int) -> float:
    """Published closed form 2 pi (dim-1)**2 / (4 dim**2) for the [N, P] spectrum.

    Reported for comparison with the published account; the spectrum does
    not actually respect it (see commutator_row_sum_bound for the bound
    that holds and the counterexample).
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


def commutator_row_sum_bound(dim: int) -> float:
    """Max absolute row sum of the dense [N, P]: the working Gershgorin bound.

    The closed-form evaluation gershgorin_bound() published alongside this
    operator drops a dim**2 factor and does not actually bound the spectrum
    (counterexample at dim = 2: eigenvalues +-pi/2 vs a claimed pi/8); the
    row sums computed from the matrix itself always do.
    """
    comm = number_phase_commutator_dense(dim)
    return float(np.max(np.sum(np.abs(comm), axis=1)))


@dataclass(frozen=True)
class SpectralBoundReport:
    """Spectral-radius and row-sum bounds on the [N, P] expectation.

    ``stated_bound`` is the published closed form 2 pi (dim-1)**2 / (4 dim**2),
    reported for comparison; ``row_sum_bound`` is the Gershgorin bound
    computed from the matrix, which the spectrum provably respects.
    """

    dim: int
    expectation_abs: float
    spectral_radius: float
    row_sum_bound: float
    stated_bound: float
    within_spectrum: bool
    within_row_sum: bool

    def to_dict(self) -> dict:
        return asdict(self)


def spectral_bound_check(psi: np.ndarray) -> SpectralBoundReport:
    """Check |<[N, P]>| against the spectrum of the Hermitian i[N, P]."""
    dim = len(psi)
    _require_power_of_two(dim)
    if dim > MAX_EIG_DIM:
        raise GuardError(f"dim={dim} exceeds the eigensolver guard ({MAX_EIG_DIM})")
    comm = number_phase_commutator_dense(dim)
    eigenvalues = np.linalg.eigvalsh(1j * comm)
    radius = float(np.max(np.abs(eigenvalues)))
    row_sum = float(np.max(np.sum(np.abs(comm), axis=1)))
    expect = abs(complex(np.vdot(psi, comm @ psi)))
    slack = 1e-12 * max(1.0, radius)
    return SpectralBoundReport(
        dim=dim,
        expectation_abs=expect,
        spectral_radius=radius,
        row_sum_bound=row_sum,
        stated_bound=gershgorin_bound(dim),
        within_spectrum=bool(expect <= radius + slack),
        within_row_sum=bool(radius <= row_sum + slack),
    )


def quadrature_commutator_expectation(psi: np.ndarray, k: int = 1) -> complex:
    """<psi|[X**k, P**k]|psi> for the position/momentum quadratures."""
    dim = len(psi)
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if dim > MAX_EIG_DIM:
        raise GuardError(f"dim={dim} exceeds the dense quadrature guard ({MAX_EIG_DIM})")
    x_k = np.linalg.matrix_power(position(dim), k)
    p_k = np.linalg.matrix_power(momentum(dim), k)
    return complex(np.vdot(psi, (x_k @ p_k - p_k @ x_k) @ psi))
