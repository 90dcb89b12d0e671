"""Number/phase statistics and squeezing degrees of hypergraph states.

The degree of squeezing of an observable A against the half commutator
h = |<[N, P]>| / 2 is (Var A - h) / h; negative values signal squeezing.
Number statistics admit closed forms independent of the hypergraph:
mean (2**d - 1)/2 and variance (2**d - 1)(2**d + 1)/12.  The phase
statistics and h of a hypergraph state come from its spectral profile
(``state.hypergraph_profile``); ``phase_stats`` evaluates the phase
moments of any complex state directly from its phase-basis overlaps.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .hypergraph import Hypergraph, edges_text
from .operators import phase_angles, phase_overlaps
from .state import hypergraph_profile

# Below this the commutator expectation counts as vanishing and squeezing
# degrees are undefined (except the var_p = 0 case, which is -1).
HALF_COMM_FLOOR = 1e-14


def number_stats(d: int) -> tuple[float, float]:
    """Closed-form (mean, variance) of the number operator at ``d`` qubits."""
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    dim = 1 << d
    return (dim - 1) / 2.0, (dim - 1) * (dim + 1) / 12.0


def phase_stats(psi: np.ndarray) -> tuple[float, float]:
    """(mean, variance) of the phase operator from |<theta_m|psi>|**2."""
    theta = phase_angles(len(psi))
    prob = np.abs(phase_overlaps(psi)) ** 2
    mean = float(np.sum(theta * prob))
    second = float(np.sum(theta**2 * prob))
    return mean, second - mean**2


def squeeze_degrees(var_n: float, var_p: float, half: float) -> tuple[float | None, float | None]:
    """(s_n, s_p) against the half commutator ``half``; None where undefined."""
    if half >= HALF_COMM_FLOOR:
        return (var_n - half) / half, (var_p - half) / half
    return None, (-1.0 if abs(var_p) < HALF_COMM_FLOOR else None)


@dataclass(frozen=True)
class SqueezeReport:
    """Number/phase means, variances, and squeezing degrees for one state.

    ``s_n``/``s_p`` are None (undefined) when the commutator expectation
    vanishes, except that var_p = 0 with a vanishing commutator reports
    s_p = -1, the minimum squeezing.
    """

    d: int
    edges: str
    mean_n: float
    var_n: float
    mean_p: float
    var_p: float
    half_comm: float
    s_n: float | None
    s_p: float | None

    def to_dict(self) -> dict:
        return asdict(self)


def squeeze_report(g: Hypergraph) -> SqueezeReport:
    """Assemble the squeezing report of the hypergraph state of ``g``."""
    profile = hypergraph_profile(g)
    mean_n, var_n = number_stats(g.d)
    mean_p, var_p, half = float(profile.mean_p), float(profile.var_p), float(profile.half_comm)
    s_n, s_p = squeeze_degrees(var_n, var_p, half)
    return SqueezeReport(
        d=g.d,
        edges=edges_text(g),
        mean_n=mean_n,
        var_n=var_n,
        mean_p=mean_p,
        var_p=var_p,
        half_comm=half,
        s_n=s_n,
        s_p=s_p,
    )
