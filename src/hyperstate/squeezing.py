"""Number/phase statistics and squeezing degrees of hypergraph states.

The degree of squeezing of an observable A against the half commutator
h = |<[N, P]>| / 2 is (Var A - h) / h; negative values signal squeezing.
Number statistics admit closed forms independent of the hypergraph:
mean (2**d - 1)/2 and variance (2**d - 1)(2**d + 1)/12.  The phase
statistics and h of a hypergraph state come from its spectral profile
(``state.hypergraph_profile``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .hypergraph import Hypergraph, edges_text
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


def squeeze_degrees(
    var_n: float, var_p: np.ndarray | float, half: np.ndarray | float
) -> tuple[np.ndarray, np.ndarray]:
    """(s_n, s_p) against the half commutator ``half``, elementwise; NaN where undefined."""
    var_p, half = np.asarray(var_p, dtype=np.float64), np.asarray(half, dtype=np.float64)
    defined = half >= HALF_COMM_FLOOR
    with np.errstate(divide="ignore", invalid="ignore"):
        s_n = np.where(defined, (var_n - half) / half, np.nan)
        s_p = np.where(defined, (var_p - half) / half,
                       np.where(np.abs(var_p) < HALF_COMM_FLOOR, -1.0, np.nan))
    return s_n, s_p


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
    s_n, s_p = (None if np.isnan(s) else float(s) for s in squeeze_degrees(var_n, var_p, half))
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
