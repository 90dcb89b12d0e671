"""l1-norm and relative-entropy coherence of pure states.

For a pure state with coefficients c_i in the reference basis, the l1
coherence sum_{i != j} |rho_ij| collapses to (sum_i |c_i|)**2 - 1 and the
relative entropy of coherence to the Shannon entropy of {|c_i|**2} (the
pure-state von Neumann entropy vanishes).  ``l1_coherence`` and
``rel_entropy_coherence`` take the coefficients of any pure state.

``coherence_report`` builds no state in the number basis: all 2**d
coefficients of a hypergraph state have one magnitude, so the values are
2**d - 1 (d <= 1023) and d ln 2.  The phase basis reads the spectral profile
(``state.hypergraph_profile``), which equals the general measures applied
to the state's phase-basis overlaps <theta_m|psi>, its unitary DFT.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .hypergraph import Hypergraph, edges_text
from .state import hypergraph_profile

BASES = ("number", "phase")


def l1_coherence(psi: np.ndarray) -> float:
    """l1 coherence (sum|c|)**2 / sum|c|**2 - 1 of a pure state.

    The explicit normalization by sum|c|**2 makes the value insensitive to
    the stored norm and bit-exact (2**d - 1) for uniform-magnitude states:
    numerator and denominator then share one rounded mantissa.  fsum keeps
    both totals correctly rounded.
    """
    mags = np.abs(np.asarray(psi))
    total = math.fsum(mags.tolist())
    norm_sq = math.fsum((mags * mags).tolist())
    if norm_sq == 0.0:
        raise ValueError("zero state has no coherence")
    return total * total / norm_sq - 1.0


def rel_entropy_coherence(psi: np.ndarray) -> float:
    """Relative entropy of coherence: Shannon entropy of |c_i|**2, in nats."""
    prob = np.abs(np.asarray(psi)) ** 2
    total = prob.sum()
    if total == 0.0:
        raise ValueError("zero state has no coherence")
    prob = prob / total
    positive = prob[prob > 0.0]
    return float(-np.sum(positive * np.log(positive)))


@dataclass(frozen=True)
class CoherenceReport:
    """Both coherence measures of one hypergraph state in one basis."""

    d: int
    edges: str
    basis: str
    c_l1: float
    c_rel_ent: float

    def to_dict(self) -> dict:
        return asdict(self)


def coherence_report(g: Hypergraph, basis: str = "number") -> CoherenceReport:
    """Coherence of the hypergraph state of ``g`` in the requested basis."""
    if basis not in BASES:
        raise ValueError(f"basis must be one of {BASES}, got {basis!r}")
    if basis == "phase":
        profile = hypergraph_profile(g)
        c_l1, c_rel_ent = float(profile.c_l1_phase), float(profile.c_rel_phase)
    elif g.d > 1023:  # 2**1024 is past float range
        raise ValueError(f"number-basis l1 coherence 2**d - 1 needs d <= 1023, got d={g.d}")
    else:
        c_l1, c_rel_ent = math.ldexp(1.0, g.d) - 1.0, g.d * math.log(2.0)
    return CoherenceReport(
        d=g.d,
        edges=edges_text(g),
        basis=basis,
        c_l1=c_l1,
        c_rel_ent=c_rel_ent,
    )
