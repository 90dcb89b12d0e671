"""Published reference values this library reproduces.

The tables below transcribe the published numeric results for hypergraph
state squeezing, moment-based nonclassicality, and coherence.  They are
compared against our own computation by the ``reproduce`` machinery.
Several published cells are internally inconsistent (the exact-rational
moment pipeline makes this unambiguous); comparisons therefore flag
suspected misprints instead of hard-failing when a printed number cannot
be reconciled with the published formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .hypergraph import complete_k_graph, edges_text
from .moments import AgarwalTaraResult, agarwal_tara, moment_sequences

# Tolerance above which a printed cell counts as a suspected misprint.
MISPRINT_RELATIVE_TOL = 1e-2

# Signs of the published d=4 example state (negative at n = 7, 9, 13, 15).
EXAMPLE_STATE_EDGES = ((0, 3), (0, 2, 3), (1, 2, 3))
EXAMPLE_STATE_SIGNS = (1, 1, 1, 1, 1, 1, 1, -1, 1, -1, 1, 1, 1, -1, 1, -1)
EXAMPLE_STATE_VAR_P = 3.4312
EXAMPLE_STATE_VAR_N = 21.25
EXAMPLE_STATE_HALF_COMM = 1.8624

# Phase squeezing of the single all-vertex hyperedge, d = 4 .. 13.
SINGLE_FULL_S_P = {
    4: -0.2238, 5: -0.6817, 6: -0.8686, 7: -0.9449, 8: -0.9764,
    9: -0.9898, 10: -0.9955, 11: -0.998, 12: -0.9991, 13: -0.9996,
}

# Extremal phase squeezing over connected (d-1)-graphs:
# d -> (max, max edge sets, min, min edge sets), edge sets in canonical text.
DMINUS1_S_P = {
    5: (-0.0265, ("0,1,2,3;0,1,2,4;0,1,3,4;0,2,3,4",),
        -0.4968, ("0,1,2,3;0,1,2,4;0,1,3,4",)),
    6: (-0.0066, ("0,1,2,3,4;0,1,3,4,5;0,2,3,4,5;1,2,3,4,5",),
        -0.7862, ("0,1,2,3,4;0,1,2,3,5;0,1,2,4,5",)),
    7: (-0.1013, ("0,1,2,3,5,6;0,1,3,4,5,6;0,2,3,4,5,6;1,2,3,4,5,6",),
        -0.9113, ("0,1,2,3,4,5;0,1,2,3,4,6;0,1,2,3,5,6",)),
    8: (-0.1273, ("0,1,2,4,5,6,7;1,2,3,4,5,6,7",),
        -0.9633, ("0,1,2,3,4,5,6;0,1,2,3,4,6,7",)),
    9: (-0.5749, ("0,1,2,4,5,6,7,8;1,2,3,4,5,6,7,8",),
        -0.9851, ("0,1,2,3,4,5,6,7;0,1,2,3,4,5,7,8",)),
    10: (-0.3705, ("0,1,3,4,5,6,7,8,9;0,2,3,4,5,6,7,8,9",),
         -0.9937, ("0,1,2,3,4,5,6,7,8;0,1,2,3,4,5,6,8,9",)),
    11: (-0.6754, ("0,1,3,4,5,6,7,8,9,10;0,2,3,4,5,6,7,8,9,10",),
         -0.9973, ("0,1,2,3,4,5,6,7,8,9;0,1,2,3,4,5,6,7,9,10",)),
    12: (-0.8281, ("0,1,3,4,5,6,7,8,9,10,11;0,2,3,4,5,6,7,8,9,10,11",),
         -0.9988,
         ("0,1,2,3,4,5,6,7,8,9,11;0,1,2,3,4,5,6,7,8,10,11;0,1,2,3,4,5,6,7,9,10,11",)),
}

# Phase squeezing of complete k-graphs; only the populated cells.
COMPLETE_K_S_P = {
    (5, 4): -0.401, (5, 5): -0.6817,
    (6, 3): -0.5061, (6, 4): -0.664, (6, 5): -0.5307, (6, 6): -0.8686,
    (7, 3): -0.2925, (7, 4): -0.8166, (7, 5): -0.6357, (7, 6): -0.8636, (7, 7): -0.9449,
    (8, 4): -0.873, (8, 5): -0.6821, (8, 6): -0.8753, (8, 7): -0.9253, (8, 8): -0.9764,
    (9, 3): -0.6502, (9, 4): -0.9085, (9, 5): -0.4676, (9, 6): -0.8921,
    (9, 7): -0.9178, (9, 8): -0.9736, (9, 9): -0.9898,
    (10, 3): -0.8093, (10, 4): -0.9366, (10, 5): -0.8181, (10, 6): -0.8715,
    (10, 7): -0.8964, (10, 8): -0.9769, (10, 9): -0.9868, (10, 10): -0.9955,
    (11, 2): -0.1274, (11, 3): -0.8312, (11, 4): -0.959, (11, 5): -0.9602,
    (11, 6): -0.712, (11, 8): -0.9832, (11, 9): -0.988, (11, 10): -0.9949, (11, 11): -0.998,
}

# Moment-witness tables: per witness order n, rows d -> printed cells.
# Cell keys name the quantity; m_k / mu_k are moments, det_m / det_mu the
# Hankel determinants, a_n the witness value.
WITNESS_TABLES: dict[int, dict[int, dict[str, float]]] = {
    2: {
        2: {"m_1": 1.5, "m_2": 2.0, "mu_1": 1.5, "mu_2": 3.5,
            "det_m": -0.25, "det_mu": 1.25, "a_n": -0.166},
        3: {"m_1": 3.5, "m_2": 14.0, "mu_1": 3.5, "mu_2": 17.5,
            "det_m": 1.75, "det_mu": 5.25, "a_n": 0.5},
    },
    3: {
        3: {"m_3": 52.5, "m_4": 168.0, "mu_3": 98.0, "mu_4": 584.5,
            "det_m": -61.2499, "det_mu": 110.25, "a_n": -0.3571},
        4: {"m_3": 682.5, "m_4": 6552.0, "mu_3": 760.0, "mu_4": 11144.5,
            "det_m": -2091.25, "det_mu": 7586.25, "a_n": -0.2160},
        5: {"m_3": 6742.5, "m_4": 151032.0, "mu_3": 7068.0, "mu_4": 526984.5,
            "det_m": 77600.749, "det_mu": 494194.25, "a_n": 0.1862},
    },
    4: {
        3: {"m_5": 420.0, "m_6": 720.0, "mu_5": 3526.0, "mu_6": 23102.5,
            "det_m": 12405393.0, "det_mu": 187211.06, "a_n": -1.0153},
        4: {"m_5": 60060.0, "m_6": 514800.0, "mu_5": 190792.5, "mu_6": 2028032.5,
            "det_m": 3.01293e11, "det_mu": 1.5322e11, "a_n": -2.0348},
        5: {"m_5": 3398220.0, "m_6": 75731760.0, "mu_5": 5081768.0, "mu_6": 1.371e18,
            "det_m": -2.6151e18, "det_mu": -6.6556e16, "a_n": -1.0261},
    },
}

# Published normalization factors W_k, exact fractions, rows d = 2 .. 5.
W_FACTOR_TABLE = {
    2: (Fraction(3, 2), Fraction(4, 3), Fraction(3, 4)),
    3: (Fraction(7, 2), Fraction(4), Fraction(15, 4), Fraction(16, 5),
        Fraction(5, 2), Fraction(12, 7)),
    4: (Fraction(15, 2), Fraction(28, 3), Fraction(39, 4), Fraction(48, 5),
        Fraction(55, 6), Fraction(60, 7)),
    5: (Fraction(31, 2), Fraction(20), Fraction(87, 4), Fraction(112, 5),
        Fraction(45, 2), Fraction(156, 7)),
}

# Published coefficient triangle of the N**k expansion, rows k = 1 .. 6.
STIRLING_TRIANGLE = (
    (1,),
    (1, 1),
    (1, 3, 1),
    (1, 7, 6, 1),
    (1, 15, 25, 10, 1),
    (1, 31, 90, 65, 15, 1),
)

# Number-basis relative-entropy coherence rows (closed form d ln 2, rounded as published).
NUMBER_BASIS_ENTROPY = {
    4: 2.772, 5: 3.465, 6: 4.158, 7: 4.852, 8: 5.545, 9: 6.238, 10: 6.931,
}

# Phase-basis coherence extrema over connected (d-1)-graphs:
# d -> (max, max edge sets, min, min edge sets).
PHASE_BASIS_ENTROPY = {
    4: (2.4889, (edges_text(complete_k_graph(4, 3)),), 1.709, ("0,2,3;1,2,3",)),
    5: (2.5315, (edges_text(complete_k_graph(5, 4)),), 1.2645, ("0,2,3,4;1,2,3,4",)),
    6: (1.9539, (edges_text(complete_k_graph(6, 5)),), 0.8317, ("0,1,2,3,4;1,2,3,4,5",)),
    7: (1.579, (edges_text(complete_k_graph(7, 6)),), 0.496, ("0,1,2,4,5,6;1,2,3,4,5,6",)),
    8: (0.9944, (edges_text(complete_k_graph(8, 7)),), 0.2513, ("0,1,3,4,5,6,7;1,2,3,4,5,6,7",)),
    9: (0.6774, (edges_text(complete_k_graph(9, 8)),), 0.1324, ("0,2,3,4,5,6,7,8;1,2,3,4,5,6,7,8",)),
    10: (0.3135, (edges_text(complete_k_graph(10, 9)),), 0.0078,
         ("0,2,3,4,5,6,7,8,9;1,2,3,4,5,6,7,8,9",)),
}

PHASE_BASIS_L1 = {
    4: (12.8646, (edges_text(complete_k_graph(4, 3)),), 7.4926, ("0,2,3;1,2,3",)),
    5: (19.4148, (edges_text(complete_k_graph(5, 4)),), 9.0122, ("0,2,3,4;1,2,3,4",)),
    6: (25.6414, (edges_text(complete_k_graph(6, 5)),), 10.8189, ("0,2,3,4,5;1,2,3,4,5",)),
    7: (31.4497, (edges_text(complete_k_graph(7, 6)),), 10.234, ("0,2,3,4,5,6;1,2,3,4,5,6",)),
    8: (35.805, (edges_text(complete_k_graph(8, 7)),), 11.4444, ("0,2,3,4,5,6,7;1,2,3,4,5,6,7",)),
}


@dataclass(frozen=True)
class Discrepancy:
    """A published cell that disagrees with the exact computation."""

    table: str
    quantity: str
    d: int
    printed: float
    computed: str
    relative_error: float

    def describe(self) -> str:
        return (
            f"suspected misprint in {self.table}: {self.quantity} at d={self.d} "
            f"printed {self.printed:g}, computed {self.computed} "
            f"(relative difference {self.relative_error:.3g})"
        )


def _relative_error(printed: float, computed: float) -> float:
    scale = max(abs(printed), abs(computed), 1e-300)
    return abs(printed - computed) / scale


def witness_discrepancies(
    d: int | None = None,
    n: int | None = None,
    witness: Callable[[int, int], AgarwalTaraResult] | None = None,
) -> list[Discrepancy]:
    """Compare every published witness-table cell against exact values.

    Returns one record per cell whose relative difference exceeds
    MISPRINT_RELATIVE_TOL, optionally restricted to one (d, n).  ``witness``
    (default ``agarwal_tara``) gives the witness at (d, n); pass a caller's
    memo or its computed result so that no row is evaluated twice.
    """
    witness = witness or agarwal_tara
    found = []
    for table_n, rows in WITNESS_TABLES.items():
        if n is not None and table_n != n:
            continue
        for row_d, cells in rows.items():
            if d is not None and row_d != d:
                continue
            # One witness and one moment pass per row; A_n reads moments up to order 2n - 2.
            result = witness(row_d, table_n)
            m, mu = moment_sequences(row_d, 2 * table_n - 2)
            exact = {"det_m": result.det_m, "det_mu": result.det_mu, "a_n": result.a_n}
            exact.update((f"m_{k}", value) for k, value in enumerate(m))
            exact.update((f"mu_{k}", value) for k, value in enumerate(mu))
            for quantity, printed in cells.items():
                rel = _relative_error(printed, float(exact[quantity]))
                if rel > MISPRINT_RELATIVE_TOL:
                    found.append(
                        Discrepancy(
                            table=f"A_{table_n} table",
                            quantity=quantity,
                            d=row_d,
                            printed=printed,
                            computed=str(exact[quantity]),
                            relative_error=rel,
                        )
                    )
    return found
