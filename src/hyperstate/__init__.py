"""Quantum hypergraph states and their nonclassicality measures.

Construct hypergraph states in the 2**d dimensional Hilbert space,
quantify their number/phase squeezing, evaluate the moment-determinant
nonclassicality witness with exact rational arithmetic, and measure
coherence in the number and phase bases.  The ``hyperstate`` CLI exposes
the same operations in batch form.
"""

__version__ = "0.1.0"

from .coherence import CoherenceReport, coherence_report, l1_coherence, rel_entropy_coherence
from .errors import GuardError, SchemaError
from .hypergraph import (
    Hypergraph,
    complete_k_graph,
    is_connected,
    parse_hypergraph,
    serialize_hypergraph,
    single_full_edge,
)
from .moments import AgarwalTaraResult, agarwal_tara, moment_sequences, w_factor
from .squeezing import SqueezeReport, number_stats, squeeze_report
from .state import CircuitDescription, emit_circuit, hypergraph_state, simulate_circuit
from .sweep import Family, SweepRecord, SweepResults, SweepSummary, sweep_family

__all__ = [
    "__version__",
    "AgarwalTaraResult",
    "CircuitDescription",
    "CoherenceReport",
    "Family",
    "GuardError",
    "Hypergraph",
    "SchemaError",
    "SqueezeReport",
    "SweepRecord",
    "SweepResults",
    "SweepSummary",
    "agarwal_tara",
    "coherence_report",
    "complete_k_graph",
    "emit_circuit",
    "hypergraph_state",
    "is_connected",
    "l1_coherence",
    "moment_sequences",
    "number_stats",
    "parse_hypergraph",
    "rel_entropy_coherence",
    "serialize_hypergraph",
    "simulate_circuit",
    "single_full_edge",
    "squeeze_report",
    "sweep_family",
    "w_factor",
]
