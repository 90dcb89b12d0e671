"""Hypergraph state vectors and the circuits that generate them.

The state of a hypergraph ``G`` lives in the 2**d dimensional Hilbert
space: amplitude ``n`` equals ``(-1)**f(n) / sqrt(2**d)`` with ``f`` the
Boolean function of ``G``.  The generating circuit is a layer of Hadamards
followed by one multi-controlled sign flip per hyperedge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import dimension, require_bytes
from .hypergraph import Hypergraph, vertex_mask
from .operators import SpectralProfile, profile_bytes, spectral_profile

# Edge indicator rows are built in blocks of at most this many bytes, so a
# graph with many edges at large d needs no edges-by-2**d matrix at once.
_INDICATOR_BYTES = 1 << 24

Gate = tuple[str, tuple[int, ...]]


@dataclass(frozen=True)
class CircuitDescription:
    """Gate list preparing a hypergraph state from the all-zeros state.

    Gates are ("H", (v,)) or ("CZ", (v1, ..., vk)); CZ flips the sign of
    the all-ones subspace of the listed qubits.  All Hadamards precede the
    sign flips, one per qubit.
    """

    d: int
    gates: tuple[Gate, ...]

    def __post_init__(self) -> None:
        h_targets = []
        seen_cz = False
        for kind, qubits in self.gates:
            if any(not 0 <= v < self.d for v in qubits):
                raise ValueError(f"gate {kind} {qubits} targets qubit >= d")
            if kind == "H":
                if seen_cz:
                    raise ValueError("H gates must precede all CZ gates")
                h_targets.extend(qubits)
            elif kind == "CZ":
                seen_cz = True
            else:
                raise ValueError(f"unknown gate kind {kind!r}")
        if sorted(h_targets) != list(range(self.d)):
            raise ValueError("expected exactly one H per qubit")


def membership_amplitudes(d: int, edges: Sequence[tuple[int, ...]], rows: np.ndarray) -> np.ndarray:
    """Real amplitudes (-1)**f(n) / sqrt(2**d), one per 0/1 row over ``edges``.

    Row r selects hypergraph r's edges; f(n) counts, mod 2, those whose
    vertex bits are all set in n (``hypergraph.boolean_function``), so the
    truth tables are one product: rows @ (edge-by-n indicators), mod 2.  The
    float32 product is exact: the byte budget admits no d beyond 24, and
    d <= 24 allows fewer than 2**24 distinct edges.
    """
    step = max(1, _INDICATOR_BYTES >> (d + 2))  # edges per block of float32 rows
    # The int64 index n, per row the float32 counts, int32 parity, its double and
    # the float64 result, and a block of ``step`` indicator rows (int64, bool, float32).
    nbytes = dimension(d) * (8 + 20 * len(rows) + 13 * step)
    require_bytes(f"truth tables of {len(rows)} x 2**{d} amplitudes", nbytes)
    membership = np.asarray(rows, dtype=np.float32)
    masks = np.array([vertex_mask(d, e) for e in edges], dtype=np.int64)[:, None]
    n = np.arange(1 << d)
    counts = np.zeros((len(membership), 1 << d), dtype=np.float32)
    for start in range(0, len(masks), step):
        block = masks[start : start + step]
        indicators = ((n & block) == block).astype(np.float32)
        counts += membership[:, start : start + step] @ indicators
    odd = counts.astype(np.int32) & 1
    return (1 - 2 * odd) / np.sqrt(float(1 << d))


def hypergraph_amplitudes(graphs: Sequence[Hypergraph]) -> np.ndarray:
    """``membership_amplitudes`` of hypergraphs on one d, each row over its own edges."""
    d = graphs[0].d
    if any(g.d != d for g in graphs):
        raise ValueError("hypergraphs in one batch must share the vertex count")
    edges = [e for g in graphs for e in g.edges]
    rows = np.repeat(np.eye(len(graphs)), [len(g.edges) for g in graphs], axis=1)
    return membership_amplitudes(d, edges, rows)


def hypergraph_state(g: Hypergraph) -> np.ndarray:
    """State vector of ``g``: amplitudes (-1)**f(n) / sqrt(2**d)."""
    # membership_amplitudes' guard covers the float64 and complex128 copies (24 bytes).
    return hypergraph_amplitudes([g])[0].astype(np.complex128)


def hypergraph_profile(g: Hypergraph) -> SpectralProfile:
    """``spectral_profile`` of the state of ``g``, refused before its amplitudes are built."""
    require_bytes(f"spectral profile at d={g.d}", profile_bytes(1, dimension(g.d)))
    return spectral_profile(hypergraph_amplitudes([g])[0])


def emit_circuit(g: Hypergraph) -> CircuitDescription:
    """Generating circuit: d Hadamards, then one sign flip per edge."""
    gates: list[Gate] = [("H", (v,)) for v in range(g.d)]
    gates.extend(("CZ", e) for e in g.edges)
    return CircuitDescription(g.d, tuple(gates))


def circuit_text(circ: CircuitDescription) -> str:
    """One gate per line: ``H <v>`` / ``CZ <v1> <v2> ... <vk>``."""
    return "\n".join(
        f"{kind} " + " ".join(str(v) for v in qubits)
        for kind, qubits in circ.gates
    )


def simulate_circuit(circ: CircuitDescription) -> np.ndarray:
    """Run the circuit on |0...0> with a dense statevector simulator.

    Qubit v acts on the bit of weight 2**(d-1-v), matching the Boolean
    function convention.
    """
    # psi, the int64 index, and per Hadamard an int64 temporary, the partner, both
    # branches, their selection and a bool mask (measured: 90 bytes at d = 23).
    require_bytes(f"circuit simulation at d={circ.d}", 97 * dimension(circ.d))
    dim = 1 << circ.d
    psi = np.zeros(dim, dtype=np.complex128)
    psi[0] = 1.0
    idx = np.arange(dim)
    for kind, qubits in circ.gates:
        if kind == "H":
            weight = 1 << (circ.d - 1 - qubits[0])
            partner = psi[idx ^ weight]
            high = (idx & weight) != 0
            psi = np.where(high, partner - psi, psi + partner) / np.sqrt(2.0)
        else:
            mask = vertex_mask(circ.d, qubits)
            psi = np.where((idx & mask) == mask, -psi, psi)
    return psi
