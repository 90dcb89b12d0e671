"""Hypergraph state vectors and the circuits that generate them.

The state of a hypergraph ``G`` lives in the 2**d dimensional Hilbert
space: amplitude ``n`` equals ``(-1)**f(n) / sqrt(2**d)`` with ``f`` the
Boolean function of ``G``.  One rule scales it: ``membership_signs`` gives
exact +-1 sign rows, only ``hypergraph_state`` multiplies by 1 / sqrt(2**d),
and both profile routes read unnormalised signs and scale their sums by exact
powers of two.  ``membership_profile`` builds what it reads from its edges
(their support sizes, the support points and indicators) on each call and
keeps none of it.  The generating circuit is a layer of Hadamards followed
by one multi-controlled sign flip per hyperedge.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .errors import dimension, require_bytes
from .hypergraph import Hypergraph, vertex_mask
from .operators import SpectralProfile, profile_bytes, spectral_profile, support_bytes, support_profile, tile_rows

# Edge indicator rows are built in blocks of at most this many bytes, so a
# graph with many edges at large d needs no edges-by-2**d matrix at once.
_INDICATOR_BYTES = 1 << 24

# Largest d of the support route: errors.MAX_SWEEP_WORK admits Family("dminus1", d)
# up to this d and no family of more than one row past it.  The route exists to
# batch a sweep's states; one state past this d is faster on the rfft route.
SUPPORT_MAX_D = 16

# Peak bytes per gate of the ``circuit`` command: the gate tuples, whose text
# is written a block at a time (measured at d = 10**6: 216 for each of json,
# csv and table).  A sign flip's qubits are the edge tuple the hypergraph holds.
CIRCUIT_GATE_BYTES = 232

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


def membership_signs(d: int, edges: Sequence[tuple[int, ...]], rows: np.ndarray) -> np.ndarray:
    """Exact float64 signs (-1)**f(n), unnormalised, one row per 0/1 row over ``edges``.

    Row r selects hypergraph r's edges; its Boolean function f(n) counts,
    mod 2, those whose vertex bits are all set in n, so the truth tables are
    one product: rows @ (edge-by-n indicators), mod 2.  The float32 product
    is exact: the byte budget admits no d beyond 24, and d <= 24 allows
    fewer than 2**24 distinct edges.
    """
    step = max(1, _INDICATOR_BYTES >> (d + 2))  # edges per block of float32 rows
    # The int64 index n, per row at most 13 bytes (the float32 counts, then a block's
    # float32 product or the bool signs and the float64 result; counted as 20), and a
    # block of ``step`` indicator rows (int64, bool, float32).
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
    n = indicators = None  # the signs need neither
    return np.where(np.fmod(counts, 2, out=counts) != 0, -1.0, 1.0)  # f(n) in place, then the sign


def hypergraph_state(g: Hypergraph) -> np.ndarray:
    """State vector of ``g``: amplitudes (-1)**f(n) / sqrt(2**d), the one place a state is normalised."""
    # membership_signs' guard covers the float64 and complex128 copies (24 bytes).
    psi = membership_signs(g.d, g.edges, np.ones((1, len(g.edges))))[0]
    psi *= 1 / np.sqrt(float(1 << g.d))
    return psi.astype(np.complex128)


def _edge_weights(d: int, edges: Sequence[tuple[int, ...]]) -> np.ndarray:
    """Support size 2**(d - |e|) of each edge, capped at 2d + 1 (any more rules a row out)."""
    cap = 2 * d + 1
    return np.array([min(1 << min(d - len(e), 64), cap) for e in edges], dtype=np.int64)


def support_rows(d: int, edges: Sequence[tuple[int, ...]], rows: np.ndarray,
                 weights: np.ndarray | None = None) -> np.ndarray:
    """Rows that take the support route: d <= SUPPORT_MAX_D and support bound
    sum_{e in row} 2**(d - |e|) <= 2d.

    The bound caps |K|, the number of indices with f(n) = 1, and depends only
    on the sizes of the row's edges: every (d-1)-graph, the single full edge
    and the complete k-graphs with k >= d - 1 are in, most other states out.
    ``weights`` is ``_edge_weights(d, edges)`` when the caller already built it.
    """
    if weights is None:
        weights = _edge_weights(d, edges)
    return (np.asarray(rows) @ weights <= 2 * d) & (d <= SUPPORT_MAX_D)


def _support_points(d: int, edges: Sequence[tuple[int, ...]], weights: np.ndarray) -> tuple[list[int], np.ndarray]:
    """Ascending union U of the supports {n : n contains the bits of e} of the edges a support
    row can use (support size <= 2d, read from ``weights``, ``_edge_weights(d, edges)``), and
    the float64 edge-by-U indicator matrix over all of ``edges``."""
    full = (1 << d) - 1
    points = set()
    for edge, weight in zip(edges, weights.tolist()):
        if weight > 2 * d:
            continue  # no support row has this edge: its column of rows is 0
        mask = vertex_mask(d, edge)
        free = sub = full ^ mask
        while True:  # every submask of the free bits
            points.add(mask | sub)
            if not sub:
                break
            sub = (sub - 1) & free
    points = sorted(points)
    masks = np.array([vertex_mask(d, e) for e in edges], dtype=np.int64).reshape(-1, 1)
    return points, ((np.array(points, dtype=np.int64) & masks) == masks).astype(np.float64)


def membership_profile(d: int, edges: Sequence[tuple[int, ...]], rows: np.ndarray) -> SpectralProfile:
    """Spectral profile of the state of each 0/1 row over ``edges``, one entry per row.

    Rows in ``support_rows`` take ``operators.support_profile``: their truth
    tables are read only at U, the union of the supports of the edges with at
    most 2d points each, as t = (rows @ indicators[:, U]) mod 2, with no
    length-2**d table or FFT.  The others take ``membership_signs`` and
    ``spectral_profile`` (the rfft route).  The split, t and the byte guards
    run once per call; the O(2**d) work runs on ``tile_rows(d)`` rows of a
    route at a time.  Each route reduces each row on its own, so a row's
    values do not depend on the other rows, the tiles, the edge list it is
    written over, or the thread count.  Both routes are refused before either
    allocates.
    """
    rows = np.asarray(rows)
    dim = dimension(d)
    weights = _edge_weights(d, edges)  # built once: the split, the guard and the points read it
    small = support_rows(d, edges, rows, weights)
    count = int(small.sum())
    if count:
        # A support row uses only edges of support size <= 2d.  All such edges give
        # the points, so their support sizes add up to at least the number of points.
        # The rows are read as float64 to form t.
        require_bytes(f"support profile of {count} states at d={d}",
                      support_bytes(count, int(weights[weights <= 2 * d].sum()), dim)
                      + 8 * count * len(edges))
    tile = tile_rows(d)
    if count < len(rows):
        require_bytes(f"spectral profile of {len(rows) - count} x 2**{d} amplitudes, {tile} at a time",
                      profile_bytes(min(tile, len(rows) - count), dim))
    parts = []  # (rows, their profile)
    if count:
        points, indicators = _support_points(d, edges, weights)
        t = (rows[small].astype(np.float64) @ indicators) % 2
        parts.append((small, support_profile(d, points, t)))
    wide = np.flatnonzero(~small) if count < len(rows) else []
    for start in range(0, len(wide), tile):
        chosen = wide[start : start + tile]
        parts.append((chosen, spectral_profile(membership_signs(d, edges, rows[chosen]))))
    if len(parts) == 1:
        return parts[0][1]
    profile = np.empty((len(fields(SpectralProfile)), len(rows)))
    for chosen, part in parts:
        profile[:, chosen] = list(vars(part).values())
    return SpectralProfile(*profile)


def hypergraph_profile(g: Hypergraph) -> SpectralProfile:
    """``membership_profile`` of the state of ``g`` over its own edges, as scalars."""
    profile = membership_profile(g.d, g.edges, np.ones((1, len(g.edges)), dtype=np.uint8))
    return SpectralProfile(*(getattr(profile, f.name)[0] for f in fields(SpectralProfile)))


def emit_circuit(g: Hypergraph) -> CircuitDescription:
    """Generating circuit: d Hadamards, then one sign flip per edge."""
    count = g.d + len(g.edges)
    require_bytes(f"circuit of {count} gates", CIRCUIT_GATE_BYTES * count)
    gates: list[Gate] = [("H", (v,)) for v in range(g.d)]
    gates.extend(("CZ", e) for e in g.edges)
    return CircuitDescription(g.d, tuple(gates))


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
