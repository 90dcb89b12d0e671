"""Hypergraphs, their generators, connectivity, and text form.

A hypergraph on ``d`` vertices (labelled ``0 .. d-1``) carries a set of
hyperedges, each a nonempty vertex subset.  Its Boolean function assigns to
every basis index ``n`` the XOR, over edges, of the AND of the bits of ``n``
selected by the edge; ``state.membership_amplitudes`` evaluates it.  Bit
convention is MSB-first: vertex ``j`` reads the bit of weight ``2**(d-1-j)``,
so vertex 0 is the most significant bit.  A family is one candidate edge
list plus 0/1 membership rows, one row per hypergraph (``sweep.Family``);
``connected_rows`` is ``is_connected`` over such rows.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


@dataclass(frozen=True)
class Hypergraph:
    """Immutable hypergraph in canonical form.

    Edges are stored as sorted vertex tuples, ordered by (size, vertex
    list); duplicate edges and duplicate vertices within an edge collapse.
    Construction accepts any iterable of vertex iterables.
    """

    d: int
    edges: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError(f"vertex count must be positive, got {self.d}")
        canonical = canonical_edges(self.edges)
        for edge in canonical:
            for v in edge:
                if not 0 <= v < self.d:
                    raise ValueError(f"vertex {v} out of range for d={self.d}")
        object.__setattr__(self, "edges", canonical)

    @property
    def dim(self) -> int:
        """Hilbert-space dimension 2**d of the associated state."""
        return 1 << self.d


def canonical_edges(edges: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    """Normalize an edge collection to the canonical sorted-tuple form."""
    seen = {tuple(sorted(set(e))) for e in edges}
    if any(len(e) == 0 for e in seen):
        raise ValueError("hyperedges must be nonempty")
    return tuple(sorted(seen, key=lambda e: (len(e), e)))


def vertex_mask(d: int, edge: Iterable[int]) -> int:
    """Bits of the edge's vertices in an index on d vertices (MSB-first)."""
    return sum(1 << (d - 1 - v) for v in edge)


def is_connected(g: Hypergraph) -> bool:
    """Whether every vertex is covered and edge co-membership links them all.

    Vertices are adjacent when they share some hyperedge.  Hypergraphs with
    d <= 1 count as connected.
    """
    if g.d <= 1:
        return True
    covered: set[int] = set()
    for edge in g.edges:
        covered.update(edge)
    if len(covered) != g.d:
        return False
    # Union-find over vertices; each edge merges its members.
    parent = list(range(g.d))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for edge in g.edges:
        anchor = find(edge[0])
        for v in edge[1:]:
            root = find(v)
            if root != anchor:
                parent[root] = anchor
    return len({find(v) for v in range(g.d)}) == 1


def connected_rows(d: int, edges: Sequence[tuple[int, ...]], rows: np.ndarray) -> np.ndarray:
    """``is_connected`` of each 0/1 row over ``edges``: d rounds of growth from vertex 0."""
    masks = np.array([vertex_mask(d, e) for e in edges], dtype=np.int64)
    chosen = np.asarray(rows, dtype=bool)
    reached = np.full(len(chosen), 1 << (d - 1), dtype=np.int64)
    for _ in range(d):
        meets = chosen & ((masks & reached[:, None]) != 0)
        reached |= np.bitwise_or.reduce(np.where(meets, masks, 0), axis=1)
    return reached == (1 << d) - 1


def single_full_edge(d: int) -> Hypergraph:
    """Hypergraph whose only hyperedge contains all ``d`` vertices."""
    return Hypergraph(d, (tuple(range(d)),))


def complete_k_graph(d: int, k: int) -> Hypergraph:
    """Complete k-graph: every k-subset of the ``d`` vertices is an edge."""
    if not 1 <= k <= d:
        raise ValueError(f"k must satisfy 1 <= k <= d, got k={k}, d={d}")
    return Hypergraph(d, tuple(itertools.combinations(range(d), k)))


def edges_text(g: Hypergraph) -> str:
    """Canonical text of the edge list alone, e.g. ``0,3;0,2,3;1,2,3``."""
    return ";".join(",".join(str(v) for v in e) for e in g.edges)


def serialize_hypergraph(g: Hypergraph) -> str:
    """Canonical text form, e.g. ``d=4; edges=0,3;0,2,3;1,2,3``."""
    return f"d={g.d}; edges={edges_text(g)}"


def parse_edges(text: str) -> tuple[tuple[int, ...], ...]:
    """Parse the edge-list portion of the grammar: ``<edge>(;<edge>)*``.

    Whitespace is ignored; an empty string means no edges.
    """
    compact = "".join(text.split())
    if not compact:
        return ()
    edges = []
    for part in compact.split(";"):
        if not part:
            raise ValueError("empty hyperedge in edge list")
        try:
            edges.append(tuple(int(v) for v in part.split(",")))
        except ValueError:
            raise ValueError(f"malformed hyperedge {part!r}") from None
    return tuple(edges)


def parse_hypergraph(text: str) -> Hypergraph:
    """Parse ``d=<int>; edges=<edge>(;<edge>)*`` into a Hypergraph."""
    compact = "".join(text.split())
    head, sep, rest = compact.partition(";")
    if not head.startswith("d=") or not sep:
        raise ValueError(f"expected 'd=<int>; edges=...', got {text!r}")
    try:
        d = int(head[2:])
    except ValueError:
        raise ValueError(f"malformed vertex count in {text!r}") from None
    if not rest.startswith("edges="):
        raise ValueError(f"expected 'edges=' field in {text!r}")
    return Hypergraph(d, parse_edges(rest[len("edges=") :]))
