"""Reference implementations that the tests hold the package against.

Each one computes a quantity by a route independent of the package's own:
the truth table edge by edge, every k-uniform hypergraph by a mask loop,
amplitudes of hypergraphs batched over their own edges, commutators and
expectations of dense matrices, the phase-basis overlaps and moments of any
complex state, <[N, P]> by two FFT applications of the phase operator, and
relabeling equivalence by trying every vertex permutation.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

import numpy as np

from hyperstate.hypergraph import Hypergraph, canonical_edges, parse_edges, vertex_mask
from hyperstate.operators import _require_power_of_two, apply_phase_operator, phase_angles
from hyperstate.state import membership_amplitudes


def boolean_function(g: Hypergraph) -> np.ndarray:
    """Truth table of ``g``'s Boolean function: uint8 entry n is f(n)."""
    n = np.arange(g.dim, dtype=np.int64)
    table = np.zeros(g.dim, dtype=np.uint8)
    for edge in g.edges:
        mask = vertex_mask(g.d, edge)
        table ^= ((n & mask) == mask).astype(np.uint8)
    return table


def k_uniform_hypergraphs(d: int, k: int) -> Iterator[Hypergraph]:
    """Every hypergraph whose edges are a nonempty set of k-subsets, by ascending edge-subset mask.

    Bit i of the mask selects the i-th k-subset in lexicographic order.
    """
    subsets = list(itertools.combinations(range(d), k))
    for mask in range(1, 1 << len(subsets)):
        yield Hypergraph(d, [subsets[i] for i in range(len(subsets)) if mask >> i & 1])


def hypergraph_amplitudes(graphs: Sequence[Hypergraph]) -> np.ndarray:
    """``membership_amplitudes`` of hypergraphs on one d, each row over its own edges."""
    edges = [e for g in graphs for e in g.edges]
    rows = np.repeat(np.eye(len(graphs)), [len(g.edges) for g in graphs], axis=1)
    return membership_amplitudes(graphs[0].d, edges, rows)


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


def phase_overlaps(psi: np.ndarray) -> np.ndarray:
    """Overlaps <theta_m|psi> for all m, via the discrete Fourier transform.

    Costs O(dim log dim); the squared magnitudes sum to 1 for a normalized
    state (the phase basis is orthonormal and complete).
    """
    dim = len(psi)
    _require_power_of_two(dim)
    return np.fft.fft(psi) / np.sqrt(float(dim))


def phase_stats(psi: np.ndarray) -> tuple[float, float]:
    """(mean, variance) of the phase operator from |<theta_m|psi>|**2."""
    theta = phase_angles(len(psi))
    prob = np.abs(phase_overlaps(psi)) ** 2
    mean = float(np.sum(theta * prob))
    second = float(np.sum(theta**2 * prob))
    return mean, second - mean**2


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


def matches_by_permutation(expected: str, candidates: Sequence[str], d: int) -> bool:
    """Does some permutation of the d vertices map the edge set ``expected`` onto a candidate?"""
    expected_edges = canonical_edges(parse_edges(expected))
    candidate_sets = {canonical_edges(parse_edges(c)) for c in candidates}
    return any(
        canonical_edges(tuple(tuple(perm[v] for v in e) for e in expected_edges)) in candidate_sets
        for perm in itertools.permutations(range(d))
    )
