"""Unit tests for hypergraph structures, families, connectivity and edge-list text."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperstate.errors import GuardError
from hyperstate.hypergraph import (
    Hypergraph,
    complete_k_graph,
    connected_rows,
    edges_text,
    is_connected,
    parse_edges,
    single_full_edge,
)
from hyperstate.sweep import Family

import oracles
from conftest import EXAMPLE_EDGES, random_hypergraph
from oracles import boolean_function, k_uniform_hypergraphs


# Hypergraph type


def test_canonical_form_sorts_and_dedupes():
    g = Hypergraph(4, [(3, 0), (3, 2, 0), (1, 2, 3), (0, 3)])
    assert g.edges == ((0, 3), (0, 2, 3), (1, 2, 3))


def test_edges_sorted_by_size_then_lex():
    g = Hypergraph(5, [(0, 1, 2), (3, 4), (0, 1), (0, 2)])
    assert g.edges == ((0, 1), (0, 2), (3, 4), (0, 1, 2))


def test_vertex_out_of_range_rejected():
    with pytest.raises(ValueError):
        Hypergraph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Hypergraph(3, [(-1, 0)])


def test_empty_edge_rejected():
    with pytest.raises(ValueError):
        Hypergraph(3, [()])


def test_nonpositive_d_rejected():
    with pytest.raises(ValueError):
        Hypergraph(0)


def test_dim():
    assert Hypergraph(4).dim == 16


# boolean_function


def test_boolean_function_example_support():
    """The published 4-vertex example is 1 exactly at n = 7, 9, 13, 15."""
    table = boolean_function(Hypergraph(4, EXAMPLE_EDGES))
    assert np.flatnonzero(table).tolist() == [7, 9, 13, 15]


def test_boolean_function_no_edges_is_zero():
    table = boolean_function(Hypergraph(3))
    assert not table.any()


def test_boolean_function_full_edge_hits_all_ones_input():
    table = boolean_function(Hypergraph(3, [(0, 1, 2)]))
    assert np.flatnonzero(table).tolist() == [7]


def test_boolean_function_single_vertex_edge_msb_convention():
    # vertex 0 reads the most significant of the d bits
    table = boolean_function(Hypergraph(3, [(0,)]))
    assert np.flatnonzero(table).tolist() == [4, 5, 6, 7]


def test_boolean_function_xor_linear_in_edge_sets():
    rng = np.random.default_rng(1234)
    for _ in range(25):
        d = int(rng.integers(2, 6))
        g1 = random_hypergraph(rng, d)
        g2 = random_hypergraph(rng, d)
        symmetric_difference = set(g1.edges) ^ set(g2.edges)
        combined = boolean_function(Hypergraph(d, symmetric_difference))
        expected = boolean_function(g1) ^ boolean_function(g2)
        assert np.array_equal(combined, expected)


@pytest.mark.parametrize("d,k", [(4, 2), (4, 3), (5, 4)])
def test_complete_k_graph_symmetric_under_bit_permutation(d, k):
    table = boolean_function(complete_k_graph(d, k))
    rng = np.random.default_rng(d * 10 + k)
    perm = rng.permutation(d)
    permuted = np.zeros_like(table)
    for n in range(1 << d):
        bits = [(n >> (d - 1 - j)) & 1 for j in range(d)]
        m = sum(bits[perm[j]] << (d - 1 - j) for j in range(d))
        permuted[n] = table[m]
    assert np.array_equal(table, permuted)


# is_connected


def test_connected_single_full_edge():
    assert is_connected(Hypergraph(4, [(0, 1, 2, 3)]))


def test_disconnected_two_components():
    assert not is_connected(Hypergraph(4, [(0, 1), (2, 3)]))


def test_uncovered_vertex_disconnected():
    assert not is_connected(Hypergraph(3, [(0, 1)]))


def test_connected_star_of_4_subsets():
    edges = [e for e in complete_k_graph(5, 4).edges if 0 in e]
    g = Hypergraph(5, edges)
    # independent reachability oracle over vertex co-membership
    reached = {0}
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for edge in g.edges:
            if v in edge:
                for u in edge:
                    if u not in reached:
                        reached.add(u)
                        frontier.append(u)
    assert reached == set(range(5))
    assert is_connected(g)


def test_d1_counts_as_connected():
    assert is_connected(Hypergraph(1))


@pytest.mark.parametrize("d, k", [(d, k) for d in range(1, 6) for k in range(1, d + 1)])
def test_connected_rows_match_is_connected_on_every_k_uniform_subset(d, k):
    edges = tuple(itertools.combinations(range(d), k))
    masks = np.arange(1, 1 << len(edges))
    rows = (masks[:, None] >> np.arange(len(edges))) & 1
    expected = [oracles.is_connected(g) for g in k_uniform_hypergraphs(d, k)]
    assert connected_rows(d, edges, rows).tolist() == expected
    assert [is_connected(g) for g in k_uniform_hypergraphs(d, k)] == expected


@pytest.mark.parametrize("d", range(2, 11))
def test_connected_rows_grow_a_chain_for_d_minus_1_rounds(d):
    # From vertex 0 the chain 0-1, 1-2, ..., (d-2)-(d-1) reaches one more vertex a round,
    # while a row without the edge 0-1 stops growing at once: no round count short of
    # d - 1, and no stop at the first row that stopped growing, gets every row right.
    edges = tuple((v, v + 1) for v in range(d - 1))
    rows = (np.arange(1, 1 << len(edges))[:, None] >> np.arange(len(edges))) & 1
    graphs = [Hypergraph(d, itertools.compress(edges, row)) for row in rows.tolist()]
    expected = [oracles.is_connected(g) for g in graphs]
    assert expected[-1]  # the whole chain
    assert connected_rows(d, edges, rows).tolist() == expected
    assert [is_connected(g) for g in graphs] == expected


@st.composite
def _candidate_edges(draw):
    """(d, up to 6 distinct edges) with d on both sides of d = 63, where the vertex masks of
    ``connected_rows`` turn from int64 into Python ints.  An edge is a few vertices or all
    but a few, so that few edges can connect many vertices."""
    d = draw(st.sampled_from([*range(1, 9), 62, 63, 64, 70, 130]))
    few = st.sets(st.integers(0, d - 1), min_size=1, max_size=4)
    edge = few | few.map(lambda leave_out: set(range(d)) - leave_out).filter(bool)
    return d, Hypergraph(d, draw(st.lists(edge, max_size=6))).edges


@settings(max_examples=200, deadline=None)
@given(_candidate_edges())
def test_connectivity_equals_the_union_find_oracle_across_mask_widths(case):
    d, edges = case
    rows = (np.arange(1 << len(edges))[:, None] >> np.arange(len(edges))) & 1  # every subset
    graphs = [Hypergraph(d, itertools.compress(edges, row)) for row in rows.tolist()]
    expected = [oracles.is_connected(g) for g in graphs]
    assert connected_rows(d, edges, rows).tolist() == expected
    assert [is_connected(g) for g in graphs] == expected


# generators


@pytest.mark.parametrize("d", [1, 4, 13])
def test_single_full_edge(d):
    assert single_full_edge(d).edges == (tuple(range(d)),)


def test_complete_k_graph_counts():
    assert len(complete_k_graph(4, 3).edges) == 4
    assert complete_k_graph(5, 5) == single_full_edge(5)
    assert len(complete_k_graph(6, 5).edges) == 6


def test_complete_k_graph_range_errors():
    with pytest.raises(ValueError):
        complete_k_graph(4, 0)
    with pytest.raises(ValueError):
        complete_k_graph(4, 5)


def test_k_uniform_family_counts_and_order():
    family = list(Family("k-uniform", 5, 4).configurations())
    assert len(family) == 31
    assert family[0].edges == ((0, 1, 2, 3),)
    assert len(set(family)) == 31
    assert len(list(Family("k-uniform", 4, 3).configurations())) == 15


def test_k_uniform_family_guard():
    with pytest.raises(GuardError):
        list(Family("k-uniform", 8, 4).configurations())  # C(8,4) = 70 candidate edges


# edge-list text


def test_parse_example():
    assert Hypergraph(4, parse_edges("0,3;0,2,3;1,2,3")) == Hypergraph(4, EXAMPLE_EDGES)


def test_parse_edgeless():
    assert parse_edges("") == parse_edges("  ") == ()
    assert Hypergraph(3, parse_edges("")) == Hypergraph(3)


def test_parse_ignores_whitespace():
    assert parse_edges(" 0 , 3 ;  1 , 2 ") == parse_edges("\t0,3\n;1,2\u3000") == ((0, 3), (1, 2))


def test_edges_text_example():
    assert edges_text(Hypergraph(4, EXAMPLE_EDGES)) == "0,3;0,2,3;1,2,3"
    assert edges_text(Hypergraph(3)) == ""


def test_round_trip_on_families():
    for g in k_uniform_hypergraphs(4, 3):
        assert Hypergraph(g.d, parse_edges(edges_text(g))) == g


@st.composite
def _raw_edge_lists(draw):
    """(d, edges) with vertices in any order, repeated vertices and repeated edges."""
    d = draw(st.integers(1, 8))
    edges = draw(st.lists(st.lists(st.integers(0, d - 1), min_size=1, max_size=2 * d), max_size=8))
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=3))
    return d, draw(st.permutations(edges))


@settings(max_examples=200, deadline=None)
@given(_raw_edge_lists())
def test_round_trip_on_random_edge_lists(raw):
    d, edges = raw
    g = Hypergraph(d, edges)
    assert Hypergraph(d, parse_edges(edges_text(g))) == g
    text = ";".join(",".join(map(str, edge)) for edge in edges)
    assert Hypergraph(d, parse_edges(text)) == g


def test_round_trip_canonicalizes():
    assert edges_text(Hypergraph(4, parse_edges("3,0;2,0,3"))) == "0,3;0,2,3"


@pytest.mark.parametrize(
    "text",
    [
        "0,1;",    # trailing empty edge
        "0,,1",    # empty vertex
        "0,9",     # vertex out of range
        "a,b",     # non-integers
        "0,1_0",   # int() reads 10
        "+1,2",    # int() reads 1
        "0,-1",    # a sign
        "0,1 0",   # a space within a vertex; removing it would read 10
        "\u0664",  # ARABIC-INDIC DIGIT FOUR, which int() reads as 4
        "0,\uff11",  # FULLWIDTH DIGIT ONE
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(ValueError):
        Hypergraph(4, parse_edges(text))
