"""Unit tests for hypergraph state construction and circuit emission."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperstate.state as state_mod
from hyperstate.errors import GuardError
from hyperstate.hypergraph import Hypergraph, complete_k_graph, single_full_edge
from hyperstate.state import (
    CircuitDescription,
    circuit_text,
    emit_circuit,
    hypergraph_state,
    simulate_circuit,
)

from conftest import EXAMPLE_EDGES, random_hypergraph
from oracles import boolean_function, hypergraph_amplitudes, k_uniform_hypergraphs

EXAMPLE_SIGNS = (1, 1, 1, 1, 1, 1, 1, -1, 1, -1, 1, 1, 1, -1, 1, -1)


def test_example_state_reproduces_published_vector(example_hypergraph):
    psi = hypergraph_state(example_hypergraph)
    assert np.allclose(psi, np.array(EXAMPLE_SIGNS) / 4.0, atol=0)
    assert np.all(psi.imag == 0.0)


def test_edgeless_d2_uniform():
    assert np.array_equal(hypergraph_state(Hypergraph(2)), np.full(4, 0.5 + 0j))


def test_d2_single_edge():
    psi = hypergraph_state(Hypergraph(2, [(0, 1)]))
    assert np.array_equal(psi, np.array([0.5, 0.5, 0.5, -0.5], dtype=complex))


def test_unit_norm():
    rng = np.random.default_rng(77)
    for _ in range(20):
        g = random_hypergraph(rng, int(rng.integers(1, 7)))
        assert abs(np.linalg.norm(hypergraph_state(g)) - 1.0) < 1e-12


def test_state_guard():
    with pytest.raises(GuardError):
        hypergraph_state(Hypergraph(25))


def test_injective_from_truth_tables():
    seen = {}
    for g in k_uniform_hypergraphs(3, 2):
        key = boolean_function(g).tobytes()
        vec = hypergraph_state(g)
        for other_key, other_vec in seen.items():
            assert not np.array_equal(vec, other_vec) or key == other_key
        seen[key] = vec
    assert len(seen) == 7


# circuits


def test_emit_circuit_example(example_hypergraph):
    circ = emit_circuit(example_hypergraph)
    assert circ.gates[:4] == tuple(("H", (v,)) for v in range(4))
    assert circ.gates[4:] == (("CZ", (0, 3)), ("CZ", (0, 2, 3)), ("CZ", (1, 2, 3)))


def test_emit_circuit_edgeless_and_full():
    assert emit_circuit(Hypergraph(2)).gates == (("H", (0,)), ("H", (1,)))
    circ = emit_circuit(single_full_edge(3))
    assert circ.gates == (("H", (0,)), ("H", (1,)), ("H", (2,)), ("CZ", (0, 1, 2)))


def test_circuit_text_format(example_hypergraph):
    text = circuit_text(emit_circuit(example_hypergraph))
    assert text.splitlines() == [
        "H 0", "H 1", "H 2", "H 3", "CZ 0 3", "CZ 0 2 3", "CZ 1 2 3",
    ]


def test_circuit_invariants_enforced():
    with pytest.raises(ValueError):
        CircuitDescription(2, (("CZ", (0, 1)), ("H", (0,)), ("H", (1,))))
    with pytest.raises(ValueError):
        CircuitDescription(2, (("H", (0,)),))
    with pytest.raises(ValueError):
        CircuitDescription(2, (("H", (0,)), ("H", (2,))))
    with pytest.raises(ValueError):
        CircuitDescription(2, (("H", (0,)), ("H", (1,)), ("X", (0,))))


def test_simulated_circuit_matches_state_small():
    rng = np.random.default_rng(11)
    graphs = [Hypergraph(2), single_full_edge(6), Hypergraph(4, EXAMPLE_EDGES)]
    graphs += [random_hypergraph(rng, int(rng.integers(2, 7))) for _ in range(10)]
    for g in graphs:
        sim = simulate_circuit(emit_circuit(g))
        assert np.max(np.abs(sim - hypergraph_state(g))) < 1e-12


def _batches():
    """Hypergraphs on one d <= 8 with 0-6 edges each, drawn from a shared edge pool."""

    def on(d):
        pool = st.lists(st.integers(1, (1 << d) - 1), min_size=1, max_size=8, unique=True)
        return pool.flatmap(lambda masks: st.lists(
            st.lists(st.sampled_from(masks), max_size=6), min_size=1, max_size=6
        ).map(lambda rows: [
            Hypergraph(d, [tuple(v for v in range(d) if m >> v & 1) for m in row]) for row in rows
        ]))

    return st.integers(1, 8).flatmap(on)


@settings(max_examples=60, deadline=None)
@given(_batches())
def test_batched_amplitudes_match_boolean_functions_and_circuits(graphs):
    amplitudes = hypergraph_amplitudes(graphs)
    scale = np.sqrt(float(graphs[0].dim))
    for row, g in zip(amplitudes, graphs):
        table = boolean_function(g)
        assert row.tobytes() == ((1.0 - 2.0 * table) / scale).tobytes()
        simulated = simulate_circuit(emit_circuit(g))
        assert np.array_equal(np.sign(simulated.real), np.sign(row))


@pytest.mark.parametrize("edges_per_block", [1, 3])
def test_amplitudes_do_not_depend_on_indicator_block_size(monkeypatch, edges_per_block):
    rng = np.random.default_rng(3)
    graphs = [random_hypergraph(rng, 6) for _ in range(8)] + [complete_k_graph(6, 3)]
    whole = hypergraph_amplitudes(graphs)
    monkeypatch.setattr(state_mod, "_INDICATOR_BYTES", edges_per_block * 4 << 6)
    assert hypergraph_amplitudes(graphs).tobytes() == whole.tobytes()
