"""Unit tests for number/phase statistics and squeezing degrees."""

import numpy as np
import pytest

from hyperstate.errors import GuardError
from hyperstate.hypergraph import Hypergraph, single_full_edge
from hyperstate.operators import (
    number_operator,
    number_phase_commutator_dense,
    spectral_profile,
    variance,
)
from hyperstate.squeezing import HALF_COMM_FLOOR, number_stats, squeeze_report
from hyperstate.state import hypergraph_profile, hypergraph_state

from oracles import k_uniform_hypergraphs, number_phase_commutator_expectation, phase_stats, phase_state


@pytest.mark.parametrize(
    "d,mean,var",
    [(4, 7.5, 21.25), (2, 1.5, 1.25), (1, 0.5, 0.25), (8, 127.5, 5461.25)],
)
def test_number_stats_closed_form(d, mean, var):
    assert number_stats(d) == (mean, var)


def test_number_stats_matches_dense_expectation():
    for d in (2, 3, 4, 5):
        dim = 1 << d
        n_op = number_operator(dim)
        for g in (Hypergraph(d), single_full_edge(d)):
            dense_var = variance(n_op, hypergraph_state(g))
            assert abs(dense_var - number_stats(d)[1]) < 1e-9


def test_phase_stats_edgeless_is_zero():
    mean, var = phase_stats(hypergraph_state(Hypergraph(3)))
    assert abs(mean) < 1e-12 and abs(var) < 1e-12


def test_phase_stats_example_variance(example_hypergraph):
    mean, var = phase_stats(hypergraph_state(example_hypergraph))
    assert var == pytest.approx(3.4312, abs=1e-3)
    assert var == pytest.approx(3.431229655066222, abs=1e-9)
    assert mean == pytest.approx(3 * np.pi / 4, abs=1e-12)


def test_phase_stats_on_phase_state():
    mean, var = phase_stats(phase_state(8, 5))
    assert mean == pytest.approx(2 * np.pi * 5 / 8, abs=1e-12)
    assert abs(var) < 1e-12


def test_squeeze_report_single_full_edge_values():
    assert squeeze_report(single_full_edge(4)).s_p == pytest.approx(-0.2238, abs=1e-3)
    assert squeeze_report(single_full_edge(8)).s_p == pytest.approx(-0.9764, abs=1e-3)


def test_squeeze_report_edgeless_sentinels():
    report = squeeze_report(Hypergraph(3))
    assert report.s_p == -1.0
    assert report.s_n is None
    assert report.half_comm < 1e-14
    assert report.var_p == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("d", [8, 12, 16, 20])
def test_edgeless_commutator_vanishes_at_every_size(d):
    # |+>^d has all its phase weight at theta_0 = 0, so <[N, P]> = 0 exactly;
    # round-off growing like eps D**2 would cross the floor from d = 8 on.
    report = squeeze_report(Hypergraph(d, ()))
    assert report.half_comm < HALF_COMM_FLOOR
    assert report.s_n is None
    assert report.s_p == -1.0


def test_squeeze_report_example_not_squeezed(example_hypergraph):
    report = squeeze_report(example_hypergraph)
    assert report.var_p == pytest.approx(3.4312, abs=1e-3)
    assert report.half_comm == pytest.approx(1.8624, abs=1e-3)
    assert report.var_n == 21.25
    assert report.s_p is not None and report.s_p > 0


def test_squeeze_report_fields(example_hypergraph):
    report = squeeze_report(example_hypergraph)
    assert report.d == 4
    assert report.edges == "0,3;0,2,3;1,2,3"
    data = report.to_dict()
    assert set(data) == {
        "d", "edges", "mean_n", "var_n", "mean_p", "var_p", "half_comm", "s_n", "s_p",
    }


def test_s_p_at_least_minus_one():
    for g in k_uniform_hypergraphs(4, 3):
        report = squeeze_report(g)
        if report.s_p is not None:
            assert report.s_p >= -1.0
            if report.s_p == -1.0:
                assert report.var_p < 1e-14


def test_variance_dominates_half_gershgorin_formula():
    from hyperstate.operators import gershgorin_bound

    for d in range(1, 13):
        assert number_stats(d)[1] - gershgorin_bound(1 << d) / 2 >= 0


def test_profile_half_comm_matches_dense_and_fft_oracles():
    # d = 8 against the dense [N, P]; d = 9, 10 against two FFT-applied
    # operator products.  squeeze_report carries the state's profile, which for
    # a single full edge is the support route's, held to the same oracle.
    for d in (8, 9, 10):
        g = single_full_edge(d)
        psi = hypergraph_state(g)
        if d == 8:
            oracle = abs(np.vdot(psi, number_phase_commutator_dense(1 << d) @ psi)) / 2
        else:
            oracle = abs(number_phase_commutator_expectation(psi)) / 2
        half = float(spectral_profile(psi.real).half_comm)
        assert abs(half - oracle) < 1e-10
        report = squeeze_report(g).half_comm
        assert abs(report - oracle) < 1e-10
        assert report == float(hypergraph_profile(g).half_comm)


def test_squeeze_report_guard():
    with pytest.raises(GuardError):
        squeeze_report(Hypergraph(25))
