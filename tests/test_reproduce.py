"""The reproduction report computes each number once, on the same route as its oracle."""

import inspect
import itertools
import re
from collections import Counter

import numpy as np
import pytest

import hyperstate.reference_tables as ref
import hyperstate.reproduce as reproduce
import hyperstate.sweep as sweep
from hyperstate.hypergraph import complete_k_graph, edges_text, parse_edges, single_full_edge
from hyperstate.reproduce import Reproducer
from hyperstate.squeezing import squeeze_report
from hyperstate.sweep import METRIC_NAMES, Family, SweepResults

from oracles import matches_by_permutation


def _caller() -> str:
    return inspect.currentframe().f_back.f_back.f_code.co_name


def test_report_sweeps_each_family_once(monkeypatch):
    sweeps, reports = [], []
    real_sweep, real_report = reproduce.sweep_family, reproduce.squeeze_report

    def counted_sweep(family, *args, **kwargs):
        sweeps.append((_caller(), family.descriptor))
        return real_sweep(family, *args, **kwargs)

    def counted_report(g):
        reports.append(_caller())
        return real_report(g)

    monkeypatch.setattr(reproduce, "sweep_family", counted_sweep)
    monkeypatch.setattr(reproduce, "squeeze_report", counted_report)
    runner = Reproducer()
    failing = [r.key for r in runner.run() if r.status == "FAIL"]
    runner.plot_series()
    assert failing == ["C10b"]
    assert reports == ["check_example_statistics"]
    memo = Counter(family for caller, family in sweeps if caller == "sweep")
    assert memo and max(memo.values()) == 1
    others = [(caller, family) for caller, family in sweeps if caller != "sweep"]
    assert others == [("check_determinism", "dminus1(d=6)")] * 2


def test_c13_splits_its_8_thread_sweep_between_workers(monkeypatch):
    # The 57 connected rows at d = 6 fit one tile, so a split by tiles gave one worker.
    blocks = []
    real = sweep.membership_profile

    def counted(d, edges, rows):
        blocks.append(len(rows))
        return real(d, edges, rows)

    monkeypatch.setattr(sweep.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(sweep, "membership_profile", counted)
    assert Reproducer().check_determinism().status == "PASS"
    assert sorted(blocks) == [28, 29, 57]  # one call at 1 thread, then two workers


def test_witnesses_are_evaluated_once_across_c6_to_c8(monkeypatch):
    calls = Counter()
    real = reproduce.agarwal_tara

    def counted(d, n):
        calls[(d, n)] += 1
        return real(d, n)

    monkeypatch.setattr(reproduce, "agarwal_tara", counted)
    monkeypatch.setattr(ref, "agarwal_tara", counted)
    runner = Reproducer()
    for check in (runner.check_witness_small, runner.check_moment_identities, runner.check_a4_crosscheck):
        assert check().status == "PASS"
    assert {pair for n, rows in ref.WITNESS_TABLES.items() for pair in ((d, n) for d in rows)} <= set(calls)
    assert set(calls.values()) == {1}


def test_structure_suite_builds_each_commutator_once(monkeypatch):
    import hyperstate.operators as operators

    built = Counter()
    real = operators.number_phase_commutator_dense

    def counted(dim):
        built[dim] += 1
        return real(dim)

    monkeypatch.setattr(reproduce, "number_phase_commutator_dense", counted)
    monkeypatch.setattr(operators, "number_phase_commutator_dense", counted)
    runner = Reproducer()
    assert runner.check_structure_suite().status == "PASS"
    assert runner.check_stated_eigenvalue_bound().status == "FAIL"  # C10b, by design
    assert built == Counter({4: 1, 8: 1, 16: 1, 64: 1, 256: 1})


def test_quadrature_claims_build_each_commutator_once(monkeypatch):
    built = Counter()
    real = reproduce.quadrature_commutator

    def counted(dim, k):
        built[dim, k] += 1
        return real(dim, k)

    monkeypatch.setattr(reproduce, "quadrature_commutator", counted)
    assert Reproducer().check_quadrature_claims().status == "PASS"
    once = [(dim, k) for dim in (4, 8, 16, 32, 64) for k in (1, 2)]  # the d = 2..6 states
    once += [(dim, k) for dim in (8, 16) for k in (3, 4)]  # the notes on d = 3, 4
    assert built == Counter(once) and len(once) == 14


def _memo_matches_squeeze_report(runner, kind, d, k=None):
    records = runner.sweep(kind, d, k)[0]
    assert len(records) == 1
    metrics = records[0].metrics
    report = squeeze_report(single_full_edge(d) if k is None else complete_k_graph(d, k))
    assert (metrics["s_p"], metrics["var_p"], metrics["half_comm"]) == (
        report.s_p, report.var_p, report.half_comm), (kind, d, k)


def test_memo_s_p_is_squeeze_report_bit_for_bit():
    runner = Reproducer()
    for d in range(4, 14):
        _memo_matches_squeeze_report(runner, "single-full", d)
    for d in range(1, 9):
        for k in range(1, d + 1):
            _memo_matches_squeeze_report(runner, "complete-k", d, k)


@pytest.mark.extended
def test_memo_s_p_is_squeeze_report_bit_for_bit_d9_to_d11():
    runner = Reproducer()
    for d in range(9, 12):
        for k in range(1, d + 1):
            _memo_matches_squeeze_report(runner, "complete-k", d, k)


@pytest.mark.extended
def test_extended_report_fails_only_c10b():
    results = Reproducer(extended=True).run()
    assert [r.key for r in results if r.status == "FAIL"] == ["C10b"]


def test_c7_fails_on_a_transcribed_table_that_disagrees(monkeypatch):
    assert Reproducer().check_moment_identities().status == "PASS"
    w_table = dict(ref.W_FACTOR_TABLE)
    w_table[3] = w_table[3][:2] + (w_table[3][2] + 1,) + w_table[3][3:]
    monkeypatch.setattr(ref, "W_FACTOR_TABLE", w_table)
    monkeypatch.setattr(ref, "STIRLING_TRIANGLE", ref.STIRLING_TRIANGLE[:5] + ((1, 31, 90, 66, 15, 1),))
    result = Reproducer().check_moment_identities()
    assert result.status == "FAIL"
    assert result.detail == (
        "published W_3(d=3) = 19/4, closed form 15/4, m_3/m_2 = 15/4; "
        "published Stirling triangle differs from S(k, j)"
    )


PUBLISHED_SET_TABLES = {"DMINUS1_S_P": ref.DMINUS1_S_P, "PHASE_BASIS_ENTROPY": ref.PHASE_BASIS_ENTROPY,
                        "PHASE_BASIS_L1": ref.PHASE_BASIS_L1}


def test_every_published_extremal_set_is_dminus1_uniform():
    for name, table in PUBLISHED_SET_TABLES.items():
        for d, (_, max_sets, _, min_sets) in table.items():
            for text in max_sets + min_sets:
                edges = parse_edges(text)
                assert edges and all(len(set(e)) == len(e) == d - 1 and set(e) < set(range(d)) for e in edges), (
                    name, d, text)


def test_relabeling_rule_agrees_with_the_permutation_oracle_on_every_extended_call(monkeypatch):
    calls = []
    real = reproduce._matches_up_to_relabeling

    def recorded(expected, candidates, d):
        answer = real(expected, candidates, d)
        calls.append((expected, candidates, d, answer))
        return answer

    monkeypatch.setattr(reproduce, "_matches_up_to_relabeling", recorded)
    runner = Reproducer(extended=True)
    runner.check_dminus1_extrema()
    runner.check_coherence()
    assert {d for _, _, d, _ in calls} == set(range(4, 13))
    checked = [(e, c, d, answer) for e, c, d, answer in calls if d <= 8]
    assert checked
    for expected, candidates, d, answer in checked:
        assert answer == matches_by_permutation(expected, candidates, d), (expected, candidates, d)


@pytest.mark.parametrize("expected, candidates, d", [
    ("0,1;1,2", ("0,1;1,2",), 4),              # 2-uniform on d = 4, even as exact text
    ("0,1;1,2", ("0,1,2;0,1,3",), 4),           # same edge count, other sizes
    ("0,1,2;0,1,3;2,3", ("0,1,2;0,1,3;0,2,3",), 4),  # one edge too small
    ("0,1,2;0,1,4", ("0,1,2;0,1,3",), 4),       # vertex 4 is not on d = 4
    ("0,1,2,3", ("0,1,2,3",), 4),                # the full edge on d = 4
])
def test_a_set_that_is_not_dminus1_uniform_never_matches(expected, candidates, d):
    assert not reproduce._matches_up_to_relabeling(expected, candidates, d)


def test_dminus1_uniform_sets_match_exactly_when_their_edge_counts_agree():
    for d in (3, 4, 5):
        family = Family("dminus1", d)
        texts = [edges_text(g) for g in family.configurations()]
        for expected in texts:
            for candidate in texts:
                agree = reproduce._matches_up_to_relabeling(expected, (candidate,), d)
                assert agree == matches_by_permutation(expected, (candidate,), d)
                assert agree == (expected.count(";") == candidate.count(";"))


def test_c11_counts_its_states_and_fails_on_a_planted_expectation(monkeypatch):
    assert Reproducer().check_quadrature_claims().detail == "zero within 1e-10 on 125 hypergraph states"
    real = reproduce.quadrature_commutator

    def planted(dim, k):  # <psi|C|psi> = 1e-9 on every state of d = 5 for k = 2
        return real(dim, k) + (1e-9 * np.eye(dim) if (dim, k) == (32, 2) else 0.0)

    monkeypatch.setattr(reproduce, "quadrature_commutator", planted)
    result = reproduce.Reproducer().check_quadrature_claims()
    assert result.status == "FAIL"
    named = [re.fullmatch(r"<\[X\^(\d),P\^\d\]> = (\S+) on d=(\d+), edges (\S+)", entry).groups()
             for entry in result.detail.removesuffix("; ...").split("; ")]
    dminus1 = [edges_text(g) for g in itertools.islice(Family("dminus1", 5).configurations(), 3)]
    assert [(k, d, edges) for k, _, d, edges in named] == [("2", "5", text) for text in ["0,1,2,3,4", *dminus1]]
    assert all(abs(complex(value) - 1e-9) < 1e-12 for _, value, _, _ in named)
    assert result.detail.endswith("; ...")  # six states of d = 5 fail, the first four are named


def _planted(runner, kind, d, metric, plants):
    """Put ``runner``'s sweep of ``Family(kind, d)`` back with ``metric`` set to value at each row."""
    results, summary = runner.sweep(kind, d)
    values = results.values.copy()
    for row, value in plants.items():
        values[row, METRIC_NAMES.index(metric)] = value
    runner._sweeps[kind, d, None] = SweepResults(results.d, results.edges, values), summary
    return [results.edges[row] for row in plants]


def test_c10_fails_on_a_planted_robertson_violation():
    runner = Reproducer()
    violated = _planted(runner, "dminus1", 6, "var_p", {3: 0.0, 40: float("nan")})
    violated += _planted(runner, "dminus1", 7, "half_comm", {7: float("nan"), 8: 1e3})
    result = runner.check_structure_suite()
    assert result.status == "FAIL"
    assert result.detail == "; ".join(
        [f"Robertson violation at d=6, edges {e}" for e in violated[:2]]
        + [f"Robertson violation at d=7, edges {e}" for e in violated[2:]])
    assert Reproducer().check_structure_suite().detail.endswith("Robertson on 461 states")


def test_c12_fails_on_a_planted_negative_s_n_and_notes_an_undefined_one():
    runner = Reproducer()
    negative, undefined = _planted(runner, "dminus1", 5, "s_n", {2: -0.5, 9: float("nan")})
    result = runner.check_no_number_squeezing()
    assert (result.status, result.detail) == ("FAIL", f"S_N = -0.5 < 0 at d=5, edges {negative}")
    assert f"s_n undefined at d=5, edges {undefined}" in result.notes
    clean = Reproducer().check_no_number_squeezing()
    assert clean.status == "PASS" and len(result.notes) == len(clean.notes) + 1
