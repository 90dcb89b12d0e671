"""The reproduction report computes each number once, on the same route as its oracle."""

import inspect
from collections import Counter

import pytest

import hyperstate.reference_tables as ref
import hyperstate.reproduce as reproduce
from hyperstate.hypergraph import complete_k_graph, edges_text, parse_edges, single_full_edge
from hyperstate.reproduce import Reproducer
from hyperstate.squeezing import squeeze_report
from hyperstate.sweep import Family

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
