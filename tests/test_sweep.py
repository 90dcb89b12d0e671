"""Unit tests for family sweeps, persistence, and caching."""

import errno
import itertools
import json
import os
from math import comb

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hyperstate.cli as cli_mod
import hyperstate.hypergraph as hypergraph_mod
import hyperstate.sweep as sweep_mod
from hyperstate.errors import GuardError, SchemaError
from hyperstate.hypergraph import (
    Hypergraph,
    canonical_edges,
    connected_rows,
    edges_text,
    is_connected,
    parse_hypergraph,
    serialize_hypergraph,
)
from hyperstate.reproduce import Reproducer
from hyperstate.squeezing import squeeze_report
from hyperstate.sweep import (
    CSV_HEADER,
    METRIC_NAMES,
    Family,
    SweepRecord,
    SweepResults,
    SweepSummary,
    cache_key,
    cached_sweep,
    dminus1_family,
    evaluate_record,
    read_results,
    render_results,
    sweep_family,
    worker_count,
    write_results,
)

import oracles
from oracles import k_uniform_hypergraphs, records_payload


def test_family_descriptors():
    assert dminus1_family(5).descriptor == "dminus1(d=5)"
    assert Family("complete-k", 6, 4).descriptor == "complete-k(d=6,k=4)"
    assert Family("single-full", 7).descriptor == "single-full(d=7)"
    assert Family("k-uniform", 5, 2).descriptor == "k-uniform(d=5,k=2)"


def test_family_validation():
    with pytest.raises(ValueError):
        Family("dplus1", 5)
    with pytest.raises(ValueError):
        Family("complete-k", 5)


@pytest.mark.parametrize("kind, d, k, rule", [
    ("dminus1", 1, None, "d >= 2"),
    ("dminus1", -3, None, "d >= 2"),
    ("complete-k", 0, 1, "d >= 1"),
    ("complete-k", 5, 0, "1 <= k <= d"),
    ("complete-k", 5, 6, "1 <= k <= d"),
    ("single-full", 0, None, "d >= 1"),
    ("dminus1", 4, 2, "no k, got k=2"),
    ("single-full", 4, 4, "no k, got k=4"),
    ("k-uniform", 0, 1, "d >= 1"),
    ("k-uniform", 5, None, "1 <= k <= d"),
    ("k-uniform", 5, 6, "1 <= k <= d"),
])
def test_family_states_its_own_range_rule(kind, d, k, rule):
    with pytest.raises(ValueError, match=f"^{kind} family needs {rule}"):
        Family(kind, d, k)


@pytest.mark.parametrize("d", range(2, 9))
def test_dminus1_rows_decode_to_k_uniform_family(d):
    family = dminus1_family(d)
    assert family.edges == tuple(itertools.combinations(range(d), d - 1))
    assert list(family.configurations()) == list(k_uniform_hypergraphs(d, d - 1))
    k_uniform = Family("k-uniform", d, d - 1)
    assert (k_uniform.edges, k_uniform.rows.tobytes()) == (family.edges, family.rows.tobytes())


@pytest.mark.parametrize("d, k", [(d, k) for d in range(1, 6) for k in range(1, d + 1) if comb(d, k) <= 10])
def test_k_uniform_rows_decode_to_every_k_subset_mask(d, k):
    family = Family("k-uniform", d, k)
    assert family.edges == tuple(itertools.combinations(range(d), k))
    assert list(family.configurations()) == list(k_uniform_hypergraphs(d, k))


@pytest.mark.parametrize("d", range(3, 13))
def test_dminus1_connected_rows_are_the_rows_with_two_edges_or_more(d):
    # Each (d-1)-edge leaves out one vertex: one edge misses a vertex, and any
    # two cover all d vertices and share d - 2 >= 1 of them.
    family = dminus1_family(d)
    connected = connected_rows(d, family.edges, family.rows)
    assert connected.tolist() == (family.rows.sum(axis=1) >= 2).tolist()


def _k_uniform_rows():
    """(d, candidate k-subsets, membership rows over them) with d <= 7."""

    def rows_on(d, k):
        edges = tuple(itertools.combinations(range(d), k))
        row = st.lists(st.integers(0, 1), min_size=len(edges), max_size=len(edges))
        return st.lists(row, min_size=1, max_size=6).map(
            lambda rows: (d, edges, np.array(rows, dtype=np.uint8).reshape(len(rows), -1)))

    return st.integers(1, 7).flatmap(
        lambda d: st.integers(1, d).flatmap(lambda k: rows_on(d, k)))


@settings(max_examples=80, deadline=None)
@given(_k_uniform_rows())
def test_rows_agree_with_decoded_hypergraphs(case):
    d, edges, rows = case
    graphs = [Hypergraph(d, itertools.compress(edges, row)) for row in rows.tolist()]
    assert connected_rows(d, edges, rows).tolist() == [is_connected(g) for g in graphs]
    texts = [",".join(map(str, e)) for e in edges]
    records = sweep_mod._evaluate_chunk(d, edges, texts, rows)
    for record, g in zip(records, graphs):
        assert record.edges == edges_text(g)
        assert record == evaluate_record(g)
        assert parse_hypergraph(serialize_hypergraph(g)) == g


def test_sweep_builds_no_per_configuration_objects(monkeypatch):
    family = dminus1_family(8)
    expected = [evaluate_record(g) for g in family.configurations() if is_connected(g)]

    def refuse(name):
        def fail(*args, **kwargs):
            raise AssertionError(f"sweep called {name}")
        return fail

    monkeypatch.setattr(Hypergraph, "__post_init__", refuse("Hypergraph"))
    for name in ("is_connected", "edges_text"):
        monkeypatch.setattr(hypergraph_mod, name, refuse(name))
        monkeypatch.setattr(sweep_mod, name, refuse(name), raising=False)
    records, summary = sweep_family(family)
    assert records == expected and summary.count == 247  # 255 subsets, 8 single edges


def test_family_default_filters():
    assert dminus1_family(5).default_connectivity_filter
    assert not Family("complete-k", 5, 4).default_connectivity_filter
    assert not Family("single-full", 5).default_connectivity_filter


def test_sweep_counts_and_order():
    records, summary = sweep_family(dminus1_family(5))
    assert summary.count == len(records) == 26  # 31 subsets, 5 disconnected singletons
    assert records[0].edges == "0,1,2,3;0,1,2,4"
    unfiltered, _ = sweep_family(dminus1_family(5), connectivity_filter=False)
    assert len(unfiltered) == 31
    assert unfiltered[0].edges == "0,1,2,3"


def test_sweep_published_extrema_d5():
    _, summary = sweep_family(dminus1_family(5))
    s_p = summary.metrics["s_p"]
    assert s_p.max_value == pytest.approx(-0.0265, abs=1e-3)
    assert s_p.min_value == pytest.approx(-0.4968, abs=1e-3)
    assert s_p.argmax == ("0,1,2,3;0,1,2,4;0,1,3,4;0,2,3,4",)
    assert s_p.argmin == ("0,1,2,3;0,1,2,4;0,1,3,4",)


def test_summary_extrema_attained_by_listed_sets():
    records, summary = sweep_family(dminus1_family(5))
    by_edges = {r.edges: r for r in records}
    for name, metric in summary.metrics.items():
        for edges in metric.argmin:
            assert by_edges[edges].metrics[name] == metric.min_value
        for edges in metric.argmax:
            assert by_edges[edges].metrics[name] == metric.max_value


def test_family_enumeration_guard():
    with pytest.raises(GuardError):
        sweep_family(dminus1_family(32))  # C(32,31) = 32 candidate edges


@pytest.mark.parametrize("kind, d, k", [
    ("dminus1", 17, None),
    ("dminus1", 30, None),
    ("dminus1", 10**6, None),
    ("complete-k", 24, 12),
])
def test_sweep_work_guard_refuses_before_enumeration(monkeypatch, kind, d, k):
    def boom(*args, **kwargs):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(sweep_mod.itertools, "combinations", boom)
    for name in ("connected_rows", "membership_profile"):
        monkeypatch.setattr(sweep_mod, name, boom)
    with pytest.raises(GuardError, match="work budget"):
        sweep_family(Family(kind, d, k))


def test_sweep_work_guard_admits_dminus1_up_to_d16():
    assert dminus1_family(16).rows.shape == ((1 << 16) - 1, 16)


def test_squeeze_extrema_range_over_squeezed_configs():
    # plain max of s_p over the d=5 family is positive (anti-squeezed), the
    # summary reports the extrema of the squeezed (negative) subpopulation
    records, summary = sweep_family(dminus1_family(5))
    plain_max = max(r.metrics["s_p"] for r in records)
    assert plain_max > 0
    assert summary.metrics["s_p"].max_value < 0


def test_constant_metric_keeps_all_ties():
    records, summary = sweep_family(dminus1_family(4), metrics=("var_n",))
    var_n = summary.metrics["var_n"]
    assert var_n.min_value == var_n.max_value == 21.25
    assert len(var_n.argmin) == len(records)
    assert var_n.argmin == var_n.argmax


def test_single_configuration_family_min_equals_max():
    _, summary = sweep_family(Family("complete-k", 5, 4))
    s_p = summary.metrics["s_p"]
    assert s_p.min_value == s_p.max_value == pytest.approx(-0.401, abs=1e-3)
    assert s_p.argmin == s_p.argmax


def test_record_metrics_match_squeeze_report():
    g = Hypergraph(4, [(0, 1, 2), (1, 2, 3)])
    record = evaluate_record(g)
    report = squeeze_report(g)
    assert record.metrics["s_p"] == report.s_p
    assert record.metrics["half_comm"] == report.half_comm
    assert set(record.metrics) == set(METRIC_NAMES)


def test_unknown_metric_rejected():
    with pytest.raises(ValueError):
        sweep_family(dminus1_family(4), metrics=("s_q",))


def test_empty_family_after_filter():
    with pytest.raises(ValueError):
        sweep_family(dminus1_family(2))  # singleton edges never cover both vertices


def test_write_read_round_trip(tmp_path):
    records, _ = sweep_family(dminus1_family(4))
    for fmt in ("csv", "json"):
        path = tmp_path / f"out.{fmt}"
        write_results(records, path)
        assert read_results(path) == records


def test_write_is_byte_stable(tmp_path):
    records, _ = sweep_family(dminus1_family(4))
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    write_results(records, first)
    write_results(records, second)
    assert first.read_bytes() == second.read_bytes()


def test_csv_header_schema(tmp_path):
    records, _ = sweep_family(dminus1_family(4))
    path = tmp_path / "out.csv"
    write_results(records, path)
    header = path.read_text().splitlines()[0]
    assert header == ",".join(CSV_HEADER)


def test_read_rejects_unknown_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("d,edges,s_p,s_n,var_p,var_n,half_comm,c_l1_phase,extra\n")
    with pytest.raises(SchemaError):
        read_results(path)


def test_read_rejects_unknown_json_key(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('[{"d": 4, "edges": "", "bogus": 1}]')
    with pytest.raises(SchemaError):
        read_results(path)


def test_read_rejects_unknown_extension(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("d,edges\n")
    with pytest.raises(SchemaError):
        read_results(path)


def test_cache_key_stability(monkeypatch):
    family = dminus1_family(5)
    assert cache_key(family) == cache_key(family)
    assert cache_key(family) != cache_key(dminus1_family(6))
    assert cache_key(family) != cache_key(family, metrics=("s_p",))
    assert cache_key(family) != cache_key(family, connectivity_filter=False)
    assert cache_key(Family("complete-k", 5, 4)) != cache_key(Family("complete-k", 5, 3))
    current = cache_key(family)
    monkeypatch.setattr(sweep_mod, "RESULTS_VERSION", sweep_mod.RESULTS_VERSION - 1)
    assert cache_key(family) != current


def _valid_text(records):
    return render_results(records, "json")


def _with_raw(records, key, raw):
    """JSON of ``records`` with the first record's ``key`` set to the JSON text ``raw``."""
    payload = records_payload(records)
    payload[0][key] = "@raw@"
    return json.dumps(payload).replace('"@raw@"', raw)


MALFORMED = {
    "list-of-numbers": lambda records: "[1, 2]",
    "truncated": lambda records: _valid_text(records)[: len(_valid_text(records)) // 2],
    "object": lambda records: '{"records": []}',
    "metric-beyond-float": lambda records: _with_raw(records, "s_p", "1" + "0" * 400),
    "integer-over-digit-limit": lambda records: _with_raw(records, "var_p", "9" * 5000),
    "deep-nesting": lambda records: "[" * 100_000 + "]" * 100_000,
    "nan-metric": lambda records: _with_raw(records, "half_comm", "NaN"),
    "infinite-metric": lambda records: _with_raw(records, "c_l1_phase", "-Infinity"),
    "boolean-metric": lambda records: _with_raw(records, "var_n", "true"),
    "boolean-d": lambda records: _with_raw(records, "d", "true"),
    "fractional-d": lambda records: _with_raw(records, "d", "3.7"),
    "string-d": lambda records: _with_raw(records, "d", '"4"'),
}
# Well-formed results files that cannot be the entry of the d = 4 family.
FOREIGN = {
    "empty-list": lambda records: "[]",
    "records-on-other-d": lambda records: _valid_text(sweep_family(dminus1_family(5))[0]),
}


@pytest.mark.parametrize("kind", sorted(MALFORMED))
def test_read_rejects_malformed_json(tmp_path, kind):
    records, _ = sweep_family(dminus1_family(4))
    path = tmp_path / "bad.json"
    path.write_text(MALFORMED[kind](records))
    with pytest.raises(SchemaError):
        read_results(path)


@pytest.mark.parametrize("text", [
    '[{"d": "x", "edges": "", "s_p": 1, "s_n": 1, "var_p": 1, "var_n": 1,'
    ' "half_comm": 1, "c_l1_phase": 1, "c_rel_phase": 1}]',
    '[{"d": 4, "edges": 7, "s_p": 1, "s_n": 1, "var_p": 1, "var_n": 1,'
    ' "half_comm": 1, "c_l1_phase": 1, "c_rel_phase": 1}]',
    '[{"d": 4, "edges": "", "s_p": "low", "s_n": 1, "var_p": 1, "var_n": 1,'
    ' "half_comm": 1, "c_l1_phase": 1, "c_rel_phase": 1}]',
    # JSON text is not a JSON number, even when int() or float() would read it.
    *('[{"d": %s, "edges": "", "s_p": %s, "s_n": 1, "var_p": 1, "var_n": 1,'
      ' "half_comm": 1, "c_l1_phase": 1, "c_rel_phase": 1}]' % case
      for case in (('"4"', "1"), ('"\u0664"', "1"), ("4", '"0.5"'), ("4", '"1_0.5"'), ("4.0", "1"))),
])
def test_read_rejects_malformed_json_values(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(SchemaError):
        read_results(path)


def test_read_rejects_malformed_csv_values(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(",".join(CSV_HEADER) + "\n4,0,1,x,,,,,,\n")
    with pytest.raises(SchemaError):
        read_results(path)
    path.write_bytes(b"\xff\xfe\x00")
    with pytest.raises(SchemaError):
        read_results(path)


# The last seven are read by int() or float() but are not text that csv_text writes:
# d is the str of an int and a metric the repr of a float.
@pytest.mark.parametrize("row", ["4,0,nan,,,,,,", "4,0,1e999,,,,,,", "3.7,0,,,,,,,", "9" * 5000 + ",0,,,,,,,",
                                 '4,"' + "0" * 200_000 + '",,,,,,,',
                                 "4,0,1_0.5,,,,,,", "\u0664,0,,,,,,,", " 4 ,0,,,,,,,", "4,0, 2.0 ,,,,,,",
                                 "04,0,,,,,,,", "4,0,2,,,,,,", "4,0,,,,,,,0.50"],
                         ids=["nan", "overflow", "fractional-d", "long-d", "huge-field",
                              "underscore-metric", "arabic-indic-d", "spaced-d", "spaced-metric",
                              "zero-padded-d", "integer-metric", "trailing-zero-metric"])
def test_read_rejects_malformed_csv_cells(tmp_path, row):
    path = tmp_path / "bad.csv"
    path.write_text(",".join(CSV_HEADER) + "\n" + row + "\n")
    with pytest.raises(SchemaError):
        read_results(path)


_METRIC_VALUES = st.one_of(
    st.none(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -2.5e-310, 1.7976931348623157e308, -1.7976931348623157e308]),
)
_RECORDS = st.lists(st.builds(
    SweepRecord,
    d=st.integers(-(10**6), 10**6),
    edges=st.text(alphabet="0123456789,;", max_size=30),
    metrics=st.fixed_dictionaries({name: _METRIC_VALUES for name in METRIC_NAMES}),
), max_size=5)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(records=_RECORDS, fmt=st.sampled_from(["csv", "json"]))
def test_any_records_survive_write_and_read(tmp_path, records, fmt):
    path = tmp_path / f"out.{fmt}"
    write_results(records, path)
    text = path.read_text(encoding="utf-8")
    assert text == render_results(records, fmt)
    back = read_results(path)
    assert back == records
    assert render_results(back, fmt) == text  # also tells -0.0 from 0.0


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=12,
)
_RECORD_SHAPED = st.lists(
    st.fixed_dictionaries({key: _JSON_VALUES for key in ("d", "edges", *METRIC_NAMES)}), max_size=3)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    text=st.one_of(
        st.text(),
        st.text().map(lambda body: ",".join(CSV_HEADER) + "\n" + body),
        st.one_of(_JSON_VALUES, _RECORD_SHAPED).map(json.dumps),
    ),
    suffix=st.sampled_from([".csv", ".json"]),
)
def test_any_results_file_gives_records_or_schema_error(tmp_path, text, suffix):
    path = tmp_path / f"entry{suffix}"
    path.write_text(text, encoding="utf-8")
    try:
        records = read_results(path)
    except SchemaError:
        return
    assert all(isinstance(r, SweepRecord) and type(r.d) is int for r in records)


@pytest.mark.parametrize("kind", sorted({**MALFORMED, **FOREIGN}))
def test_cached_sweep_recomputes_malformed_entry(tmp_path, capsys, kind):
    family = dminus1_family(4)
    fresh, fresh_summary = sweep_family(family)
    entry = tmp_path / f"{cache_key(family)}.json"
    entry.write_text({**MALFORMED, **FOREIGN}[kind](fresh))
    records, summary = cached_sweep(family, cache_dir=tmp_path)
    assert records == fresh
    assert summary == fresh_summary
    assert read_results(entry) == fresh
    err = capsys.readouterr().err
    assert err.startswith("warning:") and err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == [entry.name]


def test_cached_sweep_keeps_a_directory_at_the_entry(tmp_path, capsys):
    family = dminus1_family(4)
    fresh = sweep_family(family)
    entry = tmp_path / f"{cache_key(family)}.json"
    entry.mkdir()
    (entry / "kept").write_text("user data")
    assert cached_sweep(family, cache_dir=tmp_path) == fresh
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("warning:") for line in err)
    assert (entry / "kept").read_text() == "user data"


@pytest.mark.parametrize("where", ["cache-dir-is-a-file", "below-a-file", "disk-full"])
def test_cached_sweep_that_cannot_write_returns_its_records(tmp_path, capsys, monkeypatch, where):
    family = dminus1_family(4)
    fresh = sweep_family(family)
    blocker = tmp_path / "file"
    blocker.write_text("x")
    cache_dir = {"cache-dir-is-a-file": blocker, "below-a-file": blocker / "cache"}.get(where, tmp_path)
    if where == "disk-full":
        def full(path, parts):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))

        monkeypatch.setattr(sweep_mod, "write_text", full)
    assert cached_sweep(family, cache_dir=cache_dir) == fresh
    err = capsys.readouterr().err
    assert err.startswith("warning: cache entry not written:") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]


def test_write_results_leaves_no_partial_file(tmp_path):
    records, _ = sweep_family(dminus1_family(4))
    path = tmp_path / "out.json"
    path.write_text("old")
    write_results(records, path)
    assert read_results(path) == records
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_write_text_keeps_a_replaced_files_permissions_and_follows_links(tmp_path):
    private = tmp_path / "private.csv"
    private.write_text("old")
    private.chmod(0o600)
    sweep_mod.write_text(private, "new")
    assert (private.read_text(), private.stat().st_mode & 0o777) == ("new", 0o600)
    link = tmp_path / "link.csv"
    link.symlink_to(private)
    sweep_mod.write_text(link, iter(["a", "b"]))
    assert link.is_symlink() and private.read_text() == "ab"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "private.csv"]


def test_write_text_keeps_a_trailing_dot_of_the_path(tmp_path):
    target = f"{tmp_path}/missing/."
    with pytest.raises(FileNotFoundError) as info:
        sweep_mod.write_text(target, "x")
    assert info.value.filename == target
    assert list(tmp_path.iterdir()) == []


def test_write_results_error_names_the_target_not_the_temporary(tmp_path):
    records, _ = sweep_family(dminus1_family(4))
    target = tmp_path / "missing" / "out.csv"
    with pytest.raises(FileNotFoundError) as info:
        write_results(records, target)
    assert info.value.filename == str(target)
    assert ".tmp" not in str(info.value)
    assert not (tmp_path / "missing").exists()


def test_cached_sweep_round_trip(tmp_path, monkeypatch):
    family = dminus1_family(4)
    records, summary = cached_sweep(family, cache_dir=tmp_path)
    cache_files = list(tmp_path.glob("*.json"))
    assert len(cache_files) == 1

    def boom(*args, **kwargs):
        raise AssertionError("sweep recomputed despite warm cache")

    monkeypatch.setattr(sweep_mod, "sweep_family", boom)
    cached_records, cached_summary = cached_sweep(family, cache_dir=tmp_path)
    assert cached_records == records
    assert cached_summary.metrics["s_p"] == summary.metrics["s_p"]


def test_thread_count_does_not_change_output(monkeypatch):
    # Small chunks give the pool several chunks to split at d = 5.
    monkeypatch.setattr(sweep_mod, "CHUNK_BYTES", 16 * 32 * 3)
    family = dminus1_family(5)
    records_1, _ = sweep_family(family, threads=1)
    records_4, _ = sweep_family(family, threads=4)
    for fmt in ("csv", "json"):
        assert render_results(records_1, fmt) == render_results(records_4, fmt)


@pytest.mark.parametrize("threads", [0, -3])
def test_nonpositive_threads_rejected(tmp_path, threads):
    family = dminus1_family(4)
    with pytest.raises(ValueError, match="threads"):
        sweep_family(family, threads=threads)
    cached_sweep(family, cache_dir=tmp_path)
    with pytest.raises(ValueError, match="threads"):
        cached_sweep(family, threads=threads, cache_dir=tmp_path)
    with pytest.raises(ValueError, match="threads"):
        Reproducer(threads=threads)


def test_worker_count_is_capped(monkeypatch):
    monkeypatch.setattr(sweep_mod.os, "cpu_count", lambda: 2)
    assert worker_count(1, 100) == 1
    assert worker_count(8, 1) == 1
    assert worker_count(8, 100) == 2
    assert worker_count(10_000, 100) == 2
    monkeypatch.setattr(sweep_mod.os, "cpu_count", lambda: None)
    assert worker_count(8, 100) == 1


def test_chunked_records_equal_single_records(monkeypatch):
    family = dminus1_family(5)
    whole, _ = sweep_family(family)
    monkeypatch.setattr(sweep_mod, "CHUNK_BYTES", 16 * 32 * 4)
    chunked, _ = sweep_family(family)
    single = [evaluate_record(g) for g in family.configurations() if is_connected(g)]
    assert whole == chunked == single


def test_complete_k_metrics_invariant_under_relabeling():
    from hyperstate.hypergraph import complete_k_graph

    base_graph = complete_k_graph(5, 4)
    perm = (4, 0, 3, 1, 2)
    relabeled_graph = Hypergraph(5, tuple(tuple(perm[v] for v in e) for e in base_graph.edges))
    assert relabeled_graph == base_graph  # the complete family maps to itself
    base = evaluate_record(base_graph)
    relabeled = evaluate_record(relabeled_graph)
    for name in METRIC_NAMES:
        assert relabeled.metrics[name] == base.metrics[name]


def test_family_value_multiset_invariant_under_relabeling():
    perm = (2, 0, 4, 1, 3)
    original, _ = sweep_family(dminus1_family(5))
    relabeled_values = []
    for record in original:
        edges = canonical_edges(
            tuple(tuple(perm[int(v)] for v in edge.split(",")) for edge in record.edges.split(";"))
        )
        relabeled_values.append(evaluate_record(Hypergraph(5, edges)).metrics["s_p"])
    original_values = [r.metrics["s_p"] for r in original]
    assert sorted(np.round(relabeled_values, 12)) == sorted(np.round(original_values, 12))


# --- columnar results against the per-record oracles ---------------------------------

_ODD_EDGE_RECORDS = st.lists(st.builds(
    SweepRecord,
    d=st.integers(-3, 20),
    edges=st.text(max_size=12) | st.sampled_from(["", ",", '"', 'a"b,c', "x\ny", "x\r\ny", " ;", "é,ü"]),
    metrics=st.fixed_dictionaries({name: _METRIC_VALUES for name in METRIC_NAMES}),
), max_size=5)


def _oracle_summary(records):
    return SweepSummary("oracle", len(records), {m: oracles._summarize(records, m) for m in METRIC_NAMES})


@settings(max_examples=80, deadline=None)
@given(records=_RECORDS | _ODD_EDGE_RECORDS)
def test_columnar_text_equals_the_per_record_oracle(records):
    results = SweepResults.of(records)
    assert list(results) == records and results == records
    assert all(type(r.d) is int for r in results)
    for _ in range(2):  # the second render reuses the text of the first
        for fmt in ("csv", "json"):
            assert render_results(results, fmt) == oracles.render_results(records, fmt)
    summary = _oracle_summary(records)
    nested = json.dumps({"records": records_payload(records), "summary": summary.to_dict()}, indent=2) + "\n"
    assert "".join(cli_mod._sweep_json(results, summary)) == nested


def test_columnar_text_of_no_records_and_of_extreme_values():
    values = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, None, 0.0, -2.5e-310]
    records = [SweepRecord(4, 'a,"b"\n', dict(zip(METRIC_NAMES, values))), SweepRecord(-7, "", dict.fromkeys(METRIC_NAMES))]
    for chosen in ([], records):
        for fmt in ("csv", "json"):
            assert render_results(chosen, fmt) == oracles.render_results(chosen, fmt)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    text=st.one_of(
        st.text(),
        st.text().map(lambda body: ",".join(CSV_HEADER) + "\n" + body),
        st.one_of(_JSON_VALUES, _RECORD_SHAPED).map(json.dumps),
        st.tuples(_RECORDS | _ODD_EDGE_RECORDS, st.sampled_from(["csv", "json"])).map(
            lambda case: oracles.render_results(*case)),
    ),
    suffix=st.sampled_from([".csv", ".json"]),
)
def test_read_results_equals_the_per_record_oracle(tmp_path, text, suffix):
    path = tmp_path / f"entry{suffix}"
    path.write_text(text, encoding="utf-8")
    try:
        want = oracles.read_results(path)
    except SchemaError as exc:
        with pytest.raises(SchemaError) as info:
            read_results(path)
        assert str(info.value) == str(exc)
        return
    got = read_results(path)
    assert got == want and all(type(r.d) is int for r in got)
    for fmt in ("csv", "json"):  # also tells -0.0 from 0.0
        assert render_results(got, fmt) == oracles.render_results(want, fmt)


_TIED_VALUES = st.sampled_from([None, 0.0, -0.0, 1.0, -1.0, 2.5, -2.5, 5e-324, -5e-324])
_TIED_RECORDS = st.lists(st.builds(
    SweepRecord,
    d=st.just(4),
    edges=st.text(alphabet="012;,", max_size=5),
    metrics=st.fixed_dictionaries({name: _TIED_VALUES for name in METRIC_NAMES}),
), max_size=12)


def _same_summary(got, want):
    assert got == want
    assert repr(got) == repr(want)  # tells -0.0 from 0.0


@settings(max_examples=150, deadline=None)
@given(records=_TIED_RECORDS)
def test_columnar_summary_equals_the_oracle(records):
    summary = sweep_mod._summarize(SweepResults.of(records), METRIC_NAMES)
    for metric in METRIC_NAMES:
        _same_summary(summary[metric], oracles._summarize(records, metric))


@pytest.mark.parametrize("column", [
    [],
    [None, None, None],
    [0.0, -0.0, 1.0],
    [-0.0, 0.0, -1.0, -1.0],
    [2.0, 0.0, None, 2.0],
    [-0.0, None, 0.0],
], ids=["empty", "all-undefined", "zero-first", "negative-zero-first", "positive-only", "zero-ties"])
def test_columnar_summary_edge_cases_equal_the_oracle(column):
    records = [SweepRecord(4, f"{i},9", dict.fromkeys(METRIC_NAMES, value)) for i, value in enumerate(column)]
    summary = sweep_mod._summarize(SweepResults.of(records), METRIC_NAMES)
    for metric in METRIC_NAMES:  # s_p and s_n: the squeezed subpopulation or its fallback
        _same_summary(summary[metric], oracles._summarize(records, metric))


@pytest.mark.parametrize("d", range(3, 13))
def test_dminus1_summary_equals_the_oracle(d):
    results, summary = sweep_family(dminus1_family(d))
    records = list(results)
    for metric in METRIC_NAMES:
        _same_summary(summary.metrics[metric], oracles._summarize(records, metric))


def test_cache_entries_are_compatible_with_the_per_record_writer(tmp_path, monkeypatch):
    family = dminus1_family(6)
    fresh, fresh_summary = sweep_family(family)
    oracle_text = oracles.render_results(list(fresh), "json")
    entry = tmp_path / f"{cache_key(family)}.json"
    with monkeypatch.context() as patch:
        patch.setattr(sweep_mod, "render_blocks", lambda records, fmt: oracles.render_results(records, fmt))
        write_results(list(fresh), entry)
    assert entry.read_text(encoding="utf-8") == oracle_text

    def boom(*args, **kwargs):
        raise AssertionError("sweep recomputed despite a per-record cache entry")

    with monkeypatch.context() as patch:
        patch.setattr(sweep_mod, "sweep_family", boom)
        assert cached_sweep(family, cache_dir=tmp_path) == (fresh, fresh_summary)
    entry.unlink()
    assert cached_sweep(family, cache_dir=tmp_path) == (fresh, fresh_summary)
    assert entry.read_bytes() == oracle_text.encode()
