"""Unit tests for family sweeps, persistence, and caching."""

import errno
import functools
import io
import itertools
import json
import os
import pickle
import tracemalloc
from math import comb

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hyperstate.cli as cli_mod
import hyperstate.hypergraph as hypergraph_mod
import hyperstate.operators as operators_mod
import hyperstate.sweep as sweep_mod
from hyperstate.errors import GuardError, SchemaError
from hyperstate.hypergraph import (
    Hypergraph,
    canonical_edges,
    connected_rows,
    edges_text,
    is_connected,
    parse_edges,
)
from hyperstate.reproduce import Reproducer
from hyperstate.squeezing import squeeze_report
from hyperstate.sweep import (
    CSV_HEADER,
    METRIC_NAMES,
    Family,
    SweepRecord,
    SweepSummary,
    cache_key,
    cached_sweep,
    dminus1_family,
    evaluate_record,
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
    assert connected_rows(d, edges, rows).tolist() == [oracles.is_connected(g) for g in graphs]
    records = sweep_mod._evaluate(d, edges, rows)
    for record, g in zip(records, graphs):
        assert record.edges == edges_text(g)
        assert record == evaluate_record(g)
        assert Hypergraph(d, parse_edges(record.edges)) == g


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
    assert list(records) == expected and summary.count == 247  # 255 subsets, 8 single edges


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
        write_results(records, path, fmt)
        back = oracles.read_results(path)
        assert back == list(records)
        assert oracles.render_results(back, fmt) == path.read_text()  # also tells -0.0 from 0.0


def test_write_is_byte_stable(tmp_path):
    records, _ = sweep_family(dminus1_family(4))
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    write_results(records, first, "csv")
    write_results(records, second, "csv")
    assert first.read_bytes() == second.read_bytes()


def test_csv_header_schema(tmp_path):
    records, _ = sweep_family(dminus1_family(4))
    path = tmp_path / "out.csv"
    write_results(records, path, "csv")
    header = path.read_text().splitlines()[0]
    assert header == ",".join(CSV_HEADER)


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


_METRIC_VALUES = st.one_of(
    st.none(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -2.5e-310, 1.7976931348623157e308, -1.7976931348623157e308]),
)
_RECORDS = st.integers(-(10**6), 10**6).flatmap(lambda d: st.lists(st.builds(
    SweepRecord,
    d=st.just(d),  # a results object holds one d
    edges=st.text(alphabet="0123456789,;", max_size=30),
    metrics=st.fixed_dictionaries({name: _METRIC_VALUES for name in METRIC_NAMES}),
), max_size=5))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(records=_RECORDS, fmt=st.sampled_from(["csv", "json"]))
def test_any_records_survive_write_and_read(tmp_path, records, fmt):
    path = tmp_path / f"out.{fmt}"
    write_results(oracles.columns(records), path, fmt)
    text = path.read_text(encoding="utf-8")
    assert text == render_results(oracles.columns(records), fmt)
    back = oracles.read_results(path)
    assert back == records
    assert oracles.render_results(back, fmt) == text  # also tells -0.0 from 0.0


def _npy(array, allow_pickle=False):
    buffer = io.BytesIO()
    np.save(buffer, array, allow_pickle=allow_pickle)
    return buffer.getvalue()


def _header(text):
    """A version 1.0 .npy header holding ``text``, padded as numpy pads it."""
    body = text.encode("latin1")
    body += b" " * (-(len(body) + 11) % 64) + b"\n"
    return b"\x93NUMPY\x01\x00" + len(body).to_bytes(2, "little") + body


def _values(count=11, dtype="<f8", width=len(METRIC_NAMES)):
    """A (count x width) value matrix, every value 0.5: an entry of the 11-row d = 4 family by default."""
    return np.full((count, width), 0.5, dtype)


def _entry_array(family, count=None, row="u1", values="<f8", width=None):
    """Records of the earlier entry layout, a 0/1 row and seven values (or the given field
    types), rows 1, values 0.5: every such entry is now a miss."""
    width = len(family.edges) if width is None else width
    array = np.zeros(len(family.rows) if count is None else count,
                     [("row", row, (width,)), ("values", values, (len(METRIC_NAMES),))])
    array["row"], array["values"] = 1, 0.5
    return array


def _with(array, index, value, field=None):
    (array if field is None else array[field])[index] = value
    return array


def _entry_header(shape):
    return _header("{'descr': '<f8', 'fortran_order': False, 'shape': %r, }" % (shape,))


# Cache entries of the d = 4 family (11 connected rows) that are a miss.  The first
# fifteen stand, in order, for the JSON entries these cases once wrote: list-of-numbers,
# truncated, object, metric-beyond-float, integer-over-digit-limit, deep-nesting (twice),
# nan-metric, infinite-metric, boolean-metric, boolean-d, fractional-d, string-d,
# empty-list and records-on-other-d.  A "structured-" case is the earlier layout of
# its plain-matrix namesake, as are row-value-2, bool-rows, float-rows and two-dimensional.
MALFORMED_ENTRIES = {
    "other-array": lambda family, valid: _npy(np.array([1, 2])),
    "truncated": lambda family, valid: valid[: len(valid) // 2],
    "object-dtype": lambda family, valid: _npy(np.array([{"d": 4}], dtype=object), allow_pickle=True),
    "positive-infinity": lambda family, valid: _npy(_with(_values(), (0, 2), np.inf)),
    "header-beyond-numpy-limit": lambda family, valid: _header("{" + " " * 20_000 + "}"),
    "deep-unary-header": lambda family, valid: _header(
        "{'descr': '<f8', 'fortran_order': False, 'shape': (" + "+" * 9000 + "1,), }"),
    "deep-nesting-header": lambda family, valid: _header(
        "{'descr': " + "[" * 5000 + "]" * 4000 + ", 'fortran_order': False, 'shape': (1,), }"),
    "row-value-2": lambda family, valid: _npy(_with(_entry_array(family), (0, 3), 2, "row")),
    "negative-infinity": lambda family, valid: _npy(_with(_values(), (-1, 6), -np.inf)),
    "float32-values": lambda family, valid: _npy(_values(dtype="<f4")),
    "bool-rows": lambda family, valid: _npy(_entry_array(family, row="?")),
    "float-rows": lambda family, valid: _npy(_entry_array(family, row="<f8")),
    "big-endian-values": lambda family, valid: _npy(_values(dtype=">f8")),
    "no-records": lambda family, valid: _npy(_values(count=0)),
    "other-family": lambda family, valid: _npy(_values(count=26)),  # the d = 5 family's rows
    "empty-file": lambda family, valid: b"",
    "truncated-header": lambda family, valid: valid[:20],
    "not-npy": lambda family, valid: render_results(sweep_family(family)[0], "json").encode(),
    "wrong-width": lambda family, valid: _npy(_values(width=6)),
    "more-records-than-rows": lambda family, valid: _npy(_values(count=12)),
    "fewer-records-than-rows": lambda family, valid: _npy(_values(count=5)),
    "one-dimensional": lambda family, valid: _npy(_values().ravel()),
    "two-dimensional": lambda family, valid: _npy(_entry_array(family)[:, None]),
    "three-dimensional": lambda family, valid: _npy(_values()[:, :, None]),
    "fortran-order": lambda family, valid: _npy(np.asfortranarray(_values())),
    "version-2": lambda family, valid: valid[:6] + b"\x02\x00" + valid[8:10] + b"\x00\x00" + valid[10:],
    "trailing-bytes": lambda family, valid: valid + b"\x00",
    "missing-record-bytes": lambda family, valid: valid[:-1],
    "claims-2**40-records": lambda family, valid: _entry_header((1 << 40, 7)) + valid[len(valid) - 128:],
    "structured-positive-infinity": lambda family, valid: _npy(_with(_entry_array(family), (0, 2), np.inf, "values")),
    "structured-negative-infinity": lambda family, valid: _npy(
        _with(_entry_array(family), (-1, 6), -np.inf, "values")),
    "structured-float32-values": lambda family, valid: _npy(_entry_array(family, values="<f4")),
    "structured-big-endian-values": lambda family, valid: _npy(_entry_array(family, values=">f8")),
    "structured-no-records": lambda family, valid: _npy(_entry_array(family, count=0)),
    "structured-other-family": lambda family, valid: _npy(_entry_array(dminus1_family(5))),
    "structured-wrong-width": lambda family, valid: _npy(_entry_array(family, width=5)),
    "structured-more-records-than-rows": lambda family, valid: _npy(_entry_array(family, count=len(family.rows) + 1)),
    # The earlier reader served this as 5 configurations, record 0 with the edges 0,1,2;0,1,3;0,2,3;1,2,3.
    "structured-fewer-records-than-rows": lambda family, valid: _npy(_entry_array(family, count=5)),
}


def _valid_entry(family, tmp_path):
    """The bytes of ``family``'s entry as ``cached_sweep`` writes it."""
    cached_sweep(family, cache_dir=tmp_path / "valid")
    return (tmp_path / "valid" / f"{cache_key(family)}.npy").read_bytes()


@pytest.mark.parametrize("kind", MALFORMED_ENTRIES)
def test_cached_sweep_recomputes_malformed_entry(tmp_path, capsys, monkeypatch, kind):
    family = dminus1_family(4)
    fresh, fresh_summary = sweep_family(family)
    valid = _valid_entry(family, tmp_path)
    entry = tmp_path / f"{cache_key(family)}.npy"
    entry.write_bytes(MALFORMED_ENTRIES[kind](family, valid))
    capsys.readouterr()

    def unpickled(*args, **kwargs):
        raise AssertionError("a cache entry was unpickled")

    with monkeypatch.context() as patch:
        for name in ("load", "loads", "Unpickler"):
            patch.setattr(pickle, name, unpickled)
        records, summary = cached_sweep(family, cache_dir=tmp_path)
    assert records == fresh
    assert summary == fresh_summary
    assert entry.read_bytes() == valid
    err = capsys.readouterr().err
    assert err.startswith("warning: ignoring cache entry:") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([entry.name, "valid"])


def test_entry_claiming_2_40_records_is_refused_before_any_large_allocation(tmp_path, capsys):
    family = dminus1_family(12)
    count = len(sweep_mod._sweep_rows(family, None))
    entry = tmp_path / f"{cache_key(family)}.npy"
    entry.write_bytes(_entry_header((1 << 40, 7)) + bytes(4096))
    tracemalloc.start()
    try:
        with pytest.raises(SchemaError, match=rf"is not a sweep's \({count}, 7\) <f8"):
            sweep_mod._read_entry(entry, count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert capsys.readouterr().err == ""


def test_cached_sweep_keeps_a_directory_at_the_entry(tmp_path, capsys):
    family = dminus1_family(4)
    fresh = sweep_family(family)
    entry = tmp_path / f"{cache_key(family)}.npy"
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
    write_results(records, path, "json")
    assert oracles.render_results(oracles.read_results(path), "json") == render_results(records, "json")
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
        write_results(records, target, "csv")
    assert info.value.filename == str(target)
    assert ".tmp" not in str(info.value)
    assert not (tmp_path / "missing").exists()


def test_cached_sweep_round_trip(tmp_path, monkeypatch):
    family = dminus1_family(4)
    records, summary = cached_sweep(family, cache_dir=tmp_path)
    cache_files = list(tmp_path.glob("*.npy"))
    assert len(cache_files) == 1

    def boom(*args, **kwargs):
        raise AssertionError("sweep recomputed despite warm cache")

    monkeypatch.setattr(sweep_mod, "membership_profile", boom)
    cached_records, cached_summary = cached_sweep(family, cache_dir=tmp_path)
    assert cached_records == records
    assert cached_summary.metrics["s_p"] == summary.metrics["s_p"]


def test_thread_count_does_not_change_output(monkeypatch):
    # Four workers split the 26 connected rows at d = 5, whatever the host's core count.
    monkeypatch.setattr(sweep_mod.os, "cpu_count", lambda: 4)
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
    monkeypatch.setattr(operators_mod, "CHUNK_BYTES", 16 * 32 * 4)
    chunked, _ = sweep_family(family)
    single = [evaluate_record(g) for g in family.configurations() if is_connected(g)]
    assert whole == chunked and list(chunked) == single


INVARIANCE_FAMILIES = [dminus1_family(d) for d in range(3, 9)] + [Family("k-uniform", 5, 2)]


@functools.lru_cache(maxsize=None)
def _per_row_renders(family):
    """CSV and JSON of ``family``'s every row, each from its own ``evaluate_record``."""
    records = oracles.columns([evaluate_record(g) for g in family.configurations()])
    return {fmt: render_results(records, fmt) for fmt in ("csv", "json")}


@pytest.mark.parametrize("family", INVARIANCE_FAMILIES, ids=lambda family: family.descriptor)
@pytest.mark.parametrize("tile", [1, 3])
@pytest.mark.parametrize("threads", [1, 2, 4])
def test_kernel_invariance_under_tile_and_thread_count(monkeypatch, family, tile, threads):
    # k-uniform(5, 2): rows of one edge take the support route, the others the rfft route.
    want = _per_row_renders(family)
    monkeypatch.setattr(operators_mod, "CHUNK_BYTES", 16 * (1 << family.d) * tile)
    monkeypatch.setattr(sweep_mod.os, "cpu_count", lambda: threads)
    results, _ = sweep_family(family, connectivity_filter=False, threads=threads)
    for fmt in ("csv", "json"):
        assert render_results(results, fmt) == want[fmt]


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

_ODD_EDGE_RECORDS = st.integers(-3, 20).flatmap(lambda d: st.lists(st.builds(
    SweepRecord,
    d=st.just(d),
    edges=st.text(max_size=12) | st.sampled_from(["", ",", '"', 'a"b,c', "x\ny", "x\r\ny", " ;", "é,ü"]),
    metrics=st.fixed_dictionaries({name: _METRIC_VALUES for name in METRIC_NAMES}),
), max_size=5))


def _oracle_summary(records):
    return SweepSummary("oracle", len(records), {m: oracles._summarize(records, m) for m in METRIC_NAMES})


@settings(max_examples=80, deadline=None)
@given(records=_RECORDS | _ODD_EDGE_RECORDS)
def test_columnar_text_equals_the_per_record_oracle(records):
    results = oracles.columns(records)
    assert list(results) == records
    assert all(type(r.d) is int for r in results)
    for _ in range(2):  # the second render reuses the text of the first
        for fmt in ("csv", "json"):
            assert render_results(results, fmt) == oracles.render_results(records, fmt)
    summary = _oracle_summary(records)
    nested = json.dumps({"records": records_payload(records), "summary": summary.to_dict()}, indent=2) + "\n"
    assert "".join(cli_mod._sweep_json(results, summary)) == nested


def test_columnar_text_of_no_records_and_of_extreme_values():
    values = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, None, 0.0, -2.5e-310]
    records = [SweepRecord(-7, 'a,"b"\n', dict(zip(METRIC_NAMES, values))), SweepRecord(-7, "", dict.fromkeys(METRIC_NAMES))]
    for chosen in ([], records):
        for fmt in ("csv", "json"):
            assert render_results(oracles.columns(chosen), fmt) == oracles.render_results(chosen, fmt)
    with pytest.raises(ValueError, match="more than one d"):
        oracles.columns([records[0], SweepRecord(4, "", records[1].metrics)])


def test_columnar_text_of_constant_undefined_and_signed_zero_columns():
    # Columns in METRIC_NAMES order: constant, all undefined, 0.0 and -0.0 mixed, constant
    # -0.0, constant 0.0, constant but for one undefined value, and one of distinct values.
    columns = ([2.5] * 4, [None] * 4, [0.0, -0.0, -0.0, 0.0], [-0.0] * 4, [0.0] * 4,
               [1e-300, 1e-300, None, 1e-300], [0.1, 0.2, 0.30000000000000004, -7.0])
    records = [SweepRecord(5, f"e{i}", dict(zip(METRIC_NAMES, row))) for i, row in enumerate(zip(*columns))]
    for count in (1, 4):
        for fmt in ("csv", "json"):
            assert render_results(oracles.columns(records[:count]), fmt) == oracles.render_results(records[:count], fmt)


def test_results_equality_tells_negative_zero_from_zero():
    zero, negative_zero = (sweep_mod.SweepResults(4, ["a"], sign * np.zeros((1, 7))) for sign in (1.0, -1.0))
    assert render_results(zero, "csv") != render_results(negative_zero, "csv")
    assert zero != negative_zero and zero == sweep_mod.SweepResults(4, ["a"], np.zeros((1, 7)))
    assert zero != sweep_mod.SweepResults(5, ["a"], np.zeros((1, 7)))
    # NaN is an undefined metric, an empty cell whatever its sign.
    undefined = np.full((1, 7), np.nan)
    assert sweep_mod.SweepResults(4, ["a"], undefined) == sweep_mod.SweepResults(4, ["a"], -undefined)
    assert sweep_mod.SweepResults(4, ["a"], undefined) != zero


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
    summary = sweep_mod._summarize(oracles.columns(records), METRIC_NAMES)
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
    summary = sweep_mod._summarize(oracles.columns(records), METRIC_NAMES)
    for metric in METRIC_NAMES:  # s_p and s_n: the squeezed subpopulation or its fallback
        _same_summary(summary[metric], oracles._summarize(records, metric))


@pytest.mark.parametrize("d", range(3, 13))
def test_dminus1_summary_equals_the_oracle(d):
    results, summary = sweep_family(dminus1_family(d))
    records = list(results)
    for metric in METRIC_NAMES:
        _same_summary(summary.metrics[metric], oracles._summarize(records, metric))


def test_the_entry_round_trips_every_bit_negative_zero_and_nan_included(tmp_path, monkeypatch):
    family = dminus1_family(6)
    rows = family.rows[connected_rows(6, family.edges, family.rows)]
    values = np.random.default_rng(7).normal(size=(len(rows), len(METRIC_NAMES)))
    values[:, 0] = np.nan
    values.flat[1::5] = -0.0
    values.flat[2::11] = 0.0
    values[1, 1:5] = [5e-324, -2.5e-310, 1.7976931348623157e308, -1.7976931348623157e308]
    values.flat[4::17] = np.nan
    planted = sweep_mod._results(6, family.edges, rows, values)
    entry = tmp_path / f"{cache_key(family)}.npy"
    sweep_mod._write_entry(entry, values)

    def boom(*args, **kwargs):
        raise AssertionError("sweep recomputed despite a valid cache entry")

    monkeypatch.setattr(sweep_mod, "membership_profile", boom)
    got, summary = cached_sweep(family, cache_dir=tmp_path)
    assert got == planted
    assert got.values.tobytes() == planted.values.tobytes()
    assert got.values.flags.writeable and got.values.flags.c_contiguous
    assert got.edges == planted.edges
    for fmt in ("csv", "json"):
        assert render_results(got, fmt) == render_results(planted, fmt)
    assert summary == sweep_mod._summary(family, planted, None)
