"""Exhaustive metric sweeps over hypergraph families, with persistence.

A family is one candidate edge list plus 0/1 membership rows (``Family``).
A sweep evaluates every row (optionally filtered to connected hypergraphs,
``hypergraph.connected_rows``), producing one record per configuration in
row order plus a per-metric extremal summary, and builds no Hypergraph.
The records are one columnar ``SweepResults``: a ``d`` per record, the
joined edge texts and one (records x 7) float64 matrix in ``METRIC_NAMES``
order, with NaN for an undefined value.  Indexing and iteration give
``SweepRecord`` views.  Results serialize to CSV/JSON with shortest
round-trip float formatting, so repeated runs are byte-identical regardless
of the worker count.  The text of each defined value is formed once per
results object, on its first render, and every later render (the cache
entry, then the CSV or JSON output) reuses it.  Both formats are rendered
from the columns in blocks of ``RENDER_BLOCK`` records.

Every other CSV of the package comes from ``csv_text``, and every file it
writes (results, cache entries, CLI ``--out`` and plot files) from
``write_text``.  A cache entry is read back into columns with vectorised
type and finiteness checks; anything unusual goes to the per-record
validator, so every malformed entry is a ``SchemaError``.

Extremal semantics: for the squeezing-degree metrics (s_p, s_n) the
summary ranges over the configurations that actually exhibit squeezing
(negative degree) whenever any exist, since extremal squeezing is a
statement about the squeezed subpopulation; all other metrics (and the
fallback when nothing is squeezed) use plain extrema over defined values.
An extremum is the value at its first index, as Python's ``min`` and ``max``
give it, and every tied edge set is listed, sorted.

Rows are evaluated in fixed-size chunks, one ``state.membership_profile``
call per chunk.  A row at d <= 16 whose support bound (sum over its edges
of 2**(d - |e|)) is at most 2d, which holds for every (d-1)-graph, takes
the support route: its truth table is read only at the union of its edges'
supports, and its spectrum comes from exact integer sums, with no
length-2**d truth table or FFT.  Other rows take the rfft route: one stack
of real amplitudes (truth tables from one membership-by-indicator product,
``state.membership_amplitudes``) and one batched ``rfft``.  Chunk boundaries
depend only on record index, and each route reduces each row on its own,
so the chunking and the thread count never change a digit.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import os
import stat
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from itertools import starmap
from json.encoder import encode_basestring_ascii
from math import comb, isfinite
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import __version__
from .errors import MAX_SWEEP_WORK, SchemaError, dimension, require_bytes, require_sweep_work
from .hypergraph import Hypergraph, connected_rows
from .operators import profile_bytes
from .squeezing import number_stats, squeeze_degrees
from .state import membership_profile

METRIC_NAMES = ("s_p", "s_n", "var_p", "var_n", "half_comm", "c_l1_phase", "c_rel_phase")
SQUEEZE_METRICS = frozenset({"s_p", "s_n"})

CSV_HEADER = ("d", "edges") + METRIC_NAMES

FAMILY_KINDS = ("dminus1", "k-uniform", "complete-k", "single-full")

CACHE_ENV_VAR = "HYPERSTATE_CACHE"

# Version of the computed values, part of the cache key.  Bump it whenever a
# change moves any digit of a record, so stale cache entries miss.
# 2: one spectral profile per state (values moved by about 1e-12).
# 3: half-spectrum profile from one length-2**d rfft of psi and n psi
#    (half_comm moved by up to about 6e-12 relative).
# 4: support route for states with a support bound of at most 2d (every
#    (d-1)-graph): values moved by up to about 3e-15 relative.
# 5: support route only up to d = 16; support states past it moved back to
#    their rfft-route values, by about 1e-16 relative.
# 6: phase moments as plain row sums less the unmirrored end bins, c_rel_phase
#    as log T - (sum p log p) / T, and the support spectrum squared in place:
#    over every dminus1 record at d = 3..14, var_p and the coherences moved by
#    at most 1.6e-15 relative and s_p by 7.9e-15; half_comm and var_n did not.
RESULTS_VERSION = 6

# Records per text block of a CSV or JSON render, about 50 kB of text at d = 12.
# With blocks of 128 records the sweep-d12 benchmark peaked about 1 MiB lower
# in RSS than with blocks of 512, and about 1.5 MiB lower than with 4096.
RENDER_BLOCK = 1 << 7

# Rows per spectral-profile call: each row stacks the half spectra of psi
# and n psi, 2 (2**(d-1) + 1) complex128 values, about 1 MiB per chunk.
CHUNK_BYTES = 1 << 20


@dataclass(frozen=True)
class Family:
    """A named hypergraph family: candidate edges plus 0/1 membership rows.

    ``edges`` are the (d-1)-, k- or d-subsets in lexicographic order.  dminus1
    and k-uniform rows are the bits of masks 1 .. 2**len(edges) - 1 in
    ascending order (bit i selects edge i), so dminus1 is k-uniform with
    k = d - 1; complete-k and single-full have one all-ones row.
    """

    kind: str
    d: int
    k: int | None = None
    edges: tuple[tuple[int, ...], ...] = field(init=False, repr=False)
    rows: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in FAMILY_KINDS:
            raise ValueError(f"kind must be one of {FAMILY_KINDS}, got {self.kind!r}")
        if self.k is not None and self.kind in ("dminus1", "single-full"):
            raise ValueError(f"{self.kind} family needs no k, got k={self.k}")
        least_d = 2 if self.kind == "dminus1" else 1
        if self.d < least_d:
            raise ValueError(f"{self.kind} family needs d >= {least_d}, got d={self.d}")
        if self.kind in ("complete-k", "k-uniform") and not 1 <= (self.k or 0) <= self.d:
            raise ValueError(f"{self.kind} family needs 1 <= k <= d, got k={self.k}, d={self.d}")
        size = {"dminus1": self.d - 1, "complete-k": self.k, "k-uniform": self.k}.get(self.kind, self.d)
        every_mask = self.kind in ("dminus1", "k-uniform")
        # 2**d alone exceeds the budget from this d on; below it the count is exact.
        small = self.d < MAX_SWEEP_WORK.bit_length()
        n_edges = comb(self.d, size) if small else 0
        configurations = (1 << min(n_edges, 64)) - 1 if every_mask and small else 1
        require_sweep_work(
            f"sweep of {self.descriptor}",
            configurations * dimension(self.d) * (n_edges + self.d),
            "configurations x 2**d x (candidate edges + d)",
        )
        edges = tuple(itertools.combinations(range(self.d), size))
        rows = np.ones((1, n_edges), dtype=np.uint8)
        if every_mask:
            rows = (np.arange(1, 1 << n_edges)[:, None] >> np.arange(n_edges) & 1).astype(np.uint8)
        rows.flags.writeable = False
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "rows", rows)

    @property
    def descriptor(self) -> str:
        if self.kind in ("complete-k", "k-uniform"):
            return f"{self.kind}(d={self.d},k={self.k})"
        return f"{self.kind}(d={self.d})"

    @property
    def default_connectivity_filter(self) -> bool:
        # (d-1)-graph searches follow the connected-family convention;
        # the single-configuration families are connected by construction.
        return self.kind == "dminus1"

    def configurations(self) -> Iterator[Hypergraph]:
        for row in self.rows.tolist():
            yield Hypergraph(self.d, tuple(itertools.compress(self.edges, row)))


def dminus1_family(d: int) -> Family:
    return Family("dminus1", d)


@dataclass(frozen=True)
class SweepRecord:
    """One configuration with all computed metrics (None = undefined)."""

    d: int
    edges: str
    metrics: dict[str, float | None]


def _record(d: int, edges: str, row: list[float]) -> SweepRecord:
    return SweepRecord(d, edges, {name: None if v != v else v for name, v in zip(METRIC_NAMES, row)})


class SweepResults(Sequence[SweepRecord]):
    """A sweep's records as columns.

    ``d`` holds one Python int per record, ``edges`` the joined edge texts and
    ``values`` one (records x 7) float64 matrix in ``METRIC_NAMES`` order, NaN
    where a metric is undefined.  Indexing and iteration give ``SweepRecord``
    views with Python float or None metrics; ``==`` compares with any sequence
    of records element by element.
    """

    def __init__(self, d: list[int], edges: list[str], values: np.ndarray) -> None:
        self.d = d
        self.edges = edges
        self.values = values
        self.values.flags.writeable = False  # the text of its values is formed once
        self._cells: list[list[str]] | None = None

    @classmethod
    def of(cls, records: Iterable[SweepRecord]) -> SweepResults:
        """``records`` as columns; results already columnar are returned as they are."""
        if isinstance(records, SweepResults):
            return records
        records = list(records)
        values = np.array(
            [[np.nan if r.metrics[m] is None else r.metrics[m] for m in METRIC_NAMES] for r in records],
            dtype=np.float64,
        ).reshape(len(records), len(METRIC_NAMES))
        return cls([r.d for r in records], [r.edges for r in records], values)

    def __len__(self) -> int:
        return len(self.edges)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return SweepResults(self.d[index], self.edges[index], self.values[index])
        return _record(self.d[index], self.edges[index], self.values[index].tolist())

    def __iter__(self) -> Iterator[SweepRecord]:
        return map(_record, self.d, self.edges, self.values.tolist())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SweepResults):
            return (self.d == other.d and self.edges == other.edges
                    and np.array_equal(self.values, other.values, equal_nan=True))
        if isinstance(other, Sequence) and not isinstance(other, str):
            return len(self) == len(other) and all(a == b for a, b in zip(self, other))
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def _cell_texts(self) -> list[list[str]]:
        """Per metric, the repr of each defined value and "" for undefined, formed on first use."""
        if self._cells is None:
            self._cells = [["" if v != v else repr(v) for v in column] for column in self.values.T.tolist()]
        return self._cells


@dataclass(frozen=True)
class MetricSummary:
    metric: str
    min_value: float | None
    max_value: float | None
    argmin: tuple[str, ...] = ()
    argmax: tuple[str, ...] = ()


@dataclass(frozen=True)
class SweepSummary:
    family: str
    count: int
    metrics: dict[str, MetricSummary] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "count": self.count,
            "metrics": {
                name: {
                    "min": s.min_value,
                    "max": s.max_value,
                    "argmin": list(s.argmin),
                    "argmax": list(s.argmax),
                }
                for name, s in self.metrics.items()
            },
        }


def _evaluate_chunk(
    d: int, edges: Sequence[tuple[int, ...]], texts: Sequence[str], rows: np.ndarray
) -> SweepResults:
    """Results of 0/1 rows over ``edges`` (whose texts are ``texts``), from one profile."""
    profile = membership_profile(d, edges, rows)
    var_n = number_stats(d)[1]
    s_n, s_p = squeeze_degrees(var_n, profile.var_p, profile.half_comm)
    columns = {
        "s_p": s_p,
        "s_n": s_n,
        "var_p": profile.var_p,
        "var_n": np.full(len(rows), var_n),
        "half_comm": profile.half_comm,
        "c_l1_phase": profile.c_l1_phase,
        "c_rel_phase": profile.c_rel_phase,
    }
    values = np.column_stack([columns[name] for name in METRIC_NAMES])
    joined = [";".join(itertools.compress(texts, row)) for row in rows.tolist()]
    return SweepResults([d] * len(joined), joined, values)


def _edge_texts(edges: Sequence[tuple[int, ...]]) -> list[str]:
    return [",".join(map(str, e)) for e in edges]


def evaluate_record(g: Hypergraph) -> SweepRecord:
    """Compute all sweep metrics for one hypergraph (a chunk of one)."""
    return _evaluate_chunk(g.d, g.edges, _edge_texts(g.edges), np.ones((1, len(g.edges))))[0]


def worker_count(threads: int, chunks: int) -> int:
    """Pool size for ``chunks`` chunks: min(threads, chunks, CPU count)."""
    return min(threads, chunks, os.cpu_count() or 1)


def _require_threads(threads: int) -> None:
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")


def _metric_names(metrics: Sequence[str] | None) -> tuple[str, ...]:
    chosen = tuple(metrics) if metrics is not None else METRIC_NAMES
    for name in chosen:
        if name not in METRIC_NAMES:
            raise ValueError(f"unknown metric {name!r}")
    return chosen


def _summarize(results: SweepResults, metrics: Sequence[str]) -> dict[str, MetricSummary]:
    """Each metric's extrema and the sorted edge sets that attain them, over all columns at once."""
    if not len(results):
        return {m: MetricSummary(metric=m, min_value=None, max_value=None) for m in metrics}
    values = results.values[:, [METRIC_NAMES.index(m) for m in metrics]]
    squeezed = values < 0.0
    only_squeezed = squeezed.any(axis=0) & np.array([m in SQUEEZE_METRICS for m in metrics])
    values = np.where(only_squeezed & ~squeezed, np.nan, values)
    extrema = []
    for reduce in (np.fmin.reduce, np.fmax.reduce):  # both skip NaN
        at = values == reduce(values, axis=0, initial=np.nan)
        # The value at the first extremal index, as min() and max() pick between 0.0 and -0.0.
        first = values[at.argmax(axis=0), np.arange(len(metrics))].tolist()
        tied: list[list[str]] = [[] for _ in metrics]
        for j, i in zip(*(index.tolist() for index in at.T.nonzero())):
            tied[j].append(results.edges[i])
        extrema.append((first, [tuple(sorted(t)) for t in tied]))
    (lo, at_lo), (hi, at_hi) = extrema
    return {
        m: MetricSummary(m, lo[j], hi[j], at_lo[j], at_hi[j]) if at_lo[j] else MetricSummary(m, None, None)
        for j, m in enumerate(metrics)
    }


def _summary(family: Family, results: SweepResults, metrics: Sequence[str] | None) -> SweepSummary:
    return SweepSummary(family.descriptor, len(results), _summarize(results, _metric_names(metrics)))


def sweep_family(
    family: Family,
    metrics: Sequence[str] | None = None,
    connectivity_filter: bool | None = None,
    threads: int = 1,
) -> tuple[SweepResults, SweepSummary]:
    """Evaluate every configuration of ``family`` and summarize extrema.

    Record order is row order; the worker pool preserves it, so output is
    independent of ``threads``.
    """
    _require_threads(threads)
    _metric_names(metrics)  # reject unknown metrics before any work
    if connectivity_filter is None:
        connectivity_filter = family.default_connectivity_filter
    rows = family.rows
    if connectivity_filter:
        rows = rows[connected_rows(family.d, family.edges, rows)]
    if not len(rows):
        raise ValueError(f"family {family.descriptor} is empty after filtering")
    step = max(1, CHUNK_BYTES // (16 * (1 << family.d)))
    chunks = [rows[i : i + step] for i in range(0, len(rows), step)]
    evaluate = partial(_evaluate_chunk, family.d, family.edges, _edge_texts(family.edges))
    workers = worker_count(threads, len(chunks))
    nbytes = workers * profile_bytes(len(chunks[0]), 1 << family.d)
    require_bytes(f"sweep chunks of {len(chunks[0])} x 2**{family.d} amplitudes, {workers} at a time", nbytes)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(evaluate, chunks))
    else:
        parts = [evaluate(chunk) for chunk in chunks]
    edges = [text for part in parts for text in part.edges]
    results = SweepResults([family.d] * len(edges), edges, np.concatenate([part.values for part in parts]))
    return results, _summary(family, results, metrics)


def csv_text(fields: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Header and rows as CSV: None is an empty cell, text stays, a number is its Python value's repr."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(fields)
    writer.writerows(
        ["" if v is None else v if isinstance(v, str) else repr(v.item() if isinstance(v, np.generic) else v)
         for v in row]
        for row in rows
    )
    return buffer.getvalue()


def write_text(path: str | os.PathLike, parts: str | Iterable[str]) -> None:
    """Write ``parts``, a string or an iterable of strings, to ``path`` as UTF-8.

    A new path or a regular file is replaced whole by a temporary file written beside it,
    so no reader sees it half written and a failed write leaves it as it was.  A FIFO,
    device or symbolic link is written through: replacing it would cut off its reader
    or its link.  A replaced file keeps its permissions.  An OSError names ``path``."""
    path = os.fspath(path)  # not a Path, which would drop a trailing "/."
    parts = [parts] if isinstance(parts, str) else parts
    old = os.lstat(path) if os.path.lexists(path) else None
    replace = old is None or stat.S_ISREG(old.st_mode)
    directory, name = os.path.split(path)
    target = os.path.join(directory, f".{name}.{os.urandom(8).hex()}.tmp") if replace else path
    try:
        with open(target, "x" if replace else "w", encoding="utf-8") as handle:
            handle.writelines(parts)
        if replace:
            if old is not None:  # keep the replaced file's permissions
                os.chmod(target, stat.S_IMODE(old.st_mode))
            os.replace(target, path)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    finally:
        if replace and os.path.lexists(target):
            os.unlink(target)


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it in a row of more than one field."""
    if '"' in text or "\r" in text or "\n" in text:
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerow([text, ""])
        return buffer.getvalue()[:-2]
    return f'"{text}"' if "," in text else text


def _csv_blocks(results: SweepResults) -> Iterator[str]:
    yield ",".join(CSV_HEADER) + "\n"
    cells = results._cell_texts()
    for start in range(0, len(results), RENDER_BLOCK):
        block = slice(start, start + RENDER_BLOCK)
        rows = zip(map(str, results.d[block]), map(_csv_field, results.edges[block]),
                   *(column[block] for column in cells))
        yield "\n".join(map(",".join, rows)) + "\n"


def _json_blocks(results: SweepResults, depth: int) -> Iterator[str]:
    """The records as ``json.dumps(..., indent=2)`` writes their list ``depth`` levels deep."""
    if not len(results):
        yield "[]"
        return
    indent = "\n" + "  " * depth
    outer, inner = indent + "  ", indent + "    "
    record = outer + "{{" + ",".join(f'{inner}"{key}": {{}}' for key in CSV_HEADER) + outer + "}}"
    cells = results._cell_texts()
    yield "["
    for start in range(0, len(results), RENDER_BLOCK):
        block = slice(start, start + RENDER_BLOCK)
        rows = zip(map(str, results.d[block]), map(encode_basestring_ascii, results.edges[block]),
                   *([text or "null" for text in column[block]] for column in cells))
        yield ("," if start else "") + ",".join(starmap(record.format, rows))
    yield indent + "]"


def render_blocks(records: Iterable[SweepRecord], fmt: str, depth: int = 0) -> Iterator[str]:
    """Records as text blocks: CSV, or the JSON list ``depth`` levels deep in an indented document.

    Their concatenation is a whole CSV or JSON file, newline included, at depth 0.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")
    results = SweepResults.of(records)
    if fmt == "csv":
        return _csv_blocks(results)
    return itertools.chain(_json_blocks(results, depth), ["\n"] if depth == 0 else [])


def render_results(records: Iterable[SweepRecord], fmt: str) -> str:
    """Serialize records to the requested format (csv or json)."""
    return "".join(render_blocks(records, fmt))


def write_results(records: Iterable[SweepRecord], path: str | os.PathLike, fmt: str | None = None) -> None:
    """Write records to ``path`` through ``write_text``; format from arg or file extension."""
    if fmt is None:
        fmt = Path(path).suffix.lstrip(".").lower()
    write_text(path, render_blocks(records, fmt))


def _record_from_fields(path: Path, d, edges, values: dict, cells: bool) -> SweepRecord:
    """A record from CSV ``cells`` or JSON values: an integer d, text edges, metrics None or finite."""
    # A CSV cell must be text as ``csv_text`` writes it: d the str of an int, a metric
    # the repr of a float.  A JSON d must be a JSON integer and a JSON metric a number or null.
    raw = (str, type(None)) if cells else (int, float, type(None))
    try:
        if isinstance(d, bool) or not isinstance(d, str if cells else int) or cells and str(int(d)) != d:
            raise TypeError(f"d {d!r} is not an integer")
        if not isinstance(edges, str):
            raise TypeError(f"edges {edges!r} is not text")
        metrics = {name: None if values[name] is None else float(values[name]) for name in METRIC_NAMES}
        bad = [n for n in METRIC_NAMES if isinstance(values[n], bool) or not isinstance(values[n], raw)
               or not isfinite(metrics[n] or 0.0)
               or cells and metrics[n] is not None and repr(metrics[n]) != values[n]]
        if bad:
            raise ValueError(f"{bad[0]} {values[bad[0]]!r} is not a finite number")
        return SweepRecord(d=int(d), edges=edges, metrics=metrics)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"{path}: malformed record: {exc}") from None


def _finite_columns(columns: list[list]) -> np.ndarray | None:
    """(records x metrics) float64 of float-or-None columns, or None if any float is not finite."""
    values = np.array(columns, dtype=np.float64).reshape(len(columns), -1).T
    undefined = sum(column.count(None) for column in columns)
    if np.isinf(values).any() or np.count_nonzero(np.isnan(values)) != undefined:
        return None
    return np.ascontiguousarray(values)


def _json_results(path: Path, payload: list[dict]) -> SweepResults:
    keys = set(CSV_HEADER)
    if all(entry.keys() == keys for entry in payload):
        d = [entry["d"] for entry in payload]
        edges = [entry["edges"] for entry in payload]
        columns = [[entry[name] for entry in payload] for name in METRIC_NAMES]
        plain = (set(map(type, d)) <= {int} and set(map(type, edges)) <= {str}
                 and all(set(map(type, column)) <= {float, type(None)} for column in columns))
        values = _finite_columns(columns) if plain else None
        if values is not None:
            return SweepResults(d, edges, values)
    records = []  # something unusual: the per-record validator says what
    for entry in payload:
        if set(entry) != keys:
            raise SchemaError(f"{path}: record keys {sorted(entry)} do not match schema")
        records.append(_record_from_fields(path, entry["d"], entry["edges"], entry, cells=False))
    return SweepResults.of(records)


def _csv_results(path: Path, rows: list[list[str]]) -> SweepResults:
    if all(len(row) == len(CSV_HEADER) for row in rows):
        try:
            d = [int(row[0]) for row in rows]
            columns = [[float(row[j]) if row[j] else None for row in rows] for j in range(2, len(CSV_HEADER))]
        except ValueError:
            pass
        else:
            # Only the text csv_text writes: each cell must be the str or repr of the value read.
            written = (list(map(str, d)) == [row[0] for row in rows]
                       and all(["" if v is None else repr(v) for v in column] == [row[j] for row in rows]
                               for j, column in enumerate(columns, 2)))
            values = _finite_columns(columns) if written else None
            if values is not None:
                return SweepResults(d, [row[1] for row in rows], values)
    records = []  # something unusual: the per-record validator says what
    for row in rows:
        if len(row) != len(CSV_HEADER):
            raise SchemaError(f"{path}: row has {len(row)} fields, expected {len(CSV_HEADER)}")
        values = {name: (None if cell == "" else cell) for name, cell in zip(METRIC_NAMES, row[2:])}
        records.append(_record_from_fields(path, row[0], row[1], values, cells=True))
    return SweepResults.of(records)


def read_results(path: str | os.PathLike) -> SweepResults:
    """Read records back from a CSV or JSON results file.

    Raises SchemaError for anything that is not a well-formed results file.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text: {exc}") from None
    if path.suffix.lower() == ".json":
        try:
            payload = json.loads(text)
        except (ValueError, RecursionError) as exc:  # also int digit limit and deep nesting
            raise SchemaError(f"{path}: not valid JSON: {exc}") from None
        if not isinstance(payload, list) or not all(isinstance(e, dict) for e in payload):
            raise SchemaError(f"{path}: expected a JSON list of record objects")
        return _json_results(path, payload)
    if path.suffix.lower() == ".csv":
        try:
            rows = list(csv.reader(io.StringIO(text)))
        except csv.Error as exc:
            raise SchemaError(f"{path}: not valid CSV: {exc}") from None
        if not rows or tuple(rows[0]) != CSV_HEADER:
            raise SchemaError(f"{path}: header {rows[0] if rows else []} does not match schema")
        return _csv_results(path, rows[1:])
    raise SchemaError(f"{path}: unknown results format (expected .csv or .json)")


def cache_key(
    family: Family,
    metrics: Sequence[str] | None = None,
    connectivity_filter: bool | None = None,
) -> str:
    """Stable content hash of family + metrics + filter + package and results versions."""
    if connectivity_filter is None:
        connectivity_filter = family.default_connectivity_filter
    blob = (
        f"{family.descriptor}|filter={connectivity_filter}|metrics={','.join(_metric_names(metrics))}"
        f"|v{__version__}|results={RESULTS_VERSION}"
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def resolve_cache_dir(cli_value: str | None = None) -> Path | None:
    """Cache directory from the CLI flag, else HYPERSTATE_CACHE, else None."""
    if cli_value:
        return Path(cli_value)
    env = os.environ.get(CACHE_ENV_VAR)
    return Path(env) if env else None


def _read_entry(path: Path, family: Family) -> SweepResults:
    """The records of a cache entry, or SchemaError when they cannot be ``family``'s."""
    records = read_results(path)
    found = set(records.d)
    if found != {family.d}:
        raise SchemaError(f"{path}: records on d in {sorted(found)}, expected d={family.d}")
    return records


def cached_sweep(
    family: Family,
    metrics: Sequence[str] | None = None,
    connectivity_filter: bool | None = None,
    threads: int = 1,
    cache_dir: str | os.PathLike | None = None,
) -> tuple[SweepResults, SweepSummary]:
    """Sweep with a content-addressed cache of the record list.

    An entry that cannot be read or is not this family's is a miss, recomputed and
    replaced; one that cannot be written is skipped.  Each prints one warning to stderr.
    """
    _require_threads(threads)
    if cache_dir is None:
        return sweep_family(family, metrics, connectivity_filter, threads)
    cache_dir = Path(cache_dir)
    cache_file = cache_dir / f"{cache_key(family, metrics, connectivity_filter)}.json"
    try:
        records = _read_entry(cache_file, family)
    except (FileNotFoundError, NotADirectoryError):
        pass  # no entry yet
    except (SchemaError, OSError) as exc:
        print(f"warning: ignoring cache entry: {exc}", file=sys.stderr)
    else:
        return records, _summary(family, records, metrics)
    records, summary = sweep_family(family, metrics, connectivity_filter, threads)
    try:
        cache_dir.mkdir(parents=True, exist_ok=True)
        write_results(records, cache_file, "json")
    except OSError as exc:
        print(f"warning: cache entry not written: {exc}", file=sys.stderr)
    return records, summary
