"""Exhaustive metric sweeps over hypergraph families, with persistence.

A family is one candidate edge list plus 0/1 membership rows (``Family``).
A sweep evaluates every row (optionally filtered to connected hypergraphs,
``hypergraph.connected_rows``), producing one record per configuration in
row order plus a per-metric extremal summary, and builds no Hypergraph.
The records are one columnar ``SweepResults``: the family's ``d``, the
joined edge texts and one (records x 7) float64 matrix in ``METRIC_NAMES``
order, with NaN for an undefined value.  Indexing and iteration give
``SweepRecord`` views.  Results serialize to CSV/JSON with shortest
round-trip float formatting, so repeated runs are byte-identical regardless
of the worker count.  Each render forms the text of the values anew, and
both formats are rendered from the columns in blocks of ``RENDER_BLOCK``
records.

A sweep has one index, its rows: the family's rows, filtered when asked
(``_sweep_rows``).  The workers split them and a cache entry is read against
them.  Every file the package writes (results, cache entries, CLI ``--out``
and plot files) goes through ``write_text``.  A cache entry is one ``.npy``
(rows x 7) ``<f8`` matrix of the values alone, read back only after
``_read_entry``'s checks; a malformed one is a ``SchemaError``.

Extremal semantics: for the squeezing-degree metrics (s_p, s_n) the
summary ranges over the configurations that actually exhibit squeezing
(negative degree) whenever any exist, since extremal squeezing is a
statement about the squeezed subpopulation; all other metrics (and the
fallback when nothing is squeezed) use plain extrema over defined values.
An extremum is the value at its first index, as Python's ``min`` and ``max``
give it, and every tied edge set is listed, sorted.

Each worker gets one contiguous block of rows (``np.array_split``) and makes
one ``state.membership_profile`` call, which builds the family's support tables
for itself and runs the O(2**d) work a tile (``operators.tile_rows``) at a
time; the columns are formed once per sweep.  A row at d <= 16 whose
support bound (sum over its edges of 2**(d - |e|)) is at most 2d, as for
every (d-1)-graph, takes the support route: its truth
table is read only at the union of its edges' supports, and its spectrum
comes from exact integer sums, with no length-2**d table or FFT.  Other rows
take the rfft route: exact +-1 sign rows from one membership-by-indicator
product (``state.membership_signs``) and one batched ``rfft`` per tile.  Both
routes read the unnormalised signs and scale by exact powers of two.  Each
route reduces each row on its own, so neither the tile size nor the thread
count moves a digit.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import operator
import os
import stat
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from itertools import starmap
from json.encoder import encode_basestring_ascii
from math import comb
from pathlib import Path
from tokenize import TokenError
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import __version__
from .errors import MAX_SWEEP_WORK, SchemaError, dimension, require_bytes, require_sweep_work
from .hypergraph import Hypergraph, connected_rows
from .operators import SpectralProfile, profile_bytes, tile_rows
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
# 7: support spectrum scaled by exact powers of two instead of a rounded
#    sqrt(2**d): even d kept every bit; at odd d, over every dminus1 record at
#    d = 3..13, var_p moved by at most 6.2e-16 relative, c_l1_phase by 1.5e-15,
#    c_rel_phase by 8.9e-16 absolute and s_p by 7.9e-15 relative; half_comm
#    and var_n did not, and phase eigenstates now give var_p = 0 exactly.
# 8: the rfft route reads exact +-1 sign rows and divides by dim |row|**2, so
#    by 2**(2d) exactly: even d kept every bit (k-uniform at d = 2..6 for every
#    k, complete-k at d <= 16, single-full at d <= 20); at odd d half_comm and
#    s_n moved by at most 3.3e-13 relative and s_p by 3.2e-12 (k-uniform (5, 2)
#    and (5, 3)), var_p by 6.8e-16, c_l1_phase by 9.6e-16 and c_rel_phase by
#    5.2e-16; var_p values of 7.9e-31 now read 0; support rows did not move.
# 9: support spectra folded to their period above d = 9, and the spread summed
#    as row dots on both routes: over every connected dminus1 record at
#    d = 3..14, var_p moved by at most 7.2e-16 relative, s_p by 1.7e-15,
#    c_l1_phase by 1.7e-15 and c_rel_phase by 7.9e-16, the last two only at
#    d >= 10; half_comm, s_n and var_n kept every bit.  single-full at d <= 16
#    and complete-k (d, d - 1) at d <= 14 moved by at most 8.2e-16; s_p of
#    k-uniform (4, 2) and (5, 2), near 0.011, by 1.0e-14 and 2.4e-14 (1 and 2
#    ulps of var_p).
# 10: the spread is numpy's row reduction of p times its weights, not a BLAS
#    dot, on both routes, so no bit depends on the OpenBLAS kernel: over every
#    connected dminus1 record at d = 3..14 (32646), var_p moved in 5030 by at
#    most 3.6e-16 relative and s_p in 33 by 1.7e-15; half_comm, s_n, var_n and
#    the coherences kept every bit, as did every summary's extremal edge sets.
#    single-full at d <= 16 kept every bit, complete-k (d, d - 1) at d <= 14
#    moved once (var_p, 1.8e-16); k-uniform at d <= 5 moved var_p by at most
#    3.9e-16, and s_p of (5, 2) near 0.0064 by 2.1e-14 and of (5, 3) near
#    -7.5e-5 by 3.1e-12, an ulp of var_p amplified.
RESULTS_VERSION = 10

# Records per text block of a CSV or JSON render, about 50 kB of text at d = 12.
# With blocks of 128 records the sweep-d12 benchmark peaked about 1 MiB lower
# in RSS than with blocks of 512, and about 1.5 MiB lower than with 4096.
RENDER_BLOCK = 1 << 7


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
    """``Family("dminus1", d)``; kept until ``bench/workloads.py`` is re-keyed (ROADMAP item 2)."""
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

    ``d`` is the one vertex count of every record, ``edges`` the joined edge texts and
    ``values`` one (records x 7) float64 matrix in ``METRIC_NAMES`` order, NaN
    where a metric is undefined.  Indexing and iteration give ``SweepRecord``
    views with Python float or None metrics; ``==`` compares two results
    column by column, telling -0.0 from 0.0 as their text does.
    """

    def __init__(self, d: int, edges: list[str], values: np.ndarray) -> None:
        self.d, self.edges, self.values = d, edges, values

    def __len__(self) -> int:
        return len(self.edges)

    def __getitem__(self, index: int) -> SweepRecord:
        index = operator.index(index)  # a slice would give a record of lists
        return _record(self.d, self.edges[index], self.values[index].tolist())

    def __iter__(self) -> Iterator[SweepRecord]:
        return map(partial(_record, self.d), self.edges, self.values.tolist())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SweepResults):
            return NotImplemented
        a, b = self.values, other.values
        return (self.d == other.d and self.edges == other.edges and np.array_equal(a, b, equal_nan=True)
                and np.array_equal(np.signbit(a) & ~np.isnan(a), np.signbit(b) & ~np.isnan(b)))

    def _cell_texts(self) -> list[list[str]]:
        """Per metric, the repr of each defined value and "" for undefined."""
        return [_column_texts(column) for column in self.values.T]


def _column_texts(column: np.ndarray) -> list[str]:
    """The repr of each value of ``column`` and "" for NaN; one repr for a column of equal bits
    (as var_n is over a sweep), which keeps -0.0 apart from 0.0."""
    bits = column.view(np.int64)
    if len(column) and (bits == bits[0]).all():
        return ["" if np.isnan(column[0]) else repr(column[0].item())] * len(column)
    texts = list(map(repr, column.tolist()))
    for i in np.flatnonzero(np.isnan(column)).tolist():
        texts[i] = ""
    return texts


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


def _results(d: int, edges: Sequence[tuple[int, ...]], rows: np.ndarray, values: np.ndarray) -> SweepResults:
    """Results of 0/1 ``rows`` over ``edges`` with their (rows x 7) ``values``."""
    texts = [",".join(map(str, e)) for e in edges]
    joined = [";".join(itertools.compress(texts, row)) for row in rows.tolist()]
    return SweepResults(d, joined, values)


def _evaluate(d: int, edges: Sequence[tuple[int, ...]], rows: np.ndarray, workers: int = 1) -> SweepResults:
    """Results of 0/1 ``rows`` over ``edges``: one ``membership_profile`` call on each of
    ``workers`` contiguous blocks of rows, then every column formed once."""
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = pool.map(partial(membership_profile, d, edges), np.array_split(rows, workers))
            profile = SpectralProfile(*map(np.concatenate, zip(*(vars(part).values() for part in parts))))
    else:
        profile = membership_profile(d, edges, rows)
    var_n = number_stats(d)[1]
    s_n, s_p = squeeze_degrees(var_n, profile.var_p, profile.half_comm)
    values = np.column_stack([s_p, s_n, profile.var_p, np.full(len(rows), var_n), profile.half_comm,
                              profile.c_l1_phase, profile.c_rel_phase])  # in METRIC_NAMES order
    return _results(d, edges, rows, values)


def evaluate_record(g: Hypergraph) -> SweepRecord:
    """All sweep metrics of one hypergraph; kept until ``bench/workloads.py`` is re-keyed (ROADMAP item 2)."""
    return _evaluate(g.d, g.edges, np.ones((1, len(g.edges))))[0]


def worker_count(threads: int, rows: int) -> int:
    """Pool size for a sweep of ``rows`` rows: min(threads, rows, CPU count)."""
    return min(threads, rows, os.cpu_count() or 1)


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
    everyone = None  # every record's edge texts, sorted once for the ties that cover them all (var_n)
    for reduce in (np.fmin.reduce, np.fmax.reduce):  # both skip NaN
        at = values == reduce(values, axis=0, initial=np.nan)
        # The value at the first extremal index, as min() and max() pick between 0.0 and -0.0.
        first = values[at.argmax(axis=0), np.arange(len(metrics))].tolist()
        whole = at.all(axis=0)
        if whole.any() and everyone is None:
            everyone = tuple(sorted(results.edges))
        at[:, whole] = False
        tied: list[list[str]] = [[] for _ in metrics]
        for j, i in zip(*(index.tolist() for index in at.T.nonzero())):
            tied[j].append(results.edges[i])
        extrema.append((first, [everyone if w else tuple(sorted(t)) for w, t in zip(whole.tolist(), tied)]))
    (lo, at_lo), (hi, at_hi) = extrema
    return {
        m: MetricSummary(m, lo[j], hi[j], at_lo[j], at_hi[j]) if at_lo[j] else MetricSummary(m, None, None)
        for j, m in enumerate(metrics)
    }


def _summary(family: Family, results: SweepResults, metrics: Sequence[str] | None) -> SweepSummary:
    return SweepSummary(family.descriptor, len(results), _summarize(results, _metric_names(metrics)))


def _sweep_rows(family: Family, connectivity_filter: bool | None) -> np.ndarray:
    """The rows a sweep of ``family`` evaluates: all of them, or the connected ones when filtered."""
    if connectivity_filter is None:
        connectivity_filter = family.default_connectivity_filter
    rows = family.rows
    if connectivity_filter:
        rows = rows[connected_rows(family.d, family.edges, rows)]
    if not len(rows):
        raise ValueError(f"family {family.descriptor} is empty after filtering")
    return rows


def _sweep(family: Family, rows: np.ndarray, threads: int) -> SweepResults:
    """The results of ``family``'s ``rows``, split between at most ``threads`` workers."""
    workers = worker_count(threads, len(rows))
    tile = min(tile_rows(family.d), -(-len(rows) // workers))
    require_bytes(f"sweep tiles of {tile} x 2**{family.d} amplitudes, {workers} at a time",
                  workers * profile_bytes(tile, 1 << family.d))
    return _evaluate(family.d, family.edges, rows, workers)


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
    results = _sweep(family, _sweep_rows(family, connectivity_filter), threads)
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


def write_text(path: str | os.PathLike, parts: str | bytes | Iterable[str | bytes]) -> None:
    """Write ``parts``, a string, bytes or an iterable of either, to ``path``, strings as UTF-8.

    A new path or a regular file is replaced whole by a temporary file written beside it,
    so no reader sees it half written and a failed write leaves it as it was.  A FIFO,
    device or symbolic link is written through: replacing it would cut off its reader
    or its link.  A replaced file keeps its permissions.  An OSError names ``path``."""
    path = os.fspath(path)  # not a Path, which would drop a trailing "/."
    parts = [parts] if isinstance(parts, (str, bytes)) else parts
    old = os.lstat(path) if os.path.lexists(path) else None
    replace = old is None or stat.S_ISREG(old.st_mode)
    directory, name = os.path.split(path)
    target = os.path.join(directory, f".{name}.{os.urandom(8).hex()}.tmp") if replace else path
    try:
        with open(target, "xb" if replace else "wb") as handle:
            handle.writelines(part.encode() if isinstance(part, str) else part for part in parts)
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
        rows = zip(itertools.repeat(str(results.d)), map(_csv_field, results.edges[block]),
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
        rows = zip(itertools.repeat(str(results.d)), map(encode_basestring_ascii, results.edges[block]),
                   *([text or "null" for text in column[block]] for column in cells))
        yield ("," if start else "") + ",".join(starmap(record.format, rows))
    yield indent + "]"


def render_blocks(results: SweepResults, fmt: str, depth: int = 0) -> Iterator[str]:
    """Results as text blocks of CSV, or of the JSON list ``depth`` levels deep in an indented
    document; at depth 0 they join to a whole CSV or JSON file, newline included."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")
    if fmt == "csv":
        return _csv_blocks(results)
    return itertools.chain(_json_blocks(results, depth), ["\n"] if depth == 0 else [])


def render_results(results: SweepResults, fmt: str) -> str:
    """Serialize results to the requested format (csv or json)."""
    return "".join(render_blocks(results, fmt))


def write_results(results: SweepResults, path: str | os.PathLike, fmt: str) -> None:
    """Write results in format ``fmt`` (csv or json) to ``path`` through ``write_text``."""
    write_text(path, render_blocks(results, fmt))


def cache_key(
    family: Family,
    metrics: Sequence[str] | None = None,
    connectivity_filter: bool | None = None,
) -> str:
    """Stable content hash of family + metrics + filter + package and results versions + entry layout."""
    if connectivity_filter is None:
        connectivity_filter = family.default_connectivity_filter
    blob = (
        f"{family.descriptor}|filter={connectivity_filter}|metrics={','.join(_metric_names(metrics))}"
        f"|v{__version__}|results={RESULTS_VERSION}|entry=values<f8"
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def resolve_cache_dir(cli_value: str | None = None) -> Path | None:
    """Cache directory from the CLI flag, else HYPERSTATE_CACHE, else None."""
    if cli_value:
        return Path(cli_value)
    env = os.environ.get(CACHE_ENV_VAR)
    return Path(env) if env else None


def _write_entry(path: Path, values: np.ndarray) -> None:
    """Write a sweep's (rows x 7) ``values`` as one C-order ``<f8`` .npy array through ``write_text``."""
    buffer = io.BytesIO()
    np.lib.format.write_array(buffer, np.ascontiguousarray(values, "<f8"), allow_pickle=False)
    write_text(path, buffer.getvalue())


def _read_entry(path: Path, count: int) -> np.ndarray:
    """The (count x 7) values of a cache entry, or SchemaError when they cannot be a sweep's of
    ``count`` rows: a version 1.0 header, checked before any value is read, of exactly a C-order
    (count, 7) ``<f8`` array, then exactly those values, none of them infinite."""
    values = np.empty((count, len(METRIC_NAMES)), "<f8")
    with open(path, "rb") as handle:
        try:
            if np.lib.format.read_magic(handle) != (1, 0):
                raise ValueError("not a version 1.0 .npy file")
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # numpy warns when it has to repair a header
                shape, fortran, found = np.lib.format.read_array_header_1_0(handle)
        except (ValueError, EOFError, MemoryError, RecursionError, TokenError):
            raise SchemaError(f"{path}: no .npy version 1.0 header that numpy reads") from None
        if found != values.dtype or fortran or shape != values.shape:
            raise SchemaError(f"{path}: {shape} {found}, fortran_order={fortran}, is not a sweep's {values.shape} <f8")
        if handle.readinto(values) != values.nbytes or handle.read(1):
            raise SchemaError(f"{path}: the values are not exactly {values.nbytes} bytes")
    if np.isinf(values).any():
        raise SchemaError(f"{path}: a value is infinite")
    return values


def cached_sweep(
    family: Family,
    metrics: Sequence[str] | None = None,
    connectivity_filter: bool | None = None,
    threads: int = 1,
    cache_dir: str | os.PathLike | None = None,
) -> tuple[SweepResults, SweepSummary]:
    """Sweep with a content-addressed cache of the values, one binary entry per sweep.

    A hit pairs the entry's values with the sweep's rows, rebuilt from the family and the
    filter.  An entry that cannot be read or is not a matrix of one value row per sweep row
    is a miss, recomputed and replaced; one that cannot be written is skipped.  Each prints
    one warning to stderr.
    """
    _require_threads(threads)
    if cache_dir is None:
        return sweep_family(family, metrics, connectivity_filter, threads)
    cache_dir = Path(cache_dir)
    cache_file = cache_dir / f"{cache_key(family, metrics, connectivity_filter)}.npy"
    rows = _sweep_rows(family, connectivity_filter)
    try:
        records = _results(family.d, family.edges, rows, _read_entry(cache_file, len(rows)))
    except (FileNotFoundError, NotADirectoryError):
        pass  # no entry yet
    except (SchemaError, OSError) as exc:
        print(f"warning: ignoring cache entry: {exc}", file=sys.stderr)
    else:
        return records, _summary(family, records, metrics)
    records = _sweep(family, rows, threads)
    try:
        cache_dir.mkdir(parents=True, exist_ok=True)
        _write_entry(cache_file, records.values)
    except OSError as exc:
        print(f"warning: cache entry not written: {exc}", file=sys.stderr)
    return records, _summary(family, records, metrics)
