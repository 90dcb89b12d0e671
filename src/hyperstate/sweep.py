"""Exhaustive metric sweeps over hypergraph families, with persistence.

A family is one candidate edge list plus 0/1 membership rows (``Family``).
A sweep evaluates every row (optionally filtered to connected hypergraphs,
``hypergraph.connected_rows``), producing one record per configuration in
row order plus a per-metric extremal summary, and builds no Hypergraph.
Records serialize to CSV/JSON with shortest round-trip float formatting,
so repeated runs are byte-identical regardless of the worker count.

Every CSV of the package comes from ``csv_text`` and every file it writes
(results, cache entries, CLI ``--out`` and plot files) from ``write_text``.

Extremal semantics: for the squeezing-degree metrics (s_p, s_n) the
summary ranges over the configurations that actually exhibit squeezing
(negative degree) whenever any exist, since extremal squeezing is a
statement about the squeezed subpopulation; all other metrics (and the
fallback when nothing is squeezed) use plain extrema over defined values.

Rows are evaluated in fixed-size chunks, one ``state.membership_profile``
call per chunk.  A row whose support bound (sum over its edges of
2**(d - |e|)) is at most 2d, which holds for every (d-1)-graph, takes the
support route: its truth table is read only at the union of its edges'
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
RESULTS_VERSION = 4

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

    def row(self) -> list:
        return [self.d, self.edges] + [self.metrics[name] for name in METRIC_NAMES]


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
) -> list[SweepRecord]:
    """Records of 0/1 rows over ``edges`` (whose texts are ``texts``), from one profile."""
    profile = membership_profile(d, edges, rows)
    var_n = number_stats(d)[1]
    records = []
    for row, var_p, half, c_l1, c_rel in zip(
        rows.tolist(),
        profile.var_p.tolist(),
        profile.half_comm.tolist(),
        profile.c_l1_phase.tolist(),
        profile.c_rel_phase.tolist(),
    ):
        s_n, s_p = squeeze_degrees(var_n, var_p, half)
        metrics: dict[str, float | None] = {
            "s_p": s_p,
            "s_n": s_n,
            "var_p": var_p,
            "var_n": var_n,
            "half_comm": half,
            "c_l1_phase": c_l1,
            "c_rel_phase": c_rel,
        }
        records.append(SweepRecord(d, ";".join(itertools.compress(texts, row)), metrics))
    return records


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


def _summarize(records: Sequence[SweepRecord], metric: str) -> MetricSummary:
    defined = [(r.metrics[metric], r.edges) for r in records if r.metrics[metric] is not None]
    if metric in SQUEEZE_METRICS:
        squeezed = [(v, e) for v, e in defined if v < 0.0]
        if squeezed:
            defined = squeezed
    if not defined:
        return MetricSummary(metric=metric, min_value=None, max_value=None)
    lo = min(v for v, _ in defined)
    hi = max(v for v, _ in defined)
    return MetricSummary(
        metric=metric,
        min_value=lo,
        max_value=hi,
        argmin=tuple(sorted(e for v, e in defined if v == lo)),
        argmax=tuple(sorted(e for v, e in defined if v == hi)),
    )


def _summary(family: Family, records: Sequence[SweepRecord], metrics: Sequence[str] | None) -> SweepSummary:
    chosen = _metric_names(metrics)
    return SweepSummary(family.descriptor, len(records), {m: _summarize(records, m) for m in chosen})


def sweep_family(
    family: Family,
    metrics: Sequence[str] | None = None,
    connectivity_filter: bool | None = None,
    threads: int = 1,
) -> tuple[list[SweepRecord], SweepSummary]:
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
    records = [record for part in parts for record in part]
    return records, _summary(family, records, metrics)


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


def records_payload(records: Iterable[SweepRecord]) -> list[dict]:
    """Records as JSON-ready dicts, the one record shape of all sweep JSON."""
    return [
        {"d": r.d, "edges": r.edges, **{name: r.metrics[name] for name in METRIC_NAMES}}
        for r in records
    ]


def render_results(records: Iterable[SweepRecord], fmt: str) -> str:
    """Serialize records to the requested format (csv or json)."""
    if fmt == "csv":
        return csv_text(CSV_HEADER, (record.row() for record in records))
    if fmt == "json":
        return json.dumps(records_payload(records), indent=2) + "\n"
    raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")


def write_results(records: Iterable[SweepRecord], path: str | os.PathLike, fmt: str | None = None) -> None:
    """Write records to ``path`` through ``write_text``; format from arg or file extension."""
    if fmt is None:
        fmt = Path(path).suffix.lstrip(".").lower()
    write_text(path, render_results(records, fmt))


def _record_from_fields(path: Path, d, edges, values: dict) -> SweepRecord:
    """A record from JSON values or CSV cells: an integer d, text edges, metrics None or finite."""
    try:
        if isinstance(d, bool) or not isinstance(d, (int, str)):
            raise TypeError(f"d {d!r} is not an integer")
        if not isinstance(edges, str):
            raise TypeError(f"edges {edges!r} is not text")
        metrics = {name: None if values[name] is None else float(values[name]) for name in METRIC_NAMES}
        bad = [n for n in METRIC_NAMES if isinstance(values[n], bool) or not isfinite(metrics[n] or 0.0)]
        if bad:
            raise ValueError(f"{bad[0]} {values[bad[0]]!r} is not a finite number")
        return SweepRecord(d=int(d), edges=edges, metrics=metrics)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"{path}: malformed record: {exc}") from None


def read_results(path: str | os.PathLike) -> list[SweepRecord]:
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
        records = []
        expected = {"d", "edges", *METRIC_NAMES}
        for entry in payload:
            if set(entry) != expected:
                raise SchemaError(f"{path}: record keys {sorted(entry)} do not match schema")
            records.append(_record_from_fields(path, entry["d"], entry["edges"], entry))
        return records
    if path.suffix.lower() == ".csv":
        try:
            rows = list(csv.reader(io.StringIO(text)))
        except csv.Error as exc:
            raise SchemaError(f"{path}: not valid CSV: {exc}") from None
        if not rows or tuple(rows[0]) != CSV_HEADER:
            raise SchemaError(f"{path}: header {rows[0] if rows else []} does not match schema")
        records = []
        for row in rows[1:]:
            if len(row) != len(CSV_HEADER):
                raise SchemaError(f"{path}: row has {len(row)} fields, expected {len(CSV_HEADER)}")
            values = {name: (None if cell == "" else cell) for name, cell in zip(METRIC_NAMES, row[2:])}
            records.append(_record_from_fields(path, row[0], row[1], values))
        return records
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


def _read_entry(path: Path, family: Family) -> list[SweepRecord]:
    """The records of a cache entry, or SchemaError when they cannot be ``family``'s."""
    records = read_results(path)
    found = {r.d for r in records}
    if found != {family.d}:
        raise SchemaError(f"{path}: records on d in {sorted(found)}, expected d={family.d}")
    return records


def cached_sweep(
    family: Family,
    metrics: Sequence[str] | None = None,
    connectivity_filter: bool | None = None,
    threads: int = 1,
    cache_dir: str | os.PathLike | None = None,
) -> tuple[list[SweepRecord], SweepSummary]:
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
