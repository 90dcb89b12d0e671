"""Exhaustive metric sweeps over hypergraph families, with persistence.

A sweep evaluates every configuration of a family (optionally filtered to
connected hypergraphs), producing one record per configuration in the
generator's deterministic order plus a per-metric extremal summary.
Records serialize to CSV/JSON with shortest round-trip float formatting,
so repeated runs are byte-identical regardless of the worker count.

Extremal semantics: for the squeezing-degree metrics (s_p, s_n) the
summary ranges over the configurations that actually exhibit squeezing
(negative degree) whenever any exist, since extremal squeezing is a
statement about the squeezed subpopulation; all other metrics (and the
fallback when nothing is squeezed) use plain extrema over defined values.

Configurations are evaluated in fixed-size chunks: one stack of real
amplitudes (truth tables from one membership-by-indicator product,
``state.hypergraph_amplitudes``) and one ``spectral_profile`` call, hence
one batched ``rfft``, per chunk.  Chunk boundaries depend only on record
index, the truth tables are exact integers, and the profile reduces each
row on its own, so the thread count never changes a digit.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from . import __version__
from .errors import SchemaError
from .hypergraph import (
    Hypergraph,
    complete_k_graph,
    edges_text,
    is_connected,
    k_uniform_family,
    single_full_edge,
)
from .operators import spectral_profile
from .squeezing import number_stats, squeeze_degrees
from .state import hypergraph_amplitudes

METRIC_NAMES = ("s_p", "s_n", "var_p", "var_n", "half_comm", "c_l1_phase", "c_rel_phase")
SQUEEZE_METRICS = frozenset({"s_p", "s_n"})

CSV_HEADER = ("d", "edges") + METRIC_NAMES

FAMILY_KINDS = ("dminus1", "complete-k", "single-full")

CACHE_ENV_VAR = "HYPERSTATE_CACHE"

# Version of the computed values, part of the cache key.  Bump it whenever a
# change moves any digit of a record, so stale cache entries miss.
# 2: one spectral profile per state (values moved by about 1e-12).
# 3: half-spectrum profile from one length-2**d rfft of psi and n psi
#    (half_comm moved by up to about 6e-12 relative).
RESULTS_VERSION = 3

# Rows per spectral-profile call: each row stacks the half spectra of psi
# and n psi, 2 (2**(d-1) + 1) complex128 values, about 1 MiB per chunk.
CHUNK_BYTES = 1 << 20


@dataclass(frozen=True)
class Family:
    """A named hypergraph family: generator plus stable descriptor."""

    kind: str
    d: int
    k: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in FAMILY_KINDS:
            raise ValueError(f"kind must be one of {FAMILY_KINDS}, got {self.kind!r}")
        if self.kind == "complete-k" and self.k is None:
            raise ValueError("complete-k family needs k")

    @property
    def descriptor(self) -> str:
        if self.kind == "complete-k":
            return f"complete-k(d={self.d},k={self.k})"
        return f"{self.kind}(d={self.d})"

    @property
    def default_connectivity_filter(self) -> bool:
        # (d-1)-graph searches follow the connected-family convention;
        # the single-configuration families are connected by construction.
        return self.kind == "dminus1"

    def configurations(self) -> Iterator[Hypergraph]:
        if self.kind == "dminus1":
            yield from k_uniform_family(self.d, self.d - 1)
        elif self.kind == "complete-k":
            yield complete_k_graph(self.d, self.k)  # type: ignore[arg-type]
        else:
            yield single_full_edge(self.d)


def dminus1_family(d: int) -> Family:
    return Family("dminus1", d)


def complete_k_family(d: int, k: int) -> Family:
    return Family("complete-k", d, k)


def single_full_family(d: int) -> Family:
    return Family("single-full", d)


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


def _evaluate_chunk(graphs: Sequence[Hypergraph]) -> list[SweepRecord]:
    """Records of hypergraphs on a common d, from one spectral profile."""
    d = graphs[0].d
    profile = spectral_profile(hypergraph_amplitudes(graphs))
    var_n = number_stats(d)[1]
    records = []
    for g, var_p, half, c_l1, c_rel in zip(
        graphs,
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
        records.append(SweepRecord(d=d, edges=edges_text(g), metrics=metrics))
    return records


def evaluate_record(g: Hypergraph) -> SweepRecord:
    """Compute all sweep metrics for one hypergraph (a chunk of one)."""
    return _evaluate_chunk([g])[0]


def worker_count(threads: int, chunks: int) -> int:
    """Pool size for ``chunks`` chunks: min(threads, chunks, CPU count)."""
    return min(threads, chunks, os.cpu_count() or 1)


def _require_threads(threads: int) -> None:
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")


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


def sweep_family(
    family: Family,
    metrics: Sequence[str] | None = None,
    connectivity_filter: bool | None = None,
    threads: int = 1,
) -> tuple[list[SweepRecord], SweepSummary]:
    """Evaluate every configuration of ``family`` and summarize extrema.

    Evaluation order (hence record order) is the generator order; the
    worker pool preserves it, so output is independent of ``threads``.
    """
    _require_threads(threads)
    chosen = tuple(metrics) if metrics is not None else METRIC_NAMES
    for name in chosen:
        if name not in METRIC_NAMES:
            raise ValueError(f"unknown metric {name!r}")
    if connectivity_filter is None:
        connectivity_filter = family.default_connectivity_filter
    configs = list(family.configurations())
    if connectivity_filter:
        configs = [g for g in configs if is_connected(g)]
    if not configs:
        raise ValueError(f"family {family.descriptor} is empty after filtering")
    rows = max(1, CHUNK_BYTES // (16 * (1 << family.d)))
    chunks = [configs[i : i + rows] for i in range(0, len(configs), rows)]
    workers = worker_count(threads, len(chunks))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_evaluate_chunk, chunks))
    else:
        parts = [_evaluate_chunk(chunk) for chunk in chunks]
    records = [record for part in parts for record in part]
    summary = SweepSummary(
        family=family.descriptor,
        count=len(records),
        metrics={name: _summarize(records, name) for name in chosen},
    )
    return records, summary


def summarize_records(
    records: Sequence[SweepRecord], family_descriptor: str, metrics: Sequence[str] | None = None
) -> SweepSummary:
    """Rebuild a summary from records (used when serving from cache)."""
    chosen = tuple(metrics) if metrics is not None else METRIC_NAMES
    return SweepSummary(
        family=family_descriptor,
        count=len(records),
        metrics={name: _summarize(records, name) for name in chosen},
    )


def _format_value(value: float | int | None) -> str:
    # shortest round-trip decimal; coerce so numpy scalars print bare
    if value is None:
        return ""
    if isinstance(value, int):
        return repr(value)
    return repr(float(value))


def _records_to_csv(records: Iterable[SweepRecord]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for record in records:
        writer.writerow([_format_value(v) if not isinstance(v, str) else v for v in record.row()])
    return buffer.getvalue()


def _records_to_json(records: Iterable[SweepRecord]) -> str:
    payload = [
        {"d": r.d, "edges": r.edges, **{name: r.metrics[name] for name in METRIC_NAMES}}
        for r in records
    ]
    return json.dumps(payload, indent=2) + "\n"


def render_results(records: Iterable[SweepRecord], fmt: str) -> str:
    """Serialize records to the requested format (csv or json)."""
    if fmt == "csv":
        return _records_to_csv(records)
    if fmt == "json":
        return _records_to_json(records)
    raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")


def write_results(records: Iterable[SweepRecord], path: str | os.PathLike, fmt: str | None = None) -> None:
    """Write records to ``path``; format from arg or file extension.

    The text goes to a temporary file beside ``path`` that then replaces
    it, so a reader never sees a partly written file.
    """
    path = Path(path)
    if fmt is None:
        fmt = path.suffix.lstrip(".").lower()
    text = render_results(records, fmt)
    partial = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        with open(partial, "x", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(partial, path)
    finally:
        partial.unlink(missing_ok=True)


def _record_from_fields(path: Path, d, edges, values: dict) -> SweepRecord:
    try:
        if not isinstance(edges, str):
            raise TypeError(f"edges {edges!r} is not text")
        metrics = {name: None if values[name] is None else float(values[name]) for name in METRIC_NAMES}
        return SweepRecord(d=int(d), edges=edges, metrics=metrics)
    except (TypeError, ValueError) as exc:
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
        except json.JSONDecodeError as exc:
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
        rows = list(csv.reader(io.StringIO(text)))
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
    chosen = tuple(metrics) if metrics is not None else METRIC_NAMES
    blob = (
        f"{family.descriptor}|filter={connectivity_filter}|metrics={','.join(chosen)}"
        f"|v{__version__}|results={RESULTS_VERSION}"
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def resolve_cache_dir(cli_value: str | None = None) -> Path | None:
    """Cache directory from the CLI flag, else HYPERSTATE_CACHE, else None."""
    if cli_value:
        return Path(cli_value)
    env = os.environ.get(CACHE_ENV_VAR)
    return Path(env) if env else None


def cached_sweep(
    family: Family,
    metrics: Sequence[str] | None = None,
    connectivity_filter: bool | None = None,
    threads: int = 1,
    cache_dir: str | os.PathLike | None = None,
) -> tuple[list[SweepRecord], SweepSummary]:
    """Sweep with a content-addressed cache of the record list.

    An unreadable cache entry counts as a miss: a warning goes to stderr and
    the entry is recomputed and replaced.
    """
    _require_threads(threads)
    if cache_dir is None:
        return sweep_family(family, metrics, connectivity_filter, threads)
    cache_dir = Path(cache_dir)
    cache_file = cache_dir / f"{cache_key(family, metrics, connectivity_filter)}.json"
    if cache_file.exists():
        try:
            records = read_results(cache_file)
        except SchemaError as exc:
            print(f"warning: ignoring cache entry: {exc}", file=sys.stderr)
        else:
            return records, summarize_records(records, family.descriptor, metrics)
    records, summary = sweep_family(family, metrics, connectivity_filter, threads)
    cache_dir.mkdir(parents=True, exist_ok=True)
    write_results(records, cache_file, "json")
    return records, summary
