"""Reference implementations that the tests hold the package against.

Each one computes a quantity by a route independent of the package's own:
the truth table edge by edge, every k-uniform hypergraph by a mask loop,
amplitudes of hypergraphs batched over their own edges, commutators and
expectations of dense matrices, the phase-basis overlaps and moments of any
complex state, the half-spectrum phase moments and coherences by the
two-pass reduction with explicit mirror weights and normalized
probabilities (with the support route's spectrum squared in seven passes),
<[N, P]> by two FFT applications of the phase operator,
relabeling equivalence by trying every vertex permutation, and the summary,
CSV/JSON rendering and reading of sweep records one record (one metrics
dict) at a time.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
from math import isfinite
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from hyperstate.errors import SchemaError
from hyperstate.hypergraph import Hypergraph, canonical_edges, parse_edges, vertex_mask
from hyperstate.operators import (
    SpectralProfile,
    _dft_rows,
    _require_power_of_two,
    _support_scale,
    apply_phase_operator,
    phase_angles,
    support_profile,
)
from hyperstate.state import membership_amplitudes
from hyperstate.sweep import CSV_HEADER, METRIC_NAMES, SQUEEZE_METRICS, MetricSummary, SweepRecord, csv_text


def boolean_function(g: Hypergraph) -> np.ndarray:
    """Truth table of ``g``'s Boolean function: uint8 entry n is f(n)."""
    n = np.arange(g.dim, dtype=np.int64)
    table = np.zeros(g.dim, dtype=np.uint8)
    for edge in g.edges:
        mask = vertex_mask(g.d, edge)
        table ^= ((n & mask) == mask).astype(np.uint8)
    return table


def k_uniform_hypergraphs(d: int, k: int) -> Iterator[Hypergraph]:
    """Every hypergraph whose edges are a nonempty set of k-subsets, by ascending edge-subset mask.

    Bit i of the mask selects the i-th k-subset in lexicographic order.
    """
    subsets = list(itertools.combinations(range(d), k))
    for mask in range(1, 1 << len(subsets)):
        yield Hypergraph(d, [subsets[i] for i in range(len(subsets)) if mask >> i & 1])


def hypergraph_amplitudes(graphs: Sequence[Hypergraph]) -> np.ndarray:
    """``membership_amplitudes`` of hypergraphs on one d, each row over its own edges."""
    edges = [e for g in graphs for e in g.edges]
    rows = np.repeat(np.eye(len(graphs)), [len(g.edges) for g in graphs], axis=1)
    return membership_amplitudes(graphs[0].d, edges, rows)


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """AB - BA."""
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"incompatible shapes {a.shape} and {b.shape}")
    return a @ b - b @ a


def expectation(op: np.ndarray, psi: np.ndarray) -> complex:
    """<psi| op |psi> for a normalized state."""
    if op.shape != (len(psi), len(psi)):
        raise ValueError(f"operator shape {op.shape} does not match state length {len(psi)}")
    return complex(np.vdot(psi, op @ psi))


def phase_overlaps(psi: np.ndarray) -> np.ndarray:
    """Overlaps <theta_m|psi> for all m, via the discrete Fourier transform.

    Costs O(dim log dim); the squared magnitudes sum to 1 for a normalized
    state (the phase basis is orthonormal and complete).
    """
    dim = len(psi)
    _require_power_of_two(dim)
    return np.fft.fft(psi) / np.sqrt(float(dim))


def phase_stats(psi: np.ndarray) -> tuple[float, float]:
    """(mean, variance) of the phase operator from |<theta_m|psi>|**2."""
    theta = phase_angles(len(psi))
    prob = np.abs(phase_overlaps(psi)) ** 2
    mean = float(np.sum(theta * prob))
    second = float(np.sum(theta**2 * prob))
    return mean, second - mean**2


def _half_spectrum_weights(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Mirror weights (1 at m = 0 and m = dim/2, else 2) and theta_m - pi over the half spectrum."""
    mirror = np.full(dim // 2 + 1, 2.0)
    mirror[[0, -1]] = 1.0
    offset = phase_angles(dim)[: dim // 2 + 1] - np.pi
    return mirror, offset


def _phase_moments(prob: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """mean_p, var_p, c_l1_phase and c_rel_phase of half-spectrum phase probabilities.

    ``prob`` holds p_m = |F_m|**2 / dim for m = 0 .. dim/2, one row per state, and is
    normalized in place.  Every reduction is a row-wise ``np.sum``.
    """
    mirror, offset = _half_spectrum_weights(2 * (prob.shape[-1] - 1))
    # Sums over m >= 1 are taken directly, not as total - p_0, which would
    # cancel when p_0 is close to 1.  The m = 0 bin has no mirror; its
    # variance term is p_0 mean**2.
    p0 = prob[:, 0]
    rest = np.sum(mirror[1:] * prob[:, 1:], axis=-1)
    total = p0 + rest
    mean = np.pi * rest
    spread = np.sum(prob[:, 1:] * (mirror[1:] * offset[1:] ** 2), axis=-1)
    var = spread + (np.pi - mean) ** 2 * rest + p0 * mean**2
    c_l1 = np.sum(mirror * np.sqrt(prob), axis=-1) ** 2 / total - 1.0
    prob /= total[:, None]
    logs = np.log(prob, out=np.zeros_like(prob), where=prob > 0.0)
    c_rel = -np.sum(mirror * prob * logs, axis=-1)
    return mean, var, c_l1, c_rel


def rfft_probabilities(rows: np.ndarray) -> np.ndarray:
    """Half-spectrum phase probabilities |F_m|**2 / dim of real state rows, from their rfft."""
    f = np.fft.rfft(rows, axis=-1)
    return (f.real**2 + f.imag**2) / rows.shape[-1]


def support_probabilities(d: int, points, t: np.ndarray) -> np.ndarray:
    """``support_profile``'s half-spectrum phase probabilities, scaled, shifted and squared in seven passes."""
    dim = 1 << d
    cos, msin = _dft_rows(d, tuple(points))[:2]
    re, im = t @ cos, t @ msin
    scale = -np.ldexp(2.0 / np.sqrt(dim), -_support_scale(d))
    re *= scale
    im *= scale
    re[:, 0] += np.sqrt(dim)
    re *= re
    im *= im
    re += im
    re /= dim
    return re


def two_pass_support_profile(d: int, points, t: np.ndarray) -> SpectralProfile:
    """``support_profile`` with its phase moments from the two-pass reduction above.

    half_comm is ``support_profile``'s own: it reads no phase probability.
    """
    t = np.asarray(t, dtype=np.float64)
    mean, var, c_l1, c_rel = _phase_moments(support_probabilities(d, points, t))
    return SpectralProfile(mean, var, support_profile(d, points, t).half_comm, c_l1, c_rel)


def number_phase_commutator_expectation(psi: np.ndarray) -> complex:
    """<psi|[N, P]|psi> evaluated with two FFT-based operator applications.

    Purely imaginary (both operators Hermitian); works at any power-of-two
    dimension without materializing the dense commutator.
    """
    dim = len(psi)
    _require_power_of_two(dim)
    n = np.arange(dim)
    n_then_p = np.vdot(psi, n * apply_phase_operator(psi))
    p_then_n = np.vdot(psi, apply_phase_operator(n * psi))
    return complex(n_then_p - p_then_n)


def matches_by_permutation(expected: str, candidates: Sequence[str], d: int) -> bool:
    """Does some permutation of the d vertices map the edge set ``expected`` onto a candidate?"""
    expected_edges = canonical_edges(parse_edges(expected))
    candidate_sets = {canonical_edges(parse_edges(c)) for c in candidates}
    return any(
        canonical_edges(tuple(tuple(perm[v] for v in e) for e in expected_edges)) in candidate_sets
        for perm in itertools.permutations(range(d))
    )


def _summarize(records: Sequence[SweepRecord], metric: str) -> MetricSummary:
    """Extrema of ``metric`` over the records' metrics dicts, with every tied edge set."""
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


def records_payload(records: Iterable[SweepRecord]) -> list[dict]:
    """Records as JSON-ready dicts, the one record shape of all sweep JSON."""
    return [
        {"d": r.d, "edges": r.edges, **{name: r.metrics[name] for name in METRIC_NAMES}}
        for r in records
    ]


def render_results(records: Iterable[SweepRecord], fmt: str) -> str:
    """Serialize records to the requested format (csv or json)."""
    if fmt == "csv":
        return csv_text(CSV_HEADER, ([r.d, r.edges] + [r.metrics[name] for name in METRIC_NAMES]
                                     for r in records))
    if fmt == "json":
        return json.dumps(records_payload(records), indent=2) + "\n"
    raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")


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


def read_results(path) -> list[SweepRecord]:
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
            records.append(_record_from_fields(path, entry["d"], entry["edges"], entry, cells=False))
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
            records.append(_record_from_fields(path, row[0], row[1], values, cells=True))
        return records
    raise SchemaError(f"{path}: unknown results format (expected .csv or .json)")
