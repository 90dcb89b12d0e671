"""Reference implementations that the tests hold the package against.

Each one computes a quantity by a route independent of the package's own:
the truth table edge by edge, every k-uniform hypergraph by a mask loop,
connectivity by union-find over the vertices,
the +-1 sign rows of hypergraphs batched over their own edges, commutators and
expectations of dense matrices, the spectral sum F diag(theta) F^dagger as a
dim**3 product of Fourier matrices, the dense phase operator and the Toeplitz
and circulant structure checks gathered through (k - l) index arrays, the
phase-basis overlaps and moments of any complex state, the half-spectrum phase moments and coherences by the
two-pass reduction with explicit mirror weights and normalized
probabilities (with the support route's spectrum gathered from the
integer DFT table on its own, scaled by a rounded sqrt(dim) and squared in
seven passes), the support route's half_comm from each row's own sorted
points and a gathered cotangent table,
<[N, P]> by two FFT applications of the phase operator,
relabeling equivalence by trying every vertex permutation, the summary,
CSV/JSON rendering and reading of sweep records one record (one metrics
dict) at a time, the raising operator and the phase basis vectors as dense
arrays, and det m by Hankel condensation with the lcm(1 .. 2n - 1)**k scale.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from fractions import Fraction
from math import isfinite
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from hyperstate.errors import SchemaError
from hyperstate.hypergraph import Hypergraph, canonical_edges, parse_edges, vertex_mask
from hyperstate.operators import (
    SpectralProfile,
    _im_w,
    _require_power_of_two,
    _support_scale,
    _support_tables,
    apply_phase_operator,
    phase_angles,
    support_profile,
)
from hyperstate.moments import determinant
from hyperstate.state import membership_signs
from hyperstate.sweep import (
    CSV_HEADER,
    METRIC_NAMES,
    SQUEEZE_METRICS,
    MetricSummary,
    SweepRecord,
    SweepResults,
    csv_text,
)


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


def is_connected(g: Hypergraph) -> bool:
    """Whether every vertex is covered and edge co-membership links them all, by union-find.

    Vertices are adjacent when they share some hyperedge.  Hypergraphs with
    d <= 1 count as connected.
    """
    if g.d <= 1:
        return True
    covered: set[int] = set()
    for edge in g.edges:
        covered.update(edge)
    if len(covered) != g.d:
        return False
    # Union-find over vertices; each edge merges its members.
    parent = list(range(g.d))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for edge in g.edges:
        anchor = find(edge[0])
        for v in edge[1:]:
            root = find(v)
            if root != anchor:
                parent[root] = anchor
    return len({find(v) for v in range(g.d)}) == 1


def hypergraph_signs(graphs: Sequence[Hypergraph]) -> np.ndarray:
    """``membership_signs`` of hypergraphs on one d, each row over its own edges."""
    edges = [e for g in graphs for e in g.edges]
    rows = np.repeat(np.eye(len(graphs)), [len(g.edges) for g in graphs], axis=1)
    return membership_signs(graphs[0].d, edges, rows)


def creation(dim: int) -> np.ndarray:
    """Raising operator: a-dagger|i> = sqrt(i+1)|i+1>, top state killed."""
    if dim < 2:
        raise ValueError(f"need dim >= 2, got {dim}")
    return np.diag(np.sqrt(np.arange(1, dim)), k=-1).astype(np.complex128)


def phase_state(dim: int, m: int) -> np.ndarray:
    """Phase basis vector |theta_m>, amplitudes exp(i theta_m n)/sqrt(dim)."""
    _require_power_of_two(dim)
    if not 0 <= m < dim:
        raise ValueError(f"phase index m={m} out of range for dim={dim}")
    n = np.arange(dim)
    return np.exp(2j * np.pi * m * n / dim) / np.sqrt(float(dim))


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


def gathered_phase_operator(dim: int) -> np.ndarray:
    """The dense phase operator gathered entry by entry: column[(k - l) mod dim], with
    column[s] = (2 pi / dim**2) sum_r r exp(i theta_r s) from one FFT of the ramp."""
    column = (2.0 * np.pi / dim**2) * np.conj(np.fft.fft(np.arange(dim, dtype=np.float64)))
    k = np.arange(dim)
    return column[(k[:, None] - k[None, :]) % dim]


def fourier_spectral_sum(dim: int) -> np.ndarray:
    """F diag(theta) F^dagger as a dim**3 product, with F_kn = exp(2 pi i kn / dim) / sqrt(dim)
    gathered from a table of the dim roots of unity at kn mod dim."""
    n = np.arange(dim)
    roots = np.exp(2j * np.pi * n / dim) / np.sqrt(dim)
    fourier = roots[np.outer(n, n) % dim]
    return (fourier * phase_angles(dim)) @ fourier.conj().T


def gathered_structure(op: np.ndarray) -> dict:
    """``verify_structure(op).to_dict()`` with the Toeplitz and circulant matrices gathered
    through the index arrays (k - l) + dim - 1 and (k - l) mod dim."""
    dim = op.shape[0]
    tol = 1e-10 * dim
    adjoint = op.conj().T
    k = np.arange(dim)
    diff = k[:, None] - k[None, :]
    first = np.concatenate((op[0, :0:-1], op[:, 0]))  # first row reversed, then first column
    devs = {
        "hermitian": float(np.max(np.abs(op - adjoint))),
        "skew_hermitian": float(np.max(np.abs(op + adjoint))),
        "toeplitz": float(np.max(np.abs(op - first[diff + dim - 1]))) if dim > 1 else 0.0,
        "circulant": float(np.max(np.abs(op - op[:, 0][diff % dim]))) if dim > 1 else 0.0,
    }
    return {"dim": dim, "tolerance": tol,
            **{name: {"holds": bool(dev <= tol), "max_deviation": dev} for name, dev in devs.items()}}


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
    """Half-spectrum phase probabilities of the support states: the integer DFT sums, from this
    function's own gather of the integer DFT table at the points, scaled by -2 / sqrt(dim),
    shifted by sqrt(dim) at m = 0, squared and divided by dim in seven passes."""
    dim = 1 << d
    cos, msin = _support_tables(d)[:2]
    index = np.multiply.outer(np.asarray(points, dtype=np.int64), np.arange(dim // 2 + 1)) % dim
    re, im = t @ cos[index], t @ msin[index]
    scale = -np.ldexp(2.0 / np.sqrt(dim), -_support_scale(d))
    re *= scale
    im *= scale
    re[:, 0] += np.sqrt(dim)
    re *= re
    im *= im
    re += im
    re /= dim
    return re


def sorted_half_comm(d: int, points, t: np.ndarray) -> np.ndarray:
    """``support_profile``'s half_comm from each row's own K: the row's points sorted to
    the front, the cotangent table gathered at their differences, and the terms
    (2 / dim) Im w_l, then (4 / dim) k Im P_kl for k in K, summed by ``np.cumsum``
    over l, then k, ascending in K (the kernel of results version 6)."""
    dim = 1 << d
    t = np.asarray(t, dtype=np.float64)
    count = len(t)
    width_k = int(t.sum(axis=1).max(initial=0))
    # Each row's K in ascending order, padded with points outside K (present 0).
    order = np.argsort(-t, axis=1, kind="stable")[:, :width_k]
    present = np.take_along_axis(t, order, axis=1)
    k = np.asarray(points, dtype=np.int64)[order]
    # terms[r, l] = (2/dim) Im w_l, then (4/dim) k Im P_kl for each k, zero off K.
    linear = ((2.0 / dim) * np.array([_im_w(d, p) for p in points]))[order]
    im_p = (-np.pi / dim) * _support_tables(d)[2][(k[:, None, :] - k[:, :, None]) & (dim - 1)]
    pairs = ((4.0 / dim) * k)[:, None, :] * im_p
    terms = np.concatenate(
        ((present * linear)[:, :, None], (present[:, :, None] * present[:, None, :]) * pairs), axis=2
    ).reshape(count, width_k * (width_k + 1))
    return np.abs(np.cumsum(terms, axis=1)[:, -1]) if width_k else np.zeros(count)


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


def columns(records: Iterable[SweepRecord]) -> SweepResults:
    """``records`` as one columnar ``SweepResults``, NaN where a metric is None.  Its ``d`` is
    the records' one d (0 for no records); records of more than one d are a ValueError."""
    records = list(records)
    ds = {r.d for r in records}
    if len(ds) > 1:
        raise ValueError(f"records of more than one d: {sorted(ds)}")
    values = np.array(
        [[np.nan if r.metrics[m] is None else r.metrics[m] for m in METRIC_NAMES] for r in records],
        dtype=np.float64,
    ).reshape(len(records), len(METRIC_NAMES))
    return SweepResults(ds.pop() if ds else 0, [r.edges for r in records], values)


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


def lcm_scaled_m_hankel_determinant(big_n: int, n: int) -> Fraction:
    """det [m_{i+j}] for m_j = (N)_j / (j + 1), 0 <= i, j < n, N >= 2n - 2, by condensation
    of the minors G(s, k) = det [L (N - s - i)_j / (s + i + j + 1)] with L = lcm(1 .. 2n - 1).

    The Desnanot-Jacobi recurrence G(s, k + 1) G(s + 2, k - 1) = (N - s - k) G(s, k) G(s + 2, k)
    - (N - s) G(s + 1, k)**2 runs from G(s, 0) = 1 and G(s, 1) = L / (s + 1), and
    det m = G(0, n) prod_{i<n} (N)_i / L**n.  A zero divisor falls back to ``determinant``
    on the Hankel of ``math.perm`` moments.
    """
    top = 2 * n - 2
    scale = math.lcm(*range(1, top + 2))
    prev = [1] * (top + 3)
    cur = [scale // (s + 1) for s in range(top + 1)]
    for k in range(1, n):
        nxt = []
        for s in range(top + 1 - 2 * k):
            divisor = prev[s + 2]
            if divisor == 0:
                m = [Fraction(math.perm(big_n, j), j + 1) for j in range(top + 1)]
                return determinant([m[i : i + n] for i in range(n)])
            nxt.append(((big_n - s - k) * cur[s] * cur[s + 2] - (big_n - s) * cur[s + 1] ** 2) // divisor)
        prev, cur = cur, nxt
    rows = math.prod(math.perm(big_n, i) for i in range(n))
    return Fraction(cur[0] * rows, scale**n)
