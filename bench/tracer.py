"""In-memory span tracing of hyperstate's layers, installed from outside the package.

``Tracer.install`` replaces each public function of the layer modules, in
every hyperstate module namespace that binds it, with a wrapper that records
a span: (id, name, start, end, parent id, pass id, info).  Calls between
modules and inside a module both resolve through those namespaces, so they
are all seen.  NumPy's FFT and eigensolver entry points are traced through a
proxy put in place of each module's ``np``.  ``uninstall`` restores
everything.

``layer_metrics`` turns the spans of one pass into the per-layer metrics the
benchmark reports; ``layers.json`` says what each one measures.  Times are
inclusive wall seconds summed over the calls of one pass (and across
threads), except ``squeezing.report_s``, which is self time: the span's
duration minus the part of it that child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import itertools
import json
import math
import statistics
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy

from workloads import REPRODUCE_STATUS

LAYERS = ("hypergraph", "state", "operators", "squeezing", "coherence", "moments", "sweep")
# Private functions that carry a layer's work and have no public entry point.
PRIVATE_TRACED = {"sweep": ("_summarize",)}
# Public leaves called ~10^4 times per witness; their time shows inside
# m_moment, and a span per call would cost more memory than it tells.
NOT_TRACED = {"moments": ("w_factor",)}
NUMPY_TRACED = {"fft": ("fft", "ifft", "rfft", "irfft"), "linalg": ("eig", "eigh", "eigvals", "eigvalsh")}


def _result_info(fn_name: str):
    """What a span keeps of a call, for the metrics that need more than timing."""
    if fn_name == "is_connected":
        return lambda args, kwargs, result: bool(result)
    if fn_name in ("number_phase_commutator_dense", "phase_operator_dense"):
        return lambda args, kwargs, result: int(result.nbytes)
    if fn_name == "sweep_family":
        return lambda args, kwargs, result: kwargs.get("threads", args[3] if len(args) > 3 else 1)
    if fn_name == "render_results":
        return lambda args, kwargs, result: kwargs.get("fmt", args[1] if len(args) > 1 else None)
    if fn_name.startswith("check_"):
        return lambda args, kwargs, result: result.key
    return None


class _Proxy:
    """Attribute proxy over a module that substitutes a few traced callables."""

    def __init__(self, target, replaced: dict):
        self._target = target
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        value = getattr(self._target, name)
        setattr(self, name, value)
        return value


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.pass_id: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack
        self._patches: list[tuple[object, str, object]] = []

    # --- recording -------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int | None:
        # A worker thread's first span belongs to the call that is blocked on
        # the pool in the main thread (sweep_family's thread pool).
        if stack:
            return stack[-1]
        return self._main_stack[-1] if self._main_stack else None

    def wrap(self, fn, name: str, info=None):
        spans, ids, clock = self.spans, self._ids, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = self._parent(stack)
            sid = next(ids)
            stack.append(sid)
            start = clock()
            result = extra = None
            try:
                result = fn(*args, **kwargs)
                if info is not None:
                    extra = info(args, kwargs, result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent, self.pass_id, extra))

        return traced

    def wrap_generator(self, fn, name: str):
        """Each ``next`` on the generator is one span; the one that ends it says "end"."""
        spans, ids, clock = self.spans, self._ids, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                stack = self._stack()
                parent = self._parent(stack)
                sid = next(ids)
                stack.append(sid)
                start = clock()
                extra = None
                try:
                    item = next(inner)
                except StopIteration:
                    extra = "end"
                    return
                finally:
                    end = clock()
                    stack.pop()
                    spans.append((sid, name, start, end, parent, self.pass_id, extra))
                yield item

        return traced

    # --- installation ----------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        import hyperstate.reproduce as reproduce

        package = [m for n, m in sys.modules.items()
                   if (n == "hyperstate" or n.startswith("hyperstate.")) and m is not None]
        for layer in LAYERS:
            module = sys.modules[f"hyperstate.{layer}"]
            for fn_name, fn in list(vars(module).items()):
                public = not fn_name.startswith("_") or fn_name in PRIVATE_TRACED.get(layer, ())
                wanted = public and fn_name not in NOT_TRACED.get(layer, ())
                if not (wanted and inspect.isfunction(fn) and fn.__module__ == module.__name__):
                    continue
                span_name = f"{layer}.{fn_name}"
                if inspect.isgeneratorfunction(fn):
                    traced = self.wrap_generator(fn, span_name)
                else:
                    traced = self.wrap(fn, span_name, _result_info(fn_name))
                for owner in package:
                    if vars(owner).get(fn_name) is fn:
                        self._set(owner, fn_name, traced)
        for attr, fn in list(vars(reproduce.Reproducer).items()):
            if attr.startswith("check_"):
                self._set(reproduce.Reproducer, attr,
                          self.wrap(fn, f"reproduce.{attr}", _result_info(attr)))
        proxy = _Proxy(numpy, {
            sub: _Proxy(getattr(numpy, sub), {
                f: self.wrap(getattr(getattr(numpy, sub), f), f"numpy.{sub}.{f}") for f in names
            })
            for sub, names in NUMPY_TRACED.items()
        })
        for owner in package:
            if vars(owner).get("np") is numpy:
                self._set(owner, "np", proxy)
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def write(self, path: Path) -> None:
        """Write every span as one JSON array per line, gzipped."""
        lines = (json.dumps(s, separators=(",", ":")) for s in sorted(self.spans))
        path.write_bytes(gzip.compress(("\n".join(lines) + "\n").encode(), compresslevel=1))


# --- derived metrics -------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples) at the highest of p99.9/99/95/90/75 that
    leaves at least ten samples above it (nearest rank), else the maximum."""
    xs = sorted(values)
    n = len(xs)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= 10:
            return xs[rank - 1], p, n
    return xs[-1], 100.0, n


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def layer_metrics(spans: list[tuple]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from its spans."""
    spans = sorted(spans)
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    by_name = defaultdict(list)
    for s in spans:
        children[s[4]].append(s)
        by_name[s[1]].append(s)

    def total(name: str, keep=lambda s: True) -> float:
        return sum((s[3] - s[2] for s in by_name[name] if keep(s)), 0.0)

    def total_prefix(prefix: str) -> float:
        return sum((total(n) for n in by_name if n.startswith(prefix)), 0.0)

    def within(ancestor: str) -> set[int]:
        # Ids increase with start time and a parent starts before its children.
        inside: set[int] = set()
        for s in spans:
            parent = by_id.get(s[4])
            if parent is not None and (parent[1] == ancestor or parent[0] in inside):
                inside.add(s[0])
        return inside

    records = by_name["sweep.evaluate_record"]
    in_record = within("sweep.evaluate_record")
    in_sweep = within("sweep.sweep_family")

    def per_record(count: float) -> float:
        return count / len(records) if records else 0.0

    record_ms = [(s[3] - s[2]) * 1e3 for s in records]
    capacity = sum(max(1, s[6] or 1) * (s[3] - s[2]) for s in by_name["sweep.sweep_family"])
    busy = sum(s[3] - s[2] for s in records if s[0] in in_sweep)
    enumerated = sum(1 for s in by_name["hypergraph.k_uniform_family"]
                     if s[0] in in_sweep and s[6] is None)
    kept = sum(1 for s in by_name["hypergraph.is_connected"] if s[0] in in_sweep and s[6])
    dense_bytes = sum(
        s[6] for n in ("operators.number_phase_commutator_dense", "operators.phase_operator_dense")
        for s in by_name[n] if s[0] in in_record and s[6])
    report_self = sum(
        ((s[3] - s[2]) - _covered([(c[2], c[3]) for c in children[s[0]]], s[2], s[3])
         for s in by_name["squeezing.squeeze_report"]), 0.0)

    metrics = {
        "operators.commutator_dense_s": total("operators.number_phase_commutator_dense"),
        "operators.dense_bytes_per_record": per_record(dense_bytes),
        "operators.fft_per_record": per_record(sum(
            1 for s in spans if s[1].startswith("numpy.fft.") and s[0] in in_record)),
        "operators.phase_overlaps_s": total("operators.phase_overlaps"),
        "operators.apply_phase_s": total("operators.apply_phase_operator"),
        "operators.eig_s": total_prefix("numpy.linalg."),
        "squeezing.phase_stats_s": total("squeezing.phase_stats"),
        "squeezing.half_commutator_s": total("squeezing.half_commutator"),
        "squeezing.report_s": report_self,
        "coherence.l1_s": total("coherence.l1_coherence"),
        "coherence.rel_entropy_s": total("coherence.rel_entropy_coherence"),
        "state.build_s": total("state.hypergraph_state"),
        "state.builds_per_record": per_record(sum(
            1 for s in by_name["state.hypergraph_state"] if s[0] in in_record)),
        "hypergraph.truth_table_s": total("hypergraph.boolean_function"),
        "hypergraph.enumerate_s": total("hypergraph.k_uniform_family"),
        "hypergraph.kept_ratio": kept / enumerated if enumerated else 0.0,
        "sweep.evaluate_record_s": total("sweep.evaluate_record"),
        "sweep.record_ms_p50": statistics.median(record_ms) if record_ms else 0.0,
        "sweep.record_ms_tail": tail(record_ms)[0] if record_ms else 0.0,
        "sweep.pool_busy_ratio": busy / capacity if capacity else 0.0,
        "sweep.cache_write_s": total("sweep.write_results"),
        "sweep.cache_read_s": total("sweep.read_results"),
        "sweep.render_csv_s": total("sweep.render_results", lambda s: s[6] == "csv"),
        "sweep.summarize_s": total("sweep._summarize"),
        "moments.m_moment_s": total("moments.m_moment"),
        "moments.mu_moment_s": total("moments.mu_moment"),
        "moments.determinant_s": total("moments.determinant"),
        "moments.oracle_s": total("moments.m_moment_oracle") + total("moments.mu_moment_oracle"),
    }
    checks = defaultdict(float)
    for name in by_name:
        if name.startswith("reproduce.check_"):
            for s in by_name[name]:
                checks[s[6]] += s[3] - s[2]
    for key in REPRODUCE_STATUS:
        metrics[f"reproduce.{key}_s"] = checks[key]
    return metrics
