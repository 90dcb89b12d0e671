"""Batch command-line front end.

Subcommands: state, circuit, operators, squeeze, sweep, agarwal-tara,
coherence, reproduce.  Output defaults to human-readable tables; --format
csv|json switches to machine forms, --out redirects to a file.  CSV comes
from ``sweep.csv_text`` and every file (--out, --plot-dir series) from
``sweep.write_text``: a regular file is replaced whole, never left partly
written; a FIFO, device or symbolic link is written through.  Exit codes:
0 success, 1 user error, 2 computation guard violation (and a failed
reproduction).  Errors print one line to stderr; so does each check of
``reproduce --timings``, with its wall seconds, before a total line.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import __version__, reproduce as reproduce_mod
from .coherence import BASES, coherence_report
from .errors import GuardError, dimension, require_bytes, require_cubic_work
from .hypergraph import Hypergraph, parse_edges
from .moments import agarwal_tara, moment_sequences, presentable
from .operators import (
    gershgorin_bound,
    number_phase_commutator_dense,
    phase_operator_agreement,
    phase_operator_dense,
    spectral_bound_check,
    verify_structure,
)
from .reference_tables import witness_discrepancies
from .squeezing import squeeze_report
from .state import CircuitDescription, emit_circuit, hypergraph_state
from .sweep import (
    METRIC_NAMES,
    Family,
    SweepResults,
    SweepSummary,
    cached_sweep,
    csv_text,
    render_blocks,
    resolve_cache_dir,
    write_results,
    write_text,
)

SQUEEZE_FIELDS = ("d", "edges", "mean_n", "var_n", "mean_p", "var_p", "half_comm", "s_n", "s_p")
COHERENCE_FIELDS = ("d", "edges", "basis", "c_l1", "c_rel_ent")
# Amplitudes (gates) per block of ``state`` (``circuit``) output; the text of
# the whole output is never held.
STATE_BLOCK = 1 << 16


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def integer(text: str) -> int:
    """An optional ``-`` and ASCII digits; ``int`` alone also reads ``+4``, ``1_0`` and other digits."""
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        raise ValueError(text)
    return int(text)


def _build_parser() -> _Parser:
    parser = _Parser(prog="hyperstate", description=__doc__)
    parser.add_argument("--version", action="version", version=f"hyperstate {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p: _Parser) -> None:
        p.add_argument("--format", choices=("table", "csv", "json"), default="table")
        p.add_argument("--out", help="write the payload to this path instead of stdout")

    p_state = sub.add_parser("state", help="amplitudes of a hypergraph state")
    p_state.add_argument("--d", type=integer, required=True)
    p_state.add_argument("--edges", default="", help="edge list, e.g. '0,3;0,2,3;1,2,3'")
    add_output(p_state)

    p_circuit = sub.add_parser("circuit", help="generating circuit of a hypergraph state")
    p_circuit.add_argument("--d", type=integer, required=True)
    p_circuit.add_argument("--edges", default="")
    add_output(p_circuit)

    p_ops = sub.add_parser("operators", help="structural checks of the phase operators")
    p_ops.add_argument("--d", type=integer, required=True)
    p_ops.add_argument("--check-all", action="store_true",
                       help="also run the spectral and FFT agreement checks")
    add_output(p_ops)

    p_squeeze = sub.add_parser("squeeze", help="number/phase squeezing report")
    p_squeeze.add_argument("--d", type=integer, required=True)
    p_squeeze.add_argument("--edges", default="")
    add_output(p_squeeze)

    p_sweep = sub.add_parser("sweep", help="evaluate a hypergraph family exhaustively")
    p_sweep.add_argument("--family", choices=("dminus1", "complete-k", "single-full"),
                         required=True)
    p_sweep.add_argument("--d", type=integer, required=True)
    p_sweep.add_argument("--k", type=integer, help="edge size for complete-k")
    p_sweep.add_argument("--metric", choices=METRIC_NAMES, action="append",
                         help="metric to summarize (repeatable; default all)")
    p_sweep.add_argument("--connected", choices=("auto", "on", "off"), default="auto",
                         help="connectivity filter (auto: on for dminus1)")
    p_sweep.add_argument("--threads", type=integer, default=1)
    p_sweep.add_argument("--cache-dir", help="cache directory (default $HYPERSTATE_CACHE)")
    add_output(p_sweep)

    p_at = sub.add_parser("agarwal-tara", help="moment-determinant nonclassicality witness")
    p_at.add_argument("--d", type=integer, required=True)
    p_at.add_argument("--n", type=integer, required=True)
    p_at.add_argument("--exact", action="store_true", help="also print exact fractions")
    add_output(p_at)

    p_coh = sub.add_parser("coherence", help="l1 and relative-entropy coherence")
    p_coh.add_argument("--d", type=integer, required=True)
    p_coh.add_argument("--edges", default="")
    p_coh.add_argument("--basis", choices=BASES, default="number")
    add_output(p_coh)

    p_rep = sub.add_parser("reproduce", help="recompute and compare every published table")
    p_rep.add_argument("--extended", action="store_true",
                       help="include the d=9..12 sweeps and the remaining table rows")
    p_rep.add_argument("--threads", type=integer, default=1)
    p_rep.add_argument("--plot-dir", help="also write metric-vs-d series files here")
    p_rep.add_argument("--format", choices=("table", "json"), default="table")
    p_rep.add_argument("--out")
    p_rep.add_argument("--timings", action="store_true",
                       help="write each check's wall seconds, then the total, to stderr")

    return parser


def _emit(payload: str | Iterable[str], out: str | None) -> None:
    if out:
        write_text(out, payload)
    else:
        sys.stdout.writelines([payload] if isinstance(payload, str) else payload)


def emit_plot_data(series: Sequence[tuple[float, float]], path: str, name: str = "series") -> None:
    """Write one two-column (x, y) series as plot-ready whitespace text."""
    write_text(path, [f"# {name}\n", *(f"{x:g} {y!r}\n" for x, y in series)])


def _fmt(value: float | str | None, precision: str = ".6g") -> str:
    if value is None:
        return "undefined"
    if isinstance(value, str):  # exact text of a value beyond float range
        return value
    return format(value, precision)


def _aligned(pairs: list[tuple[str, str]]) -> str:
    width = max(len(k) for k, _ in pairs)
    return "\n".join(f"{k:<{width}}  {v}" for k, v in pairs) + "\n"


def _report_text(data: dict, fields: Sequence[str], fmt: str, precision: str) -> str:
    """One report's ``fields`` as compact JSON, a one-row CSV or an aligned table."""
    if fmt == "json":
        return json.dumps({k: data[k] for k in fields}) + "\n"
    if fmt == "csv":
        return csv_text(fields, [[data[k] for k in fields]])
    return _aligned(
        [(k, data[k] if isinstance(data[k], (str, int)) else _fmt(data[k], precision)) for k in fields]
    )


def _hypergraph(args: argparse.Namespace) -> Hypergraph:
    return Hypergraph(args.d, parse_edges(args.edges))


def _state_text(psi: np.ndarray, fmt: str) -> Iterator[str]:
    """``state`` output, one block of STATE_BLOCK amplitudes at a time."""
    width = len(f"|{len(psi) - 1}>")
    yield {"json": "[", "csv": "n,re,im\n"}.get(fmt, "")
    for start in range(0, len(psi), STATE_BLOCK):
        block = enumerate(psi[start : start + STATE_BLOCK].tolist(), start)
        if fmt == "json":
            yield ("" if start == 0 else ", ") + ", ".join(f"[{a.real!r}, {a.imag!r}]" for _, a in block)
        elif fmt == "csv":
            yield "".join(f"{n},{a.real!r},{a.imag!r}\n" for n, a in block)
        else:
            yield "".join(f"{f'|{n}>':<{width}}  {a.real:+.10f}{a.imag:+.10f}j\n" for n, a in block)
    yield "]\n" if fmt == "json" else ""


def _cmd_state(args: argparse.Namespace) -> int:
    _emit(_state_text(hypergraph_state(_hypergraph(args)), args.format), args.out)
    return 0


def _circuit_text(circ: CircuitDescription, fmt: str) -> Iterator[str]:
    """``circuit`` output, one block of STATE_BLOCK gates at a time."""
    yield {"json": f'{{"d": {circ.d}, "gates": [', "csv": "gate,qubits\n"}.get(fmt, "")
    for start in range(0, len(circ.gates), STATE_BLOCK):
        block = circ.gates[start : start + STATE_BLOCK]
        if fmt == "json":
            yield ("" if start == 0 else ", ") + ", ".join(
                f'["{kind}", [{", ".join(map(str, qs))}]]' for kind, qs in block)
        elif fmt == "csv":
            yield "".join(f"{kind},{' '.join(map(str, qs))}\n" for kind, qs in block)
        else:
            yield "".join(f"{kind} {' '.join(map(str, qs))}\n" for kind, qs in block)
    yield "]}\n" if fmt == "json" else ""


def _cmd_circuit(args: argparse.Namespace) -> int:
    _emit(_circuit_text(emit_circuit(_hypergraph(args)), args.format), args.out)
    return 0


def _cmd_operators(args: argparse.Namespace) -> int:
    if args.d < 1:
        raise ValueError(f"need d >= 1, got {args.d}")
    # Both operators beside verify_structure's temporaries, which --check-all's
    # (24 bytes per entry) do not exceed: measured 88 bytes per entry (tracemalloc
    # at d = 8: 72, with --check-all or without).
    require_bytes(f"dense operators at d={args.d}", 112 * dimension(args.d) ** 2)
    dim = 1 << args.d
    if args.check_all:
        require_cubic_work("eigensolver", dim)  # before any dense matrix is built
    phase_op = phase_operator_dense(dim)
    comm = number_phase_commutator_dense(dim)
    report: dict = {
        "dim": dim,
        "gershgorin_bound": gershgorin_bound(dim),
        "phase_operator": verify_structure(phase_op).to_dict(),
        "number_phase_commutator": verify_structure(comm).to_dict(),
    }
    if args.check_all:
        rng = np.random.default_rng(7)
        state = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        state /= np.linalg.norm(state)
        bound = spectral_bound_check(dim, comm)
        spectral_error, fft_error = phase_operator_agreement(phase_op, [state])
        report["check_all"] = {
            "spectral_sum_max_error": spectral_error,
            "fft_vs_dense_max_error": fft_error,
            "spectral_radius": bound.spectral_radius,
            "row_sum_bound": bound.row_sum_bound,
            "eigenvalues_within_row_sum": bound.within_row_sum,
            "eigenvalues_within_stated_formula": bound.spectral_radius <= bound.stated_bound,
            "commutator_diagonal_max": float(np.max(np.abs(np.diag(comm)))),
        }
    if args.format == "json":
        payload = json.dumps(report, indent=2) + "\n"
    elif args.format == "csv":
        payload = csv_text(("key", "value"), _flatten("", report))
    else:
        payload = _aligned([(k, str(v)) for k, v in _flatten("", report)])
    _emit(payload, args.out)
    return 0


def _flatten(prefix: str, tree: dict) -> list[tuple[str, object]]:
    pairs: list[tuple[str, object]] = []
    for key, value in tree.items():
        name = f"{prefix}.{key}" if prefix else key
        if isinstance(value, dict):
            pairs.extend(_flatten(name, value))
        else:
            pairs.append((name, value))
    return pairs


def _cmd_squeeze(args: argparse.Namespace) -> int:
    data = squeeze_report(_hypergraph(args)).to_dict()
    _emit(_report_text(data, SQUEEZE_FIELDS, args.format, ".6g"), args.out)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.family == "complete-k" and args.k is None:
        raise _UsageError("--family complete-k requires --k")
    family = Family(args.family, args.d, args.k)
    connectivity = {"auto": None, "on": True, "off": False}[args.connected]
    records, summary = cached_sweep(
        family,
        metrics=args.metric,
        connectivity_filter=connectivity,
        threads=args.threads,
        cache_dir=resolve_cache_dir(args.cache_dir),
    )
    if args.format in ("csv", "json") and args.out:
        write_results(records, args.out, args.format)
        sys.stdout.write(_summary_text(summary))
        return 0
    if args.format == "json":
        payload: Iterable[str] = _sweep_json(records, summary)
    elif args.format == "csv":
        payload = render_blocks(records, "csv")
    else:
        lines = [f"{'d':>2} {'edges':<40} " + " ".join(f"{m:>12}" for m in METRIC_NAMES)]
        for record in records:
            lines.append(
                f"{record.d:>2} {record.edges:<40} "
                + " ".join(f"{_fmt(record.metrics[m]):>12}" for m in METRIC_NAMES)
            )
        payload = "\n".join(lines) + "\n\n" + _summary_text(summary)
    _emit(payload, args.out)
    return 0


def _sweep_json(records: SweepResults, summary: SweepSummary) -> Iterator[str]:
    """``{"records": [...], "summary": {...}}`` as ``json.dumps(..., indent=2)`` writes it."""
    head, tail = json.dumps({"records": None, "summary": summary.to_dict()}, indent=2).split("null", 1)
    yield head  # the records come first, so the first null is theirs
    yield from render_blocks(records, "json", depth=1)
    yield tail + "\n"


def _summary_text(summary) -> str:
    lines = [f"family {summary.family}: {summary.count} configurations"]
    for name, metric in summary.metrics.items():
        lines.append(
            f"  {name}: min={_fmt(metric.min_value)} at {list(metric.argmin)}"
            f" | max={_fmt(metric.max_value)} at {list(metric.argmax)}"
        )
    return "\n".join(lines) + "\n"


def _cmd_agarwal_tara(args: argparse.Namespace) -> int:
    result = agarwal_tara(args.d, args.n)
    # The published row at (d, n), if there is one, reads this same witness.
    discrepancies = witness_discrepancies(d=args.d, n=args.n, witness=lambda d, n: result)
    data = result.to_dict()
    data["paper_discrepancies"] = [disc.describe() for disc in discrepancies]
    if args.exact:
        data["det_m_exact"] = str(result.det_m)
        data["det_mu_exact"] = str(result.det_mu)
        data["a_n_exact"] = str(result.a_n)
    if args.format == "json":
        payload = json.dumps(data, indent=2) + "\n"
    elif args.format == "csv":
        fields = ("d", "n", "det_m", "det_mu", "a_n")
        payload = csv_text(fields, [[data[k] for k in fields]])
    else:
        pairs = [("d", str(result.d)), ("n", str(result.n))]
        for key in ("det_m", "det_mu", "a_n"):
            text = _fmt(data[key], ".10g")
            if args.exact:
                text += f"  (= {data[key + '_exact']})"
            pairs.append((key, text))
        m_seq, mu_seq = moment_sequences(args.d, 2 * args.n - 2)
        pairs.append(("moments", ", ".join(
            f"m_{k}={_fmt(presentable(m))}" for k, m in enumerate(m_seq[1:], start=1)
        )))
        pairs.append(("number moments", ", ".join(
            f"mu_{k}={_fmt(presentable(mu))}" for k, mu in enumerate(mu_seq[1:], start=1)
        )))
        payload = _aligned(pairs)
        for disc in discrepancies:
            payload += f"note: {disc.describe()}\n"
    _emit(payload, args.out)
    return 0


def _cmd_coherence(args: argparse.Namespace) -> int:
    data = coherence_report(_hypergraph(args), args.basis).to_dict()
    _emit(_report_text(data, COHERENCE_FIELDS, args.format, ".10g"), args.out)
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    runner = reproduce_mod.Reproducer(extended=args.extended, threads=args.threads)
    start = time.perf_counter()
    results = runner.run()
    if args.timings:
        lines = [*runner.timings.items(), ("total", time.perf_counter() - start)]
        sys.stderr.writelines(f"{key} {seconds:.6f}\n" for key, seconds in lines)
    if args.plot_dir:
        plot_dir = Path(args.plot_dir)
        plot_dir.mkdir(parents=True, exist_ok=True)
        for name, series in runner.plot_series().items():
            emit_plot_data(series, str(plot_dir / f"{name}.dat"), name=name)
    if args.format == "json":
        payload = json.dumps([r.to_dict() for r in results], indent=2) + "\n"
    else:
        payload = reproduce_mod.render_text(results)
    _emit(payload, args.out)
    return 0 if all(r.status == "PASS" for r in results) else 2


_COMMANDS = {
    "state": _cmd_state,
    "circuit": _cmd_circuit,
    "operators": _cmd_operators,
    "squeeze": _cmd_squeeze,
    "sweep": _cmd_sweep,
    "agarwal-tara": _cmd_agarwal_tara,
    "coherence": _cmd_coherence,
    "reproduce": _cmd_reproduce,
}


def run(argv: Sequence[str] | None = None) -> int:
    """Parse argv and execute one subcommand, returning the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return 1
    except GuardError as exc:
        print(f"error: guard: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv: Sequence[str] | None = None) -> int:
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
