"""Regenerate the stored references the benchmark's correctness gates compare against.

Run from the repository root on a commit whose results are trusted:

    python3 bench/make_reference.py

It writes ``bench/reference/``: the ``dminus1`` sweep records for each
benchmarked dimension as gzipped CSV, their summaries (gzipped JSON), and the exact
Agarwal-Tara witnesses as fraction strings.  Regenerate only when a change
is meant to alter these results, and say so in the change.
"""

from __future__ import annotations

import gzip
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import workloads  # noqa: E402
from hyperstate import moments, sweep  # noqa: E402

SWEEP_DIMS = sorted({w.d for w in (make() for make in workloads.WORKLOADS.values())
                     if isinstance(w, workloads.SweepWorkload)})
WITNESS_PAIRS = sorted({p for w in (make() for make in workloads.WORKLOADS.values())
                        if isinstance(w, workloads.WitnessWorkload) for p in w.pairs})


def main() -> None:
    out = workloads.REFERENCE_DIR
    out.mkdir(exist_ok=True)
    summaries = {}
    for d in SWEEP_DIMS:
        records, summary = sweep.sweep_family(sweep.dminus1_family(d))
        text = sweep.render_results(records, "csv").encode()
        (out / f"dminus1-d{d}.csv.gz").write_bytes(gzip.compress(text, mtime=0))
        summaries[str(d)] = summary.to_dict()
    text = json.dumps(summaries).encode()
    (out / "summaries.json.gz").write_bytes(gzip.compress(text, mtime=0))
    witness = {}
    for d, n in WITNESS_PAIRS:
        result = moments.agarwal_tara(d, n)
        witness[f"{d},{n}"] = {
            "det_m": str(result.det_m), "det_mu": str(result.det_mu), "a_n": str(result.a_n)}
    (out / "witness.json").write_text(json.dumps(witness, indent=1) + "\n")


if __name__ == "__main__":
    main()
