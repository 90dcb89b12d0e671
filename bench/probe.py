"""One set-up measurement in a fresh interpreter; prints {"seconds": ...}.

    python3 bench/probe.py setup <workload>   import hyperstate, then the workload's first unit
    python3 bench/probe.py cli <workload>     import hyperstate.cli alone

``run.py`` starts this several times per run with the BLAS thread count
already pinned in the environment, and reports the median.
"""

from __future__ import annotations

import csv  # noqa: F401  (the benchmark's own imports are kept out of the timing)
import gzip  # noqa: F401
import json
import random  # noqa: F401
import sys
import time
from fractions import Fraction  # noqa: F401
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]


def main(mode: str, workload: str) -> None:
    start = time.perf_counter()
    if mode == "setup":
        import workloads

        workloads.WORKLOADS[workload]().first_unit()
    elif mode == "cli":
        import hyperstate.cli  # noqa: F401
    else:
        raise SystemExit(f"unknown probe mode {mode!r}")
    print(json.dumps({"seconds": time.perf_counter() - start}))


if __name__ == "__main__":
    main(*sys.argv[1:3])
