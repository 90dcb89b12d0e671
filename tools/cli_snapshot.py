"""Record what a fixed list of small CLI invocations print and write.

    python tools/cli_snapshot.py OUTDIR

Each case runs ``python -m hyperstate.cli`` from this checkout's ``src`` in a
fresh interpreter, with BLAS and OpenMP at 1 thread and no cache directory
from the environment.  Its working directory is ``OUTDIR/<case>``, so its
``--out``, ``--plot-dir`` and ``--cache-dir`` files land there beside the
``stdout``, ``stderr`` and ``exit`` files this script writes.  A case named
in ``RUN_TWICE`` runs once unrecorded first, so what is recorded is its
second run (a sweep served from the cache the first run wrote).  A case whose
``--out`` is a FIFO reads the FIFO while the command runs and records the
bytes it received in ``fifo-received`` and what the path is afterwards in
``fifo-kind``; the FIFO itself is then removed.

Snapshots of two checkouts are byte-identical when ``diff -r`` of their
OUTDIRs prints nothing.  The pytest suite does not run this script.
"""

from __future__ import annotations

import os
import stat
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
EXAMPLE = "0,3;0,2,3;1,2,3"
FORMATS = ("table", "csv", "json")

CASES: dict[str, tuple[str, ...]] = {}
for fmt in FORMATS:
    CASES[f"state-{fmt}"] = ("state", "--d", "4", "--edges", EXAMPLE, "--format", fmt)
    CASES[f"circuit-{fmt}"] = ("circuit", "--d", "4", "--edges", EXAMPLE, "--format", fmt)
    CASES[f"operators-{fmt}"] = ("operators", "--d", "3", "--format", fmt)
    CASES[f"operators-check-all-{fmt}"] = ("operators", "--d", "3", "--check-all", "--format", fmt)
    CASES[f"squeeze-{fmt}"] = ("squeeze", "--d", "4", "--edges", EXAMPLE, "--format", fmt)
    CASES[f"sweep-{fmt}"] = ("sweep", "--family", "dminus1", "--d", "4", "--format", fmt)
    CASES[f"sweep-complete-k-{fmt}"] = ("sweep", "--family", "complete-k", "--d", "5", "--k", "3",
                                        "--metric", "s_p", "--format", fmt)
    CASES[f"agarwal-tara-{fmt}"] = ("agarwal-tara", "--d", "3", "--n", "3", "--exact", "--format", fmt)
    CASES[f"coherence-number-{fmt}"] = ("coherence", "--d", "4", "--edges", EXAMPLE, "--format", fmt)
    CASES[f"coherence-phase-{fmt}"] = ("coherence", "--d", "4", "--edges", EXAMPLE,
                                       "--basis", "phase", "--format", fmt)
    CASES[f"state-out-{fmt}"] = ("state", "--d", "3", "--edges", "0,1,2", "--format", fmt,
                                 "--out", f"state.{fmt}")
    CASES[f"sweep-out-{fmt}"] = ("sweep", "--family", "dminus1", "--d", "4", "--format", fmt,
                                 "--out", f"sweep.{fmt}")
    # Rendered from columns read back from the cache entry.
    CASES[f"sweep-cache-hit-{fmt}"] = ("sweep", "--family", "dminus1", "--d", "6", "--cache-dir", "cache",
                                       "--format", fmt)
CASES.update({
    "squeeze-out-json": ("squeeze", "--d", "4", "--format", "json", "--out", "squeeze.json"),
    "sweep-cache": ("sweep", "--family", "dminus1", "--d", "4", "--cache-dir", "cache"),
    "agarwal-tara-large": ("agarwal-tara", "--d", "8", "--n", "12"),
    "reproduce-table": ("reproduce",),
    "reproduce-json-out-plots": ("reproduce", "--format", "json", "--out", "report.json",
                                 "--plot-dir", "plots"),
    "reproduce-extended-plots": ("reproduce", "--extended", "--threads", "2", "--plot-dir", "plots"),
    "agarwal-tara-a4-misprints-table": ("agarwal-tara", "--d", "5", "--n", "4", "--exact"),
    "agarwal-tara-a4-misprints-json": ("agarwal-tara", "--d", "5", "--n", "4", "--exact",
                                       "--format", "json"),
    "state-out-fifo": ("state", "--d", "3", "--edges", "0,1,2", "--format", "csv", "--out", "fifo"),
    "sweep-out-fifo": ("sweep", "--family", "dminus1", "--d", "4", "--format", "csv", "--out", "fifo"),
    "state-out-missing-dir": ("state", "--d", "3", "--out", "missing/state.txt"),
    "sweep-out-missing-dir": ("sweep", "--family", "dminus1", "--d", "4", "--format", "csv",
                              "--out", "missing/sweep.csv"),
    "guard-refusal": ("state", "--d", "25"),
    "usage-error": ("sweep", "--family", "complete-k", "--d", "4"),
    "usage-error-argparse": ("squeeze", "--edges", "0,1"),
    # Outputs the support route of the spectral profile computes.
    "sweep-d3-json": ("sweep", "--family", "dminus1", "--d", "3", "--format", "json"),
    "squeeze-single-full-d6-json": ("squeeze", "--d", "6", "--edges", "0,1,2,3,4,5", "--format", "json"),
    "coherence-phase-single-full-d6-json": ("coherence", "--d", "6", "--edges", "0,1,2,3,4,5",
                                            "--basis", "phase", "--format", "json"),
    # |theta_{dim/2}> at odd d on the rfft route: exact mean_p = pi and var_p = 0.
    "squeeze-theta-half-d5-json": ("squeeze", "--d", "5", "--edges", "4", "--format", "json"),
    # Sweep output of 500+ records on stdout.
    "sweep-d9-json": ("sweep", "--family", "dminus1", "--d", "9", "--format", "json"),
    "sweep-d9-csv": ("sweep", "--family", "dminus1", "--d", "9", "--format", "csv"),
})
RUN_TWICE = {f"sweep-cache-hit-{fmt}" for fmt in FORMATS}


def _environment() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("HYPERSTATE_CACHE", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def _drain(fd: int, received: bytearray) -> None:
    while True:
        try:
            chunk = os.read(fd, 1 << 16)
        except BlockingIOError:
            return
        if not chunk:
            return
        received.extend(chunk)


def run_case(case_dir: Path, argv: tuple[str, ...], env: dict[str, str], twice: bool = False) -> None:
    case_dir.mkdir(parents=True)
    if twice:
        subprocess.run([sys.executable, "-m", "hyperstate.cli", *argv], cwd=case_dir, env=env,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=False)
    fifo = case_dir / "fifo" if "fifo" in argv else None
    if fifo is not None:
        os.mkfifo(fifo)
        # A reader and a spare writer are open before the command starts, so
        # its open() does not block and reads see no end of file until both close.
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        spare_writer = os.open(fifo, os.O_WRONLY)
        received = bytearray()
    with open(case_dir / "stdout", "wb") as out, open(case_dir / "stderr", "wb") as err:
        proc = subprocess.Popen([sys.executable, "-m", "hyperstate.cli", *argv],
                                cwd=case_dir, env=env, stdout=out, stderr=err)
        while proc.poll() is None:
            if fifo is not None:
                _drain(reader, received)
            time.sleep(0.01)
    (case_dir / "exit").write_text(f"{proc.returncode}\n")
    if fifo is not None:
        _drain(reader, received)
        os.close(spare_writer)
        os.close(reader)
        (case_dir / "fifo-received").write_bytes(bytes(received))
        kind = "fifo" if stat.S_ISFIFO(os.lstat(fifo).st_mode) else "regular file"
        (case_dir / "fifo-kind").write_text(kind + "\n")
        if kind == "fifo":
            fifo.unlink()


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/cli_snapshot.py OUTDIR", file=sys.stderr)
        return 1
    outdir = Path(argv[0])
    if outdir.exists() and any(outdir.iterdir()):
        print(f"error: {outdir} is not empty", file=sys.stderr)
        return 1
    env = _environment()
    for name, case_argv in CASES.items():
        run_case(outdir / name, case_argv, env, twice=name in RUN_TWICE)
    print(f"{len(CASES)} cases written to {outdir}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
