"""The README's Library example runs against the package as it is."""

import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import hyperstate

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_block() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_every_public_name_imports():
    namespace: dict = {}
    exec("from hyperstate import *", namespace)
    missing = [name for name in hyperstate.__all__ if name not in namespace]
    assert not missing


def test_library_example_runs_and_its_comments_hold():
    namespace: dict = {}
    exec(compile(_library_block(), str(README), "exec"), namespace)
    assert np.flatnonzero(namespace["psi"].real < 0).tolist() == [7, 9, 13, 15]
    report = namespace["report"]
    assert report.var_p == pytest.approx(3.4312, abs=1e-4)
    assert report.half_comm == pytest.approx(1.8624, abs=1e-4)
    assert report.s_p > 0
    assert namespace["phase"].basis == "phase"
    assert namespace["witness"].det_m == Fraction(-245, 4)
    assert namespace["witness"].a_n == Fraction(-5, 14)
    records, summary = namespace["records"], namespace["summary"]
    assert summary.family == "dminus1(d=5)" and summary.count == len(records)
