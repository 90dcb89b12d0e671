"""End-to-end tests of the command-line interface."""

import builtins
import errno
import io
import json
import os
import stat
from fractions import Fraction

import numpy as np
import pytest

from hyperstate.cli import main
from hyperstate.sweep import METRIC_NAMES, Family, cached_sweep, render_results

EXAMPLE_EDGES_FLAG = "0,3;0,2,3;1,2,3"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_state_json_matches_published_vector(capsys):
    code, out, _ = run_cli(capsys, "state", "--d", "4", "--edges", EXAMPLE_EDGES_FLAG,
                           "--format", "json")
    assert code == 0
    amplitudes = json.loads(out)
    signs = [round(re * 4) for re, _ in amplitudes]
    assert signs == [1, 1, 1, 1, 1, 1, 1, -1, 1, -1, 1, 1, 1, -1, 1, -1]
    assert all(im == 0.0 for _, im in amplitudes)


def test_state_table_and_csv(capsys):
    code, out, _ = run_cli(capsys, "state", "--d", "2", "--edges", "0,1")
    assert code == 0 and "|3>" in out and "-0.5" in out
    code, out, _ = run_cli(capsys, "state", "--d", "2", "--edges", "0,1", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "n,re,im"
    assert out.splitlines()[4].startswith("3,-0.5")


def test_circuit_text(capsys):
    code, out, _ = run_cli(capsys, "circuit", "--d", "3", "--edges", "0,1,2")
    assert code == 0
    assert out.splitlines() == ["H 0", "H 1", "H 2", "CZ 0 1 2"]


def test_circuit_json(capsys):
    code, out, _ = run_cli(capsys, "circuit", "--d", "2", "--edges", "", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"d": 2, "gates": [["H", [0]], ["H", [1]]]}


def test_squeeze_published_value(capsys):
    code, out, _ = run_cli(capsys, "squeeze", "--d", "4", "--edges", "0,1,2,3",
                           "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["s_p"] == pytest.approx(-0.2238, abs=1e-3)
    assert report["var_n"] == 21.25
    assert list(report) == ["d", "edges", "mean_n", "var_n", "mean_p", "var_p",
                            "half_comm", "s_n", "s_p"]


def test_agarwal_tara_exact(capsys):
    code, out, _ = run_cli(capsys, "agarwal-tara", "--d", "2", "--n", "2", "--exact",
                           "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["a_n_exact"] == "-1/6"
    assert data["a_n"] == pytest.approx(-1 / 6)
    assert data["paper_discrepancies"] == []


def test_agarwal_tara_reports_discrepancies(capsys):
    code, out, _ = run_cli(capsys, "agarwal-tara", "--d", "3", "--n", "4", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert any("mu_5" in note for note in data["paper_discrepancies"])


def test_agarwal_tara_evaluates_its_witness_once(capsys, monkeypatch):
    import hyperstate.cli as cli_mod
    import hyperstate.reference_tables as ref

    calls = []
    real = cli_mod.agarwal_tara

    def counted(d, n):
        calls.append((d, n))
        return real(d, n)

    monkeypatch.setattr(cli_mod, "agarwal_tara", counted)
    monkeypatch.setattr(ref, "agarwal_tara", counted)
    code, out, _ = run_cli(capsys, "agarwal-tara", "--d", "3", "--n", "4", "--format", "json")
    assert code == 0 and any("mu_5" in note for note in json.loads(out)["paper_discrepancies"])
    assert calls == [(3, 4)]


def test_agarwal_tara_insufficient_dimension(capsys):
    code, _, err = run_cli(capsys, "agarwal-tara", "--d", "2", "--n", "3")
    assert code == 1
    assert err.startswith("error:")


WIDE_WITNESS = ("agarwal-tara", "--d", "16", "--n", "32")  # determinants near 10**4186


def _reject_constant(name):
    raise AssertionError(f"non-standard JSON constant {name}")


def test_agarwal_tara_beyond_float_range_json(capsys):
    code, out, _ = run_cli(capsys, *WIDE_WITNESS, "--exact", "--format", "json")
    assert code == 0
    data = json.loads(out, parse_constant=_reject_constant)
    for key in ("det_m", "det_mu"):
        exact = Fraction(data[key + "_exact"])
        exponent = len(str(abs(exact.numerator) // exact.denominator)) - 1
        assert exponent == 4186
        assert data[key].endswith(f"e+{exponent}")
        # 10 significant digits: within half a unit of the last one
        assert abs(Fraction(data[key]) - exact) <= Fraction(10) ** (exponent - 9) / 2
    assert data["a_n"] == pytest.approx(float(Fraction(data["a_n_exact"])))


@pytest.mark.parametrize("fmt", ["csv", "table"])
def test_agarwal_tara_beyond_float_range_text(capsys, fmt):
    code, out, _ = run_cli(capsys, *WIDE_WITNESS, "--format", fmt)
    assert code == 0
    assert "-1.073748079e+4186" in out  # det_m
    assert "2.592234359e+4186" in out  # det_mu


def test_agarwal_tara_rejects_nonpositive_d(capsys):
    code, _, err = run_cli(capsys, "agarwal-tara", "--d", "-1", "--n", "2")
    assert code == 1
    assert err == "error: need d >= 1, got -1\n"


def test_coherence_number_basis_names_its_float_limit(capsys):
    code, out, _ = run_cli(capsys, "coherence", "--d", "1023", "--format", "json")
    assert code == 0 and json.loads(out)["c_l1"] == 2.0**1023
    code, out, err = run_cli(capsys, "coherence", "--d", "1024")
    assert (code, out) == (1, "")
    assert err == "error: number-basis l1 coherence 2**d - 1 needs d <= 1023, got d=1024\n"


def test_coherence_json(capsys):
    code, out, _ = run_cli(capsys, "coherence", "--d", "4", "--edges", EXAMPLE_EDGES_FLAG,
                           "--basis", "number", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["c_l1"] == 15.0
    assert data["basis"] == "number"


def test_operators_check_all(capsys):
    code, out, _ = run_cli(capsys, "operators", "--d", "3", "--check-all", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["phase_operator"]["hermitian"]["holds"]
    assert report["phase_operator"]["circulant"]["holds"]
    assert report["number_phase_commutator"]["skew_hermitian"]["holds"]
    assert report["number_phase_commutator"]["toeplitz"]["holds"]
    assert report["check_all"]["fft_vs_dense_max_error"] < 1e-10
    assert report["check_all"]["eigenvalues_within_row_sum"] is True
    assert report["check_all"]["eigenvalues_within_stated_formula"] is False


@pytest.mark.parametrize("d, check_all, exit_code, builds", [
    ("8", False, 0, [256]),
    ("8", True, 0, [256]),
    ("9", True, 2, []),  # the eigensolver guard refuses before any dense build
])
def test_operators_builds_the_commutator_once(capsys, monkeypatch, d, check_all, exit_code, builds):
    import hyperstate.cli as cli_mod
    import hyperstate.operators as operators

    built = []
    real = operators.number_phase_commutator_dense

    def counted(dim):
        built.append(dim)
        return real(dim)

    monkeypatch.setattr(cli_mod, "number_phase_commutator_dense", counted)
    monkeypatch.setattr(operators, "number_phase_commutator_dense", counted)
    argv = ("operators", "--d", d) + (("--check-all",) if check_all else ())
    code, _, _ = run_cli(capsys, *argv)
    assert code == exit_code
    assert built == builds


def test_sweep_to_file(capsys, tmp_path):
    out_path = tmp_path / "sweep.csv"
    code, out, _ = run_cli(capsys, "sweep", "--family", "dminus1", "--d", "4",
                           "--format", "csv", "--out", str(out_path))
    assert code == 0
    assert out_path.exists()
    header = out_path.read_text().splitlines()[0]
    assert header.startswith("d,edges,s_p,")
    assert "family dminus1(d=4)" in out


def test_sweep_json_stdout(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--family", "complete-k", "--d", "5", "--k", "4",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["count"] == 1
    assert payload["records"][0]["s_p"] == pytest.approx(-0.401, abs=1e-3)


@pytest.mark.parametrize("metrics", [None, ["s_n", "c_l1_phase"]])
def test_sweep_json_stdout_matches_records_then_summary_text(capsys, tmp_path, metrics):
    """Byte-identical to the earlier render, re-parse and re-dump of the records."""
    flags = [arg for name in metrics or () for arg in ("--metric", name)]
    code, out, _ = run_cli(capsys, "sweep", "--family", "dminus1", "--d", "5", "--format", "json",
                           "--cache-dir", str(tmp_path), *flags)
    assert code == 0
    records, summary = cached_sweep(Family("dminus1", 5), metrics=metrics, cache_dir=tmp_path)
    expected = {"records": json.loads(render_results(records, "json")), "summary": summary.to_dict()}
    assert out == json.dumps(expected, indent=2) + "\n"


def test_sweep_out_in_missing_directory_names_the_target(capsys, tmp_path):
    target = tmp_path / "missing" / "x.csv"
    code, out, err = run_cli(capsys, "sweep", "--family", "dminus1", "--d", "4", "--format", "csv",
                             "--out", str(target), "--cache-dir", str(tmp_path / "cache"))
    assert code == 1 and out == ""
    assert err == f"error: [Errno 2] No such file or directory: {str(target)!r}\n"


def test_sweep_requires_k_for_complete(capsys):
    code, _, err = run_cli(capsys, "sweep", "--family", "complete-k", "--d", "5")
    assert code == 1 and "requires --k" in err


@pytest.mark.parametrize("argv", [
    ("dminus1", "--d", "1"),
    ("dminus1", "--d", "0"),
    ("dminus1", "--d", "-3"),
    ("complete-k", "--d", "8", "--k", "0"),
    ("complete-k", "--d", "8", "--k", "9"),
    ("single-full", "--d", "0"),
])
def test_sweep_rejects_family_out_of_range(capsys, argv):
    code, out, err = run_cli(capsys, "sweep", "--family", *argv)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {argv[0]} family needs") and err.count("\n") == 1
    if argv[0] != "complete-k":
        assert "k=" not in err


@pytest.mark.parametrize("family", ["dminus1", "single-full"])
def test_sweep_rejects_a_k_its_family_does_not_use(capsys, family):
    code, out, err = run_cli(capsys, "sweep", "--family", family, "--d", "4", "--k", "2")
    assert (code, out, err) == (1, "", f"error: {family} family needs no k, got k=2\n")


@pytest.mark.parametrize("d", ["17", "30"])
def test_sweep_beyond_work_budget_is_guarded(capsys, d):
    code, out, err = run_cli(capsys, "sweep", "--family", "dminus1", "--d", d)
    assert code == 2 and out == ""
    assert err.startswith("error: guard:") and "work budget" in err and err.count("\n") == 1


def test_sweep_cache_dir(capsys, tmp_path):
    for _ in range(2):
        code, out, _ = run_cli(capsys, "sweep", "--family", "dminus1", "--d", "4",
                               "--cache-dir", str(tmp_path))
        assert code == 0
    assert len(list(tmp_path.glob("*.npy"))) == 1


def test_sweep_cache_env_var(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("HYPERSTATE_CACHE", str(tmp_path))
    code, _, _ = run_cli(capsys, "sweep", "--family", "dminus1", "--d", "4")
    assert code == 0
    assert len(list(tmp_path.glob("*.npy"))) == 1


def test_unknown_flag_is_user_error(capsys):
    code, _, err = run_cli(capsys, "state", "--d", "4", "--bogus")
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1


def test_unknown_command_is_user_error(capsys):
    code, _, err = run_cli(capsys, "transmogrify")
    assert code == 1


def test_missing_required_flag(capsys):
    code, _, err = run_cli(capsys, "state")
    assert code == 1


def test_malformed_edges_is_user_error(capsys):
    code, _, err = run_cli(capsys, "state", "--d", "4", "--edges", "0,,1")
    assert code == 1
    assert err.startswith("error:")


def test_guard_violation_exit_code(capsys):
    code, _, err = run_cli(capsys, "state", "--d", "30")
    assert code == 2
    assert err.startswith("error: guard:")


def test_squeeze_edgeless_d12_has_undefined_number_squeezing(capsys):
    code, out, _ = run_cli(capsys, "squeeze", "--d", "12", "--edges", "")
    assert code == 0
    fields = {line.split()[0]: line.split()[1:] for line in out.splitlines()}
    assert fields["half_comm"] == ["0"]
    assert fields["s_n"] == ["undefined"]
    assert fields["s_p"] == ["-1"]


def test_squeeze_odd_d_phase_eigenstate_prints_exact_moments(capsys):
    # One edge on the last vertex gives |theta_{dim/2}>; at d = 5 it takes the rfft route.
    code, out, _ = run_cli(capsys, "squeeze", "--d", "5", "--edges", "4", "--format", "json")
    assert code == 0
    assert '"mean_p": 3.141592653589793' in out and '"var_p": 0.0' in out


def test_agarwal_tara_beyond_work_budget_is_guarded(capsys):
    code, out, err = run_cli(capsys, "agarwal-tara", "--d", "20", "--n", "64")
    assert code == 2
    assert out == ""
    assert err.startswith("error: guard:") and err.count("\n") == 1


def test_operators_check_all_beyond_eigensolver_guard(capsys):
    code, out, err = run_cli(capsys, "operators", "--d", "9", "--check-all")
    assert code == 2
    assert out == ""
    assert err == "error: guard: eigensolver at dim=512 exceeds the cubic work budget of 2**24 (dim <= 256)\n"


@pytest.mark.parametrize("d", ["0", "-1"])
def test_operators_rejects_d_below_one(capsys, d):
    code, out, err = run_cli(capsys, "operators", "--d", d)
    assert (code, out, err) == (1, "", f"error: need d >= 1, got {d}\n")


@pytest.mark.parametrize("argv", [
    ("state", "--d", "25"),
    ("squeeze", "--d", "24"),
    ("coherence", "--d", "24", "--basis", "phase"),
    ("operators", "--d", "12"),
    ("operators", "--d", "12", "--check-all"),
    ("sweep", "--family", "single-full", "--d", "24"),
], ids=" ".join)
def test_beyond_byte_budget_is_guarded(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: guard:") and "byte budget" in err and err.count("\n") == 1


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_state_output_does_not_depend_on_block_size(capsys, monkeypatch, tmp_path, fmt):
    from hyperstate import cli
    from hyperstate.hypergraph import Hypergraph
    from hyperstate.state import hypergraph_state
    from hyperstate.sweep import csv_text

    argv = ("state", "--d", "5", "--edges", EXAMPLE_EDGES_FLAG, "--format", fmt)
    psi = hypergraph_state(Hypergraph(5, ((0, 3), (0, 2, 3), (1, 2, 3))))
    whole = {
        "json": json.dumps([[a.real, a.imag] for a in psi]) + "\n",
        "csv": csv_text(("n", "re", "im"), ((n, float(a.real), float(a.imag)) for n, a in enumerate(psi))),
        "table": cli._aligned([(f"|{n}>", f"{a.real:+.10f}{a.imag:+.10f}j") for n, a in enumerate(psi)]),
    }[fmt]
    monkeypatch.setattr(cli, "STATE_BLOCK", 3)
    assert run_cli(capsys, *argv) == (0, whole, "")
    assert run_cli(capsys, *argv, "--out", str(tmp_path / "state")) == (0, "", "")
    assert (tmp_path / "state").read_text(encoding="utf-8") == whole


def test_version(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0


def test_emit_plot_data(tmp_path):
    from hyperstate.cli import emit_plot_data

    path = tmp_path / "series.dat"
    emit_plot_data([(4, -0.2238), (5, -0.6817)], str(path), name="single_full_s_p")
    lines = path.read_text().splitlines()
    assert lines[0] == "# single_full_s_p"
    assert lines[1:] == ["4 -0.2238", "5 -0.6817"]
    empty = tmp_path / "empty.dat"
    emit_plot_data([], str(empty), name="nothing")
    assert empty.read_text() == "# nothing\n"


def _run_reading_fifo(fifo, action):
    """``action()`` while ``fifo`` is open for reading; its result and the bytes the FIFO received."""
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    spare_writer = os.open(fifo, os.O_WRONLY)  # no end of file until the test closes it
    received = b""
    try:
        result = action()  # payloads here fit in the pipe buffer, so writing never blocks
        while True:
            try:
                received += os.read(reader, 1 << 16)
            except BlockingIOError:
                break
    finally:
        os.close(spare_writer)
        os.close(reader)
    return result, received


@pytest.mark.parametrize("argv", [
    ("state", "--d", "4", "--edges", EXAMPLE_EDGES_FLAG, "--format", "csv"),
    ("sweep", "--family", "dminus1", "--d", "4", "--format", "csv"),
], ids=lambda argv: argv[0])
def test_out_to_a_fifo_is_written_through(capsys, tmp_path, argv):
    code, payload, _ = run_cli(capsys, *argv)
    assert code == 0
    fifo = tmp_path / "fifo"
    (code, _, err), received = _run_reading_fifo(fifo, lambda: run_cli(capsys, *argv, "--out", str(fifo)))
    assert (code, err) == (0, "")
    assert received.decode("utf-8") == payload
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert os.listdir(tmp_path) == ["fifo"]


class _DiskFull:
    """A file handle that writes half of the first part and then fails as a full disk does."""

    def __init__(self, handle):
        self.handle = handle

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.handle.close()

    def writelines(self, parts):
        for part in parts:
            self.handle.write(part[: len(part) // 2])
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("argv, target", [
    (("state", "--d", "3", "--format", "csv", "--out", "{dir}/old.txt"), "old.txt"),
    (("reproduce", "--out", "{dir}/old.txt"), "old.txt"),
    (("reproduce", "--plot-dir", "{dir}"), "single_full_s_p.dat"),
], ids=["state-out", "reproduce-out", "reproduce-plot-dir"])
def test_failed_write_keeps_the_old_file(capsys, monkeypatch, tmp_path, argv, target):
    from hyperstate import reproduce, sweep

    monkeypatch.setattr(reproduce.Reproducer, "run", lambda self: [])
    monkeypatch.setattr(reproduce.Reproducer, "plot_series", lambda self: {"single_full_s_p": [(4, -0.2238)]})
    monkeypatch.setattr(sweep, "open", lambda *a, **k: _DiskFull(builtins.open(*a, **k)), raising=False)
    (tmp_path / target).write_text("old\n")
    code, out, err = run_cli(capsys, *(arg.format(dir=tmp_path) for arg in argv))
    assert (code, out) == (1, "")
    assert err == f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}: '{tmp_path / target}'\n"
    assert os.listdir(tmp_path) == [target]
    assert (tmp_path / target).read_text() == "old\n"


def test_reproduce_cli(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "reproduce", "--format", "json",
                           "--plot-dir", str(tmp_path / "plots"))
    # exit 2: the stated eigenvalue-bound formula check fails by design
    assert code == 2
    results = {r["key"]: r for r in json.loads(out)}
    failing = [key for key, r in results.items() if r["status"] == "FAIL"]
    assert failing == ["C10b"]
    assert any("mu_5 at d=3" in note for note in results["C7"]["notes"])
    series = list((tmp_path / "plots").glob("*.dat"))
    assert len(series) >= 9
    table1 = (tmp_path / "plots" / "single_full_s_p.dat").read_text().splitlines()
    assert table1[0].startswith("#") and len(table1) == 11


def test_reproduce_timings_go_to_stderr_alone(capsys, monkeypatch):
    from hyperstate import reproduce

    code, out, err = run_cli(capsys, "reproduce")
    assert err == ""
    seen = []
    real = reproduce.Reproducer.check_example_state

    def wrapped(self):  # the report reaches each check through the instance
        seen.append(self)
        return real(self)

    monkeypatch.setattr(reproduce.Reproducer, "check_example_state", wrapped)
    timed = run_cli(capsys, "reproduce", "--timings")
    assert timed[:2] == (code, out) and len(seen) == 1
    lines = [line.split(" ") for line in timed[2].splitlines()]
    keys = [line.split()[1] for line in out.splitlines() if line.startswith(("PASS", "FAIL"))]
    assert [key for key, _ in lines] == [*keys, "total"] and len(keys) == 14
    seconds = [float(value) for _, value in lines]
    assert all(s >= 0 for s in seconds) and seconds[-1] >= sum(seconds[:-1]) - 1e-5


def _npy(array, allow_pickle=False):
    buffer = io.BytesIO()
    np.save(buffer, array, allow_pickle=allow_pickle)
    return buffer.getvalue()


def _entry(count=11, width=4, values="<f8", planted=None):
    """The bytes of a d = 4 cache entry of ``count`` records, rows 1 and values 1.0, with the
    ``planted`` (field, index, value) in place."""
    array = np.ones(count, [("row", "u1", (width,)), ("values", values, (len(METRIC_NAMES),))])
    if planted:
        field, index, value = planted
        array[field][index] = value
    return _npy(array)


# The binary forms of the JSON entries these cases once wrote, in order.
@pytest.mark.parametrize("content", [
    _npy(np.array([1, 2])), lambda valid: valid[: len(valid) // 2], _npy(np.array([{}], dtype=object), True),
    _entry(planted=("values", (0, 0), np.inf)), _entry(count=16), b"\x93NUMPY\x01\x00\x10\x00{" + b"[" * 14 + b"\n",
    _entry(planted=("values", (0, 4), -np.inf)), _entry(planted=("row", (0, 0), 2)), _entry(values="<f4"),
    _entry(count=0), _entry(width=5),
], ids=["other-array", "truncated", "object-dtype", "infinite-value", "more-records-than-rows",
        "deep-nesting-header", "negative-infinity", "row-value-2", "float32-values", "no-records", "other-width"])
def test_sweep_malformed_cache_entry_is_recomputed(capsys, tmp_path, content):
    from hyperstate.sweep import cache_key, dminus1_family

    argv = ("sweep", "--family", "dminus1", "--d", "4", "--format", "csv")
    code, fresh, _ = run_cli(capsys, *argv)
    assert code == 0
    entry = tmp_path / f"{cache_key(dminus1_family(4))}.npy"
    code, _, _ = run_cli(capsys, *argv, "--cache-dir", str(tmp_path))
    valid = entry.read_bytes()
    entry.write_bytes(content(valid) if callable(content) else content)
    code, out, err = run_cli(capsys, *argv, "--cache-dir", str(tmp_path))
    assert code == 0
    assert out == fresh
    assert err.startswith("warning:") and err.count("\n") == 1
    assert entry.read_bytes() == valid
    code, out, err = run_cli(capsys, *argv, "--cache-dir", str(tmp_path))
    assert (code, out, err) == (0, fresh, "")
    assert os.listdir(tmp_path) == [entry.name]


def test_sweep_cache_entry_that_is_a_directory(capsys, tmp_path):
    from hyperstate.sweep import cache_key, dminus1_family

    argv = ("sweep", "--family", "dminus1", "--d", "4", "--format", "csv")
    code, fresh, _ = run_cli(capsys, *argv)
    entry = tmp_path / f"{cache_key(dminus1_family(4))}.npy"
    entry.mkdir()
    for _ in range(2):
        code, out, err = run_cli(capsys, *argv, "--cache-dir", str(tmp_path))
        assert (code, out) == (0, fresh)
        assert [line.split(":")[0] for line in err.splitlines()] == ["warning", "warning"]
        assert "Traceback" not in err
    assert entry.is_dir() and os.listdir(tmp_path) == [entry.name]


def test_sweep_cache_dir_that_is_a_file(capsys, tmp_path):
    argv = ("sweep", "--family", "dminus1", "--d", "4", "--format", "csv")
    code, fresh, _ = run_cli(capsys, *argv)
    blocker = tmp_path / "cache"
    blocker.write_text("not a directory")
    code, out, err = run_cli(capsys, *argv, "--cache-dir", str(blocker))
    assert (code, out) == (0, fresh)
    assert err.startswith("warning: cache entry not written:") and err.count("\n") == 1
    assert blocker.read_text() == "not a directory"


@pytest.mark.parametrize("command", ["sweep", "reproduce"])
@pytest.mark.parametrize("threads", ["0", "-3"])
def test_nonpositive_threads_is_user_error(capsys, command, threads):
    extra = ("--family", "dminus1", "--d", "4") if command == "sweep" else ()
    code, out, err = run_cli(capsys, command, *extra, "--threads", threads)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "threads" in err and err.count("\n") == 1
