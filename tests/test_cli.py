import csv
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from brownmin import cli, harness
from brownmin.cli import main
from brownmin.oracle import DeterministicOracle


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_simulate_row_count_and_determinism(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    argv = ["simulate", "--lambda", "1", "--steps", "50", "--seed", "42"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    rows = read_rows(out1)
    assert len(rows) == 49  # states n = 2 .. steps
    assert [int(r["n"]) for r in rows] == list(range(2, 51))
    deltas = np.array([float(r["delta_n"]) for r in rows])
    assert np.all(deltas >= 0.0)
    assert np.all(np.diff(deltas) <= 0.0)
    m = np.array([float(r["M_n"]) for r in rows])
    assert np.allclose(deltas - deltas[-1], m - m[-1], rtol=0, atol=0)


def test_simulate_rejects_small_lambda(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--lambda", "0.5", "--steps", "10", "--seed", "1",
              "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2


def test_simulate_rejects_one_step(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--lambda", "1", "--steps", "1", "--seed", "1",
              "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2


def test_simulate_level_cap_exit_code(tmp_path, capsys):
    code = main(["simulate", "--lambda", "1", "--steps", "40", "--seed", "3",
                 "--out", str(tmp_path / "x.csv"), "--level-cap", "3"])
    assert code == 3
    assert "depth" in capsys.readouterr().err


def test_usage_error_on_unknown_arguments():
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--frobnicate", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_experiment_row_count(tmp_path):
    out = tmp_path / "err.csv"
    code = main(["experiment", "--lambdas", "1,2", "--p", "2", "--reps", "4",
                 "--n-grid", "4,8,16", "--seed", "7", "--out", str(out)])
    assert code == 0
    rows = read_rows(out)
    assert len(rows) == 6  # |lambdas| * |n_grid|
    assert {r["algorithm"] for r in rows} == {"adaptive"}
    assert [int(r["n"]) for r in rows] == [4, 8, 16, 4, 8, 16]
    assert all(r["dropped_replications"] == "0" for r in rows)


def test_experiment_single_replication(tmp_path):
    out = tmp_path / "err.csv"
    code = main(["experiment", "--lambdas", "1", "--p", "1", "--reps", "1",
                 "--n-grid", "4", "--seed", "7", "--out", str(out)])
    assert code == 0
    rows = read_rows(out)
    assert len(rows) == 1 and rows[0]["R"] == "1"
    assert float(rows[0]["lp_error"]) >= 0.0
    assert float(rows[0]["std_pth_power"]) == 0.0


def test_experiment_rejects_bad_plan(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "--lambdas", "1,0.5", "--p", "2", "--reps", "4",
              "--n-grid", "4,8", "--seed", "7", "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2


def test_compare_contains_both_algorithms(tmp_path):
    out = tmp_path / "cmp.csv"
    code = main(["compare", "--lambdas", "1", "--p", "2", "--reps", "4",
                 "--n-grid", "4,8", "--seed", "9", "--out", str(out)])
    assert code == 0
    rows = read_rows(out)
    for n in (4, 8):
        algs = {r["algorithm"] for r in rows if int(r["n"]) == n}
        assert algs == {"adaptive", "equidistant"}
    eq_rows = [r for r in rows if r["algorithm"] == "equidistant"]
    assert all(r["lambda"] == "" for r in eq_rows)


def test_threads_do_not_change_output(tmp_path):
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}.csv"
        code = main(["experiment", "--lambdas", "1", "--p", "2", "--reps", "6",
                     "--n-grid", "4,8", "--seed", "11", "--out", str(out),
                     "--threads", threads])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_import_loads_no_process_pool():
    # the pool machinery is imported only where a run opens a pool; it was
    # about a tenth of the command line's import time
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import sys, brownmin.cli; print([m for m in sys.modules if 'multiprocessing' in m])"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=str(src)), timeout=60, check=True)
    assert result.stdout.strip() == "[]"


def _console(*args, cwd=None):
    # the command line as a console run starts it: python -m brownmin.cli
    src = Path(__file__).resolve().parent.parent / "src"
    return subprocess.run([sys.executable, "-m", "brownmin.cli", *args], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(src)), cwd=cwd,
                          timeout=60)


def test_console_run_exits_with_the_documented_codes(tmp_path):
    result = _console("suggest-lambda", "--r", "2", "--p", "2")
    assert (result.returncode, result.stdout, result.stderr) == (0, "720\n", "")
    result = _console("simulate", "--lambda", "nan", "--steps", "10", "--seed", "1",
                      "--out", "x.csv", cwd=tmp_path)
    assert result.returncode == 2 and not (tmp_path / "x.csv").exists()
    result = _console("simulate", "--lambda", "1", "--steps", "10", "--seed", "1",
                      "--out", str(tmp_path / "missing" / "x.csv"))
    assert result.returncode == 3 and result.stdout == ""
    assert len(result.stderr.splitlines()) == 1 and result.stderr.startswith("brownmin: ")


def test_suggest_lambda(capsys):
    assert main(["suggest-lambda", "--r", "1", "--p", "1"]) == 0
    assert capsys.readouterr().out.strip() == "288"
    assert main(["suggest-lambda", "--r", "2", "--p", "2"]) == 0
    assert capsys.readouterr().out.strip() == "720"
    assert main(["suggest-lambda", "--r", "1", "--p", "2"]) == 0
    assert capsys.readouterr().out.strip() == "432"
    with pytest.raises(SystemExit) as exc:
        main(["suggest-lambda", "--r", "0.5", "--p", "1"])
    assert exc.value.code == 2


SIMULATE = ["simulate", "--lambda", "1", "--steps", "40", "--seed", "3"]
EXPERIMENT = ["experiment", "--lambdas", "1", "--p", "2", "--reps", "4",
              "--n-grid", "4,8", "--seed", "7"]


def _with(argv, flag, value):
    i = argv.index(flag)
    return argv[: i + 1] + [value] + argv[i + 2:]


@pytest.mark.parametrize("argv", [
    _with(SIMULATE, "--lambda", "nan"),
    _with(SIMULATE, "--lambda", "inf"),
    _with(EXPERIMENT, "--lambdas", "nan"),
    _with(EXPERIMENT, "--lambdas", "1,x"),
    _with(EXPERIMENT, "--p", "inf"),
    _with(EXPERIMENT, "--p", "nan"),
    _with(EXPERIMENT, "--seed", "-1"),
    SIMULATE + ["--level-cap", "0"],
    SIMULATE + ["--level-cap", "1"],
    EXPERIMENT + ["--level-cap", "1"],
    SIMULATE + ["--level-cap", "1024"],
    ["suggest-lambda", "--r", "nan", "--p", "1"],
    ["suggest-lambda", "--r", "1", "--p", "inf"],
    ["suggest-lambda", "--r", "1e308", "--p", "1e308"],  # lambda overflows
    EXPERIMENT + ["--threads", "0"],
    EXPERIMENT + ["--threads", "-1"],
    _with(EXPERIMENT, "--lambdas", "1,1"),
    _with(EXPERIMENT, "--lambdas", "1,,4"),
    _with(EXPERIMENT, "--n-grid", "4,8,"),
], ids=["simulate-lambda-nan", "simulate-lambda-inf", "lambdas-nan", "lambdas-not-a-number",
        "p-inf", "p-nan", "negative-seed", "simulate-level-cap-0", "simulate-level-cap-1",
        "experiment-level-cap-1", "simulate-level-cap-1024", "suggest-r-nan", "suggest-p-inf",
        "suggest-overflow", "threads-0", "threads-negative", "lambdas-repeated",
        "lambdas-empty-entry", "n-grid-empty-entry"])
def test_invalid_input_is_a_usage_error(argv, tmp_path):
    out = tmp_path / "x.csv"
    if argv[0] != "suggest-lambda":
        argv = argv + ["--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    SIMULATE,
    ["compare", "--lambdas", "1", "--p", "2", "--reps", "2", "--n-grid", "4,8", "--seed", "9"],
], ids=["simulate", "compare"])
def test_unwritable_output_is_a_runtime_error(argv, tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv"
    assert main(argv + ["--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("brownmin: ") and err.count("\n") == 1
    assert str(out) in err


@pytest.mark.parametrize("argv", [
    SIMULATE,
    ["experiment", "--lambdas", "1", "--p", "2", "--reps", "3", "--n-grid", "4", "--seed", "1"],
    ["compare", "--lambdas", "1", "--p", "2", "--reps", "2", "--n-grid", "4,8", "--seed", "9"],
], ids=["simulate", "experiment", "compare"])
def test_an_unusable_output_is_refused_before_computing(argv, monkeypatch, tmp_path, capsys):
    # a missing directory or a directory as --out exits 3 with open()'s
    # message before any replication runs, and creates no file
    def compute(*args, **kwargs):
        raise AssertionError("computed before the output path was checked")

    monkeypatch.setattr(cli, "run_experiments", compute)
    monkeypatch.setattr(cli, "_replicate", compute)
    for out, message in ((tmp_path / "missing" / "x.csv", "No such file or directory"),
                         (tmp_path, "Is a directory")):
        assert main(argv + ["--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("brownmin: [Errno ") and err.count("\n") == 1
        assert message in err and str(out) in err
    assert list(tmp_path.iterdir()) == []


def test_non_finite_score_is_a_runtime_error(monkeypatch, tmp_path, capsys):
    # simulate searches the harness's oracle; past f(0) this one is -1e20,
    # so a gap at the minimum scores length / 0.  The refusal is the one
    # line on stderr, also where warnings are errors
    monkeypatch.setattr(harness, "BrownianOracle", lambda stream, capacity: DeterministicOracle(
        lambda t: -1e20 if t > 0 else 0.0))
    out = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(SIMULATE + ["--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("brownmin: non-finite split score: split score inf")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv, allocator", [
    (SIMULATE, "run"),
    (["compare", "--lambdas", "1", "--p", "2", "--reps", "2", "--n-grid", "4,8", "--seed", "9"],
     "run_equidistant_replications"),
], ids=["simulate", "compare"])
def test_out_of_memory_is_a_runtime_error(argv, allocator, monkeypatch, tmp_path, capsys):
    # numpy refuses an allocation with a MemoryError subclass; a real one
    # could instead be granted by overcommit and then fill the memory
    def refuse(*args):
        raise MemoryError("Unable to allocate 745. GiB for an array")

    monkeypatch.setattr(harness, allocator, refuse)
    out = tmp_path / "x.csv"
    assert main(argv + ["--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("brownmin: out of memory: ") and err.count("\n") == 1
    assert not out.exists()
