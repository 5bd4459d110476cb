"""Tests of the benchmark itself.

    python3 -m pytest bench -q

They check that tracing changes no returned value and no output byte,
that a run prints every metric named in BENCHMARK.json with its unit, that
the golden check fails on a one-byte change and then fails the run, and
that the runner refuses to run without the package sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import brownmin
import brownmin.cli
import run
from layers import TARGETS, Tracer
from workloads import GOLDEN_SEED, WORKLOADS, check_compare_csv, check_trace_csv

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
GOLDEN = json.loads((BENCH / "golden.json").read_text())


def _public_results():
    """Values returned by the traced public functions on fixed inputs."""
    plan = brownmin.ExperimentPlan(lambdas=(1.0,), n_grid=(8, 16), p=2.0,
                                   replications=3, master_seed=7)
    oracle = brownmin.BrownianOracle(brownmin.RngStream(7, 0), capacity=66)
    state, traces = brownmin.run(oracle, brownmin.MinimizerConfig(lam=2.0, max_steps=64))
    config = brownmin.MinimizerConfig(lam=1.0, max_steps=64)
    return {
        "gaussian": brownmin.RngStream(7, 1).gaussian(),
        "midpoint": brownmin.midpoint(brownmin.ZERO, brownmin.ONE),
        "traces": traces,
        "values": state.skeleton.values.copy(),
        "scores": brownmin.split_scores(state, 3.0),
        "select": brownmin.select_split(state.scores),
        "bound": brownmin.check_score_bound(state, config),
        "true_min": brownmin.sample_true_min(state.skeleton, brownmin.RngStream(7, 2)),
        "minima": brownmin.segment_minima(np.array([0.0, 1.0, -1.0]), np.array([0.5, 0.5]),
                                          np.array([0.3, 1.0])),
        "replication": brownmin.run_replication(plan, 1.0, 2),
        "equidistant": brownmin.run_equidistant(plan, 16, 1),
        "lp": brownmin.estimate_lp_error(np.array([0.1, -0.2, 0.3]), 2.0),
        "experiment": brownmin.run_experiment(plan),
    }


def test_traced_functions_return_identical_values():
    plain = _public_results()
    tracer = Tracer()
    with tracer.install():
        traced = _public_results()
    assert tracer.spans and all(span is not None for span in tracer.spans)
    for key in plain:
        if isinstance(plain[key], np.ndarray):
            assert np.array_equal(plain[key], traced[key]), key
        else:
            assert plain[key] == traced[key], key


def _target(module, cls, attr):
    owner = getattr(brownmin, module)
    return vars(getattr(owner, cls))[attr] if cls else getattr(owner, attr)


def test_install_restores_every_original():
    before = {t: _target(*t) for t in TARGETS}
    with Tracer().install():
        assert all(_target(*t) is not before[t] for t in TARGETS)
        assert brownmin.split_scores is not before[("minimizer", None, "split_scores")]
    assert all(_target(*t) is before[t] for t in TARGETS)
    assert brownmin.split_scores is before[("minimizer", None, "split_scores")]


@pytest.mark.parametrize("argv", [
    ["compare", "--lambdas", "1", "--p", "2", "--reps", "6", "--n-grid", "8,16", "--seed", "3"],
    ["simulate", "--lambda", "1", "--steps", "300", "--seed", "3"],
])
def test_traced_cli_output_is_byte_identical(tmp_path, argv):
    plain, traced = tmp_path / "plain.csv", tmp_path / "traced.csv"
    assert brownmin.cli.main(argv + ["--out", str(plain)]) == 0
    tracer = Tracer()
    with tracer.install():
        assert brownmin.cli.main(argv + ["--out", str(traced)]) == 0
    assert plain.read_bytes() == traced.read_bytes()
    metrics = tracer.layer_metrics()
    assert metrics["cli.main.calls"] == 1
    assert metrics["oracle.BrownianOracle.evaluate.calls"] > 0
    assert 0.0 < metrics["minimizer.rescore_useful_ratio"] <= 1.0


def test_self_times_add_up_to_the_root_span():
    oracle = brownmin.BrownianOracle(brownmin.RngStream(5, 0))
    tracer = Tracer()
    with tracer.install():
        brownmin.run(oracle, brownmin.MinimizerConfig(lam=1.0, max_steps=200))
    metrics = tracer.layer_metrics()
    name, parent, start, end = tracer.spans[0]
    assert (name, parent) == ("minimizer.run", -1)
    total_self = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert total_self == pytest.approx(end - start, rel=1e-9)
    assert metrics["minimizer.step.calls"] == 198
    assert metrics["dyadic.Skeleton.insert.calls"] == 200


@pytest.mark.parametrize("name", ["mc-compare", "score-bound"])
def test_golden_check_fails_on_one_byte_change(tmp_path, name):
    workload = WORKLOADS[name]
    output = workload.job(GOLDEN_SEED, tmp_path).output
    expected = GOLDEN["sha256"][workload.golden]
    assert run.output_problems(output, workload.check, expected_sha=expected) == []
    index = output.rindex(b"5")  # a digit inside the last rows
    changed = output[:index] + b"6" + output[index + 1:]
    assert run.output_problems(changed, workload.check, expected_sha=expected)
    assert run.output_problems(changed, workload.check, expected=output)


def test_invariant_checks_reject_broken_outputs(tmp_path):
    compare = WORKLOADS["mc-compare"].job(1, tmp_path).output
    assert check_compare_csv(compare) == []
    assert check_compare_csv(compare.replace(b",128,", b",127,", 1))
    out = tmp_path / "trace.csv"
    for seed in range(1, 9):  # W(1) is the minimum of some of these paths
        assert brownmin.cli.main(["simulate", "--lambda", "1", "--steps", "50",
                                  "--seed", str(seed), "--out", str(out)]) == 0
        assert check_trace_csv(out.read_bytes(), steps=50) == [], seed
    lines = out.read_bytes().splitlines(keepends=True)
    header, rows = lines[0], lines[1:]
    # negate the last delta_n: the check must see delta_n < 0
    last = rows[-1].rsplit(b",", 1)
    assert check_trace_csv(header + b"".join(rows[:-1]) + last[0] + b",-" + last[1], steps=50)
    # drop a row: M_n is no longer the running minimum or n skips
    assert check_trace_csv(header + b"".join(rows[:-2] + rows[-1:]), steps=49)


def _run(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_run_prints_every_named_metric_with_its_unit(trace, section):
    done = _run(ROOT, "--workload", "score-bound", "--seed", "2", "--seconds", "0.1",
                "--trace", trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    named = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == named
    for key, unit in named.items():
        assert any(line.split()[:1] == [key] and line.split()[-1] == unit
                   for line in lines[:-1]), key


def _copy_bench(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))


def test_run_with_wrong_golden_bytes_exits_non_zero(tmp_path):
    _copy_bench(tmp_path)
    shutil.copytree(ROOT / "src" / "brownmin", tmp_path / "src" / "brownmin",
                    ignore=shutil.ignore_patterns("__pycache__"))
    golden = json.loads(json.dumps(GOLDEN))
    golden["sha256"]["score-bound"] = "0" * 64
    (tmp_path / "bench" / "golden.json").write_text(json.dumps(golden))
    done = _run(tmp_path, "--workload", "score-bound", "--seed", "2", "--seconds", "0.1")
    assert done.returncode == 1, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert not result["correct"] and result["failed"] == 1 and result["metrics"] == {}


def test_tail_leaves_the_asked_number_of_samples_beyond_it():
    samples = [float(x) for x in range(100, 0, -1)]
    value, pct = run.tail(samples)
    assert value == 90.0 and sum(s > value for s in samples) == 10
    assert np.percentile(samples, pct) == pytest.approx(value)
    assert run.tail(samples[:10]) is None


def test_run_fails_without_the_package_sources(tmp_path):
    _copy_bench(tmp_path)
    done = _run(tmp_path, "--workload", "mc-compare", "--seed", "1", "--seconds", "1")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
