"""Pinned output bytes of small CLI runs.

The hashes were taken from the full-rescore implementation of the search.
Any change to the search, the oracle draws, the true-minimum sampling or
the CSV formatting that alters a single output byte fails here; a change
that alters them on purpose must say so and pin the new hashes.
"""

import csv
import hashlib
import sys

import pytest

from brownmin.cli import main

SEED = 20160106


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# steps -> SHA-256 of the simulate CSV; 16 000 steps is the benchmark's
# deep-path job, whose buffers grow and shift by thousands of entries
SIMULATE_SHA256 = {
    2000: "a0178df625e55130aebc75e1ef7276c4328e76e1e82b3ee57f7abf1866c81333",
    16000: "b72f163280a8c15fc1e9623d6a78662571e981d8b3b35841a44927d69d997e80",
}


def test_simulate_csv_bytes(tmp_path):
    for steps, digest in SIMULATE_SHA256.items():
        out = tmp_path / f"trace_{steps}.csv"
        assert main(["simulate", "--lambda", "1", "--steps", str(steps), "--seed", str(SEED),
                     "--out", str(out)]) == 0
        assert _sha256(out) == digest, steps


@pytest.mark.parametrize("threads", ["1", "2"])
def test_compare_csv_bytes(tmp_path, threads):
    out = tmp_path / "compare.csv"
    assert main(["compare", "--lambdas", "1,4", "--p", "2", "--reps", "16",
                 "--n-grid", "8,64,256", "--seed", str(SEED), "--out", str(out),
                 "--threads", threads]) == 0
    assert _sha256(out) == "caf63f8548addaf800c6edbf33a1622b4f949e74ce4755c3074a4486537beed7"


@pytest.mark.parametrize("threads", ["1", "2"])
def test_bench_compare_csv_bytes(tmp_path, threads):
    # the benchmark's mc-compare plan, hash from bench/golden.json: several
    # blocks per phase and the equidistant rule up to n = 512
    out = tmp_path / "compare.csv"
    assert main(["compare", "--lambdas", "1", "--p", "2", "--reps", "128",
                 "--n-grid", "16,32,64,128,256,512", "--seed", str(SEED), "--out", str(out),
                 "--threads", threads]) == 0
    assert _sha256(out) == "930f0fa1a13a86436fe68a95d75e6143d3e519c354d9a009c6749161605b6009"


def test_large_p_experiment_csv_bytes(tmp_path):
    # at p = 60 the p-th powers of the n = 4096 errors underflow, so that
    # cell's L_p error takes the scaled form; the direct form printed 0
    out = tmp_path / "experiment.csv"
    assert main(["experiment", "--lambdas", "1", "--p", "60", "--reps", "16",
                 "--n-grid", "256,1024,4096", "--seed", str(SEED), "--out", str(out)]) == 0
    assert _sha256(out) == "7b1a4768a097c3cea4d9f98a84bef5c0866b98997927f57dd4e2c2863f129665"
    with open(out, newline="") as fh:
        rows = {int(row["n"]): row for row in csv.DictReader(fh)}
    cells = {n: float(row["lp_error"]) for n, row in rows.items()}
    # at n = 1024 lp^60 is a normal float but its square is not; the
    # direct std printed 0
    assert float(rows[1024]["std_pth_power"]) > 0.0
    # a mean p-th power of lp^60 is below the smallest normal float, where
    # the direct form is not used
    assert 0.0 < cells[4096] and cells[4096] ** 60 < sys.float_info.min
