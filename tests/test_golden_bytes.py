"""Pinned output bytes of small CLI runs.

The hashes were taken from the full-rescore implementation of the search.
Any change to the search, the oracle draws, the true-minimum sampling or
the CSV formatting that alters a single output byte fails here; a change
that alters them on purpose must say so and pin the new hashes.
"""

import hashlib

import pytest

from brownmin.cli import main

SEED = 20160106


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_simulate_csv_bytes(tmp_path):
    out = tmp_path / "trace.csv"
    assert main(["simulate", "--lambda", "1", "--steps", "2000", "--seed", str(SEED),
                 "--out", str(out)]) == 0
    assert _sha256(out) == "a0178df625e55130aebc75e1ef7276c4328e76e1e82b3ee57f7abf1866c81333"


@pytest.mark.parametrize("threads", ["1", "2"])
def test_compare_csv_bytes(tmp_path, threads):
    out = tmp_path / "compare.csv"
    assert main(["compare", "--lambdas", "1,4", "--p", "2", "--reps", "16",
                 "--n-grid", "8,64,256", "--seed", str(SEED), "--out", str(out),
                 "--threads", threads]) == 0
    assert _sha256(out) == "caf63f8548addaf800c6edbf33a1622b4f949e74ce4755c3074a4486537beed7"
