"""The benchmark's workloads: one job each, its output bytes and their checks.

A job is one batch a user waits for, driven through brownmin's public API
or its CLI ``main``.  Every job returns its wall time, the bytes it wrote
(or, for the score-bound loop, a canonical text of every check it made)
and, on the one-worker ``mc-compare`` job, the wall time of each adaptive
replication.  Inputs are a pure function of the seed, so the same seed
gives the same bytes.

Why each workload exists, and the layer metrics it is meant to move:

``mc-compare``
    ``compare`` at lambda 1, p 2, n-grid 16..512, one worker.  Paths are
    short, so per-step Python overhead dominates: oracle evaluate, insert,
    trace building, midpoint and stream construction in the equidistant
    phase (``rng.RngStream``, ``oracle.BrownianOracle.evaluate``,
    ``minimizer.step``, ``harness.run_replication``).
``mc-compare-2w``
    The same plan and seed on two workers, for the worker dispatch in
    ``harness`` (pool start, pickling, chunking; ``harness.run_experiment``
    and ``harness.parallel_efficiency``).  Its CSV must equal
    ``mc-compare``'s byte for byte.
``deep-path``
    ``simulate`` at lambda 1 and n = 16 000.  The O(n)-per-step layers
    dominate (``minimizer.split_scores``, ``dyadic.Skeleton.insert`` and its
    shifted entries), then the exact true-minimum draw and the trace CSV
    (``minimizer.write_trace_csv``).
``score-bound``
    The conditional score-bound loop at lambda 1 and 8 to n = 1 000, which
    consumes the full per-step state through ``init_state``, ``step`` and
    ``check_score_bound``; deferring or dropping per-step state shows up
    here as a cost.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import brownmin
import brownmin.cli

GOLDEN_SEED = 20160106

COMPARE_REPS = 128
COMPARE_GRID = (16, 32, 64, 128, 256, 512)
DEEP_STEPS = 16_000
BOUND_STEPS = 1_000
BOUND_LAMBDAS = (1.0, 8.0)
BOUND_PATHS = 16  # per lambda

COMPARE_HEADER = ["algorithm", "lambda", "p", "n", "R", "lp_error",
                  "std_pth_power", "dropped_replications"]
TRACE_HEADER = ["n", "t_exact", "t_float", "value", "M_n", "tau_level",
                "rho_max", "undershoot_max", "delta_n"]


class JobError(RuntimeError):
    """A job did not complete: non-zero exit code or an exception."""


@dataclass
class Job:
    wall_s: float
    output: bytes
    replication_s: list[float] = field(default_factory=list)


@contextlib.contextmanager
def timing_replications(times: list[float]):
    """Append the wall time of each ``harness.run_replication`` call made in
    this process to ``times``.  Calls in worker processes are not seen."""
    original = getattr(brownmin.harness, "run_replication", None)
    if original is None:  # the function is gone; the times are left out
        yield
        return

    def timed(*args, **kwargs):
        start = time.perf_counter()
        result = original(*args, **kwargs)
        times.append(time.perf_counter() - start)
        return result

    brownmin.harness.run_replication = timed
    try:
        yield
    finally:
        brownmin.harness.run_replication = original


def _cli(argv: list[str]) -> None:
    # looked up at call time, so an installed tracer sees the call
    code = brownmin.cli.main(argv)
    if code != 0:
        raise JobError(f"brownmin {argv[0]} exited with {code}")


def compare_argv(seed: int, out: Path, workers: int) -> list[str]:
    return ["compare", "--lambdas", "1", "--p", "2", "--reps", str(COMPARE_REPS),
            "--n-grid", ",".join(map(str, COMPARE_GRID)), "--seed", str(seed),
            "--out", str(out), "--threads", str(workers)]


def simulate_argv(seed: int, out: Path) -> list[str]:
    return ["simulate", "--lambda", "1", "--steps", str(DEEP_STEPS),
            "--seed", str(seed), "--out", str(out)]


def compare_job(seed: int, out_dir: Path, workers: int) -> Job:
    out = out_dir / f"compare-{workers}w.csv"
    times: list[float] = []
    with timing_replications(times) if workers == 1 else contextlib.nullcontext():
        start = time.perf_counter()
        _cli(compare_argv(seed, out, workers))
        wall = time.perf_counter() - start
    return Job(wall, out.read_bytes(), times)


def deep_path_job(seed: int, out_dir: Path) -> Job:
    out = out_dir / "simulate.csv"
    start = time.perf_counter()
    _cli(simulate_argv(seed, out))
    return Job(time.perf_counter() - start, out.read_bytes())


def score_bound_job(seed: int, out_dir: Path) -> Job:
    records = []
    start = time.perf_counter()
    for lam_index, lam in enumerate(BOUND_LAMBDAS):
        config = brownmin.MinimizerConfig(lam=lam, max_steps=BOUND_STEPS)
        for rep in range(BOUND_PATHS):
            oracle = brownmin.BrownianOracle(
                brownmin.RngStream(seed, lam_index, rep), capacity=BOUND_STEPS + 2)
            state, _ = brownmin.init_state(oracle, config)
            # check_score_bound raises on any violation of the bound
            records.append(brownmin.check_score_bound(state, config))
            while state.n < config.max_steps:
                brownmin.step(state, oracle, config)
                records.append(brownmin.check_score_bound(state, config))
    wall = time.perf_counter() - start
    text = "".join(
        f"{r.n},{r.max_scaled_increment!r},{r.increment_bound!r},{r.rho_max!r},"
        f"{r.score_bound!r},{int(r.applicable)}\n" for r in records)
    return Job(wall, text.encode())


# ------------------------------------------------------------------ checks

def check_compare_csv(data: bytes) -> list[str]:
    """Invariants of a compare CSV from ``compare_argv``; [] when all hold."""
    rows = list(csv.reader(io.StringIO(data.decode())))
    if not rows or rows[0] != COMPARE_HEADER:
        return ["compare CSV header differs"]
    expected = [("adaptive", n) for n in COMPARE_GRID] + [("equidistant", n) for n in COMPARE_GRID]
    cells = [(row[0], int(row[3])) for row in rows[1:]]
    if cells != expected:
        return [f"compare CSV cells {cells} differ from {expected}"]
    problems = []
    for row in rows[1:]:
        kept, dropped = int(row[4]), int(row[7])
        if kept + dropped != COMPARE_REPS or dropped < 0:
            problems.append(f"row {row}: R + dropped != {COMPARE_REPS}")
        lp, std = float(row[5]), float(row[6])
        if kept and not (math.isfinite(lp) and lp > 0.0 and math.isfinite(std) and std >= 0.0):
            problems.append(f"row {row}: L_p error or its std not finite and positive")
    return problems


def compare_dropped_fraction(data: bytes) -> float:
    rows = list(csv.reader(io.StringIO(data.decode())))[1:]
    dropped = sum(int(row[7]) for row in rows)
    return dropped / sum(int(row[4]) + int(row[7]) for row in rows)


def check_trace_csv(data: bytes, steps: int = DEEP_STEPS) -> list[str]:
    """Invariants of a simulate CSV: n = 2..steps in order, M_n is the
    running minimum of the values (so it never increases) and delta_n >= 0.

    W(1) is evaluated before the first row, so the first row only bounds
    M_2 by min(0, value)."""
    rows = list(csv.reader(io.StringIO(data.decode())))
    if not rows or rows[0] != TRACE_HEADER:
        return ["simulate CSV header differs"]
    if [int(row[0]) for row in rows[1:]] != list(range(2, steps + 1)):
        return ["simulate CSV does not hold one row per n = 2 .. steps"]
    problems = []
    previous = None
    for row in rows[1:]:
        value, m_n, delta = float(row[3]), float(row[4]), float(row[8])
        if previous is None and not m_n <= min(0.0, value):
            problems.append(f"n={row[0]}: M_n exceeds min(0, value)")
        if previous is not None and m_n != min(previous, value):
            problems.append(f"n={row[0]}: M_n is not the running minimum")
        if not delta >= 0.0:
            problems.append(f"n={row[0]}: delta_n = {row[8]} < 0")
        previous = m_n
        if len(problems) > 10:
            break
    return problems


def check_score_records(data: bytes) -> list[str]:
    expected = len(BOUND_LAMBDAS) * BOUND_PATHS * (BOUND_STEPS - 1)
    count = data.count(b"\n")
    return [] if count == expected else [f"{count} score-bound checks, expected {expected}"]


@dataclass(frozen=True)
class Workload:
    name: str
    job: Callable[[int, Path], Job]
    check: Callable[[bytes], list[str]]
    golden: str  # key of the golden SHA-256 its output must match
    replications: int  # replication tasks per job
    evaluations: int  # adaptive oracle evaluations per job (site 0 not counted)
    reference: str | None = None  # workload whose output it must equal


WORKLOADS = {w.name: w for w in (
    Workload("mc-compare", lambda seed, out: compare_job(seed, out, 1),
             check_compare_csv, "mc-compare",
             replications=COMPARE_REPS * (1 + len(COMPARE_GRID)),
             evaluations=COMPARE_REPS * max(COMPARE_GRID)),
    Workload("mc-compare-2w", lambda seed, out: compare_job(seed, out, 2),
             check_compare_csv, "mc-compare",
             replications=COMPARE_REPS * (1 + len(COMPARE_GRID)),
             evaluations=COMPARE_REPS * max(COMPARE_GRID), reference="mc-compare"),
    Workload("deep-path", deep_path_job, check_trace_csv, "deep-path",
             replications=1, evaluations=DEEP_STEPS),
    Workload("score-bound", score_bound_job, check_score_records, "score-bound",
             replications=len(BOUND_LAMBDAS) * BOUND_PATHS,
             evaluations=len(BOUND_LAMBDAS) * BOUND_PATHS * BOUND_STEPS),
)}

# what a user's process does before the first job: start the interpreter,
# import the package and parse the job's command line (run by
# ``python -c`` with argv [src dir, *cli argv]; score-bound has none)
SETUP_CODE = """\
import sys
sys.path.insert(0, sys.argv[1])
import brownmin.cli
if sys.argv[2:]:
    brownmin.cli.build_parser().parse_args(sys.argv[2:])
"""


def setup_argv(name: str, seed: int, out_dir: Path) -> list[str]:
    if name.startswith("mc-compare"):
        return compare_argv(seed, out_dir / "setup.csv", 2 if name.endswith("2w") else 1)
    if name == "deep-path":
        return simulate_argv(seed, out_dir / "setup.csv")
    return []
