"""Monte Carlo harness: error samples, L_p curves and rate fits.

One replication draws a fresh Brownian path, runs the adaptive search (or
the equidistant baseline), then samples the true path minimum M exactly
from the final skeleton: conditionally on the observed sites the minima
over the gaps are independent bridge minima, so one inverse-CDF draw per
gap and a global min give an exact sample of M.  The recorded error is
delta_n = M_n - M with M_n the discrete minimum after n evaluations.

M is sampled once per replication from the final skeleton and reused for
every intermediate n, which keeps the per-path error trace internally
consistent.  All randomness is addressed by (master_seed, namespace,
replication, role), so results are byte-identical under any worker count.

:func:`run_experiment` hands out work items of whole replications: blocks
of contiguous adaptive replications, which :func:`run_replications`
searches in lockstep with :func:`~brownmin.minimizer.search_block`, and
single equidistant replications covering the whole n grid.  A block
reproduces :func:`run_replication` sample for sample, so the output bytes
depend on neither the block size nor the worker count.
"""

from __future__ import annotations

import csv
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .bridge import segment_minima
from .dyadic import DEFAULT_LEVEL_CAP, MAX_LEVEL_CAP, Skeleton
from .minimizer import MinimizerConfig, run, search_block
from .oracle import BrownianOracle
from .rng import RngStream

ADAPTIVE = "adaptive"
EQUIDISTANT = "equidistant"

# stream namespaces: (master_seed, namespace, replication, role)
_NS = {ADAPTIVE: 0, EQUIDISTANT: 1}
_ROLE_PATH = 0
_ROLE_TRUE_MIN = 1

# entries of each (rows, max n) array of a lockstep block, 512 KiB as
# float64: bounds a block's memory for any plan
_BLOCK_ENTRIES = 2**16


@dataclass(frozen=True)
class ExperimentPlan:
    """Immutable description of one Monte Carlo experiment."""

    lambdas: tuple[float, ...]
    n_grid: tuple[int, ...]
    p: float
    replications: int
    master_seed: int
    algorithm: str = ADAPTIVE
    level_cap: int = DEFAULT_LEVEL_CAP

    def __post_init__(self):
        object.__setattr__(self, "lambdas", tuple(float(l) for l in self.lambdas))
        object.__setattr__(self, "n_grid", tuple(int(n) for n in self.n_grid))
        if self.algorithm not in (ADAPTIVE, EQUIDISTANT):
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.algorithm == ADAPTIVE and not self.lambdas:
            raise ValueError("adaptive plan needs at least one lambda")
        if not all(math.isfinite(l) and l >= 1.0 for l in self.lambdas):
            raise ValueError(f"all lambdas must be finite and >= 1, got {self.lambdas}")
        if self.replications < 1:
            raise ValueError("need at least one replication")
        if not (math.isfinite(self.p) and self.p >= 1.0):
            raise ValueError(f"p must be finite and >= 1, got {self.p}")
        if self.master_seed < 0:
            raise ValueError(f"master seed must be >= 0, got {self.master_seed}")
        if not 2 <= self.level_cap <= MAX_LEVEL_CAP:
            raise ValueError(f"level_cap must be in [2, {MAX_LEVEL_CAP}], got {self.level_cap}")
        if not self.n_grid or list(self.n_grid) != sorted(set(self.n_grid)):
            raise ValueError("n_grid must be non-empty, strictly ascending")
        n_min = 2 if self.algorithm == ADAPTIVE else 1
        if self.n_grid[0] < n_min:
            raise ValueError(f"n_grid entries must be >= {n_min} for {self.algorithm}")


@dataclass(frozen=True)
class ErrorSample:
    """Errors of one replication, keyed by evaluation count n."""

    replication: int
    deltas: dict[int, float]


@dataclass(frozen=True)
class ErrorEstimate:
    """Aggregated L_p error at one (algorithm, lambda, n) cell."""

    algorithm: str
    lam: float | None
    p: float
    n: int
    replications: int
    lp_error: float
    std_pth_power: float
    dropped: int = 0


def path_stream(plan: ExperimentPlan, algorithm: str, replication: int) -> RngStream:
    return RngStream(plan.master_seed, _NS[algorithm], replication, _ROLE_PATH)


def true_min_stream(plan: ExperimentPlan, algorithm: str, replication: int) -> RngStream:
    return RngStream(plan.master_seed, _NS[algorithm], replication, _ROLE_TRUE_MIN)


def sample_path_minimum(values: np.ndarray, lengths: np.ndarray, stream: RngStream) -> float:
    """Exact draw of the path minimum given endpoint values per segment."""
    uniforms = stream.uniform_open_closed(len(lengths))
    return float(segment_minima(values, lengths, uniforms).min())


def sample_true_min(skeleton: Skeleton, stream: RngStream) -> float:
    """Exact conditional draw of the true minimum given a skeleton.

    One bridge-minimum draw per gap, independent across gaps; the result
    never exceeds the discrete minimum of the skeleton.
    """
    if skeleton.n < 1:
        raise ValueError("skeleton must cover [0, 1]")
    return sample_path_minimum(skeleton.values, skeleton.gap_lengths, stream)


def run_replication(plan: ExperimentPlan, lam: float, replication: int) -> ErrorSample:
    """One adaptive replication: run to max(n_grid), then sample M once.

    The path stream depends on (master_seed, replication) only, so the
    same replication index sees the same underlying randomness for every
    lambda.
    """
    oracle = BrownianOracle(
        path_stream(plan, ADAPTIVE, replication), capacity=max(plan.n_grid) + 2
    )
    config = MinimizerConfig(lam=lam, max_steps=max(plan.n_grid), level_cap=plan.level_cap)
    state, traces = run(oracle, config)
    true_min = sample_true_min(state.skeleton, true_min_stream(plan, ADAPTIVE, replication))
    m_by_n = np.array([tr.m_n for tr in traces])  # index n - 2
    deltas = {n: float(m_by_n[n - 2] - true_min) for n in plan.n_grid}
    return ErrorSample(replication, deltas)


def run_replications(plan: ExperimentPlan, lam: float, replications) -> list[ErrorSample | None]:
    """Adaptive replications run as one lockstep block.

    Equals ``[run_replication(plan, lam, r) for r in replications]``
    sample for sample, with None for each replication that exceeds the
    level cap (where run_replication raises DepthExceededError).  Each row
    takes the first max(n_grid) normals of its path stream, the ones the
    oracle draws.
    """
    replications = list(replications)
    normals = np.empty((len(replications), max(plan.n_grid)))
    for row, replication in enumerate(replications):
        normals[row] = path_stream(plan, ADAPTIVE, replication).gaussians(normals.shape[1])
    block = search_block(normals, lam, plan.level_cap, plan.n_grid)
    samples: list[ErrorSample | None] = []
    for row, replication in enumerate(replications):
        if block.capped[row]:
            samples.append(None)
            continue
        true_min = sample_path_minimum(block.values[row], block.lengths[row],
                                       true_min_stream(plan, ADAPTIVE, replication))
        deltas = {n: float(m - true_min) for n, m in zip(plan.n_grid, block.m_n[row])}
        samples.append(ErrorSample(replication, deltas))
    return samples


def equidistant_error(increments: np.ndarray, uniforms: np.ndarray) -> float:
    """Error of the equidistant rule given its raw draws (pure core)."""
    n = len(increments)
    values = np.concatenate(([0.0], np.cumsum(increments)))
    discrete_min = float(values.min())
    lengths = np.full(n, 1.0 / n)
    true_min = float(segment_minima(values, lengths, uniforms).min())
    return discrete_min - true_min


def run_equidistant(plan: ExperimentPlan, n: int, replication: int) -> ErrorSample:
    """One equidistant replication at a fixed grid size n.

    Samples W left to right at i/n with increments N(0, 1/n), then draws
    M over the n float segments.
    """
    if n < 1:
        raise ValueError("equidistant rule needs n >= 1")
    return _equidistant_sample(plan, (n,), replication)


def _equidistant_sample(plan: ExperimentPlan, ns, replication: int) -> ErrorSample:
    # the draws for size n are the first n of those for max(ns)
    n_max = max(ns)
    normals = path_stream(plan, EQUIDISTANT, replication).gaussians(n_max)
    uniforms = true_min_stream(plan, EQUIDISTANT, replication).uniform_open_closed(n_max)
    return ErrorSample(replication, {
        n: equidistant_error(normals[:n] * math.sqrt(1.0 / n), uniforms[:n]) for n in ns})


def estimate_lp_error(deltas: np.ndarray, p: float) -> tuple[float, float]:
    """(mean |delta|^p)^(1/p) and the sample std of |delta|^p.

    The std uses ddof=1 and is reported as 0 for a single sample.
    """
    deltas = np.asarray(deltas, dtype=float)
    if len(deltas) == 0:
        raise ValueError("no error samples")
    if not (math.isfinite(p) and p >= 1.0):
        raise ValueError(f"p must be finite and >= 1, got {p}")
    powers = np.abs(deltas) ** p
    lp = float(np.mean(powers) ** (1.0 / p))
    std = float(np.std(powers, ddof=1)) if len(deltas) > 1 else 0.0
    return lp, std


def fit_rate(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of ln(error) against ln(n)."""
    if len(points) < 2:
        raise ValueError("need at least two points to fit a rate")
    ns = np.array([float(n) for n, _ in points])
    errs = np.array([float(e) for _, e in points])
    if np.any(errs <= 0.0):
        raise ValueError("rate fit requires strictly positive errors")
    slope, _ = np.polyfit(np.log(ns), np.log(errs), 1)
    return float(slope)


def lambda_suggestion(r: float, p: float) -> float:
    """Offset parameter large enough for convergence order r in L_p:
    144 * (1 + p * r)."""
    if not all(math.isfinite(x) and x >= 1.0 for x in (r, p)):
        raise ValueError(f"r and p must both be finite and >= 1, got {r} and {p}")
    return 144.0 * (1.0 + p * r)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _map_tasks(fn, workers: int, *columns):
    # [fn(*task) for task in zip(*columns)] over at most ``workers``
    # processes, and never more than there are tasks or usable CPUs: the
    # pool may start all its processes at the first submit
    tasks = len(columns[0])
    workers = min(workers, tasks, _usable_cpus())
    if workers <= 1:
        return list(map(fn, *columns))
    chunk = max(1, tasks // (workers * 4))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, *columns, chunksize=chunk))


def run_experiment(plan: ExperimentPlan, workers: int = 1) -> list[ErrorEstimate]:
    """Run the full plan and aggregate one estimate per (lambda, n) cell.

    Work items are mapped over at most ``workers`` processes: blocks of
    contiguous adaptive replications, one per worker unless a block of
    ``_BLOCK_ENTRIES / max(n_grid)`` rows is smaller, and single
    equidistant replications over the whole n grid.  Output does not
    depend on the worker count.  Replications that exceed the bisection
    depth cap are dropped and counted in the estimates they would have
    contributed to.
    """
    estimates: list[ErrorEstimate] = []
    reps = range(plan.replications)
    if plan.algorithm == ADAPTIVE:
        rows = min(math.ceil(plan.replications / max(workers, 1)),
                   max(1, _BLOCK_ENTRIES // max(plan.n_grid)))
        blocks = [reps[lo : lo + rows] for lo in range(0, plan.replications, rows)]
        for lam in plan.lambdas:
            results = _map_tasks(run_replications, workers,
                                 [plan] * len(blocks), [lam] * len(blocks), blocks)
            samples = [sample for block in results for sample in block]
            kept = [s for s in samples if s is not None]
            dropped = len(samples) - len(kept)
            for n in plan.n_grid:
                estimates.append(_estimate_cell(
                    ADAPTIVE, lam, plan, n,
                    np.array([s.deltas[n] for s in kept]), dropped))
    else:
        samples = _map_tasks(_equidistant_sample, workers, [plan] * len(reps),
                             [plan.n_grid] * len(reps), reps)
        for n in plan.n_grid:
            estimates.append(_estimate_cell(
                EQUIDISTANT, None, plan, n, np.array([s.deltas[n] for s in samples]), 0))
    return estimates


def _estimate_cell(algorithm, lam, plan, n, deltas, dropped) -> ErrorEstimate:
    if len(deltas) == 0:
        # every replication was dropped; keep the row so the count surfaces
        return ErrorEstimate(algorithm, lam, plan.p, n, 0, math.nan, math.nan, dropped)
    lp, std = estimate_lp_error(deltas, plan.p)
    return ErrorEstimate(algorithm, lam, plan.p, n, len(deltas), lp, std, dropped)


def write_errors_csv(estimates: list[ErrorEstimate], path) -> None:
    """Write estimates as CSV with columns algorithm, lambda, p, n, R,
    lp_error, std_pth_power, dropped_replications (17 significant digit
    floats, empty lambda for the equidistant rule)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["algorithm", "lambda", "p", "n", "R", "lp_error",
                         "std_pth_power", "dropped_replications"])
        for est in estimates:
            writer.writerow([
                est.algorithm,
                "" if est.lam is None else f"{est.lam:.17g}",
                f"{est.p:.17g}",
                str(est.n),
                str(est.replications),
                f"{est.lp_error:.17g}",
                f"{est.std_pth_power:.17g}",
                str(est.dropped),
            ])
