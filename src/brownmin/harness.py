"""Monte Carlo harness: error arrays, L_p curves and rate fits.

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

:func:`run_experiments` hands out work items that are blocks of
contiguous replications, for both algorithms, as one work list for all
its plans: every (plan, lambda, block) triple is one item, so a call, and
with it a ``compare`` run, opens at most one process pool;
:func:`run_experiment` is its one-plan case.  :func:`run_replications`
searches an adaptive block in lockstep with
:func:`~brownmin.minimizer.search_block` and draws the true minima of all
its rows in one call; :func:`run_equidistant_replications` computes an
equidistant block's cumulative sums, discrete minima and bridge minima per
grid size over one (rows, n) array.  Both draw one row per replication
from its :func:`path_stream` and :func:`true_min_stream` by one recipe,
so a block reproduces :func:`run_replication` and :func:`run_equidistant`
bit for bit, and the output bytes depend on neither the block size nor
the worker count.  Both return a (rows, n grid) array of errors, with a
NaN row for a replication that exceeded the depth cap, blanked after the
search, and one loop aggregates the columns of either.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass, replace

import numpy as np

from .bridge import segment_minima
from .dyadic import DEFAULT_LEVEL_CAP, MAX_LEVEL_CAP, Skeleton
from .minimizer import MinimizerConfig, Trace, run, search_block
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
        if isinstance(self.lambdas, str):  # would run one lambda per character
            raise TypeError(f"lambdas must be a sequence of numbers, got {self.lambdas!r}")
        object.__setattr__(self, "lambdas", tuple(float(l) for l in self.lambdas))
        # operator.index refuses floats such as 16.9 instead of truncating
        object.__setattr__(self, "n_grid", tuple(operator.index(n) for n in self.n_grid))
        for name in ("replications", "master_seed", "level_cap"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        if self.algorithm not in (ADAPTIVE, EQUIDISTANT):
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.algorithm == ADAPTIVE and not self.lambdas:
            raise ValueError("adaptive plan needs at least one lambda")
        if not all(math.isfinite(l) and l >= 1.0 for l in self.lambdas):
            raise ValueError(f"all lambdas must be finite and >= 1, got {self.lambdas}")
        if len(set(self.lambdas)) != len(self.lambdas):
            raise ValueError(f"lambdas must not repeat, got {self.lambdas}")
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


def _draws(plan: ExperimentPlan, algorithm: str, replications) -> tuple[np.ndarray, np.ndarray]:
    # a row per replication: max(n_grid) normals of its path stream and as
    # many uniforms of its true-minimum stream; reshape shapes an empty block
    replications = list(replications)
    n_max = max(plan.n_grid)
    normals = np.array([path_stream(plan, algorithm, r).gaussians(n_max)
                        for r in replications]).reshape(-1, n_max)
    uniforms = np.array([true_min_stream(plan, algorithm, r).uniform_open_closed(n_max)
                         for r in replications]).reshape(-1, n_max)
    return normals, uniforms


def sample_true_min(skeleton: Skeleton, stream: RngStream) -> float:
    """Exact conditional draw of the true minimum given a skeleton.

    One bridge-minimum draw per gap, independent across gaps; the result
    never exceeds the discrete minimum of the skeleton.
    """
    if skeleton.n < 1:
        raise ValueError("skeleton must cover [0, 1]")
    uniforms = stream.uniform_open_closed(skeleton.n)  # one per gap
    return float(segment_minima(skeleton.values, skeleton.gap_lengths, uniforms).min())


def run_replication(plan: ExperimentPlan, lam: float, replication: int) -> np.ndarray:
    """One adaptive replication: run to max(n_grid), then sample M once.

    Returns the errors delta_n, one per n in the grid.  The path stream
    depends on (master_seed, replication) only, so the same replication
    index sees the same underlying randomness for every lambda.
    """
    trace, true_min = _replicate(plan, lam, replication)
    return trace.m_n[np.array(plan.n_grid) - 2] - true_min


def _replicate(plan: ExperimentPlan, lam: float, replication: int) -> tuple[Trace, float]:
    # one adaptive replication's trace to max(n_grid) and its true minimum
    oracle = BrownianOracle(
        path_stream(plan, ADAPTIVE, replication), capacity=max(plan.n_grid) + 2
    )
    config = MinimizerConfig(lam=lam, max_steps=max(plan.n_grid), level_cap=plan.level_cap)
    state, trace = run(oracle, config)
    return trace, sample_true_min(state.skeleton, true_min_stream(plan, ADAPTIVE, replication))


def run_replications(plan: ExperimentPlan, lam: float, replications) -> np.ndarray:
    """Adaptive replications run as one lockstep block.

    Returns one row of errors per replication and one column per n in the
    grid.  Row k equals ``run_replication(plan, lam, replications[k])``
    bit for bit, or is NaN when that replication exceeds the level cap
    (where run_replication raises DepthExceededError).  Rows are drawn as
    an equidistant block's are, the uniforms as sample_true_min draws
    them, one per final gap; a capped row is blanked after the search.
    """
    normals, uniforms = _draws(plan, ADAPTIVE, replications)
    block = search_block(normals, lam, plan.level_cap)
    true_min = segment_minima(block.values, block.lengths, uniforms).min(axis=1)
    deltas = block.m_n[:, np.array(plan.n_grid) - 2] - true_min[:, None]
    deltas[block.capped] = math.nan
    return deltas


def run_equidistant(plan: ExperimentPlan, n: int, replication: int) -> float:
    """Error of one equidistant replication at a fixed grid size n.

    Samples W left to right at i/n with increments N(0, 1/n), then draws
    M over the n float segments: the one-row, one-size case of
    :func:`run_equidistant_replications`.  An n below 1 raises
    ValueError, as the plan's grid does.
    """
    one_size = replace(plan, n_grid=(n,), algorithm=EQUIDISTANT)
    return float(run_equidistant_replications(one_size, (replication,))[0, 0])


def run_equidistant_replications(plan: ExperimentPlan, replications) -> np.ndarray:
    """Equidistant replications over the whole n grid, run as one block.

    Returns one row of errors per replication and one column per n in the
    grid; entry (k, i) equals ``run_equidistant(plan, n_grid[i],
    replications[k])``.  Each row takes the first max(n_grid) normals of
    its path stream and as many uniforms of its true-minimum stream; the
    draws for size n are the first n of those, so a row's errors depend
    on neither the block around it nor the rest of the grid.
    """
    normals, uniforms = _draws(plan, EQUIDISTANT, replications)
    errors = []
    for n in plan.n_grid:
        # W at i/n for i = 0..n, the running sum of N(0, 1/n) increments
        values = np.zeros((len(normals), n + 1))
        np.cumsum(normals[:, :n] * math.sqrt(1.0 / n), axis=1, out=values[:, 1:])
        true_min = segment_minima(values, np.full(n, 1.0 / n), uniforms[:, :n]).min(axis=1)
        errors.append(values.min(axis=1) - true_min)
    return np.stack(errors, axis=1)


def estimate_lp_error(deltas: np.ndarray, p: float) -> tuple[float, float]:
    """(mean |delta|^p)^(1/p) and the sample std of |delta|^p, deltas 1-D.

    Where the mean of the p-th powers is not a positive, normal, finite
    float (small errors at large p underflow), the L_p error is computed
    as D (mean (|delta| / D)^p)^(1/p) with D = max |delta|, or 0 if D is.
    The std uses ddof=1; it is 0 for a single sample and inf for powers
    that overflow.  Where the mean squared deviation of the powers is not
    a normal float, the std is D^p std((|delta| / D)^p).  Where D^p itself
    is below the smallest normal float (at p = 60, D below about 7.5e-6),
    that product is printed as the subnormal or 0 it rounds to.
    """
    deltas = np.asarray(deltas, dtype=float)
    if deltas.ndim != 1 or len(deltas) == 0:
        raise ValueError(f"need a 1-D array of error samples, got shape {deltas.shape}")
    if not (math.isfinite(p) and p >= 1.0):
        raise ValueError(f"p must be finite and >= 1, got {p}")
    sizes = np.abs(deltas)
    largest = float(sizes.max())
    with np.errstate(over="ignore"):  # an overflow takes the scaled form below
        powers = sizes**p
    mean = np.mean(powers)
    if np.finfo(float).tiny <= mean < math.inf:
        lp = float(mean ** (1.0 / p))
    else:
        lp = largest if largest in (0.0, math.inf) else (
            largest * float(np.mean((sizes / largest) ** p)) ** (1.0 / p))
    if len(deltas) == 1:
        return lp, 0.0
    # overflowed powers spread infinitely, not by the NaN of inf - inf
    if mean == math.inf:
        return lp, math.inf
    with np.errstate(over="ignore"):  # squares that overflow take the scaled form
        var = np.var(powers, ddof=1)
    if np.finfo(float).tiny <= var < math.inf:
        return lp, float(np.sqrt(var))
    if largest == 0.0:
        return lp, 0.0
    return lp, largest**p * float(np.std((sizes / largest) ** p, ddof=1))


def fit_rate(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of ln(error) against ln(n).

    Needs at least two distinct n, every n and every error positive and
    finite; a NaN error (a cell whose replications were all dropped) is
    refused too.
    """
    ns = np.array([float(n) for n, _ in points])
    errs = np.array([float(e) for _, e in points])
    if len(np.unique(ns)) < 2:
        raise ValueError("need at least two distinct n to fit a rate")
    # min and max propagate NaN, which fails every comparison
    if not (ns.min() > 0.0 and ns.max() < math.inf):
        raise ValueError("rate fit requires every n positive and finite")
    if not (errs.min() > 0.0 and errs.max() < math.inf):
        raise ValueError("rate fit requires positive, finite errors")
    slope, _ = np.polyfit(np.log(ns), np.log(errs), 1)
    return float(slope)


def lambda_suggestion(r: float, p: float) -> float:
    """Offset parameter large enough for convergence order r in L_p:
    144 * (1 + p * r), refused where that overflows."""
    if not all(math.isfinite(x) and x >= 1.0 for x in (r, p)):
        raise ValueError(f"r and p must both be finite and >= 1, got {r} and {p}")
    lam = 144.0 * (1.0 + p * r)
    if not math.isfinite(lam):
        raise ValueError(f"144 * (1 + p * r) overflows for r = {r} and p = {p}")
    return lam


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _map_tasks(fn, workers: int, *columns):
    # [fn(*task) for task in zip(*columns)] over at most ``workers``
    # processes, one task (a whole block) per dispatch, and never more
    # processes than there are tasks: the pool may start all of them at
    # the first submit
    workers = min(workers, len(columns[0]))
    if workers <= 1:
        return list(map(fn, *columns))
    # imported only where a pool opens: the pool machinery takes about a
    # tenth of the time that importing the command line takes
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, *columns))


def _run_block(plan: ExperimentPlan, lam: float | None, replications: range) -> np.ndarray:
    # one work item: an adaptive block at lam, or an equidistant block
    if plan.algorithm == ADAPTIVE:
        return run_replications(plan, lam, replications)
    return run_equidistant_replications(plan, replications)


def run_experiment(plan: ExperimentPlan, workers: int = 1) -> list[ErrorEstimate]:
    """Run the full plan and aggregate one estimate per (lambda, n) cell:
    the one-plan case of :func:`run_experiments`."""
    return run_experiments((plan,), workers)


def run_experiments(plans, workers: int = 1) -> list[ErrorEstimate]:
    """Run several plans as one work list and return their estimates in
    plan order, one per (lambda, n) cell of each.

    Work items are blocks of contiguous replications, one list for every
    plan mapped over at most min(``workers``, usable CPUs) processes, so a
    call opens at most one process pool.  That count is decided once:
    each lambda's replications, or the equidistant ones, are split into
    one block per worker, unless a block of ``_BLOCK_ENTRIES //
    max(n_grid)`` rows is smaller; an equidistant block covers the whole
    n grid.  Output does not depend on the worker count.  Replications
    that exceed the bisection depth cap are dropped and counted in the
    estimates they would have contributed to.  Fewer than one worker
    raises ValueError.
    """
    if operator.index(workers) < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    # more processes than CPUs only repeat every lockstep step for fewer rows
    workers = min(workers, _usable_cpus())
    cells, tasks = [], []
    for plan in plans:
        lambdas = plan.lambdas if plan.algorithm == ADAPTIVE else (None,)
        blocks = _blocks(plan, workers)
        cells += [(plan, lam, len(blocks)) for lam in lambdas]
        tasks += [(plan, lam, block) for lam in lambdas for block in blocks]
    if not tasks:
        return []
    results = iter(_map_tasks(_run_block, workers, *zip(*tasks)))
    estimates = []
    for plan, lam, blocks in cells:
        # a (replications, n grid) array; a NaN row was dropped
        deltas = np.concatenate([next(results) for _ in range(blocks)])
        kept = deltas[~np.isnan(deltas).any(axis=1)]
        dropped = plan.replications - len(kept)
        for n, column in zip(plan.n_grid, kept.T):
            # a cell whose replications were all dropped keeps its row, so
            # the count surfaces
            lp, std = estimate_lp_error(column, plan.p) if len(kept) else (math.nan, math.nan)
            estimates.append(ErrorEstimate(plan.algorithm, lam, plan.p, n, len(kept),
                                           lp, std, dropped))
    return estimates


def _blocks(plan: ExperimentPlan, workers: int) -> list[range]:
    # contiguous blocks of at most _BLOCK_ENTRIES // max(n_grid) rows (at
    # least one), and one per worker when that is fewer
    rows = min(math.ceil(plan.replications / workers),
               max(1, _BLOCK_ENTRIES // max(plan.n_grid)))
    return [range(lo, min(lo + rows, plan.replications))
            for lo in range(0, plan.replications, rows)]


def write_errors_csv(estimates: list[ErrorEstimate], path) -> None:
    """Write estimates as CSV with columns algorithm, lambda, p, n, R,
    lp_error, std_pth_power, dropped_replications (17 significant digit
    floats, empty lambda for the equidistant rule)."""
    header = "algorithm,lambda,p,n,R,lp_error,std_pth_power,dropped_replications"
    rows = ["%s,%s,%.17g,%d,%d,%.17g,%.17g,%d" % (
        est.algorithm, "" if est.lam is None else "%.17g" % est.lam, est.p, est.n,
        est.replications, est.lp_error, est.std_pth_power, est.dropped) for est in estimates]
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join([header, *rows, ""]))
