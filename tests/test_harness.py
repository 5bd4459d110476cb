import concurrent.futures
import csv
import io
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from brownmin import cli, harness
from brownmin.bridge import BridgeSegment, bridge_min_sample, segment_minima
from brownmin.dyadic import DepthExceededError, Skeleton
from brownmin.harness import (
    ADAPTIVE,
    EQUIDISTANT,
    ErrorEstimate,
    ExperimentPlan,
    estimate_lp_error,
    fit_rate,
    lambda_suggestion,
    path_stream,
    run_equidistant,
    run_equidistant_replications,
    run_experiment,
    run_replication,
    run_replications,
    sample_true_min,
    true_min_stream,
    write_errors_csv,
)
from brownmin.minimizer import MinimizerConfig, run, search_block
from brownmin.oracle import BrownianOracle, DeterministicOracle
from brownmin.rng import RngStream


def small_plan(**overrides):
    base = dict(lambdas=(1.0,), n_grid=(4, 8), p=2.0, replications=6, master_seed=42)
    base.update(overrides)
    return ExperimentPlan(**base)


def test_plan_validation():
    with pytest.raises(ValueError):
        small_plan(lambdas=(0.5,))
    with pytest.raises(ValueError):
        small_plan(replications=0)
    with pytest.raises(ValueError):
        small_plan(p=0.5)
    with pytest.raises(ValueError):
        small_plan(n_grid=(8, 4))
    with pytest.raises(ValueError):
        small_plan(n_grid=(4, 4, 8))
    with pytest.raises(ValueError):
        small_plan(n_grid=(1, 4))  # adaptive needs n >= 2
    small_plan(n_grid=(1, 4), algorithm=EQUIDISTANT)  # fine for the baseline
    with pytest.raises(ValueError):
        small_plan(algorithm="bogus")
    with pytest.raises(ValueError):
        small_plan(lambdas=())
    with pytest.raises(ValueError, match="repeat"):
        small_plan(lambdas=(1.0, 1.0))
    for bad in ({"lambdas": (math.nan,)}, {"lambdas": (1.0, math.inf)},
                {"p": math.inf}, {"p": math.nan}, {"level_cap": 1},
                {"master_seed": -1}):
        with pytest.raises(ValueError):
            small_plan(**bad)
    # a float is refused, not truncated: (16.9, 32) became (16, 32) and
    # master_seed 1.5 ran as seed 1
    for bad in ({"n_grid": (16.9, 32)}, {"n_grid": (4.0, 8)}, {"master_seed": 1.5},
                {"replications": 2.5}, {"level_cap": 10.5}):
        with pytest.raises(TypeError):
            small_plan(**bad)
    plan = small_plan(n_grid=np.array([4, 8]), replications=np.int64(6))
    assert plan.n_grid == (4, 8) and type(plan.n_grid[0]) is int
    assert type(plan.replications) is int


def test_plan_refuses_a_string_of_lambdas():
    # "12" iterated as the characters "1" and "2" and ran lambda 1 and 2
    with pytest.raises(TypeError):
        small_plan(lambdas="12")


def test_single_segment_inverse_cdf_example():
    # flat skeleton (0,0),(1,0): u = e^-2 maps to a true minimum of -1
    minima = segment_minima([0.0, 0.0], [1.0], [math.exp(-2.0)])
    assert minima[0] == pytest.approx(-1.0, rel=1e-14)


def test_all_boundary_uniforms_reproduce_discrete_min():
    skel = Skeleton()
    skel.insert(0.4)
    skel.split(1, -0.2)  # the site 1/2
    skel.split(1, 0.1)  # the site 1/4
    minima = segment_minima(skel.values, skel.gap_lengths, np.ones(3))
    assert float(minima.min()) == skel.min_value == -0.2


def test_two_segment_example():
    # skeleton (0,0),(1/2,-1),(1,1) with both uniforms 0.5
    values = [0.0, -1.0, 1.0]
    lengths = [0.5, 0.5]
    minima = segment_minima(values, lengths, [0.5, 0.5])
    c = -0.5 * math.log(0.5) / 2.0
    y1 = ((0.0 - 1.0) - math.sqrt((0.0 + 1.0) ** 2 + 4.0 * c)) / 2.0
    y2 = ((-1.0 + 1.0) - math.sqrt((-1.0 - 1.0) ** 2 + 4.0 * c)) / 2.0
    assert minima == pytest.approx([y1, y2], rel=1e-14)
    assert min(minima) == pytest.approx(y1, rel=1e-14)
    assert min(minima) <= -1.0


def test_sample_true_min_never_exceeds_discrete_min():
    rng = np.random.default_rng(77)
    for case in range(10):
        oracle = BrownianOracle(RngStream(800 + case, 0))
        state, _ = run(oracle, MinimizerConfig(lam=1.0, max_steps=30))
        stream = RngStream(800 + case, 1)
        m = sample_true_min(state.skeleton, stream)
        assert m <= state.skeleton.min_value
        again = sample_true_min(state.skeleton, RngStream(800 + case, 1))
        assert m == again


def test_sample_true_min_requires_coverage():
    with pytest.raises(ValueError):
        sample_true_min(Skeleton(), RngStream(1, 0))


def test_sample_true_min_matches_flat_bridge_law():
    # minimum below the flat skeleton (0,0),(1,0) has tail exp(-2 y^2)
    flat = Skeleton()
    flat.insert(0.0)
    stream = RngStream(606, 0)
    draws = np.sort([sample_true_min(flat, stream) for _ in range(10_000)])
    analytic = np.exp(-2.0 * draws**2)
    n = len(draws)
    ks = max(
        float(np.max(analytic - np.arange(n) / n)),
        float(np.max(np.arange(1, n + 1) / n - analytic)),
    )
    assert ks < 0.02


def test_run_replication_contract():
    plan = small_plan(n_grid=(4, 8, 16), replications=3)
    deltas = run_replication(plan, 1.0, 0)
    assert np.array_equal(deltas, run_replication(plan, 1.0, 0))  # bit-identical rerun
    assert deltas.shape == (3,)  # one error per n in (4, 8, 16)
    assert np.all(deltas >= 0.0)
    assert np.all(np.diff(deltas) <= 0.0)
    other = run_replication(plan, 1.0, 1)
    assert not np.array_equal(other, deltas)


def test_replication_paths_shared_across_lambdas():
    # the path stream depends on the replication index, not on lambda
    plan = small_plan(lambdas=(1.0, 4.0), n_grid=(2,))
    a = run_replication(plan, 1.0, 5)
    b = run_replication(plan, 4.0, 5)
    # the first two evaluations are nonadaptive, so W(1), W(1/2) agree,
    # and the true-min stream depends on the replication only as well: the
    # delta at n=2 is the same for both lambdas
    assert np.array_equal(a, b)


def test_algorithms_use_distinct_stream_namespaces():
    plan = small_plan()
    adaptive_key = path_stream(plan, ADAPTIVE, 0).key
    equidistant_key = path_stream(plan, EQUIDISTANT, 0).key
    assert adaptive_key != equidistant_key
    assert path_stream(plan, ADAPTIVE, 0).key != true_min_stream(plan, ADAPTIVE, 0).key
    a = path_stream(plan, ADAPTIVE, 0).gaussians(4)
    b = path_stream(plan, EQUIDISTANT, 0).gaussians(4)
    assert not np.array_equal(a, b)


def test_run_equidistant_contract():
    plan = small_plan(algorithm=EQUIDISTANT, n_grid=(16,))
    delta = run_equidistant(plan, 16, 2)
    assert delta == run_equidistant(plan, 16, 2)
    assert type(delta) is float
    assert delta >= 0.0
    with pytest.raises(ValueError):
        run_equidistant(plan, 0, 1)


def _equidistant_reference(plan, n, replication):
    # one BridgeSegment and bridge_min_sample per segment, from the first
    # n draws of the replication's streams
    n_max = max(plan.n_grid)
    normals = path_stream(plan, EQUIDISTANT, replication).gaussians(n_max)
    increments = normals[:n] * math.sqrt(1.0 / n)
    uniforms = true_min_stream(plan, EQUIDISTANT, replication).uniform_open_closed(n_max)[:n]
    values = [0.0]
    for increment in increments.tolist():
        values.append(values[-1] + increment)
    true_min = min(bridge_min_sample(BridgeSegment(values[i], values[i + 1], 1.0 / n), u)
                   for i, u in enumerate(uniforms.tolist()))
    return min(values) - true_min


def test_equidistant_blocks_equal_single_replications(monkeypatch):
    plan = small_plan(lambdas=(), algorithm=EQUIDISTANT, n_grid=(16, 64, 512), replications=70)
    reps = range(plan.replications)
    by_rows = {rows: np.concatenate([run_equidistant_replications(plan, reps[lo : lo + rows])
                                     for lo in range(0, len(reps), rows)])
               for rows in (1, 5, len(reps))}
    deltas = by_rows[1]
    assert np.array_equal(by_rows[5], deltas) and np.array_equal(by_rows[len(reps)], deltas)
    assert deltas.shape == (len(reps), len(plan.n_grid))
    for r in reps:
        for n, delta in zip(plan.n_grid, deltas[r].tolist()):
            assert delta == pytest.approx(_equidistant_reference(plan, n, r),
                                          rel=1e-12, abs=0.0)
    # run_equidistant is the one-row, one-size case
    for n, delta in zip(plan.n_grid, deltas[3].tolist()):
        assert run_equidistant(plan, n, 3) == delta
    # run_experiment at the default block size (one block), on 1 and 2
    # workers, and at blocks of 5 rows and of 1
    expected = [ErrorEstimate(EQUIDISTANT, None, plan.p, n, len(reps),
                              *estimate_lp_error(column.copy(), plan.p))
                for n, column in zip(plan.n_grid, deltas.T)]
    assert harness._BLOCK_ENTRIES // 512 >= len(reps)
    assert run_experiment(plan, workers=1) == expected
    assert run_experiment(plan, workers=2) == expected
    for rows in (5, 1):
        monkeypatch.setattr(harness, "_BLOCK_ENTRIES", 512 * rows)
        assert run_experiment(plan) == expected
    assert run_equidistant_replications(plan, []).shape == (0, len(plan.n_grid))
    # seeds of more entropy words than numpy's seed pool, and replication
    # 2**32, a two-word key entry, in one block with one-word entries
    reps = [0, 1, 2**32 - 1, 2**32]
    for master_seed in (2**64 + 3, 2**130):
        wide = small_plan(lambdas=(), algorithm=EQUIDISTANT, n_grid=(16, 64, 512),
                          master_seed=master_seed)
        deltas = run_equidistant_replications(wide, reps)
        for r, row in zip(reps, deltas.tolist()):
            for n, delta in zip(wide.n_grid, row):
                assert run_equidistant(wide, n, r) == delta
                assert delta == pytest.approx(_equidistant_reference(wide, n, r),
                                              rel=1e-12, abs=0.0)


@pytest.fixture
def mapped(monkeypatch):
    """The work items and worker count of each map run_experiment makes,
    as (algorithms, blocks, workers); the items still run."""
    maps = []
    map_tasks = harness._map_tasks

    def recording(fn, workers, *columns):
        maps.append(({plan.algorithm for plan in columns[0]}, list(columns[-1]), workers))
        return map_tasks(fn, workers, *columns)

    monkeypatch.setattr(harness, "_map_tasks", recording)
    return maps


def test_blocks_stay_within_the_memory_bound(mapped):
    for algorithm in (ADAPTIVE, EQUIDISTANT):
        run_experiment(small_plan(algorithm=algorithm, n_grid=(16, 512), replications=300))
    (adaptive_kind, adaptive, _), (equidistant_kind, equidistant, _) = mapped
    assert adaptive_kind == {ADAPTIVE} and equidistant_kind == {EQUIDISTANT}
    # one size rule for both algorithms
    for blocks in (adaptive, equidistant):
        assert len(blocks) > 1
        assert [r for block in blocks for r in block] == list(range(300))
        assert all(len(block) * 512 <= harness._BLOCK_ENTRIES for block in blocks)


def _traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_an_equidistant_block_needs_no_more_memory_than_an_adaptive_one():
    # what lets both algorithms share one block size: the same rows and
    # grid peak lower for the equidistant rule than for the search
    adaptive = small_plan(n_grid=(16, 256), replications=harness._BLOCK_ENTRIES // 256)
    equidistant = replace(adaptive, lambdas=(), algorithm=EQUIDISTANT)
    (block,) = harness._blocks(adaptive, 1)
    assert harness._blocks(equidistant, 1) == [block] and len(block) == 256
    assert (_traced_peak(run_replications, adaptive, 1.0, block)
            >= _traced_peak(run_equidistant_replications, equidistant, block))


def test_workers_beyond_the_usable_cpus_split_nothing(mapped, monkeypatch):
    # the worker count is capped once, before the replications are split:
    # asking for 64 workers on one CPU maps one block per lambda to one
    # worker, not 16 blocks of one row
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
    plan = small_plan(lambdas=(1.0, 2.0), replications=16)
    assert harness.run_experiments((plan,), workers=64) == run_experiment(plan)
    _, blocks, workers = mapped[0]
    assert blocks == [range(16), range(16)] and workers == 1


def test_usable_cpus_falls_back_to_the_cpu_count(monkeypatch):
    # a platform without an affinity call counts every CPU, or one
    monkeypatch.delattr(harness.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 3)
    assert harness._usable_cpus() == 3
    monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
    assert harness._usable_cpus() == 1


def test_estimate_lp_error_examples():
    lp, std = estimate_lp_error(np.array([0.2]), 1.0)
    assert lp == 0.2 and std == 0.0
    lp, std = estimate_lp_error(np.array([0.1, 0.3]), 2.0)
    assert lp == pytest.approx(math.sqrt((0.01 + 0.09) / 2.0), rel=1e-15)
    assert lp == pytest.approx(0.223607, abs=1e-6)
    lp, _ = estimate_lp_error(np.zeros(5), 2.0)
    assert lp == 0.0
    with pytest.raises(ValueError):
        estimate_lp_error(np.array([]), 2.0)
    for bad_p in (0.5, math.inf, math.nan):
        with pytest.raises(ValueError):
            estimate_lp_error(np.array([0.1]), bad_p)


def test_estimate_lp_error_refuses_deltas_that_are_not_one_dimensional():
    # a (1, 3) array gave std 0: len counted one row, the means ran over all
    for deltas in (np.array([[0.1, 0.2, 0.3]]), np.array(0.1), np.zeros((2, 2))):
        with pytest.raises(ValueError, match="1-D"):
            estimate_lp_error(deltas, 2.0)


def test_estimate_lp_error_scales_powers_that_underflow_or_overflow():
    # the p-th powers of both errors underflow to 0 at p = 200, and 3^700
    # overflows: each estimate is max |delta| times the L_p norm of
    # |delta| / max |delta|
    lp, std = estimate_lp_error(np.array([1e-3, 2e-3]), 200.0)
    assert lp == pytest.approx(2e-3 * ((1.0 + 2.0**-200) / 2.0) ** (1.0 / 200.0), rel=1e-15)
    assert std == 0.0
    lp, std = estimate_lp_error(np.array([3.0, 2.0]), 700.0)
    assert lp == pytest.approx(3.0 * ((1.0 + (2.0 / 3.0) ** 700) / 2.0) ** (1.0 / 700.0),
                               rel=1e-15)
    assert std == math.inf
    # a subnormal mean of the powers is scaled too
    assert estimate_lp_error(np.array([1e-160, -1e-160]), 2.0)[0] == 1e-160
    # normal powers whose squared deviations underflow, or overflow, keep
    # their std in the scaled form
    _, std = estimate_lp_error(np.array([1e-2, 2e-2]), 100.0)
    assert std == pytest.approx((0.02**100 - 0.01**100) / math.sqrt(2.0), rel=1e-14)
    _, std = estimate_lp_error(np.array([1e100, 3e100]), 3.0)
    assert std == pytest.approx((3e100**3 - 1e100**3) / math.sqrt(2.0), rel=1e-14)


def test_lp_error_grows_with_p_where_the_powers_underflow():
    # the plan of ``experiment --lambdas 1 --reps 16 --n-grid 256,1024,4096
    # --seed 1``: by the power-mean inequality L_p cannot fall as p grows,
    # yet the direct form gave 0 at p = 60 and n = 4096
    plan = ExperimentPlan(lambdas=(1.0,), n_grid=(256, 1024, 4096), p=2.0, replications=16,
                          master_seed=1)
    deltas = run_replications(plan, 1.0, range(plan.replications))
    for column in deltas.T:
        estimates = [estimate_lp_error(column, p) for p in (2.0, 8.0, 60.0, 200.0)]
        errors = [lp for lp, _ in estimates]
        assert 0.0 < errors[0] and all(a <= b for a, b in zip(errors, errors[1:])), errors
        assert all(math.isfinite(lp) and math.isfinite(std) for lp, std in estimates)


def test_fit_rate_examples():
    ns = [4, 16, 64]
    assert fit_rate([(n, n**-0.5) for n in ns]) == pytest.approx(-0.5, abs=1e-12)
    assert fit_rate([(n, 3.7 * n**-2.0) for n in ns]) == pytest.approx(-2.0, abs=1e-12)
    assert fit_rate([(n, 0.25) for n in ns]) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        fit_rate([(4, 0.1)])
    with pytest.raises(ValueError):
        fit_rate([(4, 0.1), (16, 0.0)])
    # each of these gave a NaN slope; an infinite n made the least-squares
    # solver fail to converge
    for bad in ([(0, 0.1), (16, 0.05)], [(-4, 0.1), (16, 0.05)], [(4, 0.1), (4, 0.05)],
                [(math.nan, 0.1), (16, 0.05)], [(4, math.nan), (16, 0.05)], [],
                [(4, 0.1), (16, math.inf)], [(4, 0.1), (math.inf, 0.01)]):
        with pytest.raises(ValueError):
            fit_rate(bad)


def test_lambda_suggestion():
    assert lambda_suggestion(1.0, 1.0) == 288.0
    assert lambda_suggestion(2.0, 2.0) == 720.0
    assert lambda_suggestion(1.0, 2.0) == 432.0
    with pytest.raises(ValueError):
        lambda_suggestion(0.5, 1.0)
    with pytest.raises(ValueError):
        lambda_suggestion(1.0, 0.0)
    with pytest.raises(ValueError):
        lambda_suggestion(math.nan, 1.0)
    with pytest.raises(ValueError):
        lambda_suggestion(1.0, math.inf)
    # finite inputs whose lambda overflows: every consumer of lambda refuses inf
    with pytest.raises(ValueError, match="overflows"):
        lambda_suggestion(1e308, 1e308)


def test_run_experiment_shape_and_worker_independence():
    plan = small_plan(lambdas=(1.0, 2.0), n_grid=(4, 8), replications=8)
    serial = run_experiment(plan, workers=1)
    assert len(serial) == 4  # one row per (lambda, n)
    assert [(e.lam, e.n) for e in serial] == [(1.0, 4), (1.0, 8), (2.0, 4), (2.0, 8)]
    assert all(e.algorithm == ADAPTIVE and e.dropped == 0 for e in serial)
    parallel = run_experiment(plan, workers=2)
    assert serial == parallel
    assert run_experiment(plan, workers=3) == serial  # blocks of 3, 3 and 2
    for workers in (0, -5):
        with pytest.raises(ValueError):
            run_experiment(plan, workers=workers)
    with pytest.raises(TypeError):
        run_experiment(plan, workers=1.5)


@pytest.fixture
def pool_sizes(monkeypatch):
    """Sizes of the process pools run_experiment opens, through a
    recording stand-in for the pool that starts no process.  The harness
    imports the pool from concurrent.futures when it opens one."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, *columns, chunksize=1):
            return map(fn, *columns)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 4)
    return sizes


def test_no_plans_map_nothing(mapped):
    assert harness.run_experiments(()) == []
    assert mapped == []


def test_pool_size_is_bounded_by_tasks_and_cpus(pool_sizes):
    plan = small_plan(replications=3)
    serial = run_experiment(plan, workers=1)
    assert run_experiment(plan, workers=100_000) == serial  # 3 blocks of 1
    assert run_experiment(plan, workers=2) == serial  # blocks of 2 and 1
    equidistant = small_plan(lambdas=(), replications=10, algorithm=EQUIDISTANT)
    assert run_experiment(equidistant, workers=100_000) == run_experiment(equidistant)
    assert pool_sizes == [3, 2, 4]


def test_one_pool_serves_every_lambda(pool_sizes):
    # every (lambda, block) pair is one work item of a single map: one
    # pool per run_experiment call, not one per lambda
    plan = small_plan(lambdas=(1.0, 2.0, 4.0), replications=4)
    assert run_experiment(plan, workers=2) == run_experiment(plan)
    assert pool_sizes == [2]


def test_compare_opens_one_pool(pool_sizes, tmp_path):
    # the adaptive and the equidistant blocks of a compare run are one
    # work list: one pool, not one per algorithm
    def compare(threads):
        out = tmp_path / f"{threads}.csv"
        assert cli.main(["compare", "--lambdas", "1,2", "--p", "2", "--reps", "4",
                         "--n-grid", "4,8", "--seed", "3", "--threads", str(threads),
                         "--out", str(out)]) == 0
        return out.read_bytes()

    assert compare(2) == compare(1)
    assert pool_sizes == [2]


def _replication_or_nan(plan, lam, replication):
    try:
        return run_replication(plan, lam, replication)
    except DepthExceededError:
        return np.full(len(plan.n_grid), math.nan)


@pytest.mark.parametrize("lam", [1.0, 8.0])
@pytest.mark.parametrize("level_cap", [14, 16])
def test_block_search_equals_per_path_search(lam, level_cap):
    # the second grid ends one step past a doubling of the block's row
    # width, so the rows have just grown when the search ends
    for n_grid in ((2, 16, 100, 256), (2, 33, 100, 257)):
        plan = small_plan(lambdas=(lam,), n_grid=n_grid, replications=64,
                          level_cap=level_cap)
        reference = np.array([_replication_or_nan(plan, lam, r) for r in range(64)])
        capped = np.isnan(reference).all(axis=1)
        assert np.array_equal(capped, np.isnan(reference).any(axis=1))
        if level_cap == 14:
            assert 0 < capped.sum() < 64  # some rows drop, not all
        for rows in (1, 5, 64):
            blocks = [range(lo, min(lo + rows, 64)) for lo in range(0, 64, rows)]
            deltas = np.concatenate([run_replications(plan, lam, b) for b in blocks])
            assert np.array_equal(deltas, reference, equal_nan=True)
    assert run_replications(plan, lam, []).shape == (0, len(n_grid))
    # seeds of more entropy words than numpy's seed pool, and replication
    # 2**32, a two-word key entry, in one block with one-word entries
    reps = [0, 1, 2**32 - 1, 2**32]
    for master_seed in (2**64 + 3, 2**130):
        plan = small_plan(lambdas=(lam,), n_grid=(2, 16, 100), master_seed=master_seed,
                          level_cap=level_cap)
        reference = np.array([_replication_or_nan(plan, lam, r) for r in reps])
        assert np.array_equal(run_replications(plan, lam, reps), reference, equal_nan=True)


def test_block_search_breaks_ties_like_the_per_path_search():
    # a flat path: every score ties, so each split is the leftmost gap in
    # site order, which the block finds by walking its links
    steps = 300
    block = search_block(np.zeros((3, steps)), 1.0, 1000)
    state, traces = run(DeterministicOracle(lambda t: 0.0),
                        MinimizerConfig(lam=1.0, max_steps=steps))
    skel = state.skeleton
    assert not block.capped.any()
    assert np.array_equal(block.m_n, np.tile(traces.m_n, (3, 1)))
    for row in range(3):
        assert np.array_equal(block.values[row], skel.values)
        assert np.array_equal(block.lengths[row], 2.0 ** -skel.gap_levels.astype(float))


def test_search_block_validation():
    normals = np.zeros((2, 8))
    assert search_block(normals, 1.0, 1000).m_n.shape == (2, 7)
    for args in ((np.zeros(8), 1.0, 1000), (normals, 0.5, 1000), (normals, 1.0, 1),
                 (np.zeros((2, 1)), 1.0, 1000)):
        with pytest.raises(ValueError):
            search_block(*args)
    with pytest.raises(TypeError):
        search_block(normals, 1.0, 20.5)


@pytest.mark.parametrize("lam", [1.0, 8.0])
def test_block_records_m_n_at_every_n_like_the_per_path_search(lam):
    # every row's whole M_n history, not only the grid's n, is the trace's
    steps = 600
    streams = [RngStream(91, row) for row in range(8)]
    block = search_block(np.array([s.gaussians(steps) for s in streams]), lam, 1000)
    assert block.m_n.shape == (8, steps - 1) and not block.capped.any()
    config = MinimizerConfig(lam=lam, max_steps=steps)
    for row in range(8):
        oracle = BrownianOracle(RngStream(91, row), capacity=steps)
        assert block.m_n[row].tobytes() == run(oracle, config)[1].m_n.tobytes()


@pytest.mark.parametrize("column", [0, 40, 63])
def test_search_block_refuses_a_non_finite_score(column):
    # a NaN or infinite normal is refused on entry, wherever it sits: the
    # gaps beside an infinite value score 0, so no score check would see it
    normals = np.random.default_rng(3).standard_normal((4, 64))
    search_block(normals, 1.0, 1000)
    for bad in (math.nan, math.inf, -math.inf):
        normals[2, column] = bad
        with pytest.raises(FloatingPointError, match=f"non-finite normal {bad} in row 2, "
                                                     f"column {column}"):
            search_block(normals, 1.0, 1000)


def test_run_experiment_equidistant():
    plan = small_plan(algorithm=EQUIDISTANT, n_grid=(4, 8), replications=8)
    rows = run_experiment(plan)
    assert [(e.algorithm, e.lam, e.n) for e in rows] == [
        (EQUIDISTANT, None, 4),
        (EQUIDISTANT, None, 8),
    ]
    assert all(e.lp_error > 0.0 for e in rows)


def test_dropped_replications_are_counted():
    # a tiny level cap forces every adaptive replication to fail
    plan = small_plan(n_grid=(64,), replications=3, level_cap=4)
    rows = run_experiment(plan)
    assert len(rows) == 1
    assert rows[0].dropped == 3 and rows[0].replications == 0
    assert math.isnan(rows[0].lp_error)
    # with a workable cap nothing is dropped
    rows = run_experiment(small_plan(n_grid=(4,), replications=3))
    assert rows[0].dropped == 0 and rows[0].replications == 3


def test_errors_csv(tmp_path):
    estimates = [
        ErrorEstimate(ADAPTIVE, 1.0, 2.0, 16, 10, 0.125, 0.001, 0),
        ErrorEstimate(EQUIDISTANT, None, 2.0, 16, 10, 0.25, 0.002, 1),
    ]
    out = tmp_path / "errors.csv"
    write_errors_csv(estimates, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "algorithm,lambda,p,n,R,lp_error,std_pth_power,dropped_replications"
    assert lines[1] == "adaptive,1,2,16,10,0.125,0.001,0"
    assert lines[2] == "equidistant,,2,16,10,0.25,0.002,1"
    write_errors_csv(estimates, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_text() == out.read_text()
    # floats whose formatting is easy to get wrong: the bytes are those
    # of csv.writer with each field formatted on its own
    estimates += [
        ErrorEstimate(ADAPTIVE, 5e-324, math.nan, 2, 1, math.inf, -0.0, 3),
        ErrorEstimate(EQUIDISTANT, None, math.inf, 1, 7, -0.0, math.nan, 0),
        ErrorEstimate(ADAPTIVE, 1e308, 2.5, 512, 4, 5e-324, -math.inf, 1),
    ]
    write_errors_csv(estimates, out)
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(lines[0].split(","))
    for est in estimates:
        writer.writerow([est.algorithm, "" if est.lam is None else f"{est.lam:.17g}",
                         f"{est.p:.17g}", str(est.n), str(est.replications),
                         f"{est.lp_error:.17g}", f"{est.std_pth_power:.17g}",
                         str(est.dropped)])
    assert out.read_bytes() == expected.getvalue().encode()
