import math

import numpy as np
import pytest

from brownmin import harness
from brownmin.bridge import segment_minima
from brownmin.dyadic import ONE, DepthExceededError, DyadicPoint, Skeleton
from brownmin.harness import (
    ADAPTIVE,
    EQUIDISTANT,
    ErrorEstimate,
    ExperimentPlan,
    equidistant_error,
    estimate_lp_error,
    fit_rate,
    lambda_suggestion,
    run_equidistant,
    run_experiment,
    run_replication,
    run_replications,
    sample_path_minimum,
    sample_true_min,
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
    for bad in ({"lambdas": (math.nan,)}, {"lambdas": (1.0, math.inf)},
                {"p": math.inf}, {"p": math.nan}, {"level_cap": 1},
                {"master_seed": -1}):
        with pytest.raises(ValueError):
            small_plan(**bad)


def test_single_segment_inverse_cdf_example():
    # flat skeleton (0,0),(1,0): u = e^-2 maps to a true minimum of -1
    minima = segment_minima([0.0, 0.0], [1.0], [math.exp(-2.0)])
    assert minima[0] == pytest.approx(-1.0, rel=1e-14)


def test_all_boundary_uniforms_reproduce_discrete_min():
    skel = Skeleton()
    skel.insert(ONE, 0.4)
    skel.insert(DyadicPoint(1, 1), -0.2)
    skel.insert(DyadicPoint(1, 2), 0.1)
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


def test_sample_path_minimum_matches_flat_bridge_law():
    # minimum below the flat skeleton (0,0),(1,0) has tail exp(-2 y^2)
    stream = RngStream(606, 0)
    draws = np.sort([sample_path_minimum([0.0, 0.0], [1.0], stream)
                     for _ in range(10_000)])
    analytic = np.exp(-2.0 * draws**2)
    n = len(draws)
    ks = max(
        float(np.max(analytic - np.arange(n) / n)),
        float(np.max(np.arange(1, n + 1) / n - analytic)),
    )
    assert ks < 0.02


def test_run_replication_contract():
    plan = small_plan(n_grid=(4, 8, 16), replications=3)
    sample = run_replication(plan, 1.0, 0)
    assert sample == run_replication(plan, 1.0, 0)  # bit-identical rerun
    assert list(sample.deltas) == [4, 8, 16]
    deltas = np.array([sample.deltas[n] for n in (4, 8, 16)])
    assert np.all(deltas >= 0.0)
    assert np.all(np.diff(deltas) <= 0.0)
    other = run_replication(plan, 1.0, 1)
    assert other.deltas != sample.deltas


def test_replication_paths_shared_across_lambdas():
    # the path stream depends on the replication index, not on lambda
    plan = small_plan(lambdas=(1.0, 4.0), n_grid=(2,))
    a = run_replication(plan, 1.0, 5)
    b = run_replication(plan, 4.0, 5)
    # the first two evaluations are nonadaptive, so W(1), W(1/2) agree:
    # identical delta at n=2 would require the same true-min draw as well
    oracle_a = BrownianOracle(RngStream(42, 0, 5, 0))
    w1 = oracle_a.evaluate(ONE)
    assert w1 == pytest.approx(w1)  # stream reconstruction sanity
    assert a.replication == b.replication == 5


def test_algorithms_use_distinct_stream_namespaces():
    from brownmin.harness import path_stream, true_min_stream

    plan = small_plan()
    adaptive_key = path_stream(plan, ADAPTIVE, 0).key
    equidistant_key = path_stream(plan, EQUIDISTANT, 0).key
    assert adaptive_key != equidistant_key
    assert path_stream(plan, ADAPTIVE, 0).key != true_min_stream(plan, ADAPTIVE, 0).key
    a = path_stream(plan, ADAPTIVE, 0).gaussians(4)
    b = path_stream(plan, EQUIDISTANT, 0).gaussians(4)
    assert not np.array_equal(a, b)


def test_equidistant_error_core_example():
    # n = 1 with W(1) = 0 and uniform e^-2: delta = 0 - (-1) = 1
    delta = equidistant_error(np.array([0.0]), np.array([math.exp(-2.0)]))
    assert delta == pytest.approx(1.0, rel=1e-14)


def test_run_equidistant_contract():
    plan = small_plan(algorithm=EQUIDISTANT, n_grid=(16,))
    sample = run_equidistant(plan, 16, 2)
    assert sample == run_equidistant(plan, 16, 2)
    assert list(sample.deltas) == [16]
    assert sample.deltas[16] >= 0.0
    with pytest.raises(ValueError):
        run_equidistant(plan, 0, 1)


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


def test_fit_rate_examples():
    ns = [4, 16, 64]
    assert fit_rate([(n, n**-0.5) for n in ns]) == pytest.approx(-0.5, abs=1e-12)
    assert fit_rate([(n, 3.7 * n**-2.0) for n in ns]) == pytest.approx(-2.0, abs=1e-12)
    assert fit_rate([(n, 0.25) for n in ns]) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        fit_rate([(4, 0.1)])
    with pytest.raises(ValueError):
        fit_rate([(4, 0.1), (16, 0.0)])


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


def test_run_experiment_shape_and_worker_independence():
    plan = small_plan(lambdas=(1.0, 2.0), n_grid=(4, 8), replications=8)
    serial = run_experiment(plan, workers=1)
    assert len(serial) == 4  # one row per (lambda, n)
    assert [(e.lam, e.n) for e in serial] == [(1.0, 4), (1.0, 8), (2.0, 4), (2.0, 8)]
    assert all(e.algorithm == ADAPTIVE and e.dropped == 0 for e in serial)
    parallel = run_experiment(plan, workers=2)
    assert serial == parallel
    assert run_experiment(plan, workers=3) == serial  # blocks of 3, 3 and 2


def test_pool_size_is_bounded_by_tasks_and_cpus(monkeypatch):
    # a recording stand-in for the process pool: it starts no process
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

    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 4)
    plan = small_plan(replications=3)
    serial = run_experiment(plan, workers=1)
    assert run_experiment(plan, workers=100_000) == serial  # 3 blocks of 1
    assert run_experiment(plan, workers=2) == serial  # blocks of 2 and 1
    equidistant = small_plan(lambdas=(), replications=10, algorithm=EQUIDISTANT)
    assert run_experiment(equidistant, workers=100_000) == run_experiment(equidistant)
    assert sizes == [3, 2, 4]


def _replication_or_none(plan, lam, replication):
    try:
        return run_replication(plan, lam, replication)
    except DepthExceededError:
        return None


@pytest.mark.parametrize("lam", [1.0, 8.0])
@pytest.mark.parametrize("level_cap", [14, 16])
def test_block_search_equals_per_path_search(lam, level_cap):
    plan = small_plan(lambdas=(lam,), n_grid=(2, 16, 100, 256), replications=64,
                      level_cap=level_cap)
    reference = [_replication_or_none(plan, lam, r) for r in range(64)]
    if level_cap == 14:
        assert 0 < sum(s is None for s in reference) < 64  # some rows drop, not all
    for rows in (1, 5, 64):
        blocks = [range(lo, min(lo + rows, 64)) for lo in range(0, 64, rows)]
        assert [s for b in blocks for s in run_replications(plan, lam, b)] == reference


def test_block_search_breaks_ties_like_the_per_path_search():
    # a flat path: every score ties, so each split is the leftmost gap in
    # site order, which the block finds by walking its links
    steps = 300
    block = search_block(np.zeros((3, steps)), 1.0, 1000, (2, 50, steps))
    state, traces = run(DeterministicOracle(lambda t: 0.0, capacity=steps + 2),
                        MinimizerConfig(lam=1.0, max_steps=steps))
    skel = state.skeleton
    assert not block.capped.any()
    assert np.array_equal(block.m_n, np.tile([traces[n - 2].m_n for n in (2, 50, steps)], (3, 1)))
    for row in range(3):
        assert np.array_equal(block.values[row], skel.values)
        assert np.array_equal(block.lengths[row], 2.0 ** -skel.gap_levels.astype(float))


def test_search_block_validation():
    normals = np.zeros((2, 8))
    search_block(normals, 1.0, 1000, (2, 8))
    for args in ((np.zeros(8), 1.0, 1000, (8,)), (normals, 0.5, 1000, (8,)),
                 (normals, 1.0, 1, (8,)), (normals, 1.0, 1000, (1,)),
                 (normals, 1.0, 1000, (9,))):
        with pytest.raises(ValueError):
            search_block(*args)


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
