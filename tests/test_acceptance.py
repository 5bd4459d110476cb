"""Acceptance suite: one test per criterion, at the stated sizes and
tolerances.  Each test prints a single PASS line with the measured
quantities once its assertions hold (visible with pytest -v -s)."""

import math

import numpy as np
import pytest

from brownmin.bridge import BridgeSegment, bridge_min_cdf, bridge_min_sample, interior_sample
from brownmin.cli import main
from brownmin.dyadic import DyadicPoint
from brownmin.harness import (
    EQUIDISTANT,
    ExperimentPlan,
    estimate_lp_error,
    fit_rate,
    run_equidistant,
    run_experiment,
    run_replications,
)
from brownmin.minimizer import (
    MinimizerConfig,
    check_score_bound,
    init_state,
    run,
    search_offset,
    split_scores,
    step,
)
from brownmin.oracle import BrownianOracle, DeterministicOracle, grid_reference_min
from brownmin.rng import RngStream

SEED_MC = 1101
SEED_RATE = 2202
SEED_KS = 4404
SEED_BOUND = 5505
SEED_QUAD = 6606
SEED_MIDPOINT = 7707


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def adaptive_lam1():
    """1000 adaptive replications at lambda=1 run to n=512, as one block."""
    plan = ExperimentPlan(lambdas=(1.0,), n_grid=(32, 64, 128, 256, 512),
                          p=2.0, replications=1000, master_seed=SEED_MC)
    samples = run_replications(plan, 1.0, range(plan.replications))
    return {n: np.array([s.deltas[n] for s in samples]) for n in plan.n_grid}


def _adaptive_deltas_at_256(lam):
    plan = ExperimentPlan(lambdas=(lam,), n_grid=(256,), p=2.0,
                          replications=1000, master_seed=SEED_MC)
    return np.array([s.deltas[256]
                     for s in run_replications(plan, lam, range(plan.replications))])


@pytest.fixture(scope="module")
def adaptive_lam4_256():
    return _adaptive_deltas_at_256(4.0)


@pytest.fixture(scope="module")
def adaptive_lam8_256():
    return _adaptive_deltas_at_256(8.0)


@pytest.fixture(scope="module")
def equidistant_8192():
    plan = ExperimentPlan(lambdas=(), n_grid=(8192,), p=2.0, replications=1000,
                          master_seed=SEED_MC, algorithm=EQUIDISTANT)
    return np.array([run_equidistant(plan, 8192, r).deltas[8192]
                     for r in range(plan.replications)])


def _ks_distance(sample, cdf):
    xs = np.sort(np.asarray(sample))
    n = len(xs)
    f = np.array([cdf(x) for x in xs])
    lo = np.max(f - np.arange(n) / n)
    hi = np.max(np.arange(1, n + 1) / n - f)
    return max(lo, hi)


def _lp_with_se(deltas, p):
    """L_p estimate and its delta-method standard error."""
    powers = np.abs(deltas) ** p
    mean_pow = float(np.mean(powers))
    lp = mean_pow ** (1.0 / p)
    se_mean = float(np.std(powers, ddof=1)) / math.sqrt(len(powers))
    se_lp = lp * se_mean / (p * mean_pow)
    return lp, se_lp


# --------------------------------------------------------------- criteria

def test_criterion_1_nonadaptive_rate():
    plan = ExperimentPlan(lambdas=(), n_grid=(16, 64, 256, 1024, 4096), p=1.0,
                          replications=2000, master_seed=SEED_RATE,
                          algorithm=EQUIDISTANT)
    rows = run_experiment(plan)
    slope = fit_rate([(row.n, row.lp_error) for row in rows])
    assert -0.65 <= slope <= -0.35
    print(f"PASS criterion 1: equidistant L1 rate slope {slope:.4f} in [-0.65, -0.35]")


def test_criterion_2_adaptive_superiority(adaptive_lam1, equidistant_8192):
    l2 = {n: estimate_lp_error(d, 2.0)[0] for n, d in adaptive_lam1.items()}
    slope = fit_rate(sorted(l2.items()))
    assert slope <= -1.0
    eq_l2, _ = estimate_lp_error(equidistant_8192, 2.0)
    assert l2[128] < eq_l2
    print(
        f"PASS criterion 2: adaptive slope {slope:.3f} <= -1.0; "
        f"adaptive L2(128) = {l2[128]:.4e} < equidistant L2(8192) = {eq_l2:.4e}"
    )


def test_criterion_3_error_increasing_in_lambda(
    adaptive_lam1, adaptive_lam4_256, adaptive_lam8_256
):
    lp1, se1 = _lp_with_se(adaptive_lam1[256], 2.0)
    lp4, se4 = _lp_with_se(adaptive_lam4_256, 2.0)
    lp8, se8 = _lp_with_se(adaptive_lam8_256, 2.0)
    assert lp1 <= lp4 + 2.0 * math.hypot(se1, se4)
    assert lp4 <= lp8 + 2.0 * math.hypot(se4, se8)
    print(
        f"PASS criterion 3: L2(n=256) increasing in lambda: "
        f"{lp1:.4e} (lam=1) <= {lp4:.4e} (lam=4) <= {lp8:.4e} (lam=8)"
    )


def test_criterion_4_bridge_minimum_sampler():
    segments = [BridgeSegment(0.0, 0.0, 1.0), BridgeSegment(0.3, 0.7, 0.25)]
    distances = []
    for i, seg in enumerate(segments):
        u = RngStream(SEED_KS, i).uniform_open_closed(10_000)
        sample = [bridge_min_sample(seg, float(ui)) for ui in u]
        d = _ks_distance(sample, lambda y: bridge_min_cdf(seg, y))
        distances.append(d)
        assert d < 0.02
    # inverse-CDF round trip across twelve decades of u
    worst = 0.0
    for seg in segments:
        for u in np.logspace(-12, 0, 200):
            back = bridge_min_cdf(seg, bridge_min_sample(seg, float(u)))
            worst = max(worst, abs(back - u) / u)
    assert worst <= 1e-12
    print(
        f"PASS criterion 4: KS distances {distances[0]:.4f}, {distances[1]:.4f} < 0.02; "
        f"round-trip relative error {worst:.2e} <= 1e-12"
    )


def test_criterion_5_midpoint_bridge_variance():
    results = []
    for i, T in enumerate((0.5, 1.0 / 64.0)):
        seg = BridgeSegment(0.1, -0.2, T)
        z = RngStream(SEED_MIDPOINT, i).gaussians(100_000)
        draws = np.array([interior_sample(seg, T / 2.0, zi) for zi in z])
        var = float(draws.var())
        rel = abs(var - T / 4.0) / (T / 4.0)
        results.append((T, var, rel))
        assert rel < 0.05
    msg = ", ".join(f"T={T}: var {v:.3e} (target {T/4.0:.3e}, off {r:.1%})"
                    for T, v, r in results)
    print(f"PASS criterion 5: midpoint variance within 5%: {msg}")


def test_criterion_6_deterministic_oracle_convergence():
    oracle = DeterministicOracle(lambda t: (t - 1.0 / 3.0) ** 2 - 1.0 / 9.0)
    reference = grid_reference_min(
        DeterministicOracle(lambda t: (t - 1.0 / 3.0) ** 2 - 1.0 / 9.0), 10**6
    )
    assert reference == pytest.approx(-1.0 / 9.0, abs=1e-12)
    state, _ = run(oracle, MinimizerConfig(lam=1.0, max_steps=200))
    err = abs(state.m_n - reference)
    assert err <= 1e-3
    print(f"PASS criterion 6: M_200 = {state.m_n:.8f}, |M_200 - grid min| = {err:.2e} <= 1e-3")


def test_criterion_7_conditional_score_bound():
    checked = 0
    applicable = 0
    for lam_index, lam in enumerate((1.0, 8.0)):
        config = MinimizerConfig(lam=lam, max_steps=1000)
        for rep in range(1000):
            oracle = BrownianOracle(RngStream(SEED_BOUND, lam_index, rep), capacity=1002)
            state, _ = init_state(oracle, config)
            # check_score_bound raises on any violation of the bound
            record = check_score_bound(state, config)
            checked += 1
            applicable += record.applicable
            while state.n < config.max_steps:
                step(state, oracle, config)
                record = check_score_bound(state, config)
                checked += 1
                applicable += record.applicable
    assert checked == 2 * 1000 * 999
    assert applicable > 0
    print(
        f"PASS criterion 7: score bound held at every one of {applicable} applicable "
        f"states out of {checked} checked (lambda 1 and 8, n <= 1000)"
    )


def test_criterion_8_scores_match_quadrature():
    from scipy.integrate import quad

    rng = np.random.default_rng(SEED_QUAD)
    worst = 0.0
    for case in range(100):
        lam = float(rng.uniform(1.0, 8.0))
        steps = int(rng.integers(4, 40))
        oracle = BrownianOracle(RngStream(SEED_QUAD, case))
        state, _ = run(oracle, MinimizerConfig(lam=lam, max_steps=steps))
        skel = state.skeleton
        floats = skel.site_floats()
        vals = np.asarray(skel.values)
        off = search_offset(skel.tau, lam)
        m = skel.min_value
        scores = split_scores(state, lam)
        for i in range(len(scores)):
            lo, hi = floats[i], floats[i + 1]
            a, b = vals[i], vals[i + 1]

            def integrand(s):
                lerp = a + (s - lo) / (hi - lo) * (b - a)
                return 1.0 / (lerp - m + off) ** 2

            val, _ = quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-12, limit=200)
            worst = max(worst, abs(val - scores[i]) / scores[i])
    assert worst <= 1e-9
    print(f"PASS criterion 8: 100 random configurations, worst relative "
          f"quadrature mismatch {worst:.2e} <= 1e-9")


def test_criterion_9_byte_identical_csv_across_workers(tmp_path):
    outputs = []
    for threads in ("1", "4", "8"):
        out = tmp_path / f"workers_{threads}.csv"
        code = main(["compare", "--lambdas", "1,2", "--p", "2", "--reps", "24",
                     "--n-grid", "8,16", "--seed", "8808", "--out", str(out),
                     "--threads", threads])
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    print("PASS criterion 9: compare CSV byte-identical with 1, 4 and 8 workers")
