import math

import numpy as np
import pytest
from scipy import stats

from brownmin.dyadic import MAX_LEVEL_CAP, ONE, ZERO, DepthExceededError, DyadicPoint
from brownmin.minimizer import MinimizerConfig, run
from brownmin.oracle import (
    BrownianOracle,
    DeterministicOracle,
    PathOracle,
    grid_reference_min,
)
from brownmin.rng import RngStream

HALF = DyadicPoint(1, 1)
QUARTER = DyadicPoint(1, 2)


def test_endpoint_value_is_unconditional_normal():
    # W(1) equals the stream's first standard normal draw
    expected = RngStream(11, 0).gaussian()
    oracle = BrownianOracle(RngStream(11, 0))
    assert oracle.evaluate(ONE) == expected


def test_zero_site_is_always_zero():
    oracle = BrownianOracle(RngStream(12, 0))
    assert oracle.evaluate(ZERO) == 0.0
    oracle.evaluate(ONE)
    assert oracle.evaluate(ZERO) == 0.0


def test_interior_before_endpoint_rejected():
    oracle = BrownianOracle(RngStream(13, 0))
    with pytest.raises(ValueError):
        oracle.evaluate(HALF)


def test_midpoint_draw_uses_bridge_law():
    # W(1/2) = (0 + W(1))/2 + sqrt(1)/2 * z with z the second stream draw
    clone = RngStream(14, 0)
    z1, z2 = clone.gaussian(), clone.gaussian()
    oracle = BrownianOracle(RngStream(14, 0))
    w1 = oracle.evaluate(ONE)
    assert w1 == z1
    w_half = oracle.evaluate(HALF)
    assert w_half == pytest.approx(0.5 * w1 + 0.5 * z2, rel=1e-15)


def test_midpoint_draw_keeps_its_spread_at_depth():
    # the bridge formula sqrt(s (T - s) / T) at s = T/2 equals sqrt(T)/2
    # exactly down to level 536, and underflows to 0 from level 537 on
    for level in range(1001):
        T = 2.0**-level
        s = T / 2.0
        assert (math.sqrt(s * (T - s) / T) == 0.5 * math.sqrt(T)) == (level <= 536)
    # the oracle draws with spread sqrt(T)/2 at every level, down to the deepest gaps
    z = RngStream(19, 0).gaussians(MAX_LEVEL_CAP + 2)
    oracle = BrownianOracle(RngStream(19, 0))
    skel = oracle.skeleton
    oracle.evaluate(ONE)
    for level in range(MAX_LEVEL_CAP):
        b = skel.value_at(DyadicPoint(1, level))
        value = oracle.evaluate(DyadicPoint(1, level + 1))  # midpoint of (0, 2^-level)
        deviation = value - (0.0 + 0.5 * (b - 0.0))
        assert deviation != 0.0
        assert deviation == pytest.approx(0.5 * math.sqrt(2.0**-level) * z[level + 1], rel=1e-9)
    assert skel.gap_lengths[0] == skel.tau == 2.0**-1023
    with pytest.raises(DepthExceededError):
        oracle.split(1)  # no table entry deeper than the cap
    assert skel.n == MAX_LEVEL_CAP + 1
    # the refused split used no normal: the next new site takes the next one
    a, b = skel.value_at(DyadicPoint(1, 1)), skel.value_at(ONE)
    value = oracle.evaluate(DyadicPoint(3, 2))  # midpoint of (1/2, 1)
    assert value == a + 0.5 * (b - a) + 0.5 * math.sqrt(0.5) * z[MAX_LEVEL_CAP + 1]


def test_memoization_returns_identical_value_without_new_draws():
    oracle = BrownianOracle(RngStream(15, 0))
    reference = BrownianOracle(RngStream(15, 0))
    for orc in (oracle, reference):
        orc.evaluate(ONE)
        orc.evaluate(HALF)
    assert oracle.evaluate(HALF) == oracle.evaluate(HALF)
    # the repeated evaluations above must not have consumed randomness
    assert oracle.evaluate(QUARTER) == reference.evaluate(QUARTER)


def test_skeleton_reflects_evaluations():
    oracle = BrownianOracle(RngStream(16, 0))
    oracle.evaluate(ONE)
    oracle.evaluate(HALF)
    oracle.evaluate(QUARTER)
    assert [str(s) for s in oracle.skeleton.sites] == [
        "0/2^0", "1/2^2", "1/2^1", "1/2^0",
    ]
    assert oracle.skeleton.n == 3


def test_nonadaptive_increments_are_standard_normal():
    # normalized increments at the fixed start sites across replications
    n_reps = 2000
    w1 = np.empty(n_reps)
    left = np.empty(n_reps)
    right = np.empty(n_reps)
    root_half = math.sqrt(0.5)
    for rep in range(n_reps):
        oracle = BrownianOracle(RngStream(777, rep))
        v1 = oracle.evaluate(ONE)
        vh = oracle.evaluate(HALF)
        w1[rep] = v1
        left[rep] = vh / root_half
        right[rep] = (v1 - vh) / root_half
    for sample in (w1, left, right):
        assert stats.kstest(sample, "norm").pvalue > 0.01


def test_deterministic_oracle_example():
    oracle = DeterministicOracle(lambda t: (t - 1.0 / 3.0) ** 2 - 1.0 / 9.0)
    value = oracle.evaluate(HALF)
    assert value == pytest.approx((1.0 / 6.0) ** 2 - 1.0 / 9.0, rel=1e-15)
    assert value == pytest.approx(-1.0 / 12.0, rel=1e-15)
    # pure function of t, memoized in the skeleton
    assert oracle.evaluate(HALF) == value


def test_deterministic_oracle_requires_zero_at_origin():
    with pytest.raises(ValueError):
        DeterministicOracle(lambda t: t + 1.0)


def test_deterministic_oracle_fills_bisection_ancestors():
    oracle = DeterministicOracle(lambda t: t * (1.0 - t))
    value = oracle.evaluate(DyadicPoint(3, 3))  # 3/8 out of order
    assert value == pytest.approx(0.375 * 0.625, rel=1e-15)
    assert [str(s) for s in oracle.skeleton.sites] == [
        "0/2^0", "1/2^2", "3/2^3", "1/2^1", "1/2^0",
    ]
    # ancestors are filled by a loop, so the deepest level has no recursion limit
    deep = DeterministicOracle(lambda t: t)
    assert deep.evaluate(DyadicPoint(1, MAX_LEVEL_CAP)) == 2.0**-1023
    assert deep.skeleton.n == MAX_LEVEL_CAP + 1
    with pytest.raises(DepthExceededError):
        deep.evaluate(DyadicPoint(1, MAX_LEVEL_CAP + 1))


def test_oracle_with_only_evaluate_can_be_searched():
    # PathOracle.split falls back to evaluate(gap_midpoint(j))
    def fn(t):
        return (t - 1.0 / 3.0) ** 2 - 1.0 / 9.0

    class EvaluateOnly(PathOracle):
        def __init__(self):
            self.inner = DeterministicOracle(fn)
            self.skeleton = self.inner.skeleton

        def evaluate(self, t):
            return self.inner.evaluate(t)

    config = MinimizerConfig(lam=1.0, max_steps=40)
    assert run(EvaluateOnly(), config)[1] == run(DeterministicOracle(fn), config)[1]


def test_grid_reference_min_examples():
    quad = DeterministicOracle(lambda t: (t - 1.0 / 3.0) ** 2 - 1.0 / 9.0)
    assert grid_reference_min(quad, 3) == pytest.approx(-1.0 / 9.0, rel=1e-15)
    flat = DeterministicOracle(lambda t: 0.0)
    assert grid_reference_min(flat, 10) == 0.0
    assert grid_reference_min(quad, 10**6) == pytest.approx(-1.0 / 9.0, abs=1e-12)
    with pytest.raises(ValueError):
        grid_reference_min(flat, 1)
