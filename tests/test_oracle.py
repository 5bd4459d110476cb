import math

import numpy as np
import pytest
from scipy import stats

from brownmin.dyadic import MAX_LEVEL_CAP, ZERO, DepthExceededError, DyadicPoint, Skeleton
from brownmin.minimizer import MinimizerConfig, init_state, run
from brownmin.oracle import (
    BrownianOracle,
    DeterministicOracle,
    PathOracle,
    grid_reference_min,
)
from brownmin.rng import RngStream

HALF = DyadicPoint(1, 1)


def test_endpoint_value_is_unconditional_normal():
    # W(1) equals the stream's first standard normal draw
    expected = RngStream(11, 0).gaussian()
    oracle = BrownianOracle(RngStream(11, 0))
    assert oracle.evaluate() == expected


def test_zero_site_is_always_zero():
    oracle = BrownianOracle(RngStream(12, 0))
    skel = oracle.skeleton
    assert skel.site(0) == ZERO and skel.values[0] == 0.0
    skel.insert(oracle.evaluate())
    for _ in range(5):
        skel.split(1, oracle.midpoint(1))
    assert skel.site(0) == ZERO and skel.values[0] == 0.0


def test_interior_before_endpoint_rejected():
    oracle = BrownianOracle(RngStream(13, 0))
    with pytest.raises(IndexError):
        oracle.midpoint(1)  # no gap before the endpoint
    assert oracle.skeleton.n == 0
    assert oracle.evaluate() == RngStream(13, 0).gaussian()


@pytest.mark.parametrize("make", [
    lambda: BrownianOracle(RngStream(17, 0)),
    lambda: DeterministicOracle(lambda t: t * (1.0 - t) - t),
], ids=["brownian", "deterministic"])
def test_evaluate_answers_the_endpoint_and_records_nothing(make):
    # asked again, evaluate gives the same f(1) and leaves the skeleton
    # fresh; the skeleton takes the endpoint once, and the repeated
    # queries and the refused insert leave the next midpoint as it was
    oracle, reference = make(), make()
    skel = oracle.skeleton
    value = oracle.evaluate()
    for _ in range(3):
        assert oracle.evaluate() == value
        assert skel.n == 0
    skel.insert(value)
    reference.skeleton.insert(reference.evaluate())
    assert oracle.evaluate() == value == reference.skeleton.values[1]
    with pytest.raises(ValueError, match="to a fresh skeleton"):
        skel.insert(value)
    assert skel.n == 1 and skel.gap_levels.tolist() == [0]
    assert oracle.midpoint(1) == reference.midpoint(1)


def test_midpoint_draw_uses_bridge_law():
    # W(1/2) = (0 + W(1))/2 + sqrt(1)/2 * z with z the second stream draw
    clone = RngStream(14, 0)
    z1, z2 = clone.gaussian(), clone.gaussian()
    oracle = BrownianOracle(RngStream(14, 0))
    w1 = oracle.evaluate()
    assert w1 == z1
    oracle.skeleton.insert(w1)
    w_half = oracle.midpoint(1)
    oracle.skeleton.split(1, w_half)
    assert oracle.skeleton.site(1) == HALF
    assert w_half == pytest.approx(0.5 * w1 + 0.5 * z2, rel=1e-15)


def test_capacity_is_checked_at_construction():
    # 10.5 failed only at the first draw, inside numpy; -5 ran as 8
    with pytest.raises(TypeError):
        BrownianOracle(RngStream(15, 0), capacity=10.5)
    for bad in (0, -5):
        with pytest.raises(ValueError):
            BrownianOracle(RngStream(15, 0), capacity=bad)
    # any capacity of at least 1 draws the same path
    expected = RngStream(15, 0).gaussian()
    for capacity in (1, np.int64(3), 64):
        assert BrownianOracle(RngStream(15, 0), capacity=capacity).evaluate() == expected


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
    skel.insert(oracle.evaluate())
    for level in range(MAX_LEVEL_CAP):
        b = skel.values[1]  # at the site 2^-level
        value = oracle.midpoint(1)  # midpoint of (0, 2^-level)
        skel.split(1, value)
        assert skel.site(1) == DyadicPoint(1, level + 1)
        deviation = value - (0.0 + 0.5 * (b - 0.0))
        assert deviation != 0.0
        assert deviation == pytest.approx(0.5 * math.sqrt(2.0**-level) * z[level + 1], rel=1e-9)
    assert skel.gap_lengths[0] == skel.tau == 2.0**-1023
    with pytest.raises(DepthExceededError):
        skel.split(1, oracle.midpoint(1))  # no table entry deeper than the cap
    assert skel.n == MAX_LEVEL_CAP + 1
    # the refused split used no normal: the next new site takes the next one
    last = len(skel) - 1  # the gap (1/2, 1)
    a, b = skel.values[last - 1], skel.values[last]
    value = oracle.midpoint(last)
    skel.split(last, value)
    assert skel.site(last) == DyadicPoint(3, 2)
    assert value == a + 0.5 * (b - a) + 0.5 * math.sqrt(0.5) * z[MAX_LEVEL_CAP + 1]


def test_refused_calls_use_no_normal():
    oracle = BrownianOracle(RngStream(15, 0))
    reference = BrownianOracle(RngStream(15, 0))
    skel, ref = oracle.skeleton, reference.skeleton
    for j in (0, 1):  # a fresh skeleton has no gap
        with pytest.raises(IndexError):
            oracle.midpoint(j)
    assert skel.n == 0
    skel.insert(oracle.evaluate())
    ref.insert(reference.evaluate())
    skel.split(1, oracle.midpoint(1))
    ref.split(1, reference.midpoint(1))
    values, levels = skel.values, skel.gap_levels
    for j in (0, len(skel), -1):
        with pytest.raises(IndexError):
            oracle.midpoint(j)
        assert np.array_equal(skel.values, values)
        assert np.array_equal(skel.gap_levels, levels)
    # the next valid split takes the normal of an oracle that saw no bad call
    skel.split(1, oracle.midpoint(1))
    ref.split(1, reference.midpoint(1))
    assert np.array_equal(skel.values, ref.values)


@pytest.mark.parametrize("make", [
    lambda: BrownianOracle(RngStream(18, 0), capacity=8),
    lambda: DeterministicOracle(lambda t: math.sin(7.0 * t)),
], ids=["brownian", "deterministic"])
def test_midpoint_answers_without_recording(make):
    # asked twice, midpoint gives the same value, records nothing and uses
    # no normal: the value recorded after it is the one an oracle that was
    # asked once gives; past 8 sites the Brownian oracle draws a new block
    oracle, reference = make(), make()
    skel, ref = oracle.skeleton, reference.skeleton
    skel.insert(oracle.evaluate())
    ref.insert(reference.evaluate())
    for j in (1, 1, 2, 3, 1, 5, 4, 2, 8, 9, 3, 11, 1):
        values, levels = skel.values, skel.gap_levels
        value = oracle.midpoint(j)
        assert oracle.midpoint(j) == value
        assert np.array_equal(skel.values, values) and np.array_equal(skel.gap_levels, levels)
        skel.split(j, value)
        ref.split(j, reference.midpoint(j))
        assert ref.values[j] == value
    for j in (0, len(skel), -1):
        with pytest.raises(IndexError):
            oracle.midpoint(j)


def test_skeleton_reflects_evaluations():
    oracle = BrownianOracle(RngStream(16, 0))
    oracle.skeleton.insert(oracle.evaluate())
    oracle.skeleton.split(1, oracle.midpoint(1))
    oracle.skeleton.split(1, oracle.midpoint(1))
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
        v1 = oracle.evaluate()
        oracle.skeleton.insert(v1)
        vh = oracle.midpoint(1)
        w1[rep] = v1
        left[rep] = vh / root_half
        right[rep] = (v1 - vh) / root_half
    for sample in (w1, left, right):
        assert stats.kstest(sample, "norm").pvalue > 0.01


def test_deterministic_oracle_example():
    oracle = DeterministicOracle(lambda t: (t - 1.0 / 3.0) ** 2 - 1.0 / 9.0)
    assert oracle.evaluate() == pytest.approx(1.0 / 3.0, rel=1e-15)
    oracle.skeleton.insert(oracle.evaluate())
    value = oracle.midpoint(1)
    oracle.skeleton.split(1, value)
    assert value == pytest.approx((1.0 / 6.0) ** 2 - 1.0 / 9.0, rel=1e-15)
    assert value == pytest.approx(-1.0 / 12.0, rel=1e-15)
    # pure function of t, recorded in the skeleton at the site 1/2
    assert oracle.skeleton.site(1) == HALF and oracle.skeleton.values[1] == value


def test_deterministic_oracle_requires_zero_at_origin():
    with pytest.raises(ValueError):
        DeterministicOracle(lambda t: t + 1.0)


def test_deterministic_oracle_splits_exactly_to_the_level_cap():
    oracle = DeterministicOracle(lambda t: t * (1.0 - t))
    skel = oracle.skeleton
    skel.insert(oracle.evaluate())
    for j in (1, 1, 2):  # 1/2, 1/4, then 3/8
        skel.split(j, oracle.midpoint(j))
    assert [str(s) for s in skel.sites] == ["0/2^0", "1/2^2", "3/2^3", "1/2^1", "1/2^0"]
    assert skel.values[2] == pytest.approx(0.375 * 0.625, rel=1e-15)
    # down to the deepest level every site and value is exact
    deep = DeterministicOracle(lambda t: t)
    skel = deep.skeleton
    skel.insert(deep.evaluate())
    for level in range(1, MAX_LEVEL_CAP + 1):
        value = deep.midpoint(1)
        assert value == 2.0**-level
        skel.split(1, value)
        assert skel.site(1) == DyadicPoint(1, level)
    assert skel.values[1] == 2.0**-1023
    assert skel.n == MAX_LEVEL_CAP + 1
    with pytest.raises(DepthExceededError):
        skel.split(1, deep.midpoint(1))  # one level past the cap
    assert skel.n == MAX_LEVEL_CAP + 1


def test_user_oracle_with_evaluate_and_midpoint_can_be_searched():
    def fn(t):
        return (t - 1.0 / 3.0) ** 2 - 1.0 / 9.0

    class Quadratic(PathOracle):
        def __init__(self):
            self.skeleton = Skeleton()

        def evaluate(self):
            return fn(1.0)

        def midpoint(self, j):
            return fn(float(self.skeleton.gap_midpoint(j)))

    config = MinimizerConfig(lam=1.0, max_steps=40)
    assert run(Quadratic(), config)[1] == run(DeterministicOracle(fn), config)[1]

    # the contract is the two queries and nothing more: an oracle without
    # midpoint cannot be made, and no method writes the skeleton for it
    assert PathOracle.__abstractmethods__ == {"evaluate", "midpoint"}
    assert not hasattr(PathOracle, "split")

    class EvaluateOnly(PathOracle):
        evaluate = Quadratic.evaluate

    with pytest.raises(TypeError):
        EvaluateOnly()


def test_an_oracle_that_records_its_endpoint_is_refused():
    # an evaluate that still inserts f(1) itself leaves init_state a grown
    # skeleton, which Skeleton.insert refuses: never a doubled endpoint
    class Recording(DeterministicOracle):
        def evaluate(self):
            value = super().evaluate()
            self.skeleton.insert(value)
            return value

    for search in (init_state, run):
        oracle = Recording(lambda t: t * (t - 0.6))
        with pytest.raises(ValueError, match="to a fresh skeleton"):
            search(oracle, MinimizerConfig(lam=1.0, max_steps=10))
        assert oracle.skeleton.values.tolist() == [0.0, 0.4]


def test_grid_reference_min_examples():
    quad = DeterministicOracle(lambda t: (t - 1.0 / 3.0) ** 2 - 1.0 / 9.0)
    assert grid_reference_min(quad, 3) == pytest.approx(-1.0 / 9.0, rel=1e-15)
    flat = DeterministicOracle(lambda t: 0.0)
    assert grid_reference_min(flat, 10) == 0.0
    assert grid_reference_min(quad, 10**6) == pytest.approx(-1.0 / 9.0, abs=1e-12)
    with pytest.raises(ValueError, match="at least 2"):
        grid_reference_min(flat, 1)
