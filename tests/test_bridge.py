import math

import numpy as np
import pytest

from brownmin.bridge import (
    BridgeSegment,
    bridge_min_cdf,
    bridge_min_sample,
    interior_sample,
    segment_minima,
)
from brownmin.rng import RngStream


def test_segment_validation():
    with pytest.raises(ValueError):
        BridgeSegment(0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        BridgeSegment(0.0, 1.0, -0.5)
    with pytest.raises(ValueError):
        BridgeSegment(math.nan, 1.0, 1.0)
    with pytest.raises(ValueError):
        BridgeSegment(0.0, math.inf, 1.0)


def test_interior_sample_examples():
    seg = BridgeSegment(0.0, 1.0, 0.5)
    assert interior_sample(seg, 0.25, 0.0) == 0.5
    # conditional sd at s=1/4 of T=1/2: sqrt(0.25 * 0.25 / 0.5) = sqrt(1/8)
    expected = 0.5 + math.sqrt(0.125)
    assert interior_sample(seg, 0.25, 1.0) == pytest.approx(expected, rel=1e-15)
    flat = BridgeSegment(0.7, 0.7, 2.0)
    assert interior_sample(flat, 1.0, 0.0) == 0.7


def test_interior_sample_offset_domain():
    seg = BridgeSegment(0.0, 1.0, 0.5)
    for bad in (0.0, 0.5, 0.7, -0.1):
        with pytest.raises(ValueError):
            interior_sample(seg, bad, 0.0)


def test_interior_midpoint_keeps_its_spread_at_depth():
    # s (T - s) underflows at T = 2^-600; s / T * (T - s) does not
    seg = BridgeSegment(0.0, 0.0, 2.0**-600)
    value = interior_sample(seg, 2.0**-601, 1.0)
    assert value == 2.0**-301 and value == pytest.approx(2.4545e-91, rel=1e-4)


def test_interior_midpoint_equals_the_oracle_draw():
    # the Brownian oracle draws a midpoint as a + 0.5 (b - a) + 0.5 sqrt(T) z;
    # endpoint values of order sqrt(T) keep the deviation visible at depth
    z = -0.8125
    for level in range(1024):
        T = 2.0**-level
        a, b = 0.3 * math.sqrt(T), -1.7 * math.sqrt(T)
        oracle_draw = a + 0.5 * (b - a) + 0.5 * math.sqrt(T) * z
        assert interior_sample(BridgeSegment(a, b, T), T / 2.0, z) == oracle_draw


def test_interior_midpoint_moments():
    # midpoint law: mean (a+b)/2, variance T/4
    stream = RngStream(314, 0)
    T = 0.5
    seg = BridgeSegment(0.2, -0.4, T)
    z = stream.gaussians(50_000)
    draws = np.array([interior_sample(seg, T / 2, zi) for zi in z])
    assert abs(draws.mean() - (-0.1)) < 0.01
    assert abs(draws.var() - T / 4) / (T / 4) < 0.05


def test_bridge_min_cdf_examples():
    assert bridge_min_cdf(BridgeSegment(0.0, 0.0, 1.0), -1.0) == pytest.approx(
        math.exp(-2.0), rel=1e-15
    )
    seg = BridgeSegment(0.3, 0.7, 0.25)
    assert bridge_min_cdf(seg, 0.3) == 1.0  # y = min(a, b)
    assert bridge_min_cdf(seg, 5.0) == 1.0


def test_bridge_min_cdf_median_root():
    # independent root-find for the median of the law on (0.3, 0.7, 0.25)
    from scipy.optimize import brentq

    seg = BridgeSegment(0.3, 0.7, 0.25)
    root = brentq(lambda y: bridge_min_cdf(seg, y) - 0.5, -10.0, 0.3, xtol=1e-14)
    assert root == pytest.approx(0.144130, abs=5e-7)
    assert bridge_min_sample(seg, 0.5) == pytest.approx(root, abs=1e-12)


def test_bridge_min_sample_examples():
    assert bridge_min_sample(BridgeSegment(0.0, 0.0, 1.0), math.exp(-2.0)) == pytest.approx(
        -1.0, rel=1e-14
    )
    for seg in (BridgeSegment(0.3, 0.7, 0.25), BridgeSegment(-1.0, 2.0, 3.0)):
        assert bridge_min_sample(seg, 1.0) == min(seg.a, seg.b)


def test_bridge_min_sample_domain():
    seg = BridgeSegment(0.0, 0.0, 1.0)
    for bad in (0.0, -0.2, 1.0 + 1e-12):
        with pytest.raises(ValueError):
            bridge_min_sample(seg, bad)


def test_bridge_min_sample_monotone_and_below_endpoints():
    rng = np.random.default_rng(21)
    for _ in range(20):
        seg = BridgeSegment(
            float(rng.standard_normal()), float(rng.standard_normal()),
            float(rng.uniform(0.01, 2.0)),
        )
        us = np.linspace(1e-6, 1.0, 50)
        ys = [bridge_min_sample(seg, u) for u in us]
        assert all(a <= b for a, b in zip(ys, ys[1:]))
        assert all(y <= min(seg.a, seg.b) for y in ys)
        # strictly increasing away from the u = 1 boundary
        interior = ys[:40]
        assert all(a < b for a, b in zip(interior, interior[1:]))
        assert ys[-1] == min(seg.a, seg.b)


def test_bridge_min_round_trip():
    # cdf(sample(u)) recovers u to 1e-12 relative across twelve decades
    rng = np.random.default_rng(22)
    us = np.concatenate([np.logspace(-12, 0, 60), rng.uniform(1e-10, 1.0, 40)])
    segs = [BridgeSegment(0.0, 0.0, 1.0), BridgeSegment(0.3, 0.7, 0.25)]
    segs += [
        BridgeSegment(
            float(rng.standard_normal()), float(rng.standard_normal()),
            float(rng.uniform(0.001, 1.0)),
        )
        for _ in range(10)
    ]
    for seg in segs:
        for u in us:
            back = bridge_min_cdf(seg, bridge_min_sample(seg, float(u)))
            assert abs(back - u) <= 1e-12 * u


def test_segment_minima_matches_scalar():
    rng = np.random.default_rng(23)
    values = np.cumsum(rng.standard_normal(9)) * 0.3
    values[0] = 0.0
    lengths = rng.uniform(0.05, 0.2, 8)
    uniforms = rng.uniform(0.01, 1.0, 8)
    batch = segment_minima(values, lengths, uniforms)
    for i in range(8):
        seg = BridgeSegment(values[i], values[i + 1], lengths[i])
        assert batch[i] == pytest.approx(bridge_min_sample(seg, uniforms[i]), rel=1e-14)


def test_segment_minima_validation():
    with pytest.raises(ValueError):
        segment_minima([0.0, 1.0], [0.5, 0.5], [0.5, 0.5])
    with pytest.raises(ValueError):
        segment_minima([0.0, 1.0], [1.0], [0.0])
    with pytest.raises(ValueError):
        segment_minima([0.0, 1.0], [1.0], [1.2])
    # what BridgeSegment and bridge_min_sample refuse one segment at a time
    nan, inf = math.nan, math.inf
    for values, lengths, uniforms in (
        ([0.0, 1.0, 0.5], [0.5, 0.5], [0.5, nan]),
        ([0.0, 1.0, 0.5], [0.5, 0.0], [0.5, 0.5]),
        ([0.0, 1.0, 0.5], [0.5, -0.5], [0.5, 0.5]),
        ([0.0, 1.0, 0.5], [nan, 0.5], [0.5, 0.5]),
        ([0.0, 1.0, 0.5], [0.5, inf], [0.5, 0.5]),
        ([0.0, nan, 0.5], [0.5, 0.5], [0.5, 0.5]),
        ([0.0, 1.0, -inf], [0.5, 0.5], [0.5, 0.5]),
        ([inf, 1.0, 0.5], [0.5, 0.5], [0.5, 0.5]),
    ):
        with pytest.raises(ValueError):
            segment_minima(values, lengths, uniforms)
        # the same bad entry in any row of a block
        good = ([0.0, 1.0, 0.5], [0.5, 0.5], [0.5, 0.5])
        for row in range(3):
            block = [np.array([good[k]] * 3) for k in range(3)]
            for k, bad in enumerate((values, lengths, uniforms)):
                block[k][row] = bad
            with pytest.raises(ValueError):
                segment_minima(*block)
    assert len(segment_minima([0.0], [], [])) == 0
    assert segment_minima(np.zeros((3, 1)), np.ones((3, 0)), np.ones((3, 0))).shape == (3, 0)
    assert segment_minima(np.zeros((0, 3)), [0.5, 0.5], np.ones((0, 2))).shape == (0, 2)
    # leading axes that do not broadcast, and scalars
    with pytest.raises(ValueError):
        segment_minima(np.zeros((3, 3)), [0.5, 0.5], np.full((2, 2), 0.5))
    with pytest.raises(ValueError):
        segment_minima(0.0, 1.0, 0.5)


def test_segment_minima_block_equals_row_calls():
    rng = np.random.default_rng(21)
    rows, n = 7, 33
    values = rng.standard_normal((rows, n + 1))
    lengths = rng.uniform(0.01, 1.0, (rows, n))
    uniforms = 1.0 - rng.random((rows, n))
    uniforms[:, ::5] = 1.0  # the endpoint branch in every row
    # at u = 1 the minimum is the lower endpoint exactly, where the root
    # formula gives 0 for 1e-17 next to a value above 1
    values[:, 0] = 1e-17
    values[:, 1] = 1.0 + np.abs(values[:, 1])
    block = segment_minima(values, lengths, uniforms)
    assert block.shape == (rows, n)
    assert np.array_equal(block[:, 0], values[:, 0])
    assert np.array_equal(block, [segment_minima(values[r], lengths[r], uniforms[r])
                                  for r in range(rows)])
    # one row of lengths shared by every row, as the equidistant rule has
    shared = segment_minima(values, lengths[0], uniforms)
    assert np.array_equal(shared, [segment_minima(values[r], lengths[0], uniforms[r])
                                   for r in range(rows)])
    # one path with many rows of uniforms, and two leading axes
    path = segment_minima(values[0], lengths[0], uniforms)
    assert np.array_equal(path, [segment_minima(values[0], lengths[0], uniforms[r])
                                 for r in range(rows)])
    stacked = segment_minima(values[:6].reshape(2, 3, n + 1), lengths[0],
                             uniforms[:6].reshape(2, 3, n))
    assert np.array_equal(stacked.reshape(6, n), shared[:6])


def test_stream_determinism():
    a = RngStream(99, 4).gaussians(16)
    b = RngStream(99, 4).gaussians(16)
    assert np.array_equal(a, b)
    c = RngStream(99, 5).gaussians(16)
    assert not np.array_equal(a, c)
    d = RngStream(98, 4).gaussians(16)
    assert not np.array_equal(a, d)


def test_stream_substreams_differ():
    # a longer key path is another stream, and the stream keeps its address
    child = RngStream(7, 1, 3)
    assert child.master_seed == 7 and child.key == (1, 3)
    assert np.array_equal(child.gaussians(8), RngStream(7, 1, 3).gaussians(8))
    assert not np.array_equal(RngStream(7, 1).gaussians(8), RngStream(7, 1, 3).gaussians(8))


def test_stream_gaussian_moments():
    draws = RngStream(1234, 0).gaussians(100_000)
    assert abs(draws.mean()) < 3.0 / math.sqrt(100_000)
    assert 0.97 < draws.var() < 1.03


def test_stream_uniform_open_closed():
    u = RngStream(55, 2).uniform_open_closed(10_000)
    assert np.all(u > 0.0) and np.all(u <= 1.0)


@pytest.mark.parametrize("master_seed, key, error", [
    (1.5, (0,), TypeError), (1, (0, 1.5), TypeError),
    (-1, (0,), ValueError), (1, (0, -1), ValueError),
])
def test_streams_refuse_non_integer_or_negative_seeds_and_keys(master_seed, key, error):
    # a float is not truncated, a negative entry is not wrapped
    with pytest.raises(error):
        RngStream(master_seed, *key)
