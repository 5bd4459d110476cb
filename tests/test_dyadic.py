import math
from fractions import Fraction

import numpy as np
import pytest

from brownmin.dyadic import (
    DEFAULT_LEVEL_CAP,
    MAX_LEVEL_CAP,
    ONE,
    ZERO,
    DepthExceededError,
    DyadicPoint,
    Skeleton,
    midpoint,
)


def test_midpoint_unit_interval():
    mid = midpoint(ZERO, ONE)
    assert mid == DyadicPoint(1, 1)
    assert float(mid) == 0.5


def test_midpoint_binary_identity():
    rng = np.random.default_rng(42)
    for _ in range(50):
        m = int(rng.integers(0, 40))
        k = int(rng.integers(0, 2**m)) if m > 0 else 0
        left = DyadicPoint(k, m)
        right = DyadicPoint(k + 1, m)
        mid = midpoint(left, right)
        assert mid == DyadicPoint(2 * k + 1, m + 1)
        assert mid.numerator % 2 == 1
        assert mid.level == m + 1


def test_midpoint_quarter_half():
    mid = midpoint(DyadicPoint(1, 2), DyadicPoint(1, 1))
    assert mid.numerator == 3 and mid.level == 3
    assert float(mid) == 0.375


def test_midpoint_rejects_non_power_gap():
    with pytest.raises(ValueError):
        midpoint(ZERO, DyadicPoint(3, 2))  # gap 3/4
    with pytest.raises(ValueError):
        midpoint(DyadicPoint(1, 3), DyadicPoint(1, 1))  # gap 3/8


def test_midpoint_rejects_bad_order():
    with pytest.raises(ValueError):
        midpoint(ONE, ZERO)
    with pytest.raises(ValueError):
        midpoint(ONE, ONE)


def test_midpoint_depth_cap():
    deep = DyadicPoint(1, DEFAULT_LEVEL_CAP)
    with pytest.raises(DepthExceededError):
        midpoint(ZERO, deep)  # would need level cap + 1
    with pytest.raises(DepthExceededError):
        midpoint(ZERO, DyadicPoint(1, 1), level_cap=1)
    # just inside the cap is fine
    assert midpoint(ZERO, DyadicPoint(1, DEFAULT_LEVEL_CAP - 1)).level == DEFAULT_LEVEL_CAP


def test_canonical_reduction():
    assert DyadicPoint(2, 2) == DyadicPoint(1, 1)
    assert DyadicPoint(4, 4) == DyadicPoint(1, 2)
    assert DyadicPoint(0, 7) == ZERO
    assert DyadicPoint(8, 3) == ONE
    assert str(DyadicPoint(6, 4)) == "3/2^3"
    assert str(ZERO) == "0/2^0"
    assert str(ONE) == "1/2^0"


def test_validation():
    with pytest.raises(ValueError):
        DyadicPoint(-1, 2)
    with pytest.raises(ValueError):
        DyadicPoint(5, 2)  # 5/4 > 1
    with pytest.raises(ValueError):
        DyadicPoint(1, -1)


def test_ordering_matches_exact_values():
    rng = np.random.default_rng(7)
    pts = [ZERO, ONE]
    for _ in range(200):
        m = int(rng.integers(1, 50))
        pts.append(DyadicPoint(int(rng.integers(0, 2**m + 1)), m))
    by_exact = sorted(pts, key=lambda p: Fraction(p.numerator, 2**p.level))
    by_cmp = sorted(pts)
    assert by_cmp == by_exact


def test_float_conversion_exact_below_53_bits():
    rng = np.random.default_rng(8)
    for _ in range(100):
        m = int(rng.integers(0, 53))
        k = int(rng.integers(0, 2**m + 1))
        p = DyadicPoint(k, m)
        assert float(p) == k / 2**m == float(Fraction(k, 2**m))


def test_float_conversion_monotone_at_depth():
    # beyond 52 bits distinct points may share a double, but order never flips
    base = DyadicPoint(1, 1)
    deep = [DyadicPoint((1 << 79) + (k << 4) + 1, 80) for k in range(0, 64, 3)]
    vals = [float(p) for p in sorted(deep + [base])]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def _build(pairs):
    skel = Skeleton()
    for t, v in pairs:
        skel.insert(t, v)
    return skel


def test_skeleton_insert_examples():
    skel = _build([(ONE, -0.3), (DyadicPoint(1, 1), 0.1)])
    assert [str(s) for s in skel.sites] == ["0/2^0", "1/2^1", "1/2^0"]
    assert list(skel.values) == [0.0, 0.1, -0.3]
    assert skel.min_value == -0.3
    assert skel.tau == 0.5

    skel = _build([(ONE, -1.0)])
    assert skel.min_value == -1.0
    assert skel.tau == 1.0 and skel.tau_level == 0

    skel = _build([(ONE, 0.4), (DyadicPoint(1, 1), -0.2), (DyadicPoint(1, 2), -0.5)])
    assert skel.min_value == -0.5
    assert skel.tau == 0.25


def test_skeleton_insert_returns_index():
    skel = Skeleton()
    assert skel.insert(ONE, 1.0) == 1
    assert skel.insert(DyadicPoint(1, 1), 0.3) == 1
    assert skel.insert(DyadicPoint(3, 2), 0.2) == 2
    assert skel.insert(DyadicPoint(1, 2), 0.1) == 1


def test_skeleton_rejects_bad_inserts():
    skel = Skeleton()
    with pytest.raises(ValueError):
        skel.insert(DyadicPoint(1, 1), 0.5)  # 1 must come first
    skel.insert(ONE, 1.0)
    with pytest.raises(ValueError):
        skel.insert(ONE, 2.0)  # duplicate
    with pytest.raises(ValueError):
        skel.insert(ZERO, 0.0)  # duplicate
    skel.insert(DyadicPoint(1, 1), 0.5)
    with pytest.raises(ValueError):
        skel.insert(DyadicPoint(1, 3), 0.1)  # 1/8 is not a midpoint of (0, 1/2)
    with pytest.raises(ValueError):
        skel.insert(DyadicPoint(1, 1), 0.0)  # duplicate midpoint


def test_skeleton_tables_cover_every_level_to_the_cap():
    skel = _build([(ONE, 1.0)])
    for _ in range(MAX_LEVEL_CAP):  # split the first gap down to the cap
        skel.split(1, 0.5)
    assert skel.tau_level == MAX_LEVEL_CAP
    assert skel.gap_lengths[0] == skel.tau == 2.0**-1023
    levels = [MAX_LEVEL_CAP] + list(range(MAX_LEVEL_CAP, 0, -1))
    assert skel.gap_levels.tolist() == levels
    assert skel.gap_lengths.tolist() == [2.0**-level for level in levels]
    # there is no table entry deeper than the cap, so the skeleton refuses
    with pytest.raises(DepthExceededError):
        skel.split(1, 0.0)
    assert skel.n == MAX_LEVEL_CAP + 1
    assert skel.gap_levels.tolist() == levels


def test_skeleton_random_midpoint_properties():
    rng = np.random.default_rng(11)
    skel = Skeleton()
    skel.insert(ONE, float(rng.standard_normal()))
    tau_levels = []
    for _ in range(240):
        gap_idx = int(rng.integers(0, len(skel) - 1))
        sites = skel.sites
        mid = midpoint(sites[gap_idx], sites[gap_idx + 1])
        prev_tau_level = skel.tau_level
        prev_gap_level = int(skel.gap_levels[gap_idx])
        skel.insert(mid, float(rng.standard_normal()))
        # splitting a smallest gap halves tau exactly, otherwise unchanged
        if prev_gap_level == prev_tau_level:
            assert skel.tau_level == prev_tau_level + 1
        else:
            assert skel.tau_level == prev_tau_level
        tau_levels.append(skel.tau_level)

    # cached aggregates match recomputation from scratch
    assert skel.min_value == min(skel.values)
    sites = skel.sites
    exact_gaps = [
        Fraction(b.numerator, 2**b.level) - Fraction(a.numerator, 2**a.level)
        for a, b in zip(sites, sites[1:])
    ]
    assert min(exact_gaps) == Fraction(1, 2**skel.tau_level)
    # every gap is a power of two matching the deeper endpoint's level
    for (a, b), gap, lvl in zip(
        zip(sites, sites[1:]), exact_gaps, skel.gap_levels
    ):
        assert gap == Fraction(1, 2 ** int(lvl))
        assert int(lvl) == max(a.level, b.level)
        assert float(gap) == skel.gap_lengths[list(sites).index(a)]
    # floats of sites strictly increasing at these depths
    floats = skel.site_floats()
    assert np.all(np.diff(floats) > 0)
    # tau is non-increasing along the whole insertion history
    assert all(a <= b for a, b in zip(tau_levels, tau_levels[1:]))


def test_skeleton_value_lookup():
    skel = _build([(ONE, 0.25), (DyadicPoint(1, 1), -0.75)])
    assert skel.value_at(DyadicPoint(1, 1)) == -0.75
    assert DyadicPoint(1, 1) in skel
    assert DyadicPoint(1, 2) not in skel
    with pytest.raises(KeyError):
        skel.value_at(DyadicPoint(1, 2))
