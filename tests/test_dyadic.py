import copy
import math
import pickle
import tracemalloc
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


def test_canonical_reduction_of_deep_points():
    # every trailing zero bit goes in one shift, not one pass per bit
    # (which took seconds at these depths)
    for point, endpoint in ((DyadicPoint(1 << 10**6, 10**6), ONE),
                            (DyadicPoint(0, 10**7), ZERO)):
        assert point == endpoint and hash(point) == hash(endpoint)
        assert (point.numerator, point.level) == (endpoint.numerator, endpoint.level)
    assert DyadicPoint(3 << 500, 600) == DyadicPoint(3, 100)


def test_validation():
    with pytest.raises(ValueError):
        DyadicPoint(-1, 2)
    with pytest.raises(ValueError):
        DyadicPoint(5, 2)  # 5/4 > 1
    with pytest.raises(ValueError):
        DyadicPoint(1, -1)
    with pytest.raises(ValueError):
        DyadicPoint(3, 1)
    # one past 1 at a deep level: the message gives the numerator's bit
    # length, as str() refuses an int of more than 4 300 digits
    with pytest.raises(ValueError, match=r"not a dyadic point .*1000001-bit"):
        DyadicPoint(2 ** (10**6) + 1, 10**6)


def test_only_integers_make_a_point():
    # a float level was accepted and broke float(); a float numerator
    # failed on a missing bit_length, as did a NumPy integer
    for numerator, level in ((1, 1.0), (2, 2.0), (1.0, 1), (1, 0.0)):
        with pytest.raises(TypeError):
            DyadicPoint(numerator, level)
    point = DyadicPoint(np.int64(3), np.int16(2))
    assert float(point) == 0.75 and point == DyadicPoint(3, 2)
    assert type(point.numerator) is int and type(point.level) is int
    assert DyadicPoint(np.int64(6), 3) == DyadicPoint(3, 2)


def test_range_check_does_not_build_the_power_of_two():
    # 2^level at level 10^9 alone would be a 125 MB integer
    tracemalloc.start()
    try:
        assert DyadicPoint(3, 10**9).level == 10**9
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_points_are_immutable():
    point = DyadicPoint(3, 2)
    with pytest.raises(AttributeError, match="cannot assign to field 'level'"):
        point.level = 3
    assert (point.numerator, point.level) == (3, 2)


def test_a_point_keeps_its_fields():
    # a deleted field would leave a point that can no longer be compared
    point = DyadicPoint(3, 2)
    with pytest.raises(AttributeError):
        del point.numerator
    assert point == DyadicPoint(3, 2)
    assert hash(point) == hash((3, 2))


def _pickled(obj):
    clones = [pickle.loads(pickle.dumps(obj, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    assert all(clone == clones[0] for clone in clones)
    return clones[0]


@pytest.mark.parametrize("copier", [_pickled, copy.copy, copy.deepcopy],
                         ids=["pickle", "copy", "deepcopy"])
def test_points_pickle_and_copy_as_values(copier):
    skel = _build(0.4, [(1, -0.2), (2, 0.3), (1, -0.5)])
    for point in (DyadicPoint(3, 2), ZERO, DyadicPoint(1, MAX_LEVEL_CAP)):
        clone = copier(point)
        assert type(clone) is DyadicPoint
        assert clone == point and hash(clone) == hash(point)
        assert repr(clone) == repr(point)
    sites = skel.sites
    assert copier(sites) == sites


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
    exact_order = sorted(deep + [base], key=lambda p: Fraction(p.numerator, 2**p.level))
    vals = [float(p) for p in exact_order]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def _build(endpoint, splits=()):
    """Skeleton with f(1) = endpoint, then one split(j, value) per pair."""
    skel = Skeleton()
    skel.insert(endpoint)
    for j, value in splits:
        skel.split(j, value)
    return skel


def test_skeleton_insert_examples():
    skel = _build(-0.3, [(1, 0.1)])
    assert [str(s) for s in skel.sites] == ["0/2^0", "1/2^1", "1/2^0"]
    assert list(skel.values) == [0.0, 0.1, -0.3]
    assert skel.min_value == -0.3
    assert skel.tau == 0.5

    skel = _build(-1.0)
    assert skel.min_value == -1.0
    assert skel.tau == 1.0 and skel.tau_level == 0

    skel = _build(0.4, [(1, -0.2), (1, -0.5)])
    assert [str(s) for s in skel.sites] == ["0/2^0", "1/2^2", "1/2^1", "1/2^0"]
    assert skel.min_value == -0.5
    assert skel.tau == 0.25


def test_a_fresh_skeleton_has_no_smallest_gap():
    with pytest.raises(ValueError, match="no gaps yet"):
        Skeleton().tau_level


def test_skeleton_insert_returns_index():
    skel = Skeleton()
    assert skel.site(0) == ZERO
    assert skel.insert(1.0) == 1
    assert skel.site(1) == ONE
    # a split puts the midpoint of gap j at index j
    for j, site in ((1, DyadicPoint(1, 1)), (2, DyadicPoint(3, 2)), (1, DyadicPoint(1, 2))):
        assert skel.gap_midpoint(j) == site
        skel.split(j, 0.0)
        assert skel.site(j) == site
    assert [str(s) for s in skel.sites] == ["0/2^0", "1/2^2", "1/2^1", "3/2^2", "1/2^0"]


def test_skeleton_rejects_bad_inserts():
    # insert adds the endpoint 1 once, on a fresh skeleton
    skel = Skeleton()
    skel.insert(1.0)
    with pytest.raises(ValueError):
        skel.insert(2.0)
    skel.split(1, 0.5)
    with pytest.raises(ValueError):
        skel.insert(2.0)
    assert list(skel.values) == [0.0, 0.5, 1.0]
    assert skel.gap_levels.tolist() == [1, 1]


def test_skeleton_refuses_out_of_range_indices():
    # gaps are numbered 1 .. len - 1 and sites 0 .. len - 1; a fresh
    # skeleton has no gap and only the site 0
    fresh = Skeleton()
    grown = _build(0.4, [(1, -0.2), (2, 0.3)])
    for skel in (fresh, grown):
        values, levels = skel.values, skel.gap_levels
        for j in (0, len(skel), -1):
            with pytest.raises(IndexError):
                skel.split(j, 0.0)
            with pytest.raises(IndexError):
                skel.gap_midpoint(j)
        for i in (len(skel), -1):
            with pytest.raises(IndexError):
                skel.site(i)
        assert np.array_equal(skel.values, values)
        assert np.array_equal(skel.gap_levels, levels)
    assert fresh.site(0) == ZERO and len(fresh) == 1


def test_skeleton_tables_cover_every_level_to_the_cap():
    skel = _build(1.0)
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
    skel = _build(float(rng.standard_normal()))
    tau_levels = []
    for _ in range(240):
        j = int(rng.integers(1, len(skel)))
        sites = skel.sites
        mid = skel.gap_midpoint(j)
        assert mid == midpoint(sites[j - 1], sites[j])
        prev_tau_level = skel.tau_level
        prev_gap_level = int(skel.gap_levels[j - 1])
        skel.split(j, float(rng.standard_normal()))
        assert skel.site(j) == mid
        # splitting a smallest gap halves tau exactly, otherwise unchanged
        if prev_gap_level == prev_tau_level:
            assert skel.tau_level == prev_tau_level + 1
        else:
            assert skel.tau_level == prev_tau_level
        tau_levels.append(skel.tau_level)

    # the summaries computed on demand match a recomputation from scratch
    assert skel.min_value == min(skel.values)
    sites = skel.sites
    exact_gaps = [
        Fraction(b.numerator, 2**b.level) - Fraction(a.numerator, 2**a.level)
        for a, b in zip(sites, sites[1:])
    ]
    assert min(exact_gaps) == Fraction(1, 2**skel.tau_level)
    # every gap is a power of two matching the deeper endpoint's level
    for i, (a, b) in enumerate(zip(sites, sites[1:])):
        lvl = int(skel.gap_levels[i])
        assert exact_gaps[i] == Fraction(1, 2**lvl)
        assert lvl == max(a.level, b.level)
        assert float(exact_gaps[i]) == skel.gap_lengths[i]
    # floats of sites strictly increasing at these depths
    floats = skel.site_floats()
    assert np.all(np.diff(floats) > 0)
    # tau is non-increasing along the whole split history
    assert all(a <= b for a, b in zip(tau_levels, tau_levels[1:]))


def test_skeleton_value_lookup():
    # a site's value is read by the site's index
    skel = _build(0.25, [(1, -0.75), (2, 0.5)])
    assert [str(s) for s in skel.sites] == ["0/2^0", "1/2^1", "3/2^2", "1/2^0"]
    assert list(skel.values) == [0.0, -0.75, 0.5, 0.25]
    assert skel.site(1) == DyadicPoint(1, 1) and skel.values[1] == -0.75
