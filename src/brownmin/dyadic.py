"""Exact dyadic evaluation sites and the ordered observation skeleton.

Sites are binary rationals k/2^m in [0, 1], kept in exact integer form so
that midpoints, gap lengths and the smallest gap are computed without any
floating point error.  Floats are a derived view used for function values
and output only.  A site handed out is a frozen ``DyadicPoint`` value; the
skeleton itself keeps sites as plain integers.
"""

from __future__ import annotations

import operator
from array import array
from dataclasses import dataclass

import numpy as np

DEFAULT_LEVEL_CAP = 1000
# deepest supported gap level: the score bound needs 1/tau = 2^level as
# a finite double
MAX_LEVEL_CAP = 1023

# geometry of a gap of level L, for every supported L: its exact length
# 2^-L and the standard deviation sqrt(2^-L)/2 of its bridge midpoint,
# which stays positive at every level (s (T - s) / T underflows first)
GAP_LENGTH = np.array([2.0 ** -level for level in range(MAX_LEVEL_CAP + 1)])
MIDPOINT_SD = 0.5 * np.sqrt(GAP_LENGTH)
GAP_LENGTH.flags.writeable = MIDPOINT_SD.flags.writeable = False
# the same doubles as Python floats, for scalar reads on the per-step path
_GAP_LENGTHS = tuple(GAP_LENGTH.tolist())
_MIDPOINT_SDS = tuple(MIDPOINT_SD.tolist())


class DepthExceededError(RuntimeError):
    """Raised when a midpoint would exceed the configured bisection depth."""


@dataclass(frozen=True, slots=True, init=False, repr=False)
class DyadicPoint:
    """A number numerator / 2**level in [0, 1], stored canonically.

    Canonical means the numerator is odd, except for the endpoints 0/2^0
    and 1/2^0.  Construction reduces trailing zero bits automatically.
    Both arguments must be integers: a float raises TypeError.  A point
    is a frozen value: it compares and hashes as (numerator, level), and
    it pickles and copies as one.
    """

    numerator: int
    level: int

    def __init__(self, numerator: int, level: int):
        numerator, level = operator.index(numerator), operator.index(level)
        # numerator <= 2^level, building 2^level only for a numerator as long
        if level < 0 or numerator < 0 or (numerator.bit_length() > level
                                          and numerator != 1 << level):
            # str() refuses an int of more than 4 300 digits (by default),
            # so a long numerator is shown by its bit length
            bits = numerator.bit_length()
            shown = numerator if bits <= 64 else f"({bits}-bit numerator)"
            raise ValueError(f"not a dyadic point in [0, 1]: {shown}/2^{level}")
        # strip every trailing zero bit in one shift, at most level of them
        # since numerator <= 2^level; zero becomes 0/2^0
        shift = (numerator & -numerator).bit_length() - 1 if numerator else level
        object.__setattr__(self, "numerator", numerator >> shift)
        object.__setattr__(self, "level", level - shift)

    def __float__(self) -> float:
        # int true division is correctly rounded, hence exact for level <= 52
        # and monotone at any supported depth
        return self.numerator / (1 << self.level)

    def __repr__(self) -> str:
        return f"DyadicPoint({self.numerator}, {self.level})"

    def __str__(self) -> str:
        return f"{self.numerator}/2^{self.level}"


ZERO = DyadicPoint(0, 0)
ONE = DyadicPoint(1, 0)


def midpoint(left: DyadicPoint, right: DyadicPoint,
             level_cap: int = DEFAULT_LEVEL_CAP) -> DyadicPoint:
    """Exact midpoint of a dyadic interval whose length is a power of two.

    For an aligned interval [k/2^m, (k+1)/2^m] the result is (2k+1)/2^(m+1).
    Raises ValueError on a malformed interval and DepthExceededError when
    the midpoint would be deeper than ``level_cap``.
    """
    # both numerators at their common level
    level = max(left.level, right.level)
    a = left.numerator << (level - left.level)
    b = right.numerator << (level - right.level)
    d = b - a
    if d <= 0:
        raise ValueError(f"midpoint needs left < right, got {left} >= {right}")
    if d & (d - 1):
        raise ValueError(f"gap between {left} and {right} is not a power of two")
    mid = DyadicPoint(a + b, level + 1)
    if mid.level > level_cap:
        raise DepthExceededError(
            f"midpoint of ({left}, {right}) needs level {mid.level} > cap {level_cap}"
        )
    return mid


_set_numerator = DyadicPoint.numerator.__set__
_set_level = DyadicPoint.level.__set__


def _canonical(numerator: int, level: int) -> DyadicPoint:
    # a split site (2k+1)/2^(L+1) is canonical by construction, so the
    # validation and reduction in DyadicPoint.__init__ are skipped
    point = object.__new__(DyadicPoint)
    _set_numerator(point, numerator)
    _set_level(point, level)
    return point


class Skeleton:
    """Observed values and gap levels in site order, and the exact sites.

    The first site is always 0 with value 0.  :meth:`insert` adds the
    endpoint 1 once; every later site is the exact midpoint of a gap,
    added by :meth:`split` with that gap's index, so no site is ever
    looked up by value.  Every gap is therefore an aligned dyadic
    interval [k/2^L, (k+1)/2^L]: its level L sits in an int16 array, and
    its length and midpoint spread are read from ``GAP_LENGTH`` and
    ``MIDPOINT_SD``.  Each site is stored once, in a table in evaluation
    order that holds its canonical numerator (a Python int) and its level
    (an int16 array), and each site in site order holds its id in that
    table; the left numerator k of gap j at its level L is the numerator
    of site j - 1 shifted left by L minus that site's level.  Splitting
    gap j puts the new site (2k+1)/2^(L+1) at index j without any search.
    The site with id k is the k-th evaluation, so ids 0 and 1 are the
    sites 0 and 1.  A DyadicPoint is built only when a site is asked for.
    The smallest value and the smallest gap are computed on demand, O(n);
    a search keeps its own running copies of them.

    Values, gap levels and site ids are ``array.array`` buffers holding
    exactly their entries: a split is one ``insert`` (a single memmove)
    per buffer and one append per site table column, and an indexed read
    gives a Python float or int.  The numpy properties return copies, so
    no view of a buffer outlives the statement that makes it; while one is
    exported, a split raises BufferError.
    """

    __slots__ = ("_values", "_gap_levels", "_site_ids", "_site_nums", "_site_levels")

    def __init__(self):
        self._values = array("d", [0.0])
        self._gap_levels = array("h")
        self._site_ids = array("i", [0])  # per site in site order, its table id
        # the site table: every site once, in evaluation order, canonical
        self._site_nums = [0]
        self._site_levels = array("h", [0])

    @property
    def n(self) -> int:
        """Number of evaluations, not counting the fixed site 0."""
        return len(self._values) - 1

    @property
    def min_value(self) -> float:
        """Smallest value; argmin's first index keeps site 0's 0.0 over -0.0."""
        return self._values[np.frombuffer(self._values).argmin()]

    @property
    def tau_level(self) -> int:
        """Level k of the smallest gap 1/2^k.  Needs at least one gap."""
        if not self._gap_levels:
            raise ValueError("skeleton has no gaps yet")
        return int(np.frombuffer(self._gap_levels, np.int16).max())

    @property
    def tau(self) -> float:
        """Smallest gap between consecutive sites, exact as a float."""
        return _GAP_LENGTHS[self.tau_level]

    def site(self, i: int) -> DyadicPoint:
        """The i-th site in increasing order (0-based)."""
        if not 0 <= i < len(self._values):
            raise IndexError(f"site index {i} out of range")
        site = self._site_ids[i]
        return _canonical(self._site_nums[site], self._site_levels[site])

    @property
    def sites(self) -> list[DyadicPoint]:
        return [self.site(i) for i in range(len(self._values))]

    @property
    def values(self) -> np.ndarray:
        """Copy of the observed values in site order."""
        return np.array(self._values)

    @property
    def gap_lengths(self) -> np.ndarray:
        """Consecutive gap lengths 1/2^L, exact."""
        return GAP_LENGTH[np.array(self._gap_levels)]

    @property
    def gap_levels(self) -> np.ndarray:
        """Copy of the gap levels L (gap i has length 1/2^L)."""
        return np.array(self._gap_levels, dtype=np.int64)

    def gap_midpoint(self, j: int) -> DyadicPoint:
        """Exact midpoint of gap j (1-based, between sites j-1 and j)."""
        if not 1 <= j < len(self._values):
            raise IndexError(f"gap index {j} out of range")
        # the gap at level L = level - 1 has left numerator
        # k = left.numerator << (L - left.level); its midpoint is
        # (2k+1)/2^level, canonical because odd
        level = self._gap_levels[j - 1] + 1
        left = self._site_ids[j - 1]
        return _canonical(
            (self._site_nums[left] << (level - self._site_levels[left])) | 1, level)

    def site_floats(self) -> np.ndarray:
        return np.array([float(s) for s in self.sites])

    def __len__(self) -> int:
        return len(self._values)

    def insert(self, value: float) -> int:
        """Add the endpoint 1 with ``value`` to a fresh skeleton and return
        its index 1.  A second call raises ValueError: every later site is
        added by :meth:`split`.
        """
        if len(self._values) > 1:
            raise ValueError("insert adds only the endpoint 1, to a fresh skeleton")
        value = float(value)
        self._values.append(value)
        self._gap_levels.append(0)
        self._site_ids.append(1)
        self._site_nums.append(1)
        self._site_levels.append(0)
        return 1

    def split(self, j: int, value: float) -> None:
        """Insert ``value`` at the midpoint of gap j (1-based); the new site
        gets index j and the two halves become gaps j and j+1.  Halves
        deeper than MAX_LEVEL_CAP raise DepthExceededError."""
        values = self._values
        if not 1 <= j < len(values):
            raise IndexError(f"gap index {j} out of range")
        g = j - 1
        levels = self._gap_levels
        level = levels[g] + 1
        if level > MAX_LEVEL_CAP:
            raise DepthExceededError(f"splitting gap {j} needs level {level} > {MAX_LEVEL_CAP}")
        values.insert(j, value)
        levels[g] = level
        levels.insert(j, level)
        nums = self._site_nums
        site_levels = self._site_levels
        left = self._site_ids[g]
        self._site_ids.insert(j, len(nums))
        nums.append((nums[left] << (level - site_levels[left])) | 1)
        site_levels.append(level)
