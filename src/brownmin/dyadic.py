"""Exact dyadic evaluation sites and the ordered observation skeleton.

Sites are binary rationals k/2^m in [0, 1], kept in exact integer form so
that midpoints, gap lengths and the smallest gap are computed without any
floating point error.  Floats are a derived view used for function values
and output only.
"""

from __future__ import annotations

import bisect
import numpy as np

DEFAULT_LEVEL_CAP = 1000
# deepest supported gap level: the search offset needs 1/tau = 2^level
# as a finite double
MAX_LEVEL_CAP = 1023

# geometry of a gap of level L, for every supported L: its exact length
# 2^-L and the standard deviation sqrt(2^-L)/2 of its bridge midpoint,
# which stays positive at every level (s (T - s) / T underflows first)
GAP_LENGTH = np.array([2.0 ** -level for level in range(MAX_LEVEL_CAP + 1)])
MIDPOINT_SD = 0.5 * np.sqrt(GAP_LENGTH)
GAP_LENGTH.flags.writeable = MIDPOINT_SD.flags.writeable = False


class DepthExceededError(RuntimeError):
    """Raised when a midpoint would exceed the configured bisection depth."""


class DyadicPoint:
    """A number numerator / 2**level in [0, 1], stored canonically.

    Canonical means the numerator is odd, except for the endpoints 0/2^0
    and 1/2^0.  Construction reduces trailing zero bits automatically.
    """

    __slots__ = ("numerator", "level")

    def __init__(self, numerator: int, level: int):
        if level < 0 or numerator < 0 or numerator > (1 << level):
            raise ValueError(f"not a dyadic point in [0, 1]: {numerator}/2^{level}")
        while numerator & 1 == 0 and level > 0:
            numerator >>= 1
            level -= 1
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "level", level)

    def __setattr__(self, name, value):
        raise AttributeError("DyadicPoint is immutable")

    def __float__(self) -> float:
        # int true division is correctly rounded, hence exact for level <= 52
        # and monotone at any supported depth
        return self.numerator / (1 << self.level)

    def __repr__(self) -> str:
        return f"DyadicPoint({self.numerator}, {self.level})"

    def __str__(self) -> str:
        return f"{self.numerator}/2^{self.level}"

    def __eq__(self, other) -> bool:
        if not isinstance(other, DyadicPoint):
            return NotImplemented
        return self.numerator == other.numerator and self.level == other.level

    def __hash__(self) -> int:
        return hash((self.numerator, self.level))

    def __lt__(self, other: "DyadicPoint") -> bool:
        if self.level >= other.level:
            return self.numerator < other.numerator << (self.level - other.level)
        return self.numerator << (other.level - self.level) < other.numerator

    def __le__(self, other: "DyadicPoint") -> bool:
        return self == other or self < other

    def __gt__(self, other: "DyadicPoint") -> bool:
        return other < self

    def __ge__(self, other: "DyadicPoint") -> bool:
        return other <= self


ZERO = DyadicPoint(0, 0)
ONE = DyadicPoint(1, 0)


def _lift(left: DyadicPoint, right: DyadicPoint) -> tuple[int, int, int]:
    """Numerators of both points at their common level."""
    level = max(left.level, right.level)
    return (
        left.numerator << (level - left.level),
        right.numerator << (level - right.level),
        level,
    )


def midpoint(
    left: DyadicPoint, right: DyadicPoint, level_cap: int | None = DEFAULT_LEVEL_CAP
) -> DyadicPoint:
    """Exact midpoint of a dyadic interval whose length is a power of two.

    For an aligned interval [k/2^m, (k+1)/2^m] the result is (2k+1)/2^(m+1).
    Raises ValueError on a malformed interval and DepthExceededError when
    the midpoint would be deeper than ``level_cap``.
    """
    a, b, level = _lift(left, right)
    d = b - a
    if d <= 0:
        raise ValueError(f"midpoint needs left < right, got {left} >= {right}")
    if d & (d - 1):
        raise ValueError(f"gap between {left} and {right} is not a power of two")
    mid = DyadicPoint(a + b, level + 1)
    if level_cap is not None and mid.level > level_cap:
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
    """Observed values and gap levels in site order, plus cached summaries.

    The first site is always 0 with value 0.  The first inserted site must
    be 1; every later site is the exact midpoint of the gap it lands in.
    Every gap is therefore an aligned dyadic interval [k/2^L, (k+1)/2^L]:
    its level L sits in an int16 array and its exact left numerator k in a
    list, and its length and midpoint spread are read from ``GAP_LENGTH``
    and ``MIDPOINT_SD``.  Splitting gap j puts the new site (2k+1)/2^(L+1)
    at index j without any search.  The running minimum of the values and
    the smallest gap are maintained incrementally.
    """

    __slots__ = ("_values", "_gap_levels", "_gap_nums", "_count",
                 "_min_value", "_tau_level")

    def __init__(self, capacity: int = 64):
        capacity = max(capacity, 8)
        self._values = np.zeros(capacity)
        self._gap_levels = np.zeros(capacity, dtype=np.int16)
        self._gap_nums: list[int] = []
        self._count = 1
        self._min_value = 0.0
        self._tau_level: int | None = None

    @property
    def n(self) -> int:
        """Number of evaluations, not counting the fixed site 0."""
        return self._count - 1

    @property
    def min_value(self) -> float:
        return self._min_value

    @property
    def tau_level(self) -> int:
        """Level k of the smallest gap 1/2^k.  Needs at least one gap."""
        if self._tau_level is None:
            raise ValueError("skeleton has no gaps yet")
        return self._tau_level

    @property
    def tau(self) -> float:
        """Smallest gap between consecutive sites, exact as a float."""
        return GAP_LENGTH.item(self.tau_level)

    def site(self, i: int) -> DyadicPoint:
        """The i-th site in increasing order (0-based)."""
        if not 0 <= i < self._count:
            raise IndexError(f"site index {i} out of range")
        if i == 0:
            return ZERO
        if i == self._count - 1:
            return ONE
        return DyadicPoint(self._gap_nums[i], self._gap_levels.item(i))

    @property
    def sites(self) -> list[DyadicPoint]:
        return [self.site(i) for i in range(self._count)]

    @property
    def values(self) -> np.ndarray:
        """View of the observed values in site order; treat as read only."""
        return self._values[: self._count]

    @property
    def gap_lengths(self) -> np.ndarray:
        """Consecutive gap lengths 1/2^L, exact."""
        return GAP_LENGTH[self._gap_levels[: self._count - 1]]

    @property
    def gap_levels(self) -> np.ndarray:
        """Copy of the gap levels L (gap i has length 1/2^L)."""
        return self._gap_levels[: self._count - 1].astype(np.int64)

    def gap_midpoint(self, j: int) -> DyadicPoint:
        """Exact midpoint of gap j (1-based, between sites j-1 and j)."""
        if not 1 <= j < self._count:
            raise IndexError(f"gap index {j} out of range")
        return _canonical(2 * self._gap_nums[j - 1] + 1, self._gap_levels.item(j - 1) + 1)

    def site_floats(self) -> np.ndarray:
        return np.array([float(s) for s in self.sites])

    def __len__(self) -> int:
        return self._count

    def __contains__(self, t: DyadicPoint) -> bool:
        return self.index_of(t) is not None

    def _search(self, t: DyadicPoint) -> int:
        return bisect.bisect_left(range(self._count), t, key=self.site)

    def index_of(self, t: DyadicPoint) -> int | None:
        i = self._search(t)
        if i < self._count and self.site(i) == t:
            return i
        return None

    def value_at(self, t: DyadicPoint) -> float:
        i = self.index_of(t)
        if i is None:
            raise KeyError(f"site {t} not in skeleton")
        return float(self._values[i])

    def locate(self, t: DyadicPoint) -> int:
        """1-based index of the gap whose midpoint is ``t``.

        Raises ValueError when ``t`` is already a site, lies outside the
        covered interval or is not the midpoint of its gap.
        """
        j = self._search(t)
        if j < self._count and self.site(j) == t:
            raise ValueError(f"duplicate site {t}")
        if j == 0 or j == self._count:
            raise ValueError(f"site {t} outside the covered interval")
        # the only canonical dyadic of level L+1 strictly inside a gap of
        # length 1/2^L is its midpoint
        if t.level != self._gap_levels.item(j - 1) + 1:
            raise ValueError(
                f"site {t} is not the midpoint of gap ({self.site(j - 1)}, {self.site(j)})"
            )
        return j

    def insert(self, t: DyadicPoint, value: float) -> int:
        """Insert a new (site, value) observation and return its index.

        The first insert must be the site 1.  Afterwards ``t`` must be the
        exact midpoint of an existing gap, found by :meth:`locate` and
        then split.
        """
        value = float(value)
        if self._count > 1:
            j = self.locate(t)
            self.split(j, value)
            return j
        if t != ONE:
            raise ValueError(f"first inserted site must be 1, got {t}")
        self._values[1] = value
        self._gap_nums.append(0)
        self._count = 2
        self._min_value = min(self._min_value, value)
        self._tau_level = 0
        return 1

    def split(self, j: int, value: float) -> None:
        """Insert ``value`` at the midpoint of gap j (1-based); the new site
        gets index j and the two halves become gaps j and j+1.  Halves
        deeper than MAX_LEVEL_CAP raise DepthExceededError."""
        count = self._count
        if not 1 <= j < count:
            raise IndexError(f"gap index {j} out of range")
        g = j - 1
        levels = self._gap_levels
        level = levels.item(g) + 1
        if level > MAX_LEVEL_CAP:
            raise DepthExceededError(f"splitting gap {j} needs level {level} > {MAX_LEVEL_CAP}")
        if count == len(self._values):
            self._values = np.concatenate([self._values, np.zeros(count)])
            levels = self._gap_levels = np.concatenate([levels, np.zeros_like(levels)])
        values = self._values
        values[j + 1 : count + 1] = values[j:count]
        values[j] = value
        levels[j + 1 : count] = levels[j : count - 1]
        levels[g] = level
        levels[j] = level
        k = self._gap_nums[g]
        self._gap_nums[g] = 2 * k
        self._gap_nums.insert(j, 2 * k + 1)
        self._count = count + 1
        if value < self._min_value:
            self._min_value = value
        if level > self._tau_level:
            self._tau_level = level
