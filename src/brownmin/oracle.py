"""Function evaluation oracles over [0, 1] with f(0) = 0.

A path oracle answers point evaluations at dyadic sites and memoizes them
in a :class:`~brownmin.dyadic.Skeleton`.  The Brownian oracle materialises
a Brownian path lazily: W(1) is drawn unconditionally, every later site is
drawn from the exact bridge law between its already-observed neighbours,
so the conditional law given the skeleton is exact at every step.

Every new interior site is the midpoint of a known gap, so oracles add it
through :meth:`PathOracle.split`, which takes the gap's index; ``evaluate``
finds that gap for a given site and takes the same path.
"""

from __future__ import annotations

import abc
from typing import Callable

import numpy as np

from .dyadic import MIDPOINT_SD, ONE, ZERO, DyadicPoint, Skeleton
from .rng import RngStream


class PathOracle(abc.ABC):
    """Evaluation contract: evaluate(t) with memoization, f(0) = 0."""

    skeleton: Skeleton

    @abc.abstractmethod
    def evaluate(self, t: DyadicPoint) -> float:
        """Value at t, consistent with all previous evaluations."""

    def split(self, j: int) -> float:
        """Evaluate the midpoint of gap j (1-based), insert it into the
        skeleton at index j and return its value."""
        return self.evaluate(self.skeleton.gap_midpoint(j))


class BrownianOracle(PathOracle):
    """Lazily bridge-sampled Brownian path.

    The first new site must be t = 1 (drawn as a standard normal); later
    sites must be midpoints of existing gaps and are drawn from the bridge
    midpoint law.  Re-evaluating a known site never consumes randomness.

    The k-th new site uses the k-th normal of ``stream``.  The normals are
    drawn from the stream in blocks (the first of ``capacity`` draws, then
    doubling), so the stream may have advanced past the last normal used.
    """

    def __init__(self, stream: RngStream, capacity: int = 64):
        self.stream = stream
        self.skeleton = Skeleton(capacity=capacity)
        self._block = max(capacity, 8)
        self._normals: list[float] = []

    def _normal(self) -> float:
        # indexed by the site count, so a split the skeleton refuses uses none
        k = self.skeleton._count - 1
        while k >= len(self._normals):
            self._normals += self.stream.gaussians(self._block).tolist()
            self._block *= 2
        return self._normals[k]

    def evaluate(self, t: DyadicPoint) -> float:
        skel = self.skeleton
        existing = skel.index_of(t)
        if existing is not None:
            return float(skel.values[existing])  # memoized, no new draw
        if skel.n > 0:
            return self.split(skel.locate(t))
        if t != ONE:
            raise ValueError(f"cannot evaluate {t} before the endpoint 1 has been evaluated")
        value = self._normal()
        skel.insert(ONE, value)
        return value

    def split(self, j: int) -> float:
        # midpoint of a gap of level L between values a and b: mean
        # (a + b)/2 and standard deviation MIDPOINT_SD[L] = sqrt(2^-L)/2
        skel = self.skeleton
        a = skel._values.item(j - 1)
        b = skel._values.item(j)
        sd = MIDPOINT_SD.item(skel._gap_levels.item(j - 1))
        value = a + 0.5 * (b - a) + sd * self._normal()
        skel.split(j, value)
        return value


class DeterministicOracle(PathOracle):
    """Closed-form test function with f(0) = 0, evaluated at float(t).

    Evaluation order is unrestricted: asking for a site whose bisection
    ancestors have not been seen yet splits the gap that holds it until it
    is a site, which evaluates those ancestors too (the function is pure,
    so the extra evaluations are free) and keeps the skeleton a valid
    midpoint refinement.
    """

    def __init__(self, fn: Callable[[float], float], capacity: int = 64):
        if fn(0.0) != 0.0:
            raise ValueError("test function must satisfy f(0) = 0")
        self.fn = fn
        self.skeleton = Skeleton(capacity=capacity)

    def evaluate(self, t: DyadicPoint) -> float:
        skel = self.skeleton
        if skel.n == 0 and t != ZERO:
            skel.insert(ONE, float(self.fn(1.0)))
        while True:
            i = skel._search(t)
            if skel.site(i) == t:
                return float(skel.values[i])
            self.split(i)  # gap i holds t strictly inside

    def split(self, j: int) -> float:
        skel = self.skeleton
        value = float(self.fn(float(skel.gap_midpoint(j))))
        skel.split(j, value)
        return value


def grid_reference_min(oracle: DeterministicOracle, grid_size: int) -> float:
    """Minimum of the oracle's function over the uniform grid {i/grid_size}.

    A brute-force upper bound on the true minimum that converges as the
    grid is refined; used as an independent reference for convergence
    tests.
    """
    if grid_size < 2:
        raise ValueError("grid_size must be at least 2")
    grid = np.linspace(0.0, 1.0, grid_size + 1)
    values = np.array([oracle.fn(float(t)) for t in grid])
    return float(values.min())
