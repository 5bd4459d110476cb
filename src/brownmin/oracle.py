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
import math
from typing import Callable

import numpy as np

from .dyadic import ONE, ZERO, DyadicPoint, Skeleton
from .rng import RngStream


class PathOracle(abc.ABC):
    """Evaluation contract: evaluate(t) with memoization, f(0) = 0."""

    skeleton: Skeleton

    @abc.abstractmethod
    def evaluate(self, t: DyadicPoint, hint: int | None = None) -> float:
        """Value at t, consistent with all previous evaluations."""

    def split(self, j: int) -> float:
        """Evaluate the midpoint of gap j (1-based), insert it into the
        skeleton at index j and return its value."""
        return self.evaluate(self.skeleton.gap_midpoint(j), hint=j)


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
        self._normals = iter(())

    def _normal(self) -> float:
        z = next(self._normals, None)
        if z is None:
            self._normals = iter(self.stream.gaussians(self._block).tolist())
            self._block *= 2
            z = next(self._normals)
        return z

    def evaluate(self, t: DyadicPoint, hint: int | None = None) -> float:
        skel = self.skeleton
        if t == ZERO:
            return 0.0
        if skel.n == 0:
            if t != ONE:
                raise ValueError(
                    f"cannot evaluate {t} before the endpoint 1 has been evaluated"
                )
            value = self._normal()
            skel.insert(ONE, value)
            return value
        if hint is None:
            existing = skel.index_of(t)
            if existing is not None:
                return float(skel.values[existing])  # memoized, no new draw
        return self.split(skel.locate(t, hint))

    def split(self, j: int) -> float:
        # midpoint of a gap of length T between values a and b: mean
        # (a + b)/2 and standard deviation sqrt(T)/2, which stays positive
        # at every level where T itself is (s (T - s) / T underflows first)
        skel = self.skeleton
        a = skel._values.item(j - 1)
        b = skel._values.item(j)
        T = skel._gap_lengths.item(j - 1)
        value = a + 0.5 * (b - a) + 0.5 * math.sqrt(T) * self._normal()
        skel.split(j, value)
        return value


class DeterministicOracle(PathOracle):
    """Closed-form test function with f(0) = 0, evaluated at float(t).

    Evaluation order is unrestricted: asking for a site whose bisection
    ancestors have not been seen yet simply evaluates those ancestors too
    (the function is pure, so the extra evaluations are free), keeping the
    skeleton a valid midpoint refinement.
    """

    def __init__(self, fn: Callable[[float], float], capacity: int = 64):
        if fn(0.0) != 0.0:
            raise ValueError("test function must satisfy f(0) = 0")
        self.fn = fn
        self.skeleton = Skeleton(capacity=capacity)

    def evaluate(self, t: DyadicPoint, hint: int | None = None) -> float:
        skel = self.skeleton
        if t == ZERO:
            return 0.0
        if hint is not None and skel.n > 0 and t not in skel:
            return self.split(skel.locate(t, hint))
        return self._ensure(t)

    def split(self, j: int) -> float:
        skel = self.skeleton
        value = float(self.fn(float(skel.gap_midpoint(j))))
        skel.split(j, value)
        return value

    def _ensure(self, t: DyadicPoint) -> float:
        skel = self.skeleton
        if t == ZERO:
            return 0.0
        existing = skel.index_of(t)
        if existing is not None:
            return float(skel.values[existing])
        if t == ONE:
            value = float(self.fn(1.0))
            skel.insert(ONE, value)
            return value
        # t is the midpoint of its two reduced neighbours at this level
        self._ensure(DyadicPoint(t.numerator - 1, t.level))
        self._ensure(DyadicPoint(t.numerator + 1, t.level))
        return self.split(skel.locate(t))


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
