"""Function evaluation oracles over [0, 1] with f(0) = 0.

A path oracle is observed the way the adaptive search observes a path:
``evaluate(ONE)`` gives the endpoint f(1) once, on a fresh oracle, and
every later site is the midpoint of a known gap, added by
:meth:`PathOracle.split` with the gap's index.  Each value is recorded in
the oracle's :class:`~brownmin.dyadic.Skeleton`.  The Brownian oracle
materialises a Brownian path lazily: W(1) is drawn unconditionally and
every midpoint is drawn from the exact bridge law between its two
neighbours, so the conditional law given the skeleton is exact at every
step.
"""

from __future__ import annotations

import abc
import operator
from typing import Callable

import numpy as np

from .dyadic import _MIDPOINT_SDS, DyadicPoint, Skeleton
from .rng import RngStream


class PathOracle(abc.ABC):
    """Evaluation contract, with f(0) = 0: ``evaluate(ONE)`` once, then
    ``split(j)`` only.  Both record their value in ``skeleton``."""

    skeleton: Skeleton

    @abc.abstractmethod
    def evaluate(self, t: DyadicPoint) -> float:
        """Value at the endpoint t = 1 of a fresh oracle.  Any other t, or
        a second call, raises ValueError."""

    @abc.abstractmethod
    def split(self, j: int) -> float:
        """Evaluate the midpoint of gap j (1-based), insert it into the
        skeleton at index j and return its value."""


class BrownianOracle(PathOracle):
    """Lazily bridge-sampled Brownian path.

    ``evaluate(ONE)`` draws W(1) as a standard normal; ``split(j)`` draws
    the midpoint of gap j from the bridge midpoint law between its two
    neighbours.

    The k-th new site uses the k-th normal of ``stream``, and a refused
    call uses none.  The normals are drawn from the stream in blocks, so
    the stream may have advanced past the last normal used.  ``capacity``
    sizes only the first block (at least 8 draws); each later block
    doubles it.  It must be an integer of at least 1: a float raises
    TypeError, a smaller value ValueError.
    """

    def __init__(self, stream: RngStream, capacity: int = 64):
        capacity = operator.index(capacity)
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.stream = stream
        self.skeleton = Skeleton()
        self._block = max(capacity, 8)
        self._normals: list[float] = []

    def _normal(self) -> float:
        # indexed by the site count, so a call the skeleton refuses uses none
        k = len(self.skeleton._values) - 1
        while k >= len(self._normals):
            self._normals += self.stream.gaussians(self._block).tolist()
            self._block *= 2
        return self._normals[k]

    def evaluate(self, t: DyadicPoint) -> float:
        value = self._normal()
        self.skeleton.insert(t, value)
        return value

    def split(self, j: int) -> float:
        # midpoint of a gap of level L between values a and b: mean
        # (a + b)/2 and standard deviation MIDPOINT_SD[L] = sqrt(2^-L)/2
        skel = self.skeleton
        values = skel._values
        a = values[j - 1]
        b = values[j]
        sd = _MIDPOINT_SDS[skel._gap_levels[j - 1]]
        value = a + 0.5 * (b - a) + sd * self._normal()
        skel.split(j, value)
        return value


class DeterministicOracle(PathOracle):
    """Closed-form test function with f(0) = 0, evaluated at float(t)."""

    def __init__(self, fn: Callable[[float], float]):
        if fn(0.0) != 0.0:
            raise ValueError("test function must satisfy f(0) = 0")
        self.fn = fn
        self.skeleton = Skeleton()

    def evaluate(self, t: DyadicPoint) -> float:
        value = float(self.fn(1.0))
        self.skeleton.insert(t, value)  # refuses any t but ONE
        return value

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
