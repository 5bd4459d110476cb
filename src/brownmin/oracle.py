"""Function evaluation oracles over [0, 1] with f(0) = 0.

A path oracle is observed the way the adaptive search observes a path:
``evaluate()`` gives the endpoint f(1) once, on a fresh oracle, and
records it in the oracle's :class:`~brownmin.dyadic.Skeleton`; every
later site is the midpoint of a known gap, whose value
:meth:`PathOracle.midpoint` answers with the gap's index and the caller
records with ``Skeleton.split``, as the search does;
:meth:`PathOracle.split` answers and records in one call, for code
outside a search.  The Brownian oracle materialises a Brownian path
lazily: W(1) is drawn unconditionally and every midpoint is drawn from
the exact bridge law between its two neighbours, so the conditional law
given the skeleton is exact at every step.
"""

from __future__ import annotations

import abc
import operator
from typing import Callable

import numpy as np

from .dyadic import _MIDPOINT_SDS, Skeleton
from .rng import RngStream


class PathOracle(abc.ABC):
    """Evaluation contract, with f(0) = 0: ``evaluate()`` once, then
    values at gap midpoints only.  ``evaluate`` records its value in
    ``skeleton``; ``midpoint`` answers without recording, and the caller
    records the value with ``skeleton.split``."""

    skeleton: Skeleton

    @abc.abstractmethod
    def evaluate(self) -> float:
        """Value at the endpoint 1 of a fresh oracle, recorded in the
        skeleton.  A second call raises ValueError."""

    @abc.abstractmethod
    def midpoint(self, j: int) -> float:
        """Value at the midpoint of gap j (1-based) of the skeleton, not
        recorded.  Until the skeleton changes, asking again gives the same
        value; an index with no gap raises IndexError."""

    def split(self, j: int) -> float:
        """Evaluate the midpoint of gap j, insert it into the skeleton at
        index j and return its value."""
        value = self.midpoint(j)
        self.skeleton.split(j, value)
        return value


class BrownianOracle(PathOracle):
    """Lazily bridge-sampled Brownian path.

    ``evaluate()`` draws W(1) as a standard normal; ``midpoint(j)``
    draws the midpoint of gap j from the bridge midpoint law between its
    two neighbours.

    The k-th new site uses the k-th normal of ``stream``: the normal is
    picked by the skeleton's site count, so a refused call uses none and
    ``midpoint`` asked again before a split gives the same value.  The
    normals are drawn from the stream in blocks, so the stream may have
    advanced past the last normal used.  ``capacity``
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

    def _draw(self, k: int) -> list[float]:
        # the normals, drawn on to hold the k-th
        while k >= len(self._normals):
            self._normals += self.stream.gaussians(self._block).tolist()
            self._block *= 2
        return self._normals

    def evaluate(self) -> float:
        value = self._draw(0)[0]
        self.skeleton.insert(value)  # refuses a second call
        return value

    def midpoint(self, j: int) -> float:
        # midpoint of a gap of level L between values a and b: mean
        # (a + b)/2 and standard deviation MIDPOINT_SD[L] = sqrt(2^-L)/2.
        # The search calls this once per split, so the normals are read
        # here, not through a further call, until a block runs out
        values = self.skeleton._values
        k = len(values) - 1
        if not 1 <= j <= k:
            raise IndexError(f"gap index {j} out of range")
        normals = self._normals
        if k >= len(normals):
            normals = self._draw(k)
        a = values[j - 1]
        return (a + 0.5 * (values[j] - a)
                + _MIDPOINT_SDS[self.skeleton._gap_levels[j - 1]] * normals[k])


class DeterministicOracle(PathOracle):
    """Closed-form test function with f(0) = 0, evaluated at float(t)."""

    def __init__(self, fn: Callable[[float], float]):
        if fn(0.0) != 0.0:
            raise ValueError("test function must satisfy f(0) = 0")
        self.fn = fn
        self.skeleton = Skeleton()

    def evaluate(self) -> float:
        value = float(self.fn(1.0))
        self.skeleton.insert(value)  # refuses a second call
        return value

    def midpoint(self, j: int) -> float:
        return float(self.fn(float(self.skeleton.gap_midpoint(j))))


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
