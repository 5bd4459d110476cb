"""Adaptive bisection search for the minimum of a path on [0, 1].

After a nonadaptive start (evaluate 1, then 1/2), each step assigns every
gap between consecutive sites a split score

    score_i = gap_i / ((v_{i-1} - m + off) (v_i - m + off)),

where m is the running discrete minimum and off = search_offset(tau) is a
positive offset driven by the smallest gap tau.  The gap with the largest
score (smallest index on ties) is split at its exact midpoint and the new
site is evaluated.  A large score marks a gap likely to hide a value below
m - off, so the search concentrates around the minimum while the shrinking
offset keeps it from stalling elsewhere.

Scores change globally only when m or tau moves: the offset depends on
tau alone, so with both unchanged a step alters exactly two scores, those
of the two halves of the split gap.  A step therefore scores the two new
gaps with the same float expression as :func:`split_scores`, shifts the
rest like the skeleton's values, and calls split_scores for a full rescore
only when m or tau moved.  The scores are bit for bit those of a full
recomputation; one argmax per step gives both the largest score of the
new state and the gap the next step splits.  The scores sit in an
``array.array`` in site order, like the skeleton's values, so the two
new scores are one store and one insert.  A largest score that is NaN or
infinite (a NaN path value, or an offset below half an ulp of M_n)
raises FloatingPointError, with no NumPy warning before it:
argmax returns the first NaN, so checking the chosen score covers the
whole array.  Gaps beside an infinite value score 0, so a step refuses
an infinite scaled increment the same way.

The per-path search is one loop, which :func:`step` runs for one split
and :func:`run` for all the rest.  It keeps the scores and the state's
M_n, tau level and running scaled increment in locals, asks the oracle
for each midpoint value and records it with ``Skeleton.split``: two
Python-level calls per split, and no site object or trace row built on
the way.  For :func:`run` it appends each state's new value, largest
score and split gap to three ``array.array`` columns, which
:class:`Trace` turns into rows in O(1) each: M_n is the running minimum
of the values, the tau level the running maximum of the new sites'
levels, and state n's site has id n in the skeleton's site table.
Traces compare by these columns and :func:`write_trace_csv` formats them
directly.

:func:`search_block` runs R searches on Brownian paths in lockstep, one
row per path, so that a step's Python overhead is paid once per block.
Each row keeps its gaps unordered, one slot per gap holding the left and
right value, the level, the score and a link to the next gap in site
order; splitting the gap in slot j overwrites it with the left half and
appends the right half in a new slot, so no row ever shifts.  A row whose
minimum or smallest gap moved is rescored in full, every other row scores
its two new gaps.  A row holds a few dozen slots at first and doubles
them, never past the block's N, when its searches need one more, so a
step's argmax scans about n slots of each row, not N.  Slots are not in
site order, so the first argmax of a row is the split of the per-path
search only when the largest score is unique.  A second argmax with the
chosen slots set to -inf finds the rows where another slot holds the same
score; such a row walks its links and splits the leftmost gap in site
order that holds the largest score.  The block takes the same normals and
evaluates the same float expressions as :func:`run` on a
:class:`~brownmin.oracle.BrownianOracle`, so every M_n and every final
value agrees bit for bit.  Both searches read the search offset of each
level from one table per lam, built once.
"""

from __future__ import annotations

import functools
import math
import operator
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .dyadic import (
    DEFAULT_LEVEL_CAP,
    GAP_LENGTH,
    MIDPOINT_SD,
    MAX_LEVEL_CAP,
    _GAP_LENGTHS,
    _MIDPOINT_SDS,
    DepthExceededError,
    DyadicPoint,
    Skeleton,
    _canonical,
)
from .oracle import PathOracle


def search_offset(x: float, lam: float) -> float:
    """Offset sqrt(lam * x * ln(1/x)) controlling the depth of the search.

    Defined for every x in (0, 1], subnormal x included, and lam >= 1;
    zero at x = 1 and decreasing to zero as x -> 0.
    """
    if not 0.0 < x <= 1.0:
        raise ValueError(f"offset argument must be in (0, 1], got {x}")
    if not (math.isfinite(lam) and lam >= 1.0):
        raise ValueError(f"lam must be finite and >= 1, got {lam}")
    return math.sqrt(lam * x * -math.log(x))


@functools.lru_cache(maxsize=16)
def _offset_table(lam: float) -> tuple[float, ...]:
    # search_offset(2^-L, lam) at every level L, as Python floats
    # (np.float64 scalars are several times slower).  Every level, not
    # only up to a cap: a state stepped under a lower cap than before can
    # hold a smallest gap deeper than that cap
    return tuple(search_offset(x, lam) for x in _GAP_LENGTHS)


@dataclass(frozen=True)
class MinimizerConfig:
    """Parameters of one search run."""

    lam: float
    max_steps: int
    level_cap: int = DEFAULT_LEVEL_CAP

    def __post_init__(self):
        # operator.index refuses floats such as 2.5 instead of truncating
        object.__setattr__(self, "max_steps", operator.index(self.max_steps))
        object.__setattr__(self, "level_cap", operator.index(self.level_cap))
        if not (math.isfinite(self.lam) and self.lam >= 1.0):
            raise ValueError(f"lam must be finite and >= 1, got {self.lam}")
        if self.max_steps < 2:
            raise ValueError(f"max_steps must be >= 2, got {self.max_steps}")
        if not 2 <= self.level_cap <= MAX_LEVEL_CAP:
            raise ValueError(f"level_cap must be in [2, {MAX_LEVEL_CAP}], got {self.level_cap}")


class StepTrace(NamedTuple):
    """State summary after the n-th evaluation.

    ``site``/``value`` are the evaluation that produced this state,
    ``split_index`` the 1-based gap that was split to create it, and
    ``rho_max``/``undershoot_max`` the largest split score of this state
    and the corresponding undershoot probability exp(-2/score).
    """

    n: int
    split_index: int
    site: DyadicPoint
    value: float
    m_n: float
    tau_level: int
    rho_max: float
    undershoot_max: float


class MinimizerState:
    """Search state on an observation skeleton, kept current.

    The state, like a row of :func:`search_block`, owns M_n (``m_n``),
    the smallest gap's ``tau_level`` and ``max_scaled_increment``, the
    running maximum of |v_i - v_{i-1}| / sqrt(gap_i) over every gap
    created so far, a NumPy float64 gauging how rough the path is.
    ``scores`` equals ``split_scores(state, lam)`` for the configuration
    the state is stepped with; ``next_split`` is the 1-based gap the next
    step splits (the leftmost largest score) and ``rho_max`` that score.

    A state starts on a skeleton that holds f(1) only, at M_1 = min(0, f(1)),
    tau level 0 and increment |f(1)|; its first step splits gap 1 unscored,
    so n != 1 raises ValueError.  Only :func:`step` and :func:`run` may
    then add sites to its skeleton.  A step that raises FloatingPointError
    finishes the state: only its skeleton, which holds the refused value,
    is meaningful, and every later step raises ValueError.
    """

    __slots__ = ("skeleton", "m_n", "tau_level", "max_scaled_increment", "next_split",
                 "rho_max", "_scores", "_lam", "_shift", "_n")

    def __init__(self, skeleton: Skeleton):
        if skeleton.n != 1:
            raise ValueError(f"a state starts at n = 1, got a skeleton with n = {skeleton.n}")
        endpoint = skeleton._values[1]
        self.skeleton = skeleton
        self.m_n = min(0.0, endpoint)
        self.tau_level = 0
        self.max_scaled_increment = np.float64(abs(endpoint))  # |f(1) - f(0)| / sqrt(1)
        self.next_split = 1
        self.rho_max = math.nan
        self._scores = array("d")
        self._lam = math.nan  # lam and M_n - off behind the current scores
        self._shift = math.nan
        self._n = skeleton.n

    @property
    def n(self) -> int:
        return self.skeleton.n

    @property
    def scores(self) -> np.ndarray:
        """Copy of the split scores, one per gap."""
        return np.array(self._scores)


def _score(length, left, right, c):
    # split score of a gap with endpoint values left and right, where
    # c = M_n - off; the one float expression behind every score
    return length / ((left - c) * (right - c))


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def split_scores(state: MinimizerState, lam: float) -> np.ndarray:
    """Recompute every split score of the skeleton at the state's M_n and tau.

    Requires n >= 2 so that the smallest gap is below 1 and the offset is
    strictly positive; every score is then positive, and finite unless
    the offset is below half an ulp of M_n.
    """
    skel = state.skeleton
    if state.n < 2:
        raise ValueError("split scores are defined from n = 2 on")
    # views of the buffers, gone with the call: the next split grows them
    values = np.frombuffer(skel._values)
    return _score(GAP_LENGTH.take(np.frombuffer(skel._gap_levels, np.int16)), values[:-1],
                  values[1:], state.m_n - _offset_table(lam)[state.tau_level])


def select_split(scores: np.ndarray) -> int:
    """1-based index of the largest score; smallest index on exact ties."""
    if len(scores) == 0:
        raise ValueError("empty score array")
    return int(scores.argmax()) + 1


def init_state(oracle: PathOracle, config: MinimizerConfig) -> tuple[MinimizerState, StepTrace]:
    """Run the nonadaptive start (sites 1 and 1/2) on a fresh oracle.

    Records f(1) with ``Skeleton.insert``, which refuses an oracle whose
    skeleton has grown, and returns the state after two evaluations
    together with its trace row; the bootstrap midpoint 1/2 is the first
    step, splitting the single gap [0, 1].
    """
    oracle.skeleton.insert(oracle.evaluate())
    state = MinimizerState(oracle.skeleton)
    return state, step(state, oracle, config)


def step(state: MinimizerState, oracle: PathOracle, config: MinimizerConfig) -> StepTrace:
    """Split the highest-scoring gap at its midpoint and evaluate there.

    One pass of the search loop that :func:`run` runs to the end, so a
    state stepped to n equals the state run to n bit for bit.  A split
    deeper than the level cap raises DepthExceededError and leaves the
    state, its skeleton and the oracle as they were; a non-finite score
    or increment raises FloatingPointError once the value is recorded
    and finishes the state.  The row's site is read from the skeleton's
    site table by its id n.
    """
    j = state.next_split
    _search(state, oracle, config, state._n + 1)
    skel = state.skeleton
    n, rho_max = state._n, state.rho_max
    return StepTrace(n, j, _canonical(skel._site_nums[n], skel._site_levels[n]),
                     skel._values[j], state.m_n, state.tau_level, rho_max,
                     math.exp(-2.0 / rho_max))


def run(oracle: PathOracle, config: MinimizerConfig) -> tuple[MinimizerState, Trace]:
    """Run the full search for config.max_steps evaluations (site 0 not
    counted) and return the final state with its :class:`Trace`, one row
    per state n = 2 .. max_steps, as the search recorded it."""
    state, first = init_state(oracle, config)
    columns = (array("d", [first.value]), array("d", [first.rho_max]),
               array("i", [first.split_index]))
    _search(state, oracle, config, config.max_steps, *columns)
    return state, Trace(state.skeleton, *columns)


def _search(state: MinimizerState, oracle: PathOracle, config: MinimizerConfig, stop: int,
            values: array | None = None, rhos: array | None = None,
            splits: array | None = None) -> None:
    # The search loop behind step and run: split until the state holds
    # ``stop`` evaluations, appending each new state's value, largest score
    # and split gap to ``values``, ``rhos`` and ``splits`` when given.  The
    # scores and the state's M_n, tau level and increment sit in locals.
    # A split asks oracle.midpoint for the value and records it with
    # Skeleton.split, the one writer of a skeleton.  With M_n, tau and lam
    # unchanged it scores the two halves of the split gap; otherwise it
    # stores M_n and tau in the state and split_scores, looked up at call
    # time, rescores every gap.  The state's n is written after the loop,
    # so a split refused once recorded leaves n behind the skeleton.
    skel = state.skeleton
    vals = skel._values
    n = state._n
    if oracle.skeleton is not skel or len(vals) - 1 != n:
        raise ValueError("the state ended at a non-finite split or was changed outside step")
    lam = config.lam
    cap = config.level_cap
    levels = skel._gap_levels
    frombuffer = np.frombuffer
    isfinite = math.isfinite
    inf = math.inf
    lengths = _GAP_LENGTHS
    spreads = _MIDPOINT_SDS  # sqrt(2^-L) / 2, so sqrt(2^-L) is exactly twice it
    scores = state._scores
    shift = state._shift
    stale = lam != state._lam
    m = state.m_n
    tau = state.tau_level
    increment_start = increment_max = float(state.max_scaled_increment)
    j = state.next_split
    rho = state.rho_max
    while n < stop:
        g = j - 1
        level = levels[g] + 1
        if level > cap:
            raise DepthExceededError(
                f"midpoint of ({skel.site(g)}, {skel.site(j)}) needs level {level} "
                f"> cap {cap}"
            )
        a = vals[g]
        b = vals[j]
        value = oracle.midpoint(j)
        skel.split(j, value)
        n += 1
        half = lengths[level]
        # max(|value - a|, |b - value|) / sqrt(half), without the calls
        rise = value - a
        if rise < 0.0:
            rise = -rise
        fall = b - value
        if fall < 0.0:
            fall = -fall
        increment = (fall if fall > rise else rise) / (2.0 * spreads[level])
        if increment > increment_max:
            increment_max = increment
        if value < m or level > tau or stale:
            if value < m:
                m = value
            if level > tau:
                tau = level
            state.m_n = m
            state.tau_level = tau
            scores = state._scores = array("d", split_scores(state, lam).tobytes())
            shift = state._shift = m - _offset_table(lam)[tau]
            state._lam = lam
            stale = False
        else:
            scores[g] = half / ((a - shift) * (value - shift))  # _score
            scores.insert(j, half / ((value - shift) * (b - shift)))

        best = int(frombuffer(scores).argmax())
        top = scores[best]
        if increment == inf:  # an infinite value scores 0 or NaN beside it
            raise FloatingPointError(f"scaled increment inf of the split of gap {j} at n={n}")
        if not isfinite(top):
            raise FloatingPointError(f"split score {top!r} of gap {best + 1} at n={n}")
        if values is not None:
            values.append(value)
            rhos.append(top)
            splits.append(j)  # the gap this pass split
        j = best + 1
        rho = top
    state._n = n
    state.next_split = j
    state.rho_max = rho
    if increment_max != increment_start:  # a NumPy float64, as documented
        state.max_scaled_increment = np.float64(increment_max)


class Trace(Sequence):
    """The states n = 2 .. N of one :func:`run`, as the search recorded them.

    The search records each state's new value, largest score and split
    gap.  M_n is the running minimum of the values from min(0, f(1)), the
    tau level the running maximum of the new sites' levels, and the site
    of state n is the site with id n in the skeleton's site table.  Row i
    is the :class:`StepTrace` of state n = i + 2, built in O(1) when asked
    for and equal field for field to the one :func:`step` returns, so the
    trace reads as a sequence of them; a slice is a list of rows.  Two
    traces are equal when their recorded columns and sites are; code that
    compares a trace with rows compares ``list(trace)``.
    """

    __slots__ = ("_values", "_rhos", "_splits", "_nums", "_levels", "_m_n", "_taus")

    def __init__(self, skeleton: Skeleton, values: array, rhos: array, splits: array):
        stop = len(values) + 2  # the site with id n was evaluated at state n
        self._values = values
        self._rhos = rhos
        self._splits = splits
        self._nums = skeleton._site_nums[2:stop]
        self._levels = skeleton._site_levels[2:stop]
        # min(m, value) keeps m unless value < m, as the search's update
        self._m_n = list(accumulate(values, min, initial=min(0.0, skeleton._values[-1])))[1:]
        self._taus = np.maximum.accumulate(np.array(self._levels)).tolist()

    @property
    def m_n(self) -> np.ndarray:
        """M_n of every state, in order."""
        return np.array(self._m_n)

    def __len__(self) -> int:
        return len(self._values)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(*i.indices(len(self)))]
        i = range(len(self._values))[i]
        rho = self._rhos[i]
        return StepTrace(i + 2, self._splits[i], _canonical(self._nums[i], self._levels[i]),
                         self._values[i], self._m_n[i], self._taus[i], rho,
                         math.exp(-2.0 / rho))

    def __eq__(self, other) -> bool:
        # the recorded columns, the sites and the columns derived from them
        if not isinstance(other, Trace):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in Trace.__slots__)

    __hash__ = None


class BlockResult(NamedTuple):
    """Outcome of :func:`search_block` for R rows run to N evaluations.

    ``m_n[r, n - 2]`` is row r's M_n after n evaluations, for every n = 2
    .. N, as ``Trace.m_n`` holds it for one path.  ``capped[r]`` is
    true when row r needed a split deeper than the level cap; its other
    entries are then meaningless.  ``values`` (R, N+1) and ``lengths``
    (R, N) are each row's final sites' values and gap lengths in site
    order.
    """

    m_n: np.ndarray
    capped: np.ndarray
    values: np.ndarray
    lengths: np.ndarray


# slots per row a lockstep block starts with
_FIRST_WIDTH = 32


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def search_block(normals: np.ndarray, lam: float, level_cap: int) -> BlockResult:
    """Run one search per row of ``normals`` (R, N) in lockstep.

    Row r is the search of :func:`run` to N evaluations on a Brownian path
    whose k-th new site takes the normal ``normals[r, k]``, as a
    :class:`~brownmin.oracle.BrownianOracle` does, recording M_n at every n.
    A row that needs a split deeper than ``level_cap`` is marked in
    ``capped`` where the per-path search raises DepthExceededError.  A
    non-finite normal, or a non-finite largest score in any row, raises
    FloatingPointError, as :func:`step` does on such a path.
    """
    normals = np.asarray(normals, dtype=float)
    if normals.ndim != 2:
        raise ValueError("normals must be an (R, N) array")
    rows_count, n_max = normals.shape
    MinimizerConfig(lam=lam, max_steps=n_max, level_cap=level_cap)  # validates all three
    if not np.isfinite(normals).all():
        row, k = np.argwhere(~np.isfinite(normals))[0]
        raise FloatingPointError(f"non-finite normal {float(normals[row, k])} in row {row}, "
                                 f"column {k}")

    # lengths and midpoint spreads come from the dyadic tables
    offset = np.array(_offset_table(lam))
    columns = np.ascontiguousarray(normals.T)  # step k reads row k

    # a row holds ``width`` slots, doubled (never past n_max) when its
    # searches need one more, so each step scans about n slots, not n_max
    width = min(n_max, _FIRST_WIDTH)
    left = np.zeros((rows_count, width))
    right = np.empty((rows_count, width))
    levels = np.zeros((rows_count, width), dtype=np.int16)
    links = np.empty((rows_count, width), dtype=np.int32)
    # unused slots score -inf, so an argmax over whole contiguous rows
    # picks a used one and no strided view is copied
    scores = np.full((rows_count, width), -np.inf)
    # n = 1: the single gap [0, 1] in slot 0, the last gap in site order
    right[:, 0] = columns[0]
    links[:, 0] = -1
    m = np.where(columns[0] < 0.0, columns[0], 0.0)
    tau = np.zeros(rows_count, dtype=np.int16)
    # row r's slot j is entry r * width + j of each flat view: one flat
    # index gathers and scatters faster than a (row, slot) pair
    left_flat, right_flat, levels_flat, links_flat, scores_flat = (
        x.reshape(-1) for x in (left, right, levels, links, scores))
    base = np.arange(rows_count) * width
    at = base.copy()  # flat index of the slot each row splits next
    capped = np.zeros(rows_count, dtype=bool)
    m_n = np.empty((n_max - 1, rows_count))  # step n writes the contiguous row n - 2

    for n in range(2, n_max + 1):
        new = n - 1  # slot of the right half
        if new == width:
            width = min(2 * width, n_max)
            left, right, levels, links = (_widen(x, width) for x in (left, right, levels, links))
            scores = _widen(scores, width, -np.inf)
            at += np.arange(rows_count) * width - base
            base = np.arange(rows_count) * width
            left_flat, right_flat, levels_flat, links_flat, scores_flat = (
                x.reshape(-1) for x in (left, right, levels, links, scores))
        a = left_flat[at]
        b = right_flat[at]
        parent = levels_flat[at]
        value = a + 0.5 * (b - a) + MIDPOINT_SD.take(parent) * columns[new]
        level = parent + 1
        deep = level > level_cap
        if deep.any():
            capped |= deep
            level = np.minimum(level, level_cap)  # keeps table lookups in range
        right_flat[at] = value
        levels_flat[at] = level
        left[:, new] = value
        right[:, new] = b
        levels[:, new] = level
        links[:, new] = links_flat[at]
        links_flat[at] = new

        lower = value < m
        moved = np.flatnonzero(lower | (level > tau))
        m = np.where(lower, value, m)
        tau = np.maximum(tau, level)
        c = m - offset.take(tau)
        half = GAP_LENGTH.take(level)
        scores_flat[at] = _score(half, a, value, c)
        scores[:, new] = _score(half, value, b, c)
        if len(moved):
            scores[moved, :n] = _score(GAP_LENGTH.take(levels[moved, :n]), left[moved, :n],
                                       right[moved, :n], c[moved, None])
        m_n[n - 2] = m
        split = scores.argmax(axis=1)
        at = base + split
        best = scores_flat[at]
        if not np.isfinite(best).all():
            raise FloatingPointError(f"non-finite split score at n={n}")
        if n < n_max:
            # the first argmax is the per-path split unless another slot
            # holds the same score: a row whose largest score is also its
            # largest with the chosen slot masked walks its links
            scores_flat[at] = -np.inf
            tied = np.flatnonzero(scores_flat[base + scores.argmax(axis=1)] == best)
            scores_flat[at] = best
            for r in tied:
                # walk the links from slot 0, the leftmost gap, to the first
                # slot in site order that holds the row's largest score
                row, link = scores[r, :n].tolist(), links[r, :n].tolist()
                slot, top = 0, row[split[r]]
                while row[slot] != top:
                    slot = link[slot]
                at[r] = base[r] + slot

    values = np.empty((rows_count, n_max + 1))
    site_levels = np.empty((rows_count, n_max), dtype=np.int16)
    at = base
    for i in range(n_max):  # walk the links in site order
        values[:, i] = left_flat[at]
        site_levels[:, i] = levels_flat[at]
        last = at
        at = base + links_flat[at]
    values[:, n_max] = right_flat[last]
    return BlockResult(m_n.T, capped, values, GAP_LENGTH.take(site_levels))


def _widen(slots: np.ndarray, width: int, fill=0) -> np.ndarray:
    # the (rows, width) array that starts with ``slots``, then ``fill``
    wider = np.full((slots.shape[0], width), fill, dtype=slots.dtype)
    wider[:, : slots.shape[1]] = slots
    return wider


class ScoreBoundCheck(NamedTuple):
    """Both sides of the conditional score bound at one state.

    When the scaled increments of the observed path stay below
    sqrt(lam ln(n) / 4) (``applicable``), the largest split score must not
    exceed 2 / (lam ln(1/tau)); a violation would be an algorithm bug.
    """

    n: int
    max_scaled_increment: float
    increment_bound: float
    rho_max: float
    score_bound: float
    applicable: bool


def check_score_bound(state: MinimizerState, config: MinimizerConfig) -> ScoreBoundCheck:
    """Evaluate the conditional bound on the current state (n >= 2); a
    state finished by a non-finite split raises ValueError, as in step."""
    n = state._n
    if len(state.skeleton._values) - 1 != n:
        raise ValueError("the state ended at a non-finite split or was changed outside step")
    if n < 2:
        raise ValueError("score bound check needs n >= 2")
    increment_bound = math.sqrt(config.lam * math.log(n) / 4.0)
    score_bound = 2.0 / (config.lam * math.log(1.0 / _GAP_LENGTHS[state.tau_level]))
    rho_max = state.rho_max
    applicable = bool(state.max_scaled_increment <= increment_bound)
    if applicable and rho_max > score_bound:
        raise RuntimeError(
            f"score bound violated at n={n}: rho_max={rho_max!r} > {score_bound!r} "
            f"while increments {state.max_scaled_increment!r} <= {increment_bound!r}"
        )
    return ScoreBoundCheck(n, state.max_scaled_increment, increment_bound, rho_max,
                           score_bound, applicable)


def write_trace_csv(trace: Trace, path, deltas: np.ndarray | None = None) -> None:
    """Write the rows of a :class:`Trace` as CSV, straight from its columns.

    Columns: n, t_exact, t_float, value, M_n, tau_level, rho_max,
    undershoot_max, plus delta_n when ``deltas`` (one value per row) is
    given.  Floats carry 17 significant digits so they round-trip exactly.
    Lines end in "\r\n" and no field needs quoting, so the bytes are
    those of ``csv.writer``.
    """
    ns = range(2, len(trace) + 2)
    nums, levels, rhos = trace._nums, trace._levels, trace._rhos
    # float(num / 2^level): the int rounds to the nearest double and the
    # power of two scales it exactly (a site below 2^-1022 is 2^-1023)
    t_floats = map(operator.mul, nums, map(_GAP_LENGTHS.__getitem__, levels))
    header = "n,t_exact,t_float,value,M_n,tau_level,rho_max,undershoot_max"
    row = "%d,%d/2^%d,%.17g,%.17g,%s,%d,%.17g,%.17g"
    columns = [ns, nums, levels, t_floats, trace._values, _format_runs(trace._m_n),
               trace._taus, rhos, [math.exp(-2.0 / rho) for rho in rhos]]
    if deltas is not None:
        if len(deltas) != len(ns):
            raise ValueError("need one delta per trace row")
        header += ",delta_n"
        row += ",%s"
        columns.append(_format_runs(deltas))
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join([header, *map(row.__mod__, zip(*columns)), ""]))


def _format_runs(column) -> list[str]:
    # "%.17g" % x for every entry, formatted once per run of entries with
    # equal bits: M_n and delta_n change on few steps.  Bits, not values,
    # since 0.0 and -0.0 are equal but print differently
    column = np.asarray(column, dtype=float)
    bits = column.view(np.int64)
    starts = np.ones(len(bits), dtype=bool)
    np.not_equal(bits[1:], bits[:-1], out=starts[1:])
    starts = np.flatnonzero(starts)
    texts = np.array(["%.17g" % x for x in column[starts].tolist()], dtype=object)
    return np.repeat(texts, np.diff(starts, append=len(bits))).tolist()
