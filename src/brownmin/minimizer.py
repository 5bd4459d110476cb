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
new state and the gap the next step splits.

:func:`search_block` runs R searches on Brownian paths in lockstep, one
row per path, so that a step's Python overhead is paid once per block.
Each row keeps its gaps unordered, one slot per gap holding the left and
right value, the level, the score and a link to the next gap in site
order; splitting the gap in slot j overwrites it with the left half and
appends the right half in a new slot, so no row ever shifts.  A row whose
minimum or smallest gap moved is rescored in full, every other row scores
its two new gaps.  Slots are not in site order, so the first argmax of a
row is the split of the per-path search only when the largest score is
unique; a row whose first and last argmax differ walks its links and
splits the leftmost gap in site order that holds the largest score.  The
block takes the same normals and evaluates the same float expressions as
:func:`run` on a :class:`~brownmin.oracle.BrownianOracle`, so every M_n
and every final value agrees bit for bit.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dyadic import (
    DEFAULT_LEVEL_CAP,
    GAP_LENGTH,
    MIDPOINT_SD,
    ONE,
    MAX_LEVEL_CAP,
    DepthExceededError,
    DyadicPoint,
    Skeleton,
    _canonical,
)
from .oracle import PathOracle


def search_offset(x: float, lam: float) -> float:
    """Offset sqrt(lam * x * ln(1/x)) controlling the depth of the search.

    Defined for x in (0, 1] and lam >= 1; zero at x = 1 and decreasing to
    zero as x -> 0.
    """
    if not 0.0 < x <= 1.0:
        raise ValueError(f"offset argument must be in (0, 1], got {x}")
    if not (math.isfinite(lam) and lam >= 1.0):
        raise ValueError(f"lam must be finite and >= 1, got {lam}")
    return math.sqrt(lam * x * math.log(1.0 / x))


@dataclass(frozen=True)
class MinimizerConfig:
    """Parameters of one search run."""

    lam: float
    max_steps: int
    level_cap: int = DEFAULT_LEVEL_CAP

    def __post_init__(self):
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
    """Observation skeleton plus its per-gap split scores, kept current.

    ``scores`` equals ``split_scores(state, lam)`` for the configuration
    the state is stepped with; ``next_split`` is the 1-based gap the next
    step splits (the leftmost largest score) and ``rho_max`` that score.
    ``max_scaled_increment`` is the running maximum of
    |v_i - v_{i-1}| / sqrt(gap_i) over every gap created so far, a
    diagnostic for how rough the observed path is, as a NumPy float64.

    Once the state exists, only :func:`step` may add sites to its skeleton.
    """

    __slots__ = ("skeleton", "max_scaled_increment", "next_split", "rho_max",
                 "_scores", "_lam", "_shift", "_n")

    def __init__(self, skeleton: Skeleton):
        self.skeleton = skeleton
        self.max_scaled_increment = np.float64(0.0)
        self.next_split = 1
        self.rho_max = math.nan
        self._scores = np.zeros(len(skeleton._values))
        self._lam = math.nan  # lam and M_n - off behind the current scores
        self._shift = math.nan
        self._n = skeleton.n

    @property
    def n(self) -> int:
        return self.skeleton.n

    @property
    def m_n(self) -> float:
        return self.skeleton.min_value

    @property
    def tau(self) -> float:
        return self.skeleton.tau

    @property
    def scores(self) -> np.ndarray:
        """View of the split scores, one per gap; the next step overwrites it."""
        return self._scores[: self._n]


def _score_shift(skel: Skeleton, lam: float) -> float:
    # scores use h_i = v_i - (M_n - off); this is the subtracted constant
    return skel.min_value - search_offset(skel.tau, lam)


def _score(length, left, right, c):
    # split score of a gap with endpoint values left and right, where
    # c = M_n - off; the one float expression behind every score
    return length / ((left - c) * (right - c))


def split_scores(state: MinimizerState, lam: float) -> np.ndarray:
    """Recompute all split scores of the current skeleton from scratch.

    Requires n >= 2 so that the smallest gap is below 1 and the offset is
    strictly positive; every score is then finite and positive.
    """
    skel = state.skeleton
    if skel.n < 2:
        raise ValueError("split scores are defined from n = 2 on")
    values = skel.values
    return _score(skel.gap_lengths, values[:-1], values[1:], _score_shift(skel, lam))


def select_split(scores: np.ndarray) -> int:
    """1-based index of the largest score; smallest index on exact ties."""
    if len(scores) == 0:
        raise ValueError("empty score array")
    return int(scores.argmax()) + 1


def undershoot_probabilities(scores: np.ndarray) -> np.ndarray:
    """Per-gap probability exp(-2/score) that the gap hides a value below
    the current minimum minus the search offset."""
    return np.exp(-2.0 / np.asarray(scores, dtype=float))


def init_state(oracle: PathOracle, config: MinimizerConfig) -> tuple[MinimizerState, StepTrace]:
    """Run the nonadaptive start (sites 1 and 1/2) on a fresh oracle.

    Returns the state after two evaluations together with its trace row;
    the bootstrap midpoint 1/2 is the first step, splitting the single gap
    [0, 1].
    """
    if oracle.skeleton.n != 0:
        raise ValueError("oracle must be fresh (no evaluations yet)")
    value = oracle.evaluate(ONE)
    state = MinimizerState(oracle.skeleton)
    state.max_scaled_increment = np.float64(abs(value))  # |f(1) - f(0)| / sqrt(1)
    return state, step(state, oracle, config)


def step(state: MinimizerState, oracle: PathOracle, config: MinimizerConfig) -> StepTrace:
    """Split the highest-scoring gap at its midpoint and evaluate there.

    Only the two halves of the split gap get new scores, unless M_n, the
    smallest gap or lam changed; then every gap is rescored with
    split_scores.
    """
    skel = state.skeleton
    if oracle.skeleton is not skel or skel._count - 1 != state._n:
        raise ValueError("the state's skeleton was changed outside step")
    j = state.next_split
    g = j - 1
    level = skel._gap_levels.item(g) + 1
    if level > config.level_cap:
        raise DepthExceededError(
            f"midpoint of ({skel.site(g)}, {skel.site(j)}) needs level {level} "
            f"> cap {config.level_cap}"
        )
    m_old = skel._min_value
    tau_old = skel._tau_level
    value = oracle.split(j)
    n = state._n = skel._count - 1

    values = skel._values
    a = values.item(g)
    b = values.item(j + 1)
    half = GAP_LENGTH.item(level)
    increment = max(abs(value - a), abs(b - value)) / math.sqrt(half)
    if increment > state.max_scaled_increment:
        state.max_scaled_increment = np.float64(increment)

    scores = state._scores
    if n > len(scores):
        scores = state._scores = np.concatenate([scores, np.zeros(len(scores))])
    if value < m_old or level > tau_old or config.lam != state._lam:
        scores[:n] = split_scores(state, config.lam)
        state._lam = config.lam
        state._shift = _score_shift(skel, config.lam)
    else:
        scores[j + 1 : n] = scores[j : n - 1]
        scores[g] = _score(half, a, value, state._shift)
        scores[j] = _score(half, value, b, state._shift)

    current = scores[:n]
    state.next_split = select_split(current)
    rho_max = state.rho_max = current.item(state.next_split - 1)
    site = _canonical(skel._gap_nums[j], level)
    return StepTrace(n, j, site, value, skel._min_value, skel._tau_level,
                     rho_max, math.exp(-2.0 / rho_max))


def run(oracle: PathOracle, config: MinimizerConfig) -> tuple[MinimizerState, list[StepTrace]]:
    """Run the full search for config.max_steps evaluations (site 0 not
    counted) and return the final state with one trace row per state
    n = 2 .. max_steps."""
    state, first = init_state(oracle, config)
    traces = [first]
    while state.n < config.max_steps:
        traces.append(step(state, oracle, config))
    return state, traces


class BlockResult(NamedTuple):
    """Outcome of :func:`search_block` for R rows run to N evaluations.

    ``m_n[r, k]`` is row r's M_n at the k-th recorded n.  ``capped[r]`` is
    true when row r needed a split deeper than the level cap; its other
    entries are then meaningless.  ``values`` (R, N+1) and ``lengths``
    (R, N) are each row's final sites' values and gap lengths in site
    order.
    """

    m_n: np.ndarray
    capped: np.ndarray
    values: np.ndarray
    lengths: np.ndarray


def search_block(normals: np.ndarray, lam: float, level_cap: int,
                 record) -> BlockResult:
    """Run one search per row of ``normals`` (R, N) in lockstep.

    Row r is the search of :func:`run` to N evaluations on a Brownian path
    whose k-th new site takes the normal ``normals[r, k]``, as a
    :class:`~brownmin.oracle.BrownianOracle` does; M_n is recorded at each
    n in ``record``.  A row that needs a split deeper than ``level_cap``
    is marked in ``capped`` where the per-path search raises
    DepthExceededError.
    """
    normals = np.asarray(normals, dtype=float)
    if normals.ndim != 2:
        raise ValueError("normals must be an (R, N) array")
    rows_count, n_max = normals.shape
    MinimizerConfig(lam=lam, max_steps=n_max, level_cap=level_cap)  # validates all three
    record = [int(n) for n in record]
    if not all(2 <= n <= n_max for n in record):
        raise ValueError(f"recorded n must lie in [2, {n_max}], got {record}")

    # the scalar search offset per level (math.log, which np.log may miss
    # by one ulp); lengths and midpoint spreads come from the dyadic tables
    offset = np.array([search_offset(length, lam) for length in GAP_LENGTH[: level_cap + 1]])

    rows = np.arange(rows_count)
    left = np.zeros((rows_count, n_max))
    right = np.empty((rows_count, n_max))
    levels = np.zeros((rows_count, n_max), dtype=np.int16)
    links = np.empty((rows_count, n_max), dtype=np.int32)
    scores = np.empty((rows_count, n_max))
    # n = 1: the single gap [0, 1] in slot 0, the last gap in site order
    right[:, 0] = normals[:, 0]
    links[:, 0] = -1
    m = np.where(normals[:, 0] < 0.0, normals[:, 0], 0.0)
    tau = np.zeros(rows_count, dtype=np.int16)
    split = np.zeros(rows_count, dtype=np.intp)
    capped = np.zeros(rows_count, dtype=bool)
    m_n = np.empty((rows_count, len(record)))
    column = {n: k for k, n in enumerate(record)}

    for n in range(2, n_max + 1):
        new = n - 1  # slot of the right half
        a = left[rows, split]
        b = right[rows, split]
        parent = levels[rows, split]
        value = a + 0.5 * (b - a) + MIDPOINT_SD[parent] * normals[:, n - 1]
        level = parent + 1
        deep = level > level_cap
        if deep.any():
            capped |= deep
            level = np.minimum(level, level_cap)  # keeps table lookups in range
        right[rows, split] = value
        levels[rows, split] = level
        left[:, new] = value
        right[:, new] = b
        levels[:, new] = level
        links[:, new] = links[rows, split]
        links[rows, split] = new

        lower = value < m
        moved = np.flatnonzero(lower | (level > tau))
        m = np.where(lower, value, m)
        tau = np.maximum(tau, level)
        c = m - offset[tau]
        half = GAP_LENGTH[level]
        scores[rows, split] = _score(half, a, value, c)
        scores[:, new] = _score(half, value, b, c)
        if len(moved):
            scores[moved, :n] = _score(GAP_LENGTH[levels[moved, :n]], left[moved, :n],
                                       right[moved, :n], c[moved, None])
        if n in column:
            m_n[:, column[n]] = m
        if n < n_max:
            current = scores[:, :n]
            split = current.argmax(axis=1)
            last = n - 1 - current[:, ::-1].argmax(axis=1)
            for r in np.flatnonzero(split != last):
                split[r] = _leftmost_largest(scores[r, :n], links[r, :n], split[r])

    values = np.empty((rows_count, n_max + 1))
    site_levels = np.empty((rows_count, n_max), dtype=np.int16)
    slot = np.zeros(rows_count, dtype=np.intp)
    for i in range(n_max):  # walk the links in site order
        values[:, i] = left[rows, slot]
        site_levels[:, i] = levels[rows, slot]
        last = slot
        slot = links[rows, slot]
    values[:, n_max] = right[rows, last]
    return BlockResult(m_n, capped, values, GAP_LENGTH[site_levels])


def _leftmost_largest(scores: np.ndarray, links: np.ndarray, first: int) -> int:
    # the first slot in site order (slot 0 holds the leftmost gap) whose
    # score equals the row's largest, scores[first]
    best = scores[first]
    scores = scores.tolist()
    links = links.tolist()
    slot = 0
    while scores[slot] != best:
        slot = links[slot]
    return slot


@dataclass(frozen=True)
class ScoreBoundCheck:
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
    """Evaluate the conditional bound on the current state (n >= 2)."""
    n = state.skeleton.n
    if n < 2:
        raise ValueError("score bound check needs n >= 2")
    increment_bound = math.sqrt(config.lam * math.log(n) / 4.0)
    score_bound = 2.0 / (config.lam * math.log(1.0 / state.skeleton.tau))
    rho_max = state.rho_max
    applicable = state.max_scaled_increment <= increment_bound
    if applicable and rho_max > score_bound:
        raise RuntimeError(
            f"score bound violated at n={n}: rho_max={rho_max!r} > {score_bound!r} "
            f"while increments {state.max_scaled_increment!r} <= {increment_bound!r}"
        )
    return ScoreBoundCheck(
        n=n,
        max_scaled_increment=state.max_scaled_increment,
        increment_bound=increment_bound,
        rho_max=rho_max,
        score_bound=score_bound,
        applicable=applicable,
    )


def write_trace_csv(traces: list[StepTrace], path, deltas: np.ndarray | None = None) -> None:
    """Write trace rows as CSV.

    Columns: n, t_exact, t_float, value, M_n, tau_level, rho_max,
    undershoot_max, plus delta_n when ``deltas`` (one value per row) is
    given.  Floats carry 17 significant digits so they round-trip exactly.
    """
    header = ["n", "t_exact", "t_float", "value", "M_n", "tau_level",
              "rho_max", "undershoot_max"]
    if deltas is not None:
        if len(deltas) != len(traces):
            raise ValueError("need one delta per trace row")
        header.append("delta_n")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, tr in enumerate(traces):
            row = [
                str(tr.n),
                str(tr.site),
                f"{float(tr.site):.17g}",
                f"{tr.value:.17g}",
                f"{tr.m_n:.17g}",
                str(tr.tau_level),
                f"{tr.rho_max:.17g}",
                f"{tr.undershoot_max:.17g}",
            ]
            if deltas is not None:
                row.append(f"{float(deltas[i]):.17g}")
            writer.writerow(row)
