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
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dyadic import (
    DEFAULT_LEVEL_CAP,
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


def split_scores(state: MinimizerState, lam: float) -> np.ndarray:
    """Recompute all split scores of the current skeleton from scratch.

    Requires n >= 2 so that the smallest gap is below 1 and the offset is
    strictly positive; every score is then finite and positive.
    """
    skel = state.skeleton
    if skel.n < 2:
        raise ValueError("split scores are defined from n = 2 on")
    h = skel.values - _score_shift(skel, lam)
    return skel.gap_lengths / (h[:-1] * h[1:])


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
    level = skel._gap_levels[g] + 1
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
    half = skel._gap_lengths.item(g)
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
        # the same float expression split_scores evaluates per gap
        scores[j + 1 : n] = scores[j : n - 1]
        c = state._shift
        h = value - c
        scores[g] = half / ((a - c) * h)
        scores[j] = half / (h * (b - c))

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
