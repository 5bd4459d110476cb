import bisect
import copy
import csv
import io
import math
import pickle
import re
import warnings
from array import array
from fractions import Fraction

import numpy as np
import pytest

from brownmin.dyadic import (
    DEFAULT_LEVEL_CAP,
    MAX_LEVEL_CAP,
    ZERO,
    _MIDPOINT_SDS,
    DepthExceededError,
    DyadicPoint,
    Skeleton,
)
from brownmin.minimizer import (
    MinimizerConfig,
    MinimizerState,
    StepTrace,
    Trace,
    _offset_table,
    check_score_bound,
    init_state,
    run,
    search_block,
    search_offset,
    select_split,
    split_scores,
    step,
    write_trace_csv,
)
from brownmin.oracle import BrownianOracle, DeterministicOracle, PathOracle
from brownmin.rng import RngStream

LN2 = math.log(2.0)


def piecewise(points):
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    return lambda t: float(np.interp(t, xs, ys))


def test_search_offset_examples():
    assert search_offset(1.0, 1.0) == 0.0
    assert search_offset(1.0, 7.0) == 0.0
    expected = math.sqrt(0.5 * LN2)
    assert search_offset(0.5, 1.0) == pytest.approx(expected, rel=1e-15)
    # 0.25 * ln 4 = 0.5 * ln 2, so the two offsets agree
    assert search_offset(0.25, 1.0) == pytest.approx(search_offset(0.5, 1.0), rel=1e-15)


def test_search_offset_of_subnormal_gap_lengths():
    # 1 / x overflows for x below 2^-1022, which made every such offset inf
    for x in (2.0**-1024, 1e-310, 5e-324):
        off = search_offset(x, 1.0)
        assert math.isfinite(off) and off == math.sqrt(x * -math.log(x))
    assert search_offset(5e-324, 1.0) == pytest.approx(6.06e-161, rel=1e-3)


def test_search_offset_domain():
    for bad_x in (0.0, -0.5, 1.1):
        with pytest.raises(ValueError):
            search_offset(bad_x, 1.0)
    for bad_lam in (0.99, math.nan, math.inf):
        with pytest.raises(ValueError):
            search_offset(0.5, bad_lam)


def test_level_tables_equal_the_scalar_formulas():
    # one cached offset table per lam, from Python floats, bit for bit the
    # offset search_offset gives the gap length 2^-L at every level L
    for lam in (1.0, 8.0, 2.5):
        table = _offset_table(lam)
        assert table is _offset_table(lam)
        assert len(table) == MAX_LEVEL_CAP + 1
        for level in (1, 52, 111, DEFAULT_LEVEL_CAP, MAX_LEVEL_CAP):
            assert table[level].hex() == search_offset(2.0**-level, lam).hex()
    # the search divides increments by sqrt(2^-L), read as twice the
    # midpoint spread
    for level in range(MAX_LEVEL_CAP + 1):
        assert math.sqrt(2.0**-level) == 2.0 * _MIDPOINT_SDS[level]


def test_config_validation():
    for bad_lam in (0.5, math.nan, math.inf):
        with pytest.raises(ValueError):
            MinimizerConfig(lam=bad_lam, max_steps=10)
    with pytest.raises(ValueError):
        MinimizerConfig(lam=1.0, max_steps=1)
    for bad_cap in (1, 1024):
        with pytest.raises(ValueError):
            MinimizerConfig(lam=1.0, max_steps=10, level_cap=bad_cap)
    MinimizerConfig(lam=1.0, max_steps=2)
    # a float is refused, not truncated (max_steps=2.5 used to run to n = 3)
    for bad in ({"max_steps": 2.5}, {"max_steps": 10.0}, {"level_cap": 10.5}):
        with pytest.raises(TypeError):
            MinimizerConfig(**{"lam": 1.0, "max_steps": 10, **bad})
    assert type(MinimizerConfig(lam=1.0, max_steps=np.int64(10)).max_steps) is int
    # 1/tau stays a finite double down to the deepest allowed level
    MinimizerConfig(lam=1.0, max_steps=2, level_cap=1023)
    assert math.isfinite(search_offset(2.0**-1023, 1.0))


def test_split_scores_flat_path():
    oracle = DeterministicOracle(lambda t: 0.0)
    state, _ = init_state(oracle, MinimizerConfig(lam=1.0, max_steps=2))
    off = math.sqrt(0.5 * LN2)
    expected = 0.5 / (off * off)  # = 1 / ln 2 = 1.442695...
    assert np.allclose(state.scores, [expected, expected], rtol=1e-15)
    assert expected == pytest.approx(1.4426950408889634, rel=1e-12)


def test_split_scores_asymmetric_path():
    oracle = DeterministicOracle(piecewise([(0.0, 0.0), (0.5, -1.0), (1.0, 1.0)]))
    state, _ = init_state(oracle, MinimizerConfig(lam=1.0, max_steps=2))
    off = math.sqrt(0.5 * LN2)
    rho_1 = 0.5 / ((0.0 - (-1.0) + off) * (-1.0 - (-1.0) + off))
    rho_2 = 0.5 / ((-1.0 - (-1.0) + off) * (1.0 - (-1.0) + off))
    assert state.scores == pytest.approx([rho_1, rho_2], rel=1e-15)
    assert rho_1 == pytest.approx(0.5346001, abs=1e-7)
    assert rho_2 == pytest.approx(0.3280875, abs=1e-7)
    assert select_split(state.scores) == 1


def test_split_scores_flat_refinement_property():
    # on a flat path every smallest gap scores 1 / (lam * ln(1/tau))
    for lam in (1.0, 4.0):
        oracle = DeterministicOracle(lambda t: 0.0)
        config = MinimizerConfig(lam=lam, max_steps=20)
        state, _ = run(oracle, config)
        scores = split_scores(state, lam)
        tau_level = state.skeleton.tau_level
        smallest = state.skeleton.gap_levels == tau_level
        expected = 1.0 / (lam * tau_level * LN2)
        assert np.allclose(scores[smallest], expected, rtol=1e-12)


def test_select_split_examples():
    assert select_split(np.array([1.4427, 1.4427])) == 1
    assert select_split(np.array([0.5346, 0.3281])) == 1
    assert select_split(np.array([0.1, 0.3, 0.2])) == 2
    with pytest.raises(ValueError):
        select_split(np.array([]))


def test_step_split_site_examples():
    cases = [
        (lambda t: 0.0, DyadicPoint(1, 2)),  # tie, leftmost wins: 1/4
        (piecewise([(0.0, 0.0), (0.5, -1.0), (1.0, 1.0)]), DyadicPoint(1, 2)),
        (piecewise([(0.0, 0.0), (0.5, 1.0), (1.0, -1.0)]), DyadicPoint(3, 2)),
    ]
    for fn, expected_site in cases:
        oracle = DeterministicOracle(fn)
        config = MinimizerConfig(lam=1.0, max_steps=3)
        state, first = init_state(oracle, config)
        trace = step(state, oracle, config)
        assert trace.site == expected_site
        assert trace.n == 3


def test_run_nonadaptive_start():
    oracle = BrownianOracle(RngStream(5, 0))
    state, traces = run(oracle, MinimizerConfig(lam=1.0, max_steps=2))
    assert [str(s) for s in state.skeleton.sites] == ["0/2^0", "1/2^1", "1/2^0"]
    assert len(traces) == 1
    tr = traces[0]
    assert tr.n == 2 and tr.split_index == 1
    assert tr.site == DyadicPoint(1, 1)
    assert tr.tau_level == 1


def test_run_flat_path_deterministic_refinement():
    # hand-stepped site set after six evaluations on a flat path:
    # ties always split the leftmost largest-score gap
    oracle = DeterministicOracle(lambda t: 0.0)
    state, traces = run(oracle, MinimizerConfig(lam=1.0, max_steps=6))
    got = [(s.numerator, s.level) for s in state.skeleton.sites]
    assert got == [(0, 0), (1, 3), (1, 2), (3, 3), (1, 1), (3, 2), (1, 0)]
    oracle2 = DeterministicOracle(lambda t: 0.0)
    state2, traces2 = run(oracle2, MinimizerConfig(lam=1.0, max_steps=6))
    assert traces == traces2


def test_run_is_reproducible_on_brownian_paths():
    a = run(BrownianOracle(RngStream(909, 3)), MinimizerConfig(lam=1.0, max_steps=60))
    b = run(BrownianOracle(RngStream(909, 3)), MinimizerConfig(lam=1.0, max_steps=60))
    assert a[1] == b[1]


def test_run_invariants_on_brownian_path():
    oracle = BrownianOracle(RngStream(31, 2))
    config = MinimizerConfig(lam=1.0, max_steps=300)
    state, traces = run(oracle, config)
    m = np.array([tr.m_n for tr in traces])
    tau_levels = np.array([tr.tau_level for tr in traces])
    assert np.all(np.diff(m) <= 0)
    assert np.all(np.diff(tau_levels) >= 0)
    assert state.m_n == min(state.skeleton.values)
    sites = state.skeleton.sites
    for a, b in zip(sites, sites[1:]):
        gap = Fraction(b.numerator, 2**b.level) - Fraction(a.numerator, 2**a.level)
        assert gap == Fraction(1, 2 ** max(a.level, b.level))


def test_step_splits_leftmost_maximum():
    oracle = BrownianOracle(RngStream(47, 1))
    config = MinimizerConfig(lam=2.0, max_steps=80)
    state, _ = init_state(oracle, config)
    while state.n < config.max_steps:
        scores_before = state.scores.copy()
        trace = step(state, oracle, config)
        j = trace.split_index
        assert scores_before[j - 1] == scores_before.max()
        assert np.all(scores_before[: j - 1] < scores_before[j - 1])


def test_held_arrays_are_copies_later_steps_leave_alone():
    # arrays taken from the skeleton and the state are copies: 200 more
    # steps, which grow every buffer past 64 and 128 entries, neither
    # change them nor are blocked by them (an exported buffer cannot grow)
    oracle = BrownianOracle(RngStream(61, 0), capacity=8)
    config = MinimizerConfig(lam=1.0, max_steps=300)
    state, _ = init_state(oracle, config)
    for _ in range(40):
        step(state, oracle, config)
    skel = state.skeleton
    held = [skel.values, skel.gap_lengths, skel.gap_levels, state.scores]
    before = [a.copy() for a in held]
    for _ in range(200):
        step(state, oracle, config)
    assert state.n == 242
    for array, copy in zip(held, before):
        assert np.array_equal(array, copy)
    assert len(held[0]) == 43 and len(held[3]) == 42


def _run_checking_scores(oracle, config):
    """Run the search; after every state, the kept scores must equal a full
    recomputation and the next split must be the leftmost largest score.
    Returns the traces and the number of states with a tied largest score."""
    state, first = init_state(oracle, config)
    traces = [first]
    ties = 0
    while True:
        scores = split_scores(state, config.lam)
        assert np.array_equal(state.scores, scores), state.n
        largest = np.flatnonzero(scores == scores.max())
        assert state.next_split == int(largest[0]) + 1
        assert state.rho_max == traces[-1].rho_max == scores.max()
        ties += len(largest) > 1
        if state.n == config.max_steps:
            return traces, ties
        traces.append(step(state, oracle, config))


def _scalar_reference_values(traces, stream):
    """Values of the traced sites redrawn with one scalar normal per site:
    W(1) first, then each midpoint from its neighbours at that time."""
    sites = [Fraction(0), Fraction(1)]
    values = {Fraction(0): 0.0, Fraction(1): stream.gaussian()}
    out = []
    for tr in traces:
        t = Fraction(tr.site.numerator, 2**tr.site.level)
        i = bisect.bisect_left(sites, t)
        left, right = sites[i - 1], sites[i]
        assert t == (left + right) / 2
        a, b = values[left], values[right]
        T = float(right - left)
        values[t] = a + 0.5 * (b - a) + 0.5 * math.sqrt(T) * stream.gaussian()
        sites.insert(i, t)
        out.append(values[t])
    return out


def test_state_scores_match_recomputation():
    for lam in (1.0, 8.0):
        # capacity 8: the oracle draws its normals in blocks of 8, 16, ...
        oracle = BrownianOracle(RngStream(52, int(lam)), capacity=8)
        traces, _ = _run_checking_scores(oracle, MinimizerConfig(lam=lam, max_steps=2000))
        reference = _scalar_reference_values(traces, RngStream(52, int(lam)))
        assert [tr.value for tr in traces] == reference
    # a flat path ties everywhere, and ties must go to the leftmost gap
    _, ties = _run_checking_scores(DeterministicOracle(lambda t: 0.0),
                                   MinimizerConfig(lam=1.0, max_steps=300))
    assert ties > 100
    # stepping the same state under another lam rescores every gap
    oracle = BrownianOracle(RngStream(52, 9))
    state, _ = run(oracle, MinimizerConfig(lam=1.0, max_steps=50))
    config = MinimizerConfig(lam=4.0, max_steps=60)
    step(state, oracle, config)
    assert np.array_equal(state.scores, split_scores(state, 4.0))


def test_step_refuses_a_skeleton_changed_outside_step():
    config = MinimizerConfig(lam=1.0, max_steps=10)
    oracle = BrownianOracle(RngStream(53, 0))
    state, _ = init_state(oracle, config)
    oracle.skeleton.split(1, oracle.midpoint(1))  # kept scores no longer match
    with pytest.raises(ValueError):
        step(state, oracle, config)
    other = BrownianOracle(RngStream(53, 1))
    state, _ = init_state(BrownianOracle(RngStream(53, 0)), config)
    with pytest.raises(ValueError):
        step(state, other, config)


def _bits(x):
    # a field as its type and exact bits, so -0.0, 0.0 and NaNs differ
    return (type(x), x.hex() if isinstance(x, float) else x)


def _stepped(oracle, config):
    """The init_state + step loop to config.max_steps: its state and rows."""
    state, first = init_state(oracle, config)
    rows = [first]
    while state.n < config.max_steps:
        rows.append(step(state, oracle, config))
    return state, rows


def _state_bits(state):
    skel = state.skeleton
    return (skel.values.tobytes(), skel.gap_levels.tobytes(), skel.sites, skel.min_value,
            skel.tau_level, _bits(state.m_n), state.tau_level, state.scores.tobytes(),
            state.next_split, _bits(state.rho_max), type(state.max_scaled_increment),
            float(state.max_scaled_increment).hex())


@pytest.mark.parametrize("lam", [1.0, 8.0])
def test_a_state_built_on_f1_steps_as_init_state_does(lam):
    # MinimizerState(skeleton) holds M_1, the tau level and |f(1)| by
    # itself: stepped, it equals the init_state + step state row for row,
    # bound record for bound record and bit for bit
    config = MinimizerConfig(lam=lam, max_steps=1000)
    built_oracle = BrownianOracle(RngStream(1, 0))
    built_oracle.skeleton.insert(built_oracle.evaluate())
    built = MinimizerState(built_oracle.skeleton)
    oracle = BrownianOracle(RngStream(1, 0))
    state, row = init_state(oracle, config)
    built_row = step(built, built_oracle, config)
    while True:
        assert [_bits(x) for x in built_row] == [_bits(x) for x in row], row.n
        got, want = check_score_bound(built, config), check_score_bound(state, config)
        assert [_bits(x) for x in got] == [_bits(x) for x in want], row.n
        assert _state_bits(built) == _state_bits(state), row.n
        if state.n == config.max_steps:
            break
        built_row, row = step(built, built_oracle, config), step(state, oracle, config)


@pytest.mark.parametrize("make, lam, steps", [
    (lambda: BrownianOracle(RngStream(81, 1)), 1.0, 2000),
    (lambda: BrownianOracle(RngStream(81, 8)), 8.0, 2000),
    (lambda: DeterministicOracle(piecewise([(0.0, 0.0), (0.3, -0.4), (0.5, 0.1), (1.0, -0.2)])),
     2.0, 400),
], ids=["brownian-lam1", "brownian-lam8", "deterministic"])
def test_run_trace_equals_stepped_rows(make, lam, steps):
    # one loop, two views: run's columnar trace and the rows step returns;
    # on the deterministic path f(1) < 0 is M_2, so the trace's running
    # minimum must start from it
    config = MinimizerConfig(lam=lam, max_steps=steps)
    run_state, trace = run(make(), config)
    step_state, rows = _stepped(make(), config)
    assert isinstance(trace, Trace) and len(trace) == len(rows) == steps - 1
    for got, want in zip(trace, rows):
        assert type(got) is StepTrace
        assert [_bits(x) for x in got] == [_bits(x) for x in want], want.n
    assert _state_bits(run_state) == _state_bits(step_state)
    assert list(trace) == rows
    assert np.array_equal(trace.m_n, [row.m_n for row in rows])


@pytest.mark.parametrize("make, lam, steps", [
    (lambda: BrownianOracle(RngStream(85, 1)), 1.0, 2000),
    (lambda: BrownianOracle(RngStream(85, 8)), 8.0, 2000),
    (lambda: DeterministicOracle(piecewise([(0.0, 0.0), (0.3, -0.4), (0.5, 0.1), (1.0, -0.2)])),
     2.0, 400),
    (lambda: DeterministicOracle(lambda t: 0.0), 1.0, 400),
], ids=["brownian-lam1", "brownian-lam8", "deterministic", "flat"])
def test_m_n_and_tau_have_one_owner_the_state(make, lam, steps):
    # the state alone keeps M_n and the tau level; the skeleton computes
    # them from its observations on demand, and at every state, from the
    # bare n = 1 state on, the two agree, as run's trace does
    config = MinimizerConfig(lam=lam, max_steps=steps)
    _, trace = run(make(), config)
    oracle = make()
    oracle.skeleton.insert(oracle.evaluate())
    state = MinimizerState(oracle.skeleton)
    skel = state.skeleton
    m_n = []
    while True:
        assert _bits(state.m_n) == _bits(skel.min_value), state.n
        assert state.tau_level == skel.tau_level, state.n
        if state.n == steps:
            break
        step(state, oracle, config)
        m_n.append(state.m_n)
    assert [_bits(m) for m in m_n] == [_bits(m) for m in trace.m_n.tolist()]


@pytest.mark.parametrize("make, lam", [
    (lambda: BrownianOracle(RngStream(83, 1)), 1.0),
    (lambda: BrownianOracle(RngStream(83, 8)), 8.0),
    (lambda: DeterministicOracle(lambda t: 0.0), 1.0),
], ids=["brownian-lam1", "brownian-lam8", "flat"])
def test_search_grows_the_skeleton_as_skeleton_split_does(make, lam):
    # a trace's split column replays to the searched skeleton: replaying
    # it through Skeleton.split on a fresh skeleton must give the same
    # skeleton; every split of the flat path is a tie
    state, trace = run(make(), MinimizerConfig(lam=lam, max_steps=2000))
    searched = state.skeleton
    replayed = Skeleton()
    replayed.insert(searched.values[-1])
    for row in trace:
        replayed.split(row.split_index, row.value)
    assert replayed.values.tobytes() == searched.values.tobytes()
    assert np.array_equal(replayed.gap_levels, searched.gap_levels)
    assert replayed._site_ids == searched._site_ids
    assert replayed._site_nums == searched._site_nums
    assert replayed._site_levels == searched._site_levels
    assert _bits(replayed.min_value) == _bits(searched.min_value)
    assert replayed.tau_level == searched.tau_level


class _AskedPath(PathOracle):
    # a custom oracle that records the gap of every midpoint call
    def __init__(self, fn):
        self.fn = fn
        self.skeleton = Skeleton()
        self.asked = []

    def evaluate(self):
        return self.fn(1.0)

    def midpoint(self, j):
        self.asked.append(j)
        return self.fn(float(self.skeleton.gap_midpoint(j)))


def test_a_custom_oracle_is_asked_once_per_split():
    oracle = _AskedPath(lambda t: t * math.sin(37.0 * t) - 0.3 * t)
    _, trace = run(oracle, MinimizerConfig(lam=2.0, max_steps=400))
    assert oracle.asked == [row.split_index for row in trace]
    # a split refused at the level cap asks nothing: the flat path fills
    # level 3 at n = 8, and its ninth evaluation would need level 4
    oracle = _AskedPath(lambda t: 0.0)
    config = MinimizerConfig(lam=1.0, max_steps=9, level_cap=3)
    state, first = init_state(oracle, config)
    rows = [first]
    with pytest.raises(DepthExceededError):
        while True:
            rows.append(step(state, oracle, config))
    assert state.n == 8
    assert oracle.asked == [row.split_index for row in rows]


def test_trace_reads_as_a_sequence_of_rows():
    config = MinimizerConfig(lam=1.0, max_steps=40)
    _, trace = run(BrownianOracle(RngStream(82, 0)), config)
    rows = list(trace)
    assert len(rows) == len(trace) == 39
    assert trace[-1] == rows[-1] and trace[-1].n == 40 and trace[0].n == 2
    assert trace[3:7] == rows[3:7] and trace[::-5] == rows[::-5]
    with pytest.raises(IndexError):
        trace[39]
    # traces compare as bools, equal only on equal rows
    same = run(BrownianOracle(RngStream(82, 0)), config)[1]
    other = run(BrownianOracle(RngStream(82, 1)), config)[1]
    shorter = run(BrownianOracle(RngStream(82, 0)), MinimizerConfig(lam=1.0, max_steps=39))[1]
    assert (trace == same) is True and (trace != same) is False
    assert (trace == other) is False and (trace == shorter) is False
    # a trace equals only a trace, not even the list of its own rows
    assert (trace == rows) is False and trace != rows
    assert trace != "not a trace"


@pytest.mark.parametrize("copier", [
    lambda obj: pickle.loads(pickle.dumps(obj)), copy.copy, copy.deepcopy,
], ids=["pickle", "copy", "deepcopy"])
def test_trace_rows_pickle_and_copy(copier):
    # a row's site is a DyadicPoint, so rows travel as plain values
    _, trace = run(BrownianOracle(RngStream(82, 0)), MinimizerConfig(lam=1.0, max_steps=40))
    rows = list(trace)
    row = copier(trace[5])
    assert type(row) is StepTrace and row == rows[5]
    assert type(row.site) is DyadicPoint
    assert copier(rows) == rows


def test_traces_differing_in_one_recorded_entry_are_unequal():
    # each row is read from the recorded columns and the site table, so
    # changing one entry of one column changes exactly one row, and the
    # two traces compare unequal both ways
    _, trace = run(BrownianOracle(RngStream(84, 0)), MinimizerConfig(lam=1.0, max_steps=60))
    assert trace == copy.copy(trace)
    for column in ("_values", "_rhos", "_splits", "_nums", "_levels"):
        for k in (0, 29, len(trace) - 1):
            entries = copy.copy(getattr(trace, column))
            entry = entries[k]
            entries[k] = math.nextafter(entry, math.inf) if isinstance(entry, float) else entry + 1
            changed = copy.copy(trace)
            setattr(changed, column, entries)
            assert (changed == trace) is False and (trace == changed) is False, (column, k)
            differing = [i for i, (a, b) in enumerate(zip(trace, changed)) if a != b]
            assert differing == [k], (column, k)


def test_refused_split_leaves_the_state_as_it_was():
    # a cap of 7 is reached on this path at n = 35; the oracle's first
    # block holds the 35 normals used by then, so a block drawn for the
    # refused split would show
    oracle = BrownianOracle(RngStream(83, 0), capacity=35)
    capped = MinimizerConfig(lam=1.0, max_steps=60, level_cap=7)
    state, first = init_state(oracle, capped)
    rows = [first]
    with pytest.raises(DepthExceededError):
        while True:
            before = _state_bits(state)
            rows.append(step(state, oracle, capped))
    assert state.n == 35 == len(oracle._normals)
    assert _state_bits(state) == before
    assert state.skeleton.n == state.n == len(rows) + 1
    # no normal was used: stepping on under a higher cap is the fresh run
    config = MinimizerConfig(lam=1.0, max_steps=60)
    while state.n < config.max_steps:
        rows.append(step(state, oracle, config))
    fresh_state, fresh = run(BrownianOracle(RngStream(83, 0)), config)
    assert list(fresh) == rows
    assert _state_bits(state) == _state_bits(fresh_state)


def test_a_non_finite_split_is_recorded_before_the_refusal():
    # the site 3/4 has the value NaN: the step that adds it records it,
    # then refuses the NaN score it makes
    oracle = DeterministicOracle(lambda t: math.nan if t == 0.75 else t * (t - 0.6))
    config = MinimizerConfig(lam=1.0, max_steps=40)
    state, _ = init_state(oracle, config)
    skel = state.skeleton
    with pytest.raises(FloatingPointError):
        while True:
            n = state.n
            step(state, oracle, config)
    assert skel.n == n + 1
    assert DyadicPoint(3, 2) in skel.sites and np.isnan(skel.values).sum() == 1


@pytest.mark.parametrize("value, message", [
    (math.inf, "scaled increment inf of the split of gap 3 at n=4"),
    (math.nan, "split score nan of gap 3 at n=4")], ids=["inf", "nan"])
def test_a_refused_non_finite_split_finishes_the_state(value, message):
    # the step that adds the site 3/4 records its value and refuses it;
    # the state is then finished: a further step or check raises
    # ValueError and adds no site
    def path(t):
        return value if t == 0.75 else 0.3 * t

    oracle = DeterministicOracle(path)
    config = MinimizerConfig(lam=1.0, max_steps=40)
    state, _ = init_state(oracle, config)
    with pytest.raises(FloatingPointError, match=re.escape(message)):
        while True:
            step(state, oracle, config)
    skel = state.skeleton
    assert skel.n == 4 and DyadicPoint(3, 2) in skel.sites and np.isfinite(skel.values).sum() == 4
    for _ in range(3):
        with pytest.raises(ValueError, match="ended at a non-finite split"):
            step(state, oracle, config)
        assert skel.n == 4
    with pytest.raises(ValueError, match="ended at a non-finite split"):
        check_score_bound(state, config)
    assert skel.n == 4
    # run refuses the same split with the same message
    with pytest.raises(FloatingPointError, match=re.escape(message)):
        run(DeterministicOracle(path), config)


@pytest.mark.parametrize("site, value, n", [
    (1.0, math.inf, 2), (0.5, math.inf, 2), (0.75, -math.inf, 4)])
def test_an_infinite_path_value_is_refused(site, value, n):
    # gaps beside an infinite value score 0 or NaN, not inf: the step that
    # meets the value, or starts from f(1) = inf, records it and refuses
    # its infinite scaled increment, as a NaN value is refused by its score
    oracle = DeterministicOracle(lambda t: value if t == site else 0.3 * t)
    with pytest.raises(FloatingPointError, match="scaled increment inf"):
        run(oracle, MinimizerConfig(lam=1.0, max_steps=50))
    skel = oracle.skeleton
    assert skel.n == n and skel.values.tolist().count(value) == 1
    assert float(skel.sites[skel.values.tolist().index(value)]) == site


def test_trace_undershoot_consistent():
    oracle = BrownianOracle(RngStream(4, 4))
    state, traces = run(oracle, MinimizerConfig(lam=1.0, max_steps=30))
    for tr in traces:
        assert tr.undershoot_max == pytest.approx(math.exp(-2.0 / tr.rho_max), rel=1e-15)
        assert 0.0 <= tr.undershoot_max < 1.0


def test_undershoot_probabilities():
    # exp(-2/rho) at rho = 2/ln 4 and 2; at rho = 1e-9 it underflows to 0
    probs = [tr.undershoot_max for tr in _site_chain_trace([0.0] * 3, [1.4426950408889634, 2.0, 1e-9])]
    assert probs[0] == pytest.approx(0.25, rel=1e-12)
    assert probs[1] == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert probs[2] == 0.0


def test_check_score_bound_flat_example():
    oracle = DeterministicOracle(lambda t: 0.0)
    config = MinimizerConfig(lam=1.0, max_steps=2)
    state, _ = init_state(oracle, config)
    record = check_score_bound(state, config)
    assert record.applicable is True  # a Python bool, as ScoreBoundCheck declares
    assert record.max_scaled_increment == 0.0
    assert record.increment_bound == pytest.approx(math.sqrt(LN2 / 4.0), rel=1e-15)
    assert record.rho_max == pytest.approx(1.4426950408889634, rel=1e-12)
    assert record.score_bound == pytest.approx(2.0 / LN2, rel=1e-15)
    assert record.rho_max <= record.score_bound


def test_check_score_bound_raises_on_a_violation():
    # with increments below their bound, a largest score above the score
    # bound is an algorithm bug, and the check says so
    oracle = DeterministicOracle(lambda t: 0.0)
    config = MinimizerConfig(lam=1.0, max_steps=2)
    state, _ = init_state(oracle, config)
    state.rho_max = 1.001 * check_score_bound(state, config).score_bound
    with pytest.raises(RuntimeError, match="score bound violated"):
        check_score_bound(state, config)


def test_check_score_bound_not_applicable():
    # a violent path: |f(1) - f(0)| = 10 exceeds sqrt(lam ln(2) / 4)
    oracle = DeterministicOracle(piecewise([(0.0, 0.0), (0.5, 0.0), (1.0, 10.0)]))
    config = MinimizerConfig(lam=1.0, max_steps=2)
    state, _ = init_state(oracle, config)
    record = check_score_bound(state, config)
    assert record.applicable is False
    assert record.max_scaled_increment > record.increment_bound


def test_scores_match_quadrature():
    # the per-gap score equals the integral of (interp - m + off)^-2
    from scipy.integrate import quad

    rng = np.random.default_rng(63)
    for case in range(4):
        oracle = BrownianOracle(RngStream(700 + case, 0))
        config = MinimizerConfig(lam=float(rng.uniform(1.0, 6.0)), max_steps=14)
        state, _ = run(oracle, config)
        skel = state.skeleton
        floats = skel.site_floats()
        vals = np.asarray(skel.values)
        off = search_offset(skel.tau, config.lam)
        m = skel.min_value
        scores = split_scores(state, config.lam)
        for i in range(len(scores)):
            lo, hi = floats[i], floats[i + 1]
            a, b = vals[i], vals[i + 1]

            def integrand(s):
                lerp = a + (s - lo) / (hi - lo) * (b - a)
                return 1.0 / (lerp - m + off) ** 2

            val, _ = quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-12, limit=200)
            assert abs(val - scores[i]) <= 1e-9 * scores[i]


def test_non_finite_path_is_refused():
    # every value after f(0) is NaN, so every score is NaN from n = 2 on
    oracle = DeterministicOracle(lambda t: math.nan if t > 0 else 0.0)
    with pytest.raises(FloatingPointError):
        run(oracle, MinimizerConfig(lam=1.0, max_steps=10))
    assert oracle.skeleton.n == 2


def test_an_infinite_score_is_refused_without_numpy_warnings():
    # past f(0) every value is -1e20, so the offset is below half an ulp of
    # M_n and a gap at the minimum scores length / 0: the search's refusal
    # is the one report, also where warnings are errors
    flat = DeterministicOracle(lambda t: -1e20 if t > 0 else 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match="split score inf"):
            run(flat, MinimizerConfig(lam=1.0, max_steps=10))
        with pytest.raises(FloatingPointError, match="non-finite split score"):
            search_block(np.array([[-1e20] + [0.0] * 9]), 1.0, DEFAULT_LEVEL_CAP)


def _first_value_only(endpoint):
    # a state on a skeleton that holds only f(1)
    skel = Skeleton()
    skel.insert(endpoint)
    return MinimizerState(skel)


def test_scores_and_the_bound_need_two_evaluations():
    state = _first_value_only(0.3)
    with pytest.raises(ValueError, match="from n = 2 on"):
        split_scores(state, 1.0)
    with pytest.raises(ValueError, match="needs n >= 2"):
        check_score_bound(state, MinimizerConfig(lam=1.0, max_steps=2))


def test_a_state_starts_on_the_endpoint_alone():
    # on sites 0, 1/2, 3/4, 1 the largest score is gap 3's, yet a state
    # built there split gap 1, its first step's unscored choice
    oracle = DeterministicOracle(lambda t: -t if t > 0.6 else 0.5 * t)
    oracle.skeleton.insert(oracle.evaluate())
    for j in (1, 2):
        oracle.skeleton.split(j, oracle.midpoint(j))
    assert [str(s) for s in oracle.skeleton.sites] == ["0/2^0", "1/2^1", "3/2^2", "1/2^0"]
    for skeleton in (oracle.skeleton, Skeleton()):
        with pytest.raises(ValueError, match="starts at n = 1"):
            MinimizerState(skeleton)
    assert oracle.skeleton.n == 3


def test_init_state_needs_a_fresh_oracle():
    oracle = DeterministicOracle(lambda t: t)
    oracle.skeleton.insert(oracle.evaluate())
    with pytest.raises(ValueError, match="to a fresh skeleton"):
        init_state(oracle, MinimizerConfig(lam=1.0, max_steps=2))
    assert oracle.skeleton.values.tolist() == [0.0, 1.0]


def test_level_cap_propagates():
    oracle = DeterministicOracle(lambda t: 0.0)
    config = MinimizerConfig(lam=1.0, max_steps=9, level_cap=3)
    with pytest.raises(DepthExceededError):
        run(oracle, config)
    # one fewer step stays within the cap
    oracle = DeterministicOracle(lambda t: 0.0)
    state, _ = run(oracle, MinimizerConfig(lam=1.0, max_steps=8, level_cap=3))
    assert state.n == 8


def test_trace_csv_round_trip(tmp_path):
    oracle = BrownianOracle(RngStream(17, 17))
    state, traces = run(oracle, MinimizerConfig(lam=1.0, max_steps=25))
    out = tmp_path / "trace.csv"
    write_trace_csv(traces, out)
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(traces) == 24
    for row, tr in zip(rows, traces):
        assert int(row["n"]) == tr.n
        assert row["t_exact"] == str(tr.site)
        assert float(row["t_float"]) == float(tr.site)
        assert float(row["value"]) == tr.value  # 17 digits round-trip exactly
        assert float(row["M_n"]) == tr.m_n
        assert int(row["tau_level"]) == tr.tau_level
        assert float(row["rho_max"]) == tr.rho_max
        assert float(row["undershoot_max"]) == tr.undershoot_max


def test_trace_csv_with_deltas(tmp_path):
    oracle = BrownianOracle(RngStream(18, 18))
    state, traces = run(oracle, MinimizerConfig(lam=1.0, max_steps=10))
    out = tmp_path / "trace.csv"
    deltas = np.linspace(1.0, 0.1, len(traces))
    write_trace_csv(traces, out, deltas=deltas)
    with open(out, newline="") as fh:
        reader = csv.DictReader(fh)
        assert "delta_n" in reader.fieldnames
        got = [float(r["delta_n"]) for r in reader]
    assert got == list(deltas)
    with pytest.raises(ValueError):
        write_trace_csv(traces, out, deltas=deltas[:-1])


def _csv_writer_bytes(traces, deltas=None) -> bytes:
    # the rows as csv.writer renders them, each field formatted on its own
    header = ["n", "t_exact", "t_float", "value", "M_n", "tau_level",
              "rho_max", "undershoot_max"]
    rows = [header + ([] if deltas is None else ["delta_n"])]
    for i, tr in enumerate(traces):
        row = [str(tr.n), str(tr.site), f"{float(tr.site):.17g}", f"{tr.value:.17g}",
               f"{tr.m_n:.17g}", str(tr.tau_level), f"{tr.rho_max:.17g}",
               f"{tr.undershoot_max:.17g}"]
        if deltas is not None:
            row.append(f"{float(deltas[i]):.17g}")
        rows.append(row)
    buffer = io.StringIO(newline="")
    csv.writer(buffer).writerows(rows)
    return buffer.getvalue().encode()


def _site_chain_trace(values, rhos):
    # a Trace over a skeleton that splits its first gap every time, so
    # row i's site is 1/2^(i + 1): 1023 rows reach the subnormal 2^-1023
    skel = Skeleton()
    skel.insert(-0.0)
    for _ in values:
        skel.split(1, 0.0)
    return Trace(skel, array("d", values), array("d", rhos), array("i", [1] * len(values)))


def test_trace_csv_bytes_equal_csv_writer(tmp_path):
    _, traces = run(BrownianOracle(RngStream(19, 19)), MinimizerConfig(lam=1.0, max_steps=300))
    deltas = np.array([tr.m_n for tr in traces]) + 0.5
    # floats whose formatting is easy to get wrong: signed zero, the
    # smallest subnormal, a huge value, nan and both infinities
    odd_values = [-0.0, 5e-324, -1e308, math.nan, -math.inf]
    odd_rhos = [math.inf, 5e-324, math.nan, 1e308, 1.5]
    odd = _site_chain_trace([odd_values[i % 5] for i in range(MAX_LEVEL_CAP)],
                            [odd_rhos[i % 5] for i in range(MAX_LEVEL_CAP)])
    assert odd[-1].site == DyadicPoint(1, MAX_LEVEL_CAP) and odd[-1].tau_level == MAX_LEVEL_CAP
    assert {_bits(tr.m_n) for tr in odd} == {_bits(x) for x in (0.0, -1e308, -math.inf)}
    odd_deltas = np.resize([0.0, -0.0, math.nan, 2.0 ** -1074], len(odd))
    out = tmp_path / "trace.csv"
    # every column of a Trace is formatted at once, the reference row by row
    for trace, trace_deltas in ((traces, deltas), (traces, None), (odd, odd_deltas),
                                (odd, None), (_site_chain_trace([], []), None)):
        write_trace_csv(trace, out, deltas=trace_deltas)
        assert out.read_bytes() == _csv_writer_bytes(trace, trace_deltas)
    # a one-row trace, the shortest a run returns
    _, short = run(BrownianOracle(RngStream(19, 19)), MinimizerConfig(lam=1.0, max_steps=2))
    for trace_deltas in (deltas[:1], None):
        write_trace_csv(short, out, deltas=trace_deltas)
        assert out.read_bytes() == _csv_writer_bytes(short, trace_deltas)


def test_split_scores_reads_the_buffers_without_holding_them():
    # the full rescore scores views of the skeleton's buffers: bit for bit
    # the expression over its copied properties, and no view outlives the
    # call, so the skeleton still grows right after it
    oracle = BrownianOracle(RngStream(85, 0))
    state, _ = run(oracle, MinimizerConfig(lam=1.0, max_steps=16_000))
    skel = state.skeleton
    values = skel.values
    c = skel.min_value - search_offset(skel.tau, 1.0)
    expected = skel.gap_lengths / ((values[:-1] - c) * (values[1:] - c))
    scores = split_scores(state, 1.0)
    assert scores.tobytes() == expected.tobytes()
    step(state, oracle, MinimizerConfig(lam=1.0, max_steps=16_001))
    assert state.n == 16_001 and len(scores) == 16_000
