"""Per-layer tracing of brownmin from outside the package.

``Tracer.install()`` replaces the public functions listed in ``TARGETS``
with wrappers that record one span per call: name, parent span, start and
end.  Functions are replaced in every ``brownmin`` module namespace that
holds them, and methods on their class, so calls made inside the package
go through the wrappers too.  Nothing under ``src/`` is changed, and every
wrapper returns exactly what the wrapped function returned.

Counters are derived from the arguments and returned values seen at the
same boundaries: the ``StepTrace`` rows, the skeleton, the index that
``Skeleton.insert`` returns and the ``ErrorEstimate`` rows.  Spans live in
memory; ``layer_metrics`` turns one job's spans into per-layer numbers and
``write_spans`` writes them out.

Spans recorded in worker processes stay in those processes, so on a
multi-worker job only the calls made in the parent process are counted.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import importlib
import os
import sys
import time

import brownmin
from brownmin import DepthExceededError

MODULES = ("rng", "oracle", "dyadic", "minimizer", "bridge", "harness", "cli")

# (module, class or None, attribute); the span name drops "__init__"
TARGETS = (
    ("rng", "RngStream", "__init__"),
    ("rng", "RngStream", "gaussian"),
    ("oracle", "BrownianOracle", "evaluate"),
    ("dyadic", "Skeleton", "insert"),
    ("dyadic", None, "midpoint"),
    ("minimizer", None, "split_scores"),
    ("minimizer", None, "select_split"),
    ("minimizer", None, "init_state"),
    ("minimizer", None, "step"),
    ("minimizer", None, "run"),
    ("minimizer", None, "check_score_bound"),
    ("minimizer", None, "write_trace_csv"),
    ("bridge", None, "segment_minima"),
    ("harness", None, "sample_true_min"),
    ("harness", None, "run_replication"),
    ("harness", None, "run_equidistant"),
    ("harness", None, "estimate_lp_error"),
    ("harness", None, "write_errors_csv"),
    ("harness", None, "run_experiment"),
    ("cli", None, "main"),
)


def span_name(module: str, cls: str | None, attr: str) -> str:
    parts = [module] + ([cls] if cls else []) + ([] if attr == "__init__" else [attr])
    return ".".join(parts)


SPAN_NAMES = tuple(span_name(*t) for t in TARGETS)

# per-layer metric name -> unit, in the order they are reported
COUNTER_UNITS = {
    "dyadic.insert.shifted_entries": "count",
    "dyadic.max_tau_level": "level",
    "minimizer.split_scores.gaps_scored": "count",
    "minimizer.global_change_share": "ratio",
    "minimizer.rescore_useful_ratio": "ratio",
    "minimizer.write_trace_csv.bytes": "bytes",
    "bridge.segment_minima.segments": "count",
    "harness.write_errors_csv.bytes": "bytes",
    "harness.run_experiment.wall_s": "s",
    "harness.dropped_fraction": "ratio",
    "harness.parallel_efficiency": "ratio",
    "trace.overhead_fraction": "ratio",
}
METRIC_UNITS = {
    **{f"{name}.{kind}": unit for name in SPAN_NAMES
       for kind, unit in (("calls", "count"), ("self_s", "s"))},
    **COUNTER_UNITS,
}


class Tracer:
    """In-memory spans and counters for the calls made while installed."""

    def __init__(self):
        # (name, parent index or -1, start, end); None while the call runs
        self.spans: list[tuple[str, int, float, float] | None] = []
        self._stack: list[int] = []
        self.reset()

    def reset(self) -> None:
        """Forget all spans and counters, e.g. between two jobs."""
        # cleared in place: installed wrappers hold these two lists
        self.spans.clear()
        self._stack.clear()
        self.counts = dict.fromkeys(
            ("shifted_entries", "max_tau_level", "gaps_scored", "useful_gaps",
             "steps", "global_changes", "trace_csv_bytes", "segments",
             "errors_csv_bytes", "dropped", "attempted"), 0)
        self.dropped_ids: list[tuple[float, int]] = []
        self._last_scored: dict[int, tuple[float, int]] = {}
        self._last_trace: dict[int, object] = {}

    # ------------------------------------------------------------ wrapping

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)
        on_depth = self._dropped if name == "harness.run_replication" else None

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except DepthExceededError:
                if on_depth is not None:
                    on_depth(args)
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, parent, start, end)
            if observe is not None:
                observe(args, result)
            return result

        return functools.wraps(fn)(traced)

    @contextlib.contextmanager
    def install(self):
        """Route every call of the ``TARGETS`` through this tracer."""
        modules = [brownmin] + [importlib.import_module(f"brownmin.{m}") for m in MODULES]
        undo = []
        try:
            for module_name, cls_name, attr in TARGETS:
                name = span_name(module_name, cls_name, attr)
                if cls_name is not None:
                    cls = getattr(sys.modules[f"brownmin.{module_name}"], cls_name)
                    original = cls.__dict__[attr]
                    setattr(cls, attr, self.wrap(name, original))
                    undo.append((cls, attr, original))
                    continue
                original = getattr(sys.modules[f"brownmin.{module_name}"], attr)
                wrapper = self.wrap(name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
                            undo.append((module, key, original))
            yield self
        finally:
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)

    # ------------------------------------------ counters from returned values

    def _observe_dyadic_Skeleton_insert(self, args, index):
        skeleton = args[0]
        # entries at and after the returned index moved up by one
        self.counts["shifted_entries"] += len(skeleton) - 1 - index

    def _observe_minimizer_split_scores(self, args, scores):
        skeleton = args[0].skeleton
        key = id(args[0])
        now = (skeleton.min_value, skeleton.tau_level)
        self.counts["gaps_scored"] += len(scores)
        # with M_n and tau unchanged only the two halves of the split gap
        # can score differently from the previous step
        fresh = skeleton.n == 2 or self._last_scored.get(key) != now
        self.counts["useful_gaps"] += len(scores) if fresh else 2
        self._last_scored[key] = now

    def _observe_minimizer_init_state(self, args, result):
        state, trace = result
        self._last_trace[id(state)] = trace
        self._tau(trace)

    def _observe_minimizer_step(self, args, trace):
        key = id(args[0])
        previous = self._last_trace.get(key)
        self.counts["steps"] += 1
        if previous is not None and (trace.m_n != previous.m_n
                                     or trace.tau_level != previous.tau_level):
            self.counts["global_changes"] += 1
        self._last_trace[key] = trace
        self._tau(trace)

    def _tau(self, trace):
        if trace.tau_level > self.counts["max_tau_level"]:
            self.counts["max_tau_level"] = trace.tau_level

    def _observe_minimizer_write_trace_csv(self, args, _):
        self.counts["trace_csv_bytes"] += os.path.getsize(args[1])

    def _observe_harness_write_errors_csv(self, args, _):
        self.counts["errors_csv_bytes"] += os.path.getsize(args[1])

    def _observe_bridge_segment_minima(self, args, minima):
        self.counts["segments"] += len(minima)

    def _observe_harness_run_experiment(self, args, estimates):
        for est in estimates:
            self.counts["dropped"] += est.dropped
            self.counts["attempted"] += est.replications + est.dropped

    def _dropped(self, args):
        _, lam, replication = args[:3]
        self.dropped_ids.append((lam, replication))

    # ------------------------------------------------------------ reporting

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer numbers of everything recorded since the last reset.

        Self time is a span's duration minus the time covered by its
        direct children.  Metrics that need more than one job
        (``harness.parallel_efficiency``, ``trace.overhead_fraction``)
        are left to the caller.
        """
        durations = [end - start for _, _, start, end in self.spans]
        own = list(durations)
        for (_, parent, _, _), duration in zip(self.spans, durations):
            if parent >= 0:
                own[parent] -= duration
        calls = dict.fromkeys(SPAN_NAMES, 0)
        inclusive = dict.fromkeys(SPAN_NAMES, 0.0)
        self_time = dict.fromkeys(SPAN_NAMES, 0.0)
        for (name, _, _, _), duration, own_time in zip(self.spans, durations, own):
            calls[name] += 1
            inclusive[name] += duration
            self_time[name] += own_time
        c = self.counts
        metrics: dict[str, float] = {}
        for name in SPAN_NAMES:
            metrics[f"{name}.calls"] = calls[name]
            metrics[f"{name}.self_s"] = self_time[name]
        metrics.update({
            "dyadic.insert.shifted_entries": c["shifted_entries"],
            "dyadic.max_tau_level": c["max_tau_level"],
            "minimizer.split_scores.gaps_scored": c["gaps_scored"],
            "minimizer.global_change_share": _share(c["global_changes"], c["steps"]),
            "minimizer.rescore_useful_ratio": _share(c["useful_gaps"], c["gaps_scored"]),
            "minimizer.write_trace_csv.bytes": c["trace_csv_bytes"],
            "bridge.segment_minima.segments": c["segments"],
            "harness.write_errors_csv.bytes": c["errors_csv_bytes"],
            "harness.run_experiment.wall_s": inclusive["harness.run_experiment"],
            "harness.dropped_fraction": _share(c["dropped"], c["attempted"]),
        })
        return metrics

    def write_spans(self, path) -> None:
        """CSV of the recorded spans, times relative to the first start."""
        origin = min((s[2] for s in self.spans), default=0.0)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["span", "parent", "name", "start_s", "end_s"])
            for i, (name, parent, start, end) in enumerate(self.spans):
                writer.writerow([i, parent, name, f"{start - origin:.9f}",
                                 f"{end - origin:.9f}"])


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
