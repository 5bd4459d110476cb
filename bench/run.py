"""Benchmark runner for brownmin.

    python3 bench/run.py --workload mc-compare --seed 1 --seconds 24 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One run:

1. runs the workload once at the golden seed and checks the SHA-256 of its
   output against ``bench/golden.json``;
2. for ``mc-compare-2w``, runs the one-worker plan at ``--seed`` as the
   byte reference;
3. runs jobs at ``--seed`` in a closed loop for ``--seconds`` seconds,
   checking the output bytes and invariants of every job.  Before each
   job, and after the loop until there are ``SETUP_LAUNCHES``, it times
   ``setup_s``: one fresh interpreter that imports brownmin and parses the
   job's command line.

With ``--trace 0`` the end-to-end metrics are reported.  With ``--trace 1``
jobs alternate between untraced and traced (see ``layers.py``) and the
per-layer metrics are reported, per job; traced and untraced outputs must
be byte-identical.  Human-readable lines come first; the last line of
standard output is one JSON object.  A results file with the environment
goes to ``bench/out/``.  The exit code is 1 when any check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_LAUNCHES = 16
TAIL_BEYOND = 10  # samples beyond the tail percentile

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}
# printed and recorded, not bounded: the rates are a workload constant over
# wall_s, and the replication times cover only part of a job
EXTRA_UNITS = {
    "evaluations_per_s": "1/s",
    "replications_per_s": "1/s",
    "us_per_evaluation": "us",
    "replication_ms_p50": "ms",
    "replication_ms_tail": "ms",
    "replication_tail_pct": "%",
    "replication_samples": "count",
    "jobs": "count",
    "output_ok": "bool",
    "dropped_fraction": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


class Checks:
    """Counts jobs whose output was checked, and the failures among them."""

    def __init__(self):
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems[:5])


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def output_problems(output: bytes, check, expected_sha: str | None = None,
                    expected: bytes | None = None) -> list[str]:
    """Invariant violations, golden SHA-256 and reference-bytes mismatches."""
    problems = list(check(output))
    if expected_sha is not None and sha256(output) != expected_sha:
        problems.append(f"output SHA-256 {sha256(output)} != golden {expected_sha}")
    if expected is not None and output != expected:
        problems.append("output bytes differ from the reference run")
    return problems


def tail(samples: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float] | None:
    """The sample with ``beyond`` samples after it in sorted order, and the
    percentile at which numpy's linear interpolation gives that sample;
    None with too few samples."""
    ordered = sorted(samples)
    rank = len(ordered) - 1 - beyond
    if rank < 0:
        return None
    return ordered[rank], 100.0 * rank / max(len(ordered) - 1, 1)


def setup_launcher(name: str, seed: int):
    """A function that times one fresh interpreter importing brownmin and
    parsing the workload's command line."""
    from workloads import SETUP_CODE, setup_argv

    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC), *setup_argv(name, seed, OUT)]

    def launch() -> float:
        start = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdin=subprocess.DEVNULL)
        return time.perf_counter() - start

    return launch


def environment(seed: int) -> dict:
    import brownmin

    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    cpuinfo = read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = read(index / "level"), read(index / "type")
        caches[f"L{level} {kind}"] = read(index / "size")
    commit = None
    if (ROOT / ".git").exists():  # never look for a repository above the checkout
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "brownmin").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "brownmin": brownmin.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "platform": platform.platform(),
    }


def end_to_end(workload, jobs, setup) -> tuple[dict, dict]:
    walls = [job.wall_s for job in jobs]
    wall = statistics.median(walls)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "evaluations_per_s": workload.evaluations / wall,
        "replications_per_s": workload.replications / wall,
        "us_per_evaluation": wall * 1e6 / workload.evaluations,
        "jobs": len(jobs),
        "job_wall_s": walls,
        "setup_launches_s": setup,
    }
    replications = [s for job in jobs for s in job.replication_s]
    if replications:
        extra["replication_ms_p50"] = statistics.median(replications) * 1e3
        extra["replication_samples"] = len(replications)
        if (high := tail(replications)) is not None:
            extra["replication_ms_tail"] = high[0] * 1e3
            extra["replication_tail_pct"] = high[1]
    return metrics, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "brownmin" / "__init__.py").is_file():
        print(f"bench: no brownmin sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import brownmin
    if Path(brownmin.__file__).resolve().parent != (SRC / "brownmin").resolve():
        print(f"bench: brownmin imported from {brownmin.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from layers import METRIC_UNITS, Tracer
    from workloads import GOLDEN_SEED, WORKLOADS, compare_dropped_fraction

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    golden = json.loads((BENCH / "golden.json").read_text())
    OUT.mkdir(exist_ok=True)
    checks = Checks()

    launch_setup = setup_launcher(workload.name, args.seed)
    setup: list[float] = []
    if not args.trace:
        launch_setup()  # fills the bytecode caches; not timed

    def attempt(label, seed, runs=workload, **expect):
        try:
            job = runs.job(seed, OUT)
        except Exception as exc:  # a failed job is counted, the run goes on
            checks.record(label, [f"{type(exc).__name__}: {exc}"])
            return None
        checks.record(label, output_problems(job.output, runs.check, **expect))
        return job

    # golden bytes at the default seed; also warms caches before timing
    golden_job = attempt("golden", GOLDEN_SEED,
                         expected_sha=golden["sha256"].get(workload.golden, "missing"))
    observed_golden = sha256(golden_job.output) if golden_job else None
    reference = None
    if workload.reference:
        reference = attempt("reference", args.seed, runs=WORKLOADS[workload.reference])

    tracer = Tracer() if args.trace else None
    jobs, traced_jobs, layer_rows = [], [], []
    expected = reference.output if reference else None
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or len(jobs) < 2 or (
            tracer and not traced_jobs):
        traced = tracer is not None and len(jobs) > len(traced_jobs)
        label = f"job {len(jobs) + len(traced_jobs)}"
        if traced:
            tracer.reset()
            with tracer.install():
                job = attempt(label + " (traced)", args.seed, expected=expected)
            if job:
                traced_jobs.append(job)
                layer_rows.append(tracer.layer_metrics())
        else:
            if not args.trace and len(setup) < SETUP_LAUNCHES:
                # spread over the run, so that setup_s sees the same machine
                setup.append(launch_setup())
            job = attempt(label, args.seed, expected=expected)
            if job:
                jobs.append(job)
        if job is None:
            break
        if expected is None:
            expected = job.output
        job.output = None  # checked; keeping it would grow peak_rss_mb with the job count
    while not args.trace and len(setup) < SETUP_LAUNCHES:
        setup.append(launch_setup())

    result = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "golden_seed": GOLDEN_SEED,
              "golden_sha256_observed": observed_golden,
              "environment": environment(args.seed)}
    correct = checks.failed == 0 and bool(jobs)
    if not correct:
        metrics, units = {}, {}
    elif args.trace:
        metrics = {key: statistics.median(row[key] for row in layer_rows)
                   for key in layer_rows[0]}
        untraced = statistics.median(job.wall_s for job in jobs)
        metrics["trace.overhead_fraction"] = (
            statistics.median(job.wall_s for job in traced_jobs) / untraced - 1.0)
        metrics["harness.parallel_efficiency"] = (
            reference.wall_s / (2.0 * untraced) if reference else 0.0)
        units = METRIC_UNITS
        result["dropped_ids"] = tracer.dropped_ids
        tracer.write_spans(OUT / f"{workload.name}-seed{args.seed}-spans.csv")
    else:
        metrics, extra = end_to_end(workload, jobs, setup)
        units = E2E_UNITS
        extra["output_ok"] = 1
        extra["dropped_fraction"] = (compare_dropped_fraction(expected)
                                     if workload.name.startswith("mc-compare") else 0.0)
        result["extra"] = extra

    summary = {
        "correct": correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
    }
    result.update(summary, problems=checks.problems)
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n")

    print(f"brownmin bench: workload={workload.name} seed={args.seed} trace={args.trace} "
          f"jobs={len(jobs)}+{len(traced_jobs)} traced, correct={correct}")
    for problem in checks.problems:
        print(f"  FAILED {problem}")
    for key, entry in summary["metrics"].items():
        print(f"  {key:45s} {entry['value']:>16.6g} {entry['unit']}")
    for key, unit in EXTRA_UNITS.items():
        if key in result.get("extra", {}):
            print(f"  {key:45s} {result['extra'][key]:>16.6g} {unit} (not bounded)")
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
