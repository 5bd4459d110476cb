"""Run the benchmark over several seeds and summarise it as BENCH_<name>.json.

    python3 bench/collect.py --seeds 1-10 --out bench/BENCH_baseline.json
    python3 bench/collect.py --workloads deep-path --seeds 1-5

Runs the command in BENCHMARK.json once per (workload, seed), one run at a
time, then reports per end-to-end metric the median, the quartiles and
their distance as a share of the median (the spread), next to the
metric's bound.  ``--traced`` adds one traced run per workload and records
its per-layer metrics.  Run from the root of a source checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        first, last = map(int, text.split("-"))
        return list(range(first, last + 1))
    return [int(s) for s in text.split(",")]


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {done.returncode}:\n"
                           f"{done.stdout}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarise(values: list[float], bound: float | None) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else 0.0
    stats = {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}
    if bound is not None:
        stats.update(bound=bound, steady=spread < bound / 3)
    return stats


def results_file(name: str, seed: int) -> dict:
    return json.loads((BENCH / "out" / f"{name}-seed{seed}-trace0.json").read_text())


def extra_stats(name: str, seeds: list[int]) -> dict:
    """Median and spread over the runs of the scalar extras in the results
    files, such as the evaluation rate and replication times; they have no
    bound."""
    extras = [results_file(name, seed)["extra"] for seed in seeds]
    return {key: summarise([e[key] for e in extras], None)
            for key, value in extras[0].items() if not isinstance(value, list)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--workloads", default=None, help="comma-separated; default all")
    parser.add_argument("--traced", action="store_true",
                        help="add one traced run per workload at the first seed")
    parser.add_argument("--out", default=None, help="summary JSON to write")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seeds = seed_list(args.seeds)
    summary = {"run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    steady = True
    for name in names:
        runs = []
        for seed in seeds:
            runs.append(run_once(spec, name, seed, 0))
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in runs[-1]["metrics"].items()), flush=True)
        entry = {"attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs), "end_to_end": {}}
        for metric in spec["end_to_end"]:
            key = metric["name"]
            stats = summarise([r["metrics"][key]["value"] for r in runs], metric["bound"])
            stats["unit"] = metric["unit"]
            entry["end_to_end"][key] = stats
            flag = "steady" if stats["steady"] else "NOT STEADY"
            steady &= stats["steady"]
            print(f"  {name:14s} {key:22s} median {stats['median']:12.6g} {metric['unit']:5s}"
                  f" spread {stats['spread']:7.4f} bound {metric['bound']:.2f} {flag}")
        entry["extra"] = extra_stats(name, seeds)
        if args.traced:
            traced = run_once(spec, name, seeds[0], 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        summary["environment"] = results_file(name, seeds[-1])["environment"]
        summary["workloads"][name] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    print("all spreads below a third of their bound" if steady
          else "some spreads are not below a third of their bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
