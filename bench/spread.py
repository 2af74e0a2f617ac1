"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workloads eval,ff-train --seeds 1-10 [--seconds S]
        [--trace 0|1] [--json summary.json]

Run from the repository root. Runs are sequential, one fresh process each.
For every (workload, metric) it prints the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the interquartile
spread as a share of the median, next to the metric's bound from
BENCHMARK.json. A run whose result is not correct is reported and counted.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else None, "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", required=True, help="comma-separated workload names")
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--json", help="write the summary to this file")
    args = p.parse_args(argv)
    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    summary = {}
    for workload in args.workloads.split(","):
        runs = {}
        for seed in seed_list(args.seeds):
            result = run_once(workload, seed, seconds, args.trace)
            runs[seed] = result
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        names = next(iter(runs.values()))["metrics"]
        summary[workload] = {
            "incorrect_runs": [s for s, r in runs.items() if not r["correct"]],
            "metrics": {n: summarize([r["metrics"][n]["value"] for r in runs.values()])
                        for n in names},
        }
        for name, s in summary[workload]["metrics"].items():
            bound = bounds.get(name)
            flag = "" if bound is None or s["spread"] is None else (
                " ok" if s["spread"] < bound / 3 else " WIDE")
            print(f"  {name}: median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
                  f"spread {s['spread']}  bound {bound}{flag}", flush=True)
    if args.json:
        Path(args.json).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
