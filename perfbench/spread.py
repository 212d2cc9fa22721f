"""Run-to-run spread of the benchmark's end-to-end metrics.

Usage, from the repository root::

    python3 perfbench/spread.py --workloads grid_cold,serve_mixed --runs 10

runs each workload ``--runs`` times with seeds ``--first-seed``,
``--first-seed + 1``, ... and prints, per metric, the median, the
inter-quartile distance as a share of the median (quartiles as
``statistics.quantiles(values, n=4)`` gives them), and that spread as a
share of the metric's bound in ``BENCHMARK.json``.  Runs go one at a
time, so they do not compete for the CPUs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import ROOT  # noqa: E402
from perfbench.stats import summarize  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{done.returncode}:\n{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    worst = 0.0
    for workload in args.workloads.split(","):
        runs, walls, failed = [], [], 0
        for index in range(args.runs):
            result = run_once(workload, args.first_seed + index,
                              args.seconds, args.trace)
            walls.append(result["wall_s"])
            failed += result["failed"] + (not result["correct"])
            runs.append({name: metric["value"]
                         for name, metric in result["metrics"].items()})
            print(f"  {workload} seed {args.first_seed + index}: "
                  f"{result['wall_s']:.1f} s, correct={result['correct']}, "
                  f"failed {result['failed']}/{result['attempted']}",
                  flush=True)
        print(f"{workload}: {args.runs} runs, {sum(walls):.0f} s in all, "
              f"{failed} failures")
        for name, row in summarize(runs).items():
            bound = bounds.get(name)
            share = row["spread"] / bound if bound else float("nan")
            if bound and name != "setup_s":
                worst = max(worst, share)
            print(f"  {name:<34}{row['median']:>14.6g}"
                  f"{row['spread']:>10.2%}  {share:>6.2f} of bound")
    print(f"largest spread / bound (setup_s aside): {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
