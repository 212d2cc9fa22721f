"""Run one benchmark workload and print its result.

Usage, from the repository root::

    python3 perfbench/run.py --workload grid_cold --seed 1 --seconds 5 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.  The lines before it stamp the host and print the
checks, the metrics by name and unit and, when traced, the layer table.
The program is imported from this checkout's ``src``; without it the run
exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import ROOT, MissingProgram, use_program_sources  # noqa: E402
from perfbench.clock import host_stamp  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
WORKLOADS = ("grid_cold", "grid_warm", "serve_mixed", "certify_direct")


def declared_metrics(trace: bool) -> dict:
    """name -> unit of the metrics ``BENCHMARK.json`` declares for this
    kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def validate_metrics(values: dict, declared: dict) -> dict:
    """The result's ``metrics`` object; raises ``ValueError`` unless
    ``values`` has exactly the declared names, each a finite number, and
    every name and unit is well formed."""
    missing = sorted(set(declared) - set(values))
    extra = sorted(set(values) - set(declared))
    if missing or extra:
        raise ValueError(f"metrics missing {missing}, undeclared {extra}")
    out = {}
    for name, unit in declared.items():
        if not NAME.match(name) or not UNIT.match(unit):
            raise ValueError(f"malformed metric {name!r} ({unit!r})")
        value = values[name]
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            raise ValueError(f"metric {name} is not a finite number: "
                             f"{value!r}")
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        use_program_sources()
    except MissingProgram as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2

    if args.workload == "serve_mixed":
        from perfbench.serving import serve_mixed as workload
    else:
        from perfbench.workloads import WORKLOADS as IN_PROCESS

        workload = IN_PROCESS[args.workload]
    trace = bool(args.trace)
    print("host " + json.dumps(host_stamp(), sort_keys=True), flush=True)
    outcome = workload(args.seed, args.seconds, trace)

    values = outcome.layers if trace else outcome.metrics
    metrics = validate_metrics(values, declared_metrics(trace))
    for line in outcome.report:
        print(line)
    for problem in outcome.problems:
        print(f"FAILED: {problem}")
    for name, metric in metrics.items():
        print(f"{name:<40}{metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({
        "correct": outcome.failed == 0 and not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
