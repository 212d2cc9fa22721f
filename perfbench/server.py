"""The serving workload's server process.

``python3 perfbench/server.py --workdir DIR [--trace]`` starts a 2-shard
:class:`~repro.serve.fleet.CompileFleet` (one pool worker per shard, the
store under ``DIR/cache``) behind a TCP front-end on an ephemeral
localhost port, prints ``{"endpoint": ...}`` and then answers one JSON
command per stdin line on stdout:

* ``{"op": "mark"}``: start a measured window (traced servers drop the
  spans recorded so far and take counter baselines);
* ``{"op": "dump"}``: the window's server spans, pool-worker task
  records and fleet/service counter deltas;
* ``{"op": "stop"}``: drain and close the fleet, then report the peak
  resident memory of this process plus its largest pool worker.

With ``--trace`` the layer wrappers are installed before the fleet
starts, so the forked pool workers inherit them.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import use_program_sources  # noqa: E402


def fleet_counters(fleet) -> dict:
    counters = fleet.metrics_snapshot()["counters"]
    hits = misses = 0
    for shard in fleet.stats()["shards"]:
        store = shard["service"].get("store", {})
        hits += store.get("hits", 0)
        misses += store.get("misses", 0)
    return {
        "requests": counters.get("fleet.requests", 0),
        "hot_hits": counters.get("fleet.hot_hits", 0),
        "deduped": counters.get("fleet.deduped", 0),
        "store_hits": hits,
        "store_misses": misses,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    use_program_sources()
    # A terminated server still closes its fleet, which stops the pool
    # workers; killed outright they would outlive it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    from perfbench import tracing
    from repro.serve.fleet import CompileFleet
    from repro.serve.frontend import FrontendServer

    tracer = tracing.Tracer()
    installation = None
    if args.trace:
        installation = tracing.Installation(tracer).install(
            worker_dir=args.workdir)
    fleet = CompileFleet(shards=2, jobs=1,
                         cache_dir=os.path.join(args.workdir, "cache"))
    server = FrontendServer(fleet, "tcp://127.0.0.1:0")
    endpoint = server.start()
    print(json.dumps({"endpoint": str(endpoint)}), flush=True)

    # Pool workers fork while the main thread waits for a command, and a
    # forked child closes ``sys.stdin``: reading commands through it
    # would leave its buffer lock held in every child, so commands come
    # through a private handle and ``sys.stdin`` is left idle.
    commands = os.fdopen(os.dup(sys.stdin.fileno()), "r")
    sys.stdin = open(os.devnull)
    mark = time.monotonic()
    baseline = fleet_counters(fleet)
    try:
        for line in commands:
            op = json.loads(line)["op"]
            if op == "mark":
                tracer.reset()
                mark = time.monotonic()
                baseline = fleet_counters(fleet)
                reply = {}
            elif op == "dump":
                now = fleet_counters(fleet)
                reply = {
                    "trace": tracer.snapshot(),
                    "workers": tracing.read_worker_records(args.workdir,
                                                           mark),
                    "fleet": {k: now[k] - baseline[k] for k in now},
                    "missing": installation.missing if installation else [],
                }
            elif op == "stop":
                break
            else:
                reply = {"error": f"unknown op {op!r}"}
            print(json.dumps(reply), flush=True)
    finally:
        commands.close()
        server.stop()
        fleet.close(drain=True, timeout=60)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(json.dumps({"peak_rss_mb": (own + workers) / 1024.0}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
