"""The serving workload: a closed loop against a served 2-shard fleet.

One load-generator process (this one) drives two connections, each a
thread with its own :class:`~repro.serve.client.Client` that sends its
next request only after the previous reply arrived.  The fleet and its
front-end run in a server process of their own (``perfbench/server.py``)
so the client threads do not share the server's interpreter lock; each
shard has one pool worker, so cold compiles occupy both CPUs of a
2-CPU host.

The cells are the 192 of the default grid over the seeded programs,
each request carrying its program as text.  The draw is stratified by
(benchmark, scheme), so every seed asks for the same mix of program
sizes: of each stratum's eight cells, set-up warms :data:`WARM_PER_STRATUM`
and the timed phase requests :data:`COLD_PER_STRATUM` once each (cold:
the shard pool computes them and the store saves them).  After each cold
request a connection repeats warm keys, which the fleet answers from its
hot tier; cold compiles keep both CPUs busy, so they also raise the warm
tail.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import Dict, List, Optional, Tuple

from perfbench import ROOT, WORK, tracing
from perfbench.clock import REFERENCE_S, calibrate_cpus, normalize
from perfbench.stats import percentile, samples_beyond
from perfbench.workloads import (
    Outcome,
    digest,
    extras,
    make_programs,
    quality,
)

#: Per (benchmark, scheme) stratum: cells warmed in set-up, and cells
#: requested cold in the timed phase (24 strata: 24 warm, 120 cold, so
#: the cold p90 has twelve samples beyond it).
WARM_PER_STRATUM = 1
COLD_PER_STRATUM = 5
#: Set-ups per run (each starts a server and warms it).
SERVE_SETUPS = 2
#: Warm requests each connection sends after each of its cold ones.
WARM_PER_COLD = 50
#: Calibrated slices of the timed phase.
SLICES = 4
CONNECTIONS = 2
#: Seconds a client waits for one reply before it counts a failure.
REPLY_TIMEOUT = 30.0


class ServerProcess:
    """A running ``perfbench/server.py`` and its command channel."""

    def __init__(self, workdir: str, trace: bool):
        command = [sys.executable, os.path.join(ROOT, "perfbench",
                                                "server.py"),
                   "--workdir", workdir]
        if trace:
            command.append("--trace")
        self.process = subprocess.Popen(
            command, cwd=ROOT, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
            env=dict(os.environ, TMPDIR=workdir),
        )
        try:
            self.endpoint = self._read()["endpoint"]
        except BaseException:
            self.kill()
            raise

    def _read(self) -> dict:
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError("the server process exited "
                               f"(code {self.process.poll()})")
        return json.loads(line)

    def call(self, op: str) -> dict:
        self.process.stdin.write(json.dumps({"op": op}) + "\n")
        self.process.stdin.flush()
        return self._read()

    def stop(self) -> dict:
        """Drain and stop; returns the server's final report."""
        final = self.call("stop")
        self.process.stdin.close()
        self.process.wait(timeout=60)
        self.process.stdout.close()
        return final

    def kill(self) -> None:
        """Terminate (the server then closes its fleet and pool), and
        kill only if that does not end it."""
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
        self.process.wait(timeout=60)
        for stream in (self.process.stdin, self.process.stdout):
            if stream is not None and not stream.closed:
                stream.close()


def _cells():
    from repro.evaluation.engine import default_grid

    return default_grid()


class Deployment:
    """Programs, a server, and the warm cells it was filled with."""

    def __init__(self, seed: int, trace: bool):
        from repro.ir.printer import format_program

        self.workdir = tempfile.mkdtemp(prefix="serve-", dir=WORK)
        self.server: Optional[ServerProcess] = None
        start = time.perf_counter()
        try:
            programs = make_programs(seed)
            self.texts = {name: format_program(program)
                          for name, program in programs.items()}
            self.server = ServerProcess(self.workdir, trace)
            rng = random.Random(seed)
            strata: Dict[Tuple[str, str], list] = {}
            for cell in _cells():
                strata.setdefault((cell.benchmark, cell.scheme),
                                  []).append(cell)
            self.warm, cold = [], []
            for cells in strata.values():
                drawn = rng.sample(cells, WARM_PER_STRATUM + COLD_PER_STRATUM)
                self.warm.extend(drawn[:WARM_PER_STRATUM])
                cold.extend(drawn[WARM_PER_STRATUM:])
            rng.shuffle(cold)
            self.cold = self._by_shard(cold)
            self.fill = self._fill()
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - start

    def _by_shard(self, cells) -> List[list]:
        """The cold cells split by the fleet shard that owns them.

        Connection ``i`` sends only shard ``i``'s cold cells, so the two
        connections' compiles run side by side on the two pool workers
        instead of queueing behind each other when their keys happen to
        meet on one shard; that collision would make cold latency depend
        on the draw rather than on the fleet.
        """
        from repro.serve.router import KeyRouter
        from repro.serve.store import cell_key

        router = KeyRouter(CONNECTIONS)
        shares: List[list] = [[] for _ in range(CONNECTIONS)]
        for cell in cells:
            key = cell_key(self.texts[cell.benchmark], cell)
            shares[router.shard_for(key)].append(cell)
        return shares

    def client(self):
        from repro.serve.client import Client

        return Client(self.server.endpoint, timeout=REPLY_TIMEOUT).connect()

    def _fill(self) -> List[Tuple[object, object]]:
        """Compute every warm cell once, over both connections."""
        replies: List[Tuple[object, object]] = []
        errors: List[BaseException] = []

        def run(share):
            try:
                with self.client() as client:
                    for cell in share:
                        reply = client.submit(
                            cell, program_text=self.texts[cell.benchmark])
                        replies.append((cell, reply))
            except BaseException as error:  # reported by the caller
                errors.append(error)

        threads = [threading.Thread(target=run, daemon=True,
                                    args=(self.warm[i::CONNECTIONS],))
                   for i in range(CONNECTIONS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(REPLY_TIMEOUT * len(self.warm))
            if thread.is_alive():
                raise RuntimeError("warm-up did not finish")
        if errors:
            raise RuntimeError(f"warm-up failed: {errors[0]!r}")
        return replies

    def close(self) -> dict:
        final = {}
        try:
            if self.server is not None:
                try:
                    final = self.server.stop()
                except BaseException:
                    self.server.kill()
                    raise
        finally:
            shutil.rmtree(self.workdir, ignore_errors=True)
        return final


class Sample:
    """One request: its kind, cell, raw latency, reply or error, and the
    slice it ran in with that slice's host-normalisation factor."""

    __slots__ = ("kind", "cell", "latency", "reply", "error", "part",
                 "factor")

    def __init__(self, kind, cell, latency, reply, error):
        self.kind = kind
        self.cell = cell
        self.latency = latency
        self.reply = reply
        self.error = error
        self.part = 0
        self.factor = 1.0

    @property
    def normalized(self) -> float:
        return self.latency * self.factor


def closed_loop(deployment: Deployment, cold: List[list],
                rngs: List[random.Random], seconds: float
                ) -> Tuple[List[Sample], float]:
    """Run one slice of the timed mix; returns its requests and wall time.

    Connection ``i`` repeats a cycle: the next of its cold cells
    ``cold[i]``, then :data:`WARM_PER_COLD` warm keys drawn with
    ``rngs[i]``.  Once its cold cells are sent it keeps sending warm keys
    until ``seconds`` have passed.
    """
    samples: List[List[Sample]] = [[] for _ in range(CONNECTIONS)]
    errors: List[BaseException] = []
    start = time.perf_counter()

    def run(index: int) -> None:
        rng = rngs[index]
        out = samples[index]

        def send(client, kind, cell):
            issued = time.perf_counter()
            try:
                reply = client.submit(
                    cell, program_text=deployment.texts[cell.benchmark])
                error = None
            except Exception as failure:  # counted as a failed operation
                reply, error = None, repr(failure)
            out.append(Sample(kind, cell, time.perf_counter() - issued,
                              reply, error))

        try:
            with deployment.client() as client:
                for cell in cold[index]:
                    send(client, "cold", cell)
                    for _ in range(WARM_PER_COLD):
                        send(client, "warm", rng.choice(deployment.warm))
                while time.perf_counter() - start < seconds:
                    send(client, "warm", rng.choice(deployment.warm))
        except BaseException as error:
            errors.append(error)

    threads = [threading.Thread(target=run, args=(i,))
               for i in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    if errors:
        raise RuntimeError(f"load generator failed: {errors[0]!r}")
    return [s for share in samples for s in share], wall


def check(samples: List[Sample], deployment: Deployment, outcome: Outcome
          ) -> Dict[object, dict]:
    """Count failed and wrongly classified requests; returns the served
    payload of every cell (set-up fill included)."""
    served: Dict[object, dict] = {}
    for cell, reply in deployment.fill:
        served[cell] = reply.result
        if reply.cached:
            outcome.fail(1, f"warm-up cell {cell} came from a cache")
    for sample in samples:
        outcome.attempted += 1
        if sample.error is not None:
            outcome.fail(1, f"{sample.kind} {sample.cell}: {sample.error}")
            continue
        reply = sample.reply
        if sample.kind == "cold" and (reply.cached
                                      or reply.source != "computed"):
            outcome.fail(1, f"cold {sample.cell} came back {reply.source}")
        elif sample.kind == "warm" and not reply.cached:
            outcome.fail(1, f"warm {sample.cell} came back {reply.source}")
        previous = served.setdefault(sample.cell, reply.result)
        if previous != reply.result:
            outcome.fail(1, f"{sample.cell} was served two answers")
    return served


def reference_payloads(texts: Dict[str, str]) -> Dict[object, str]:
    """Every grid cell's payload as an untimed ``evaluate_grid`` over
    the same program texts computes it, serialized for byte comparison."""
    import repro.api as api
    from repro.serve.store import cell_key, result_to_payload

    cells = _cells()
    results = api.evaluate_grid(cells, program_texts=texts, jobs=2)
    return {
        cell: json.dumps(result_to_payload(
            cell_key(texts[cell.benchmark], cell), result), sort_keys=True)
        for cell, result in zip(cells, results)
    }


def verify_payloads(served: Dict[object, dict],
                    reference: Dict[object, str], outcome: Outcome) -> None:
    """Served payloads must be byte-identical to the reference."""
    for cell, payload in served.items():
        if json.dumps(payload, sort_keys=True) != reference[cell]:
            outcome.fail(1, f"served payload of {cell} differs from "
                         "evaluate_grid")


def measured_loop(deployment: Deployment, seed: int, seconds: float
                  ) -> Tuple[List[Sample], float, float]:
    """The timed phase: every connection's cold cells in :data:`SLICES`
    slices, each run by :func:`closed_loop` between two calibrations of
    every CPU, whose mean factor host-normalises the slice's requests.
    The kernel never runs while requests are in flight, where it would
    compete with the fleet.  Returns the requests and the raw and the
    normalised wall time; the last slice runs until ``seconds`` passed.
    """
    rngs = [random.Random(seed * CONNECTIONS + index)
            for index in range(CONNECTIONS)]
    samples: List[Sample] = []
    raw = normalized = 0.0
    before = calibrate_cpus()
    for part in range(SLICES):
        cold = [cells[len(cells) * part // SLICES:
                      len(cells) * (part + 1) // SLICES]
                for cells in deployment.cold]
        until = seconds - raw if part == SLICES - 1 else 0.0
        chunk, wall = closed_loop(deployment, cold, rngs, until)
        after = calibrate_cpus()
        factor = REFERENCE_S / ((before + after) / 2)
        before = after
        for sample in chunk:
            sample.part = part
            sample.factor = factor
        samples.extend(chunk)
        raw += wall
        normalized += wall * factor
    return samples, raw, normalized


def slice_median_p99(samples: List[Sample]) -> float:
    """Warm p99 as the median of each slice's own p99 (normalised).

    Each slice holds ~1500 warm requests, fifteen beyond its p99; one
    host hiccup inflates the tail of one slice, not the median of four.
    """
    by_slice: Dict[int, List[float]] = {}
    for sample in samples:
        if sample.kind == "warm":
            by_slice.setdefault(sample.part, []).append(sample.normalized)
    return statistics.median(percentile(latencies, 99)
                             for latencies in by_slice.values())


def traced_phase(seed: int, seconds: float):
    """Set up a traced server and run one measured phase against it."""
    deployment = Deployment(seed, trace=True)
    try:
        deployment.server.call("mark")
        tracer = tracing.Tracer()
        installation = tracing.Installation(tracer).install()
        try:
            samples, _, _ = measured_loop(deployment, seed, seconds)
        finally:
            installation.uninstall()
        dump = deployment.server.call("dump")
    finally:
        deployment.close()
    return deployment, samples, tracer.snapshot(), dump


def serve_mixed(seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.serve.store import result_from_payload

    outcome = Outcome()
    setup_times: List[float] = []
    deployment = None
    try:
        for repeat in range(SERVE_SETUPS):
            before = calibrate_cpus()
            deployment = Deployment(seed, trace=False)
            setup_times.append(normalize(deployment.setup_s, before,
                                         calibrate_cpus()))
            if repeat < SERVE_SETUPS - 1:
                deployment.close()
                deployment = None
        samples, wall, normalized = measured_loop(deployment, seed,
                                                  seconds)
    finally:
        final = deployment.close() if deployment is not None else {}

    reference = reference_payloads(deployment.texts)
    served = check(samples, deployment, outcome)
    verify_payloads(served, reference, outcome)
    ok = [s for s in samples if s.error is None]
    warm = [s.normalized for s in ok if s.kind == "warm"]
    cold = [s.normalized for s in ok if s.kind == "cold"]
    # Quality over the whole grid the service answers for: the served
    # cells are a seeded subset, byte-identical to this reference.
    speedup, expansion = quality([result_from_payload(json.loads(payload))
                                  for payload in reference.values()])
    outcome.metrics = {
        "setup_s": percentile(setup_times, 50),
        "ops_per_s": len(ok) / normalized,
        "warm_p50_ms": percentile(warm, 50) * 1e3,
        "warm_p99_ms": slice_median_p99(ok) * 1e3,
        "cold_p50_ms": percentile(cold, 50) * 1e3,
        "cold_p90_ms": percentile(cold, 90) * 1e3,
        "td_speedup_vs_bb": speedup,
        "td_code_expansion": expansion,
        "peak_rss_mb": final["peak_rss_mb"],
    }
    outcome.report.append(
        f"phase {wall:.2f} s (normalised by {normalized / wall:.3f}), "
        f"{len(warm)} warm requests "
        f"({samples_beyond(len(warm), 99)} beyond p99), {len(cold)} cold "
        f"({samples_beyond(len(cold), 90)} beyond p90)")
    outcome.report.append(
        f"served digest {digest(sorted(map(json.dumps, served.values())))}")
    raw_warm = [s.latency for s in ok if s.kind == "warm"]
    outcome.report.append(
        f"raw: warm p50 {percentile(raw_warm, 50) * 1e3:.4g} ms, warm p99 "
        f"{percentile(raw_warm, 99) * 1e3:.4g} ms")

    if trace:
        traced, traced_samples, client, dump = traced_phase(seed, seconds)
        verify_payloads(check(traced_samples, traced, outcome), reference,
                        outcome)
        latency_sum = sum(s.latency for s in traced_samples)
        overhead = tracing.ratio(
            sum(s.normalized for s in traced_samples) / len(traced_samples),
            sum(s.normalized for s in samples) / len(samples))
        rows = tracing.serve_table(client, dump, latency_sum)
        outcome.layers = tracing.table_metrics(rows, latency_sum, overhead)
        outcome.layers.update(serve_extras(client, dump))
        table = tracing.format_table(
            rows, latency_sum, "layer table (request-seconds over "
            f"{len(traced_samples)} requests)")
        if dump["missing"]:
            table += "\nmissing targets: " + ", ".join(dump["missing"])
        outcome.report.append(table)
    return outcome


def serve_extras(client: dict, dump: dict) -> Dict[str, float]:
    """Counts of a traced serving phase, from both processes and every
    pool-worker task record."""
    counts: Dict[str, float] = {}
    calls: Dict[str, float] = {}
    for snapshot in [client, dump["trace"]] + \
            [record["trace"] for record in dump["workers"]]:
        for name, value in snapshot["counts"].items():
            counts[name] = counts.get(name, 0) + value
        for name, value in snapshot["calls"].items():
            calls[name] = calls.get(name, 0) + value
    workers = dump["workers"]
    cache_hits = sum(r["cache_hits"] for r in workers)
    cache_misses = sum(r["cache_misses"] for r in workers)
    memo_hits = sum(r["memo_hits"] for r in workers)
    memo_misses = sum(r["memo_misses"] for r in workers)
    latest: Dict[int, dict] = {}
    for record in workers:
        latest[record["pid"]] = record
    fleet = dump["fleet"]
    store_lookups = fleet["store_hits"] + fleet["store_misses"]
    return extras(
        {"counts": counts, "calls": calls}, cache_hits, cache_misses,
        memo_delta=(memo_hits, memo_misses),
        memo_final=(sum(r["memo_entries"] for r in latest.values()),
                    sum(r["memo_bytes"] for r in latest.values())),
        fleet={
            "serve.fleet.hot_hit_ratio": tracing.ratio(
                fleet["hot_hits"], fleet["requests"]),
            "serve.fleet.dedups": fleet["deduped"],
            "serve.service.store_hit_ratio": tracing.ratio(
                fleet["store_hits"], store_lookups),
        },
    )
