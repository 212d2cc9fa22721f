"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``compile``  — minic source → textual IR on stdout;
* ``run``      — execute a program on the reference interpreter and,
  scheduled, on the VLIW simulator; reports results and cycle counts;
* ``schedule`` — print the region schedules for a program under a chosen
  scheme/machine/heuristic;
* ``bench``    — speedup table over the synthetic SPECint95 stand-ins;
* ``validate`` — seeded differential validation (interpreter vs VLIW
  simulator vs static estimate vs evaluation engine), with automatic
  failure minimization;
* ``trace``    — run the full pipeline under the hierarchical tracer and
  write a Chrome trace-event JSON (open in Perfetto / chrome://tracing);
* ``lint``     — static-analysis diagnostics: IR structure rules, and
  (with ``--schedule``) certification of every region schedule against
  the machine model and dependence graph; exit status 1 when any
  diagnostic reaches ``--fail-on`` severity;
* ``analyze``  — dataflow analysis report: per-region critical-path and
  resource-saturation lower bounds on schedule height next to each
  heuristic's achieved height, the flow-sensitive lint summary, and
  (with ``--calls``) the whole-program call graph; exit status 1 on an
  unsound bound or any lint error;
* ``warm``     — prime the persistent artifact store for a program (or
  the built-in suite) across a scheme/machine/heuristic grid;
* ``serve``    — long-lived compile fleet behind an asyncio front-end
  on ``--endpoint unix:///path`` or ``tcp://host:port`` (framed,
  versioned protocol; content-key sharded stores; ``--shards``);
* ``client``   — one request against a running ``serve`` endpoint
  (compile a program, ``--ping``, ``--stats``, or ``--shutdown``);
* ``soak``     — many-client load soak against a running endpoint (or
  a self-hosted fleet with ``--serve``); reports qps and latency
  percentiles as JSON;
* ``top``      — live ANSI-refresh dashboard over a running fleet's
  ``STATS`` plane (queue depths, hot tier, restarts, rolling latency);
* ``trace-merge`` — stitch per-process distributed-trace JSONL files
  (from ``--trace-dir``) into one Chrome/Perfetto timeline;
* ``dot``      — Graphviz rendering of a function's CFG, clustered by
  region and optionally annotated with schedule cycles.

``serve`` and ``soak`` take ``--trace-dir DIR`` (per-process
distributed-trace span files, merged by ``trace-merge``) and
``--events-log FILE`` (size-rotated JSONL lifecycle event log); see
DESIGN.md §13.

``run``, ``report``, and ``validate`` take ``--metrics FILE`` /
``--trace FILE`` to dump pipeline counters and spans; ``bench`` takes
``--timings-json FILE`` for machine-readable stage timings.  ``run``,
``bench``, and ``report`` take ``--cache-dir DIR`` (with
``--cache-max-mb``) to cache cell results in a content-addressed
artifact store across invocations.

Exit codes: 0 — success; 1 — the tool ran but the result is a failure
(failed seeds, lint errors past ``--fail-on``, simulator disagreement);
2 — the invocation itself is bad (missing file, unknown scheme,
malformed grid spec, unreachable service), reported as one
``repro: error: ...`` line on stderr.

Program inputs may be minic source (``.mc`` or anything else) or textual
IR dumps (detected by the ``program entry=`` header).  Scheme arguments
are typed spec strings (``bb``, ``slr``, ``treegion``, ``superblock``,
``hyperblock``, ``treegion-td[:limit]``) parsed by
:class:`repro.api.SchemeSpec`; everything the CLI does goes through the
:mod:`repro.api` facade.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import __version__, api
from repro.ir.function import Program
from repro.ir.printer import format_program
from repro.interp import Interpreter, profile_program
from repro.schedule import ScheduleOptions
from repro.schedule.priorities import HEURISTICS
from repro.util.errors import ReproError
from repro.evaluation import evaluate_program

#: Plain scheme names offered in ``--help`` (any ``treegion-td:<limit>``
#: spec is accepted too).
SCHEME_CHOICES = ("bb", "slr", "treegion", "superblock", "treegion-td",
                  "hyperblock")


class CLIError(Exception):
    """An operational failure the CLI reports as one line + exit 2.

    Covers bad user inputs (unreadable file, unparsable program, bad
    scheme/machine/grid spec) as opposed to *result* failures, which
    keep their command-specific exit 1, and crashes, which keep their
    tracebacks.
    """


def _load_program(path: str, optimize: bool = False) -> Program:
    try:
        return api.load_program(path, optimize=optimize)
    except (OSError, ReproError, ValueError) as error:
        raise CLIError(f"cannot load {path}: {error}")


def _machine(name: str):
    try:
        return api.machine(name)
    except ValueError as error:
        raise CLIError(str(error))


def _scheme(spec: str):
    try:
        return api.make_scheme(spec)
    except ValueError as error:
        raise CLIError(str(error))


def _parse_args_list(values: Optional[List[str]]) -> List[object]:
    out: List[object] = []
    for value in values or []:
        out.append(float(value) if "." in value else int(value))
    return out


def _region_memo_arg(args):
    """--no-region-memo → False (off); default → None (engine default)."""
    return None if getattr(args, "region_memo", True) else False


def _obs_for(args, stages: bool = False):
    """(metrics, tracer) per the command's --metrics/--trace flags.

    ``stages``: the command prints the stage table, so it always gets a
    tracer; it keeps span objects only when --trace exports them.
    """
    from repro.obs import (
        NULL_METRICS, NULL_TRACER, MetricsRegistry, Tracer,
    )

    metrics = MetricsRegistry() if getattr(args, "metrics", None) \
        else NULL_METRICS
    if getattr(args, "trace", None):
        tracer = Tracer()
    elif stages:
        tracer = Tracer(keep_spans=False)
    else:
        tracer = NULL_TRACER
    return metrics, tracer


def _write_obs(args, metrics, tracer=None) -> None:
    """Write the files the --metrics/--trace flags asked for."""
    from repro.obs import NullMetrics, write_observability_json

    metrics_path = getattr(args, "metrics", None)
    if metrics_path and not isinstance(metrics, NullMetrics):
        write_observability_json(metrics_path, metrics, tracer)
        print(f"metrics written to {metrics_path}", file=sys.stderr)
    trace_path = getattr(args, "trace", None)
    if trace_path and hasattr(tracer, "write_chrome"):
        tracer.write_chrome(trace_path)
        print(f"trace written to {trace_path}", file=sys.stderr)


# ----------------------------------------------------------------------
# Commands

def cmd_compile(args) -> int:
    program = _load_program(args.file, optimize=args.optimize)
    sys.stdout.write(format_program(program))
    return 0


def cmd_run(args) -> int:
    from repro.ir.analysis_cache import record_cache_metrics
    from repro.obs import metrics_scope, span, trace_scope

    machine = _machine(args.machine)
    program = _load_program(args.file, optimize=args.optimize)
    inputs = _parse_args_list(args.args)
    metrics, tracer = _obs_for(args)
    with tracer.span("interpret"):
        expected = Interpreter(program).run(inputs)
    print(f"interpreter result: {expected}")
    with tracer.span("profile"):
        profile_program(program, inputs=[inputs])
    options = ScheduleOptions(heuristic=args.heuristic,
                              dominator_parallelism=True)
    with metrics_scope(metrics), trace_scope(tracer), \
            span("simulate", scheme=args.scheme, machine=args.machine):
        result, simulator = api.simulate(program, _scheme(args.scheme),
                                         machine, inputs, options)
    simulator.record_metrics(metrics)
    record_cache_metrics(metrics)
    status = "OK" if result == expected else "MISMATCH"
    print(f"VLIW simulator ({args.scheme}, {machine}): {result} [{status}] "
          f"in {simulator.cycles} cycles")
    if getattr(args, "cache_dir", None):
        from repro.api import GridCell

        cell = GridCell(args.file, args.scheme, args.machine,
                        args.heuristic, dominator_parallelism=True)
        cached = api.cached_evaluate(
            [cell], cache_dir=args.cache_dir,
            cache_max_mb=args.cache_max_mb,
            programs={args.file: program}, metrics=metrics, tracer=tracer,
            region_memo=_region_memo_arg(args),
        )[0]
        print(f"cached estimate: {cached.time:g} weighted cycles "
              f"(store at {args.cache_dir})")
    _write_obs(args, metrics, tracer)
    return 0 if result == expected else 1


def cmd_schedule(args) -> int:
    program = _load_program(args.file, optimize=args.optimize)
    if args.args is not None:
        profile_program(program, inputs=[_parse_args_list(args.args)])
    machine = _machine(args.machine)
    options = ScheduleOptions(heuristic=args.heuristic,
                              dominator_parallelism=True)
    result = evaluate_program(program, _scheme(args.scheme), machine,
                              options)
    for schedule in result.schedules:
        print(schedule.format())
        print()
    print(f"estimated time: {result.time:g} weighted cycles; "
          f"code expansion {result.code_expansion:.2f}; "
          f"{result.total_speculated} speculated ops; "
          f"{result.total_copies} rename copies")
    return 0


def cmd_bench(args) -> int:
    from repro.schedule.priorities import DEP_HEIGHT
    from repro.api import GridCell, SchemeSpec
    from repro.workloads.specint import BENCHMARK_NAMES

    names = args.benchmarks.split(",") if args.benchmarks else BENCHMARK_NAMES
    _machine(args.machine)  # validate the name early
    schemes = (args.schemes.split(",") if args.schemes
               else ["bb", "slr", "superblock", "treegion", "treegion-td"])
    for scheme in schemes:  # validate specs before any work fans out
        try:
            SchemeSpec.parse(scheme)
        except ValueError as error:
            raise CLIError(str(error))
    grid = [GridCell(name, "bb", "1U", DEP_HEIGHT) for name in names] + [
        GridCell(name, scheme, args.machine, args.heuristic,
                 dominator_parallelism=True)
        for name in names
        for scheme in schemes
    ]
    metrics, tracer = _obs_for(args, stages=True)
    if args.cache_dir:
        results = api.cached_evaluate(
            grid, cache_dir=args.cache_dir,
            cache_max_mb=args.cache_max_mb, jobs=args.jobs,
            metrics=metrics, tracer=tracer,
            region_memo=_region_memo_arg(args),
        )
    else:
        results = api.evaluate_grid(grid, jobs=args.jobs,
                                    metrics=metrics, tracer=tracer,
                                    region_memo=_region_memo_arg(args))
    baselines = {r.cell.benchmark: r.time for r in results[:len(names)]}
    rest = iter(results[len(names):])
    print(f"{'program':10s} " + " ".join(f"{s:>12s}" for s in schemes))
    for name in names:
        base = baselines[name]
        cells = [f"{base / next(rest).time:11.2f}x" for _ in schemes]
        print(f"{name:10s} " + " ".join(cells))
    if args.timings:
        print()
        print(tracer.format_stages())
    if args.timings_json:
        from repro.obs import write_observability_json

        write_observability_json(args.timings_json, metrics, tracer)
        print(f"timings written to {args.timings_json}", file=sys.stderr)
    _write_obs(args, metrics, tracer)
    return 0


def cmd_report(args) -> int:
    from repro.evaluation.report import generate_report

    names = args.benchmarks.split(",") if args.benchmarks else None
    metrics, tracer = _obs_for(args, stages=True)
    sys.stdout.write(generate_report(names, jobs=args.jobs,
                                     metrics=metrics, tracer=tracer,
                                     cache_dir=args.cache_dir,
                                     cache_max_mb=args.cache_max_mb,
                                     region_memo=_region_memo_arg(args)))
    _write_obs(args, metrics, tracer)
    return 0


def cmd_validate(args) -> int:
    from repro.validate import parse_grid_spec

    try:
        grid = parse_grid_spec(args.grid)
    except ValueError as error:
        raise CLIError(str(error))

    def progress(outcome) -> None:
        if not outcome.ok:
            print(f"seed {outcome.seed}: "
                  f"{outcome.mismatch_count} mismatch(es)")
        elif args.verbose:
            print(f"seed {outcome.seed}: ok "
                  f"({outcome.cells_checked} cells)")

    metrics, tracer = _obs_for(args)
    summary = api.validate(
        args.seeds,
        start=args.start,
        grid=grid,
        jobs=args.jobs,
        shrink=not args.no_shrink,
        max_trials=args.max_trials,
        report_dir=args.report_dir,
        progress=progress,
        metrics=metrics,
        tracer=tracer,
    )
    _write_obs(args, metrics, tracer)
    status = "OK" if summary.ok else "FAIL"
    print(f"{status}: {summary.seeds} seeds, {summary.cells_checked} "
          f"cell-input checks, {len(summary.failures)} failing seed(s)")
    for outcome in summary.failures:
        if outcome.failure is None:
            continue
        failure = outcome.failure
        print(f"  seed {failure.seed} [{failure.check}] cell="
              f"{failure.cell} inputs={failure.inputs}: "
              f"{failure.original_ops} -> {failure.minimized_ops} ops "
              f"({failure.trials} trials)")
        if args.report_dir:
            print(f"    report: {args.report_dir}/"
                  f"failure-seed{failure.seed}.json")
    return 0 if summary.ok else 1


def cmd_trace(args) -> int:
    """Run the full pipeline under the tracer; export Chrome trace JSON."""
    from repro.ir.analysis_cache import record_cache_metrics
    from repro.obs import MetricsRegistry, Tracer, write_observability_json

    program = _load_program(args.file, optimize=args.optimize)
    if args.args is not None:
        profile_program(program, inputs=[_parse_args_list(args.args)])
    machine = _machine(args.machine)
    options = ScheduleOptions(heuristic=args.heuristic,
                              dominator_parallelism=True)
    tracer = Tracer()
    metrics = MetricsRegistry()
    result = evaluate_program(program, _scheme(args.scheme), machine,
                              options, metrics=metrics, tracer=tracer)
    record_cache_metrics(metrics)
    tracer.write_chrome(args.out)
    print(f"trace written to {args.out} "
          f"(open in Perfetto / chrome://tracing)", file=sys.stderr)
    if args.jsonl:
        tracer.write_jsonl(args.jsonl)
        print(f"spans written to {args.jsonl}", file=sys.stderr)
    if args.metrics_out:
        write_observability_json(args.metrics_out, metrics, tracer)
        print(f"metrics written to {args.metrics_out}", file=sys.stderr)
    print(f"estimated time: {result.time:g} weighted cycles "
          f"({args.scheme}, {machine})")
    print()
    print(tracer.format_summary())
    print()
    print(metrics.format_table())
    return 0


def _corpus_programs():
    """(label, profiled program) for every built-in workload."""
    from repro.workloads.minic_programs import (
        build_minic_program, minic_program_names,
    )
    from repro.workloads.paper_example import build_paper_example
    from repro.workloads.pathological import (
        build_biased_treegion, build_linearized_treegion,
        build_wide_shallow_treegion,
    )
    from repro.workloads.specint import BENCHMARK_NAMES, build_benchmark

    yield "paper-example", build_paper_example()
    yield "pathological-biased", build_biased_treegion()
    yield "pathological-wide", build_wide_shallow_treegion()
    yield "pathological-linear", build_linearized_treegion()
    for name in BENCHMARK_NAMES:
        yield f"specint-{name}", build_benchmark(name)
    for name in minic_program_names():
        program, canonical_args = build_minic_program(name)
        profile_program(program, inputs=[canonical_args])
        yield f"minic-{name}", program


def cmd_lint(args) -> int:
    from repro.lint import LintReport, Severity
    from repro.lint.run import lint_many

    if (args.file is None) == (not args.corpus):
        raise CLIError("pass exactly one of FILE or --corpus")
    threshold = Severity.parse(args.fail_on)
    _scheme(args.scheme)  # validate the specs before any work fans out
    _machine(args.machine)
    metrics, tracer = _obs_for(args)

    if args.corpus:
        targets = list(_corpus_programs())
    else:
        program = _load_program(args.file, optimize=args.optimize)
        if args.args is not None:
            profile_program(program, inputs=[_parse_args_list(args.args)])
        targets = [(args.file, program)]

    def progress(label, partial) -> None:
        if args.corpus:
            count = len(partial)
            status = "clean" if count == 0 else f"{count} diagnostic(s)"
            print(f"{label}: {status}", file=sys.stderr)

    jobs = args.jobs if args.jobs != 0 else None
    import os as _os

    results = lint_many(
        targets, schedule=args.schedule, scheme=args.scheme,
        machine=args.machine, heuristic=args.heuristic,
        dominator_parallelism=True,
        jobs=(_os.cpu_count() or 1) if jobs is None else jobs,
        metrics=metrics, progress=progress,
    )
    report = LintReport()
    for _label, partial in results:
        report.extend(partial.diagnostics)

    if args.format == "json":
        print(report.format("json"))
    else:
        print(report.format())
    _write_obs(args, metrics, tracer)
    failing = report.at_or_above(threshold)
    return 1 if failing else 0


def cmd_analyze(args) -> int:
    """Dataflow analysis: schedule-height bounds, lint, call graph."""
    import json as _json

    if (args.file is None) == (not args.corpus):
        raise CLIError("pass exactly one of FILE or --corpus")
    schemes = args.schemes.split(",") if args.schemes else None
    machines = args.machines.split(",") if args.machines else None
    heuristics = args.heuristics.split(",") if args.heuristics else None

    if args.corpus:
        targets = _corpus_programs()
    else:
        program = _load_program(args.file, optimize=args.optimize)
        if args.args is not None:
            profile_program(program, inputs=[_parse_args_list(args.args)])
        targets = [(args.file, program)]

    results = []
    failed = False
    for label, program in targets:
        try:
            result = api.analyze_program(
                program, name=label, schemes=schemes, machines=machines,
                heuristics=heuristics, calls=args.calls,
                lint=not args.no_lint,
            )
        except ValueError as error:
            raise CLIError(str(error))
        results.append(result)
        summary = result["summary"]
        lint = result.get("lint")
        bad = (summary["unsound"] > 0
               or (lint is not None and lint["errors"] > 0))
        failed = failed or bad
        if args.corpus:
            status = "FAIL" if bad else "ok"
            print(f"{label}: {summary['regions']} region(s), "
                  f"tight {summary['tight']}/{summary['regions']}, "
                  f"max gap {summary['max_gap']} [{status}]",
                  file=sys.stderr)

    if args.format == "json":
        if args.corpus:
            payload = {
                "programs": results,
                "summary": {
                    "programs": len(results),
                    "regions": sum(r["summary"]["regions"]
                                   for r in results),
                    "unsound": sum(r["summary"]["unsound"]
                                   for r in results),
                    "sound": all(r["summary"]["sound"] for r in results),
                    "lint_errors": sum(
                        r["lint"]["errors"] for r in results
                        if r.get("lint") is not None),
                },
            }
        else:
            payload = results[0]
        print(_json.dumps(payload, indent=2, sort_keys=True))
    else:
        from repro.analysis.driver import format_analysis

        for result in results:
            print(format_analysis(result))
            print()
    return 1 if failed else 0


def cmd_gap(args) -> int:
    """Optimality gap: heuristic heights vs proven branch-and-bound optima."""
    import json as _json

    if (args.file is None) == (not args.corpus):
        raise CLIError("pass exactly one of FILE or --corpus")
    schemes = args.schemes.split(",") if args.schemes else None
    machines = args.machines.split(",") if args.machines else None

    if args.corpus:
        targets = _corpus_programs()
    else:
        program = _load_program(args.file, optimize=args.optimize)
        if args.args is not None:
            profile_program(program, inputs=[_parse_args_list(args.args)])
        targets = [(args.file, program)]

    results = []
    failed = False
    for label, program in targets:
        try:
            result = api.gap_report(
                program, name=label, schemes=schemes, machines=machines,
                budget=args.budget, max_ops=args.max_ops,
                lint=not args.no_lint,
            )
        except ValueError as error:
            raise CLIError(str(error))
        results.append(result)
        summary = result["summary"]
        bad = summary["unsound_bounds"] > 0 or summary["lint_errors"] > 0
        failed = failed or bad
        if args.corpus:
            status = "FAIL" if bad else "ok"
            print(f"{label}: {summary['regions']} region(s), "
                  f"proven {summary['proven']}/{summary['regions']}, "
                  f"improved {summary['improved']} [{status}]",
                  file=sys.stderr)

    if args.corpus:
        from repro.exact.gap import gap_summary

        rows = [row for result in results for row in result["regions"]]
        skipped = sum(r["summary"]["skipped"] for r in results)
        heuristics = results[0]["heuristics"] if results else []
        corpus_summary = gap_summary(rows, heuristics, skipped=skipped)

    if args.format == "json":
        if args.corpus:
            payload = {
                "programs": results,
                "summary": dict(corpus_summary, programs=len(results)),
            }
        else:
            payload = results[0]
        print(_json.dumps(payload, indent=2, sort_keys=True))
    else:
        from repro.exact.gap import format_gap, format_gap_summary

        for result in results:
            print(format_gap(result))
            print()
        if args.corpus and results:
            print("corpus")
            print("\n".join(format_gap_summary(corpus_summary, heuristics)))
    return 1 if failed else 0


def cmd_dot(args) -> int:
    from repro.core import form_treegions
    from repro.ir.dot import cfg_to_dot
    from repro.regions import form_slrs
    from repro.regions.hyperblock import form_hyperblocks

    program = _load_program(args.file)
    function = program.function(args.function or program.entry_name)
    partition = None
    if args.regions == "treegion":
        partition = form_treegions(function.cfg)
    elif args.regions == "slr":
        partition = form_slrs(function.cfg)
    elif args.regions == "hyperblock":
        partition = form_hyperblocks(function.cfg)
    schedules = None
    if args.schedule and partition is not None:
        from repro.schedule.scheduler import schedule_partition

        options = ScheduleOptions(heuristic=args.heuristic,
                                  dominator_parallelism=True)
        schedules = schedule_partition(partition, _machine(args.machine),
                                       options)
    sys.stdout.write(cfg_to_dot(function.cfg, partition=partition,
                                name=function.name, schedules=schedules))
    return 0


# ----------------------------------------------------------------------
# Service & caching commands (repro.serve)


def _warm_grid(args, benchmark: str) -> List:
    """Grid cells for one benchmark label from a --grid axes spec."""
    from repro.api import GridCell
    from repro.validate import parse_grid_spec

    try:
        axes = parse_grid_spec(args.grid)
    except ValueError as error:
        raise CLIError(str(error))
    return [
        GridCell(benchmark, cell.scheme, cell.machine, cell.heuristic,
                 dominator_parallelism=True)
        for cell in axes
    ]


def cmd_warm(args) -> int:
    """Prime the artifact store for a program (or the built-in suite)."""
    metrics, tracer = _obs_for(args)
    programs = None
    cells = []
    if args.file is not None:
        program = _load_program(args.file, optimize=args.optimize)
        if args.args is not None:
            profile_program(program, inputs=[_parse_args_list(args.args)])
        programs = {args.file: program}
        cells = _warm_grid(args, args.file)
    else:
        from repro.workloads.specint import BENCHMARK_NAMES

        names = (args.benchmarks.split(",") if args.benchmarks
                 else list(BENCHMARK_NAMES))
        for name in names:
            cells.extend(_warm_grid(args, name))
    from repro.serve.store import ArtifactStore

    store = ArtifactStore(args.cache_dir, max_mb=args.cache_max_mb)
    with store:
        before = store.stats()
        api.cached_evaluate(cells, store=store, programs=programs,
                            jobs=args.jobs, metrics=metrics,
                            tracer=tracer,
                            region_memo=_region_memo_arg(args))
        after = store.stats()
    print(f"warmed {len(cells)} cell(s): "
          f"{after['hits'] - before['hits']} already cached, "
          f"{after['misses'] - before['misses']} compiled; store holds "
          f"{after['entries']} entries ({after['bytes']} bytes)")
    _write_obs(args, metrics, tracer)
    return 0


def _endpoint_from_args(args) -> str:
    endpoint = getattr(args, "endpoint", None)
    if not endpoint:
        raise CLIError("pass --endpoint unix:///path or tcp://host:port")
    return endpoint


def _parse_endpoint_arg(value: str):
    import socket as _socket

    from repro.serve.wire import parse_endpoint

    try:
        endpoint = parse_endpoint(value)
    except ValueError as error:
        raise CLIError(str(error))
    if endpoint.scheme == "unix" and not hasattr(_socket, "AF_UNIX"):
        raise CLIError("this platform has no AF_UNIX sockets; "
                       "use a tcp:// endpoint")
    return endpoint


def _fleet_obs(args):
    """(trace_dir, event log) from --trace-dir/--events-log."""
    from repro.serve.events import NULL_EVENTS, EventLog

    trace_dir = getattr(args, "trace_dir", None)
    if trace_dir:
        import os

        os.makedirs(trace_dir, exist_ok=True)
    events_path = getattr(args, "events_log", None)
    events = EventLog(events_path) if events_path else NULL_EVENTS
    return trace_dir, events


def _open_fleet(args, metrics, trace_dir=None, events=None):
    from repro.serve.events import NULL_EVENTS

    return api.open_fleet(
        shards=args.shards, cache_dir=args.cache_dir,
        cache_max_mb=args.cache_max_mb, jobs=args.jobs,
        batch_size=args.batch_size, max_pending=args.max_pending,
        job_timeout=args.job_timeout, retries=args.retries,
        metrics=metrics, trace_dir=trace_dir,
        events=events if events is not None else NULL_EVENTS,
    )


def cmd_serve(args) -> int:
    """Serve the compile fleet until a client sends shutdown."""
    from repro.serve.frontend import FrontendServer

    endpoint = _parse_endpoint_arg(_endpoint_from_args(args))
    metrics, _ = _obs_for(args)
    trace_dir, events = _fleet_obs(args)
    fleet = _open_fleet(args, metrics, trace_dir=trace_dir, events=events)
    server = FrontendServer(fleet, endpoint, metrics=metrics,
                            trace_dir=trace_dir, events=events)
    try:
        bound = server.start()
    except OSError as error:
        fleet.close(drain=False)
        raise CLIError(f"cannot listen on {endpoint}: {error}")
    print(f"serving on {bound} ({args.shards} shard(s), cache: "
          f"{args.cache_dir or 'none'})", file=sys.stderr)
    try:
        server.join()
    except KeyboardInterrupt:
        server.stop()
    finally:
        fleet.close(drain=True)
        events.close()
        print(f"fleet stats: {fleet.stats()}", file=sys.stderr)
        _write_obs(args, metrics)
    return 0


def cmd_client(args) -> int:
    """One client round trip against a running ``repro serve`` endpoint."""
    import json as _json

    from repro.api import GridCell
    from repro.serve.client import Client, ClientError

    endpoint = _parse_endpoint_arg(_endpoint_from_args(args))
    if not (args.ping or args.stats or args.shutdown) and args.file is None:
        raise CLIError("pass FILE to compile, or one of "
                       "--ping/--stats/--shutdown")
    try:
        with Client(endpoint, timeout=args.timeout) as client:
            if args.ping:
                reply = client.ping()
                output = {"ok": True, "healthy": reply.healthy,
                          "protocol": reply.protocol_version,
                          "schema": reply.schema, "shards": reply.shards}
            elif args.stats:
                output = {"ok": True, "stats": client.stats()}
            elif args.shutdown:
                client.shutdown()
                output = {"ok": True, "shutdown": True}
            else:
                program = _load_program(args.file, optimize=args.optimize)
                if args.args is not None:
                    profile_program(program,
                                    inputs=[_parse_args_list(args.args)])
                _scheme(args.scheme)  # validate specs client-side
                _machine(args.machine)
                cell = GridCell(args.file, args.scheme, args.machine,
                                args.heuristic, dominator_parallelism=True)
                reply = client.submit(
                    cell, program_text=format_program(program))
                output = {"ok": True, "cached": reply.cached,
                          "attempts": reply.attempts,
                          "shard": reply.shard, "source": reply.source,
                          "result": reply.result}
    except ClientError as error:
        raise CLIError(str(error))
    except OSError as error:
        raise CLIError(f"cannot reach service at {endpoint}: {error}")
    print(_json.dumps(output, indent=2, sort_keys=True))
    return 0


def cmd_soak(args) -> int:
    """Many-client soak against a compile front-end; JSON report out."""
    import json as _json

    from repro.serve.soak import run_soak

    from repro.workloads.specint import BENCHMARK_NAMES

    names = (args.benchmarks.split(",") if args.benchmarks
             else list(BENCHMARK_NAMES))
    cells = []
    for name in names:
        cells.extend(_warm_grid(args, name))
    if not cells:
        raise CLIError("the soak grid is empty; pass --benchmarks/--grid")
    metrics, _ = _obs_for(args)
    trace_dir, events = _fleet_obs(args)

    server = fleet = None
    if args.serve:
        from repro.serve.frontend import FrontendServer

        fleet = _open_fleet(args, metrics, trace_dir=trace_dir,
                            events=events)
        server = FrontendServer(
            fleet, args.endpoint or "tcp://127.0.0.1:0", metrics=metrics,
            trace_dir=trace_dir, events=events)
        endpoint = server.start()
        print(f"soak fleet serving on {endpoint}", file=sys.stderr)
    else:
        endpoint = _parse_endpoint_arg(_endpoint_from_args(args))
    try:
        report = run_soak(
            endpoint, cells, clients=args.clients,
            requests=args.requests, ramp_seconds=args.ramp,
            metrics=metrics, trace_dir=trace_dir,
        )
    finally:
        if server is not None:
            server.stop()
        if fleet is not None:
            fleet.close(drain=False)
        events.close()
    summary = report.as_dict()
    print(_json.dumps(summary, indent=2, sort_keys=True))
    if trace_dir:
        print(f"distributed-trace spans in {trace_dir} "
              f"(merge with: repro trace-merge {trace_dir})",
              file=sys.stderr)
    _write_obs(args, metrics)
    return 0 if report.dropped == 0 and not report.errors else 1


def cmd_top(args) -> int:
    """Live ANSI dashboard over a running fleet's STATS plane."""
    from repro.serve.top import run_top

    endpoint = _parse_endpoint_arg(_endpoint_from_args(args))
    if args.interval <= 0:
        raise CLIError("--interval must be positive")
    return run_top(endpoint, interval=args.interval,
                   iterations=args.iterations, clear=not args.no_clear)


def cmd_trace_merge(args) -> int:
    """Stitch per-process span JSONL into one Perfetto timeline."""
    from repro.obs.distributed import merge_traces

    try:
        merged = merge_traces(args.trace_dir)
    except OSError as error:
        raise CLIError(f"cannot read {args.trace_dir}: {error}")
    if not merged.spans:
        raise CLIError(f"no trace-*.jsonl spans under {args.trace_dir}")
    merged.write_chrome(args.out)
    print(f"{len(merged.spans)} span(s) across "
          f"{len(merged.services())} service(s), "
          f"{len(merged.trace_ids())} trace(s) -> {args.out} "
          f"(open in Perfetto / chrome://tracing)", file=sys.stderr)
    return 0


# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Treegion scheduling (HPCA 1998) reproduction toolkit",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_scheme=True):
        if with_scheme:
            p.add_argument("--scheme", default="treegion",
                           metavar="SPEC",
                           help="one of %s, or treegion-td:<limit>"
                                % ", ".join(SCHEME_CHOICES))
        p.add_argument("--machine", default="4U",
                       help="1U, 4U, 8U, or <N>U")
        p.add_argument("--heuristic", choices=list(HEURISTICS),
                       default="global_weight")

    def obs_flags(p, trace=True):
        p.add_argument("--metrics", default=None, metavar="FILE",
                       help="write pipeline counters as JSON to FILE")
        if trace:
            p.add_argument("--trace", default=None, metavar="FILE",
                           help="write a Chrome trace-event JSON to FILE")

    def cache_flags(p, required=False):
        p.add_argument("--cache-dir", default=None, metavar="DIR",
                       dest="cache_dir", required=required,
                       help="persistent artifact store directory "
                            "(results are cached across runs)")
        p.add_argument("--cache-max-mb", type=float, default=256.0,
                       dest="cache_max_mb", metavar="MB",
                       help="LRU size bound of the store (default: 256)")
        p.add_argument("--no-region-memo", dest="region_memo",
                       action="store_false", default=True,
                       help="disable the region-level schedule memo "
                            "(results are bit-identical either way)")

    p = sub.add_parser("compile", help="minic -> textual IR")
    p.add_argument("file")
    p.add_argument("-O", "--optimize", action="store_true",
                   help="apply classic optimizations first")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("run", help="interpret + schedule + simulate")
    p.add_argument("file")
    p.add_argument("--args", nargs="*", default=[])
    p.add_argument("-O", "--optimize", action="store_true",
                   help="apply classic optimizations first")
    common(p)
    obs_flags(p)
    cache_flags(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("schedule", help="print region schedules")
    p.add_argument("file")
    p.add_argument("--args", nargs="*", default=None,
                   help="profile the program on these arguments first")
    p.add_argument("-O", "--optimize", action="store_true",
                   help="apply classic optimizations first")
    common(p)
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("bench", help="speedups over the synthetic suite")
    p.add_argument("--benchmarks", default=None,
                   help="comma-separated subset (default: all eight)")
    p.add_argument("--schemes", default=None,
                   help="comma-separated schemes")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes (1 = serial, 0 = one per CPU)")
    p.add_argument("--timings", action="store_true",
                   help="print the stage table (self time per span) after "
                        "the speedup table")
    p.add_argument("--timings-json", default=None, metavar="FILE",
                   dest="timings_json",
                   help="write per-stage timings (and counters, with "
                        "--metrics) as JSON to FILE")
    common(p, with_scheme=False)
    obs_flags(p)
    cache_flags(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("report", help="full markdown experiment report")
    p.add_argument("--benchmarks", default=None,
                   help="comma-separated subset (default: all eight)")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes (1 = serial, 0 = one per CPU)")
    obs_flags(p)
    cache_flags(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser(
        "validate",
        help="differential validation over random seeded programs",
    )
    p.add_argument("--seeds", type=int, default=50,
                   help="number of generator seeds to check")
    p.add_argument("--start", type=int, default=0,
                   help="first seed (campaign covers start..start+seeds-1)")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes (1 = serial, 0 = one per CPU)")
    p.add_argument("--grid", default=None, metavar="SPEC",
                   help="axes, e.g. 'schemes=bb,treegion;machines=4U,8U;"
                        "heuristics=global_weight' (defaults: all schemes, "
                        "4U+8U, global_weight)")
    p.add_argument("--report-dir", default=None,
                   help="write one JSON failure report per failing seed")
    p.add_argument("--max-trials", type=int, default=3000,
                   help="shrinker budget per failure")
    p.add_argument("--no-shrink", action="store_true",
                   help="report failures without minimizing them")
    p.add_argument("--verbose", action="store_true",
                   help="print every seed, not just failures")
    obs_flags(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser(
        "trace",
        help="trace the pipeline and export Chrome trace-event JSON",
    )
    p.add_argument("file")
    p.add_argument("--out", default="trace.json", metavar="FILE",
                   help="Chrome trace-event JSON output (default: "
                        "trace.json)")
    p.add_argument("--jsonl", default=None, metavar="FILE",
                   help="also write one JSON object per span")
    p.add_argument("--metrics-out", default=None, metavar="FILE",
                   dest="metrics_out",
                   help="also write pipeline counters + timings as JSON")
    p.add_argument("--args", nargs="*", default=None,
                   help="profile the program on these arguments first")
    p.add_argument("-O", "--optimize", action="store_true",
                   help="apply classic optimizations first")
    common(p)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "lint",
        help="static IR lint and schedule-legality certification",
    )
    p.add_argument("file", nargs="?", default=None)
    p.add_argument("--corpus", action="store_true",
                   help="lint every built-in workload instead of FILE")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for --corpus "
                        "(1 = serial, 0 = one per CPU)")
    p.add_argument("--schedule", action="store_true",
                   help="also schedule the program and certify every "
                        "region schedule against the machine model")
    p.add_argument("--fail-on", choices=["error", "warning"],
                   default="error", dest="fail_on",
                   help="lowest severity that makes the exit status 1 "
                        "(default: error)")
    p.add_argument("--format", choices=["text", "json"], default="text",
                   help="diagnostic output format")
    p.add_argument("--args", nargs="*", default=None,
                   help="profile FILE on these arguments first")
    p.add_argument("-O", "--optimize", action="store_true",
                   help="apply classic optimizations first")
    common(p)
    obs_flags(p)
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser(
        "analyze",
        help="dataflow analysis: schedule-height lower bounds, "
             "flow-sensitive lint, call graph",
    )
    p.add_argument("file", nargs="?", default=None)
    p.add_argument("--corpus", action="store_true",
                   help="analyze every built-in workload instead of FILE")
    p.add_argument("--schemes", default=None,
                   help="comma-separated schemes (default: bb,treegion; "
                        "hyperblock is not supported)")
    p.add_argument("--machines", default=None,
                   help="comma-separated machines (default: 4U,8U)")
    p.add_argument("--heuristics", default=None,
                   help="comma-separated heuristics (default: all)")
    p.add_argument("--calls", action="store_true",
                   help="include the whole-program call graph")
    p.add_argument("--no-lint", action="store_true", dest="no_lint",
                   help="skip the flow-sensitive lint summary")
    p.add_argument("--format", choices=["text", "json"], default="text",
                   help="report output format")
    p.add_argument("--args", nargs="*", default=None,
                   help="profile FILE on these arguments first")
    p.add_argument("-O", "--optimize", action="store_true",
                   help="apply classic optimizations first")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser(
        "gap",
        help="optimality gap: heuristic schedule heights vs proven "
             "branch-and-bound optima; certifies the analysis bounds",
    )
    p.add_argument("file", nargs="?", default=None)
    p.add_argument("--corpus", action="store_true",
                   help="measure every built-in workload instead of FILE")
    p.add_argument("--schemes", default=None,
                   help="comma-separated schemes (default: bb,treegion; "
                        "hyperblock is not supported)")
    p.add_argument("--machines", default=None,
                   help="comma-separated machines (default: 4U,8U)")
    p.add_argument("--budget", type=int, default=None,
                   help="branch-and-bound node budget per region "
                        "(default: 50000)")
    p.add_argument("--max-ops", type=int, default=None, dest="max_ops",
                   help="skip regions with more schedulable ops")
    p.add_argument("--no-lint", action="store_true", dest="no_lint",
                   help="skip sched.* certification of exact schedules")
    p.add_argument("--format", choices=["text", "json"], default="text",
                   help="report output format")
    p.add_argument("--args", nargs="*", default=None,
                   help="profile FILE on these arguments first")
    p.add_argument("-O", "--optimize", action="store_true",
                   help="apply classic optimizations first")
    p.set_defaults(func=cmd_gap)

    p = sub.add_parser(
        "warm",
        help="prime the artifact store for a program or the suite",
    )
    p.add_argument("file", nargs="?", default=None,
                   help="program to warm (default: built-in benchmarks)")
    p.add_argument("--benchmarks", default=None,
                   help="comma-separated built-in subset (no FILE)")
    p.add_argument("--grid", default=None, metavar="SPEC",
                   help="axes, e.g. 'schemes=bb,treegion;machines=4U,8U;"
                        "heuristics=global_weight'")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for the cold cells")
    p.add_argument("--args", nargs="*", default=None,
                   help="profile FILE on these arguments first")
    p.add_argument("-O", "--optimize", action="store_true",
                   help="apply classic optimizations first")
    cache_flags(p, required=True)
    obs_flags(p)
    p.set_defaults(func=cmd_warm)

    def endpoint_flags(p):
        p.add_argument("--endpoint", default=None, metavar="URL",
                       help="unix:///path/to.sock or tcp://host:port")

    def fleet_flags(p):
        p.add_argument("--shards", type=int, default=2,
                       help="service+store shards in the fleet "
                            "(default: 2)")
        p.add_argument("--jobs", type=int, default=1,
                       help="worker processes per shard")
        p.add_argument("--batch-size", type=int, default=16,
                       dest="batch_size",
                       help="max jobs coalesced into one dispatch")
        p.add_argument("--max-pending", type=int, default=256,
                       dest="max_pending",
                       help="per-shard intake queue bound (backpressure)")
        p.add_argument("--job-timeout", type=float, default=None,
                       dest="job_timeout", metavar="SECONDS",
                       help="per-dispatch timeout before a retry")
        p.add_argument("--retries", type=int, default=2,
                       help="extra attempts for crashed/timed-out "
                            "dispatches")

    def dist_obs_flags(p):
        p.add_argument("--trace-dir", default=None, metavar="DIR",
                       dest="trace_dir",
                       help="write per-process distributed-trace span "
                            "files (trace-*.jsonl) under DIR; merge "
                            "with 'repro trace-merge DIR'")
        p.add_argument("--events-log", default=None, metavar="FILE",
                       dest="events_log",
                       help="append fleet lifecycle events (shard "
                            "start/death/restart, evictions, retries) "
                            "as size-rotated JSONL to FILE")

    p = sub.add_parser(
        "serve",
        help="compile fleet behind an asyncio front-end",
    )
    endpoint_flags(p)
    fleet_flags(p)
    cache_flags(p)
    obs_flags(p, trace=False)
    dist_obs_flags(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "client",
        help="send one request to a running 'repro serve' endpoint",
    )
    p.add_argument("file", nargs="?", default=None,
                   help="program to compile remotely")
    endpoint_flags(p)
    p.add_argument("--ping", action="store_true",
                   help="health-check the fleet")
    p.add_argument("--stats", action="store_true",
                   help="fetch fleet + store statistics")
    p.add_argument("--shutdown", action="store_true",
                   help="ask the front-end to shut down")
    p.add_argument("--timeout", type=float, default=60.0,
                   help="socket timeout in seconds")
    p.add_argument("--args", nargs="*", default=None,
                   help="profile FILE on these arguments first")
    p.add_argument("-O", "--optimize", action="store_true",
                   help="apply classic optimizations first")
    common(p)
    p.set_defaults(func=cmd_client)

    p = sub.add_parser(
        "soak",
        help="many-client load soak against a compile front-end",
    )
    endpoint_flags(p)
    p.add_argument("--serve", action="store_true",
                   help="self-host a fleet for the soak (ephemeral "
                        "tcp://127.0.0.1:0 unless --endpoint is given)")
    p.add_argument("--clients", type=int, default=32,
                   help="concurrent client connections (default: 32)")
    p.add_argument("--requests", type=int, default=None,
                   help="total requests (default: one per grid cell; "
                        "more than that measures warm traffic)")
    p.add_argument("--ramp", type=float, default=0.0, metavar="SECONDS",
                   help="stagger client start-up across this window")
    p.add_argument("--benchmarks", default=None,
                   help="comma-separated built-in subset")
    p.add_argument("--grid", default=None, metavar="SPEC",
                   help="axes, e.g. 'schemes=bb,treegion;machines=4U'")
    fleet_flags(p)
    cache_flags(p)
    obs_flags(p, trace=False)
    dist_obs_flags(p)
    p.set_defaults(func=cmd_soak)

    p = sub.add_parser(
        "top",
        help="live dashboard over a running fleet's STATS plane",
    )
    endpoint_flags(p)
    p.add_argument("--interval", type=float, default=1.0,
                   metavar="SECONDS",
                   help="poll/refresh period (default: 1.0)")
    p.add_argument("--iterations", type=int, default=None,
                   help="stop after N frames (default: run until ^C)")
    p.add_argument("--no-clear", action="store_true", dest="no_clear",
                   help="append frames instead of repainting "
                        "(pipes, CI logs)")
    p.set_defaults(func=cmd_top)

    p = sub.add_parser(
        "trace-merge",
        help="merge per-process span JSONL into one Perfetto trace",
    )
    p.add_argument("trace_dir", metavar="DIR",
                   help="directory of trace-*.jsonl files (--trace-dir "
                        "of a serve/soak run)")
    p.add_argument("-o", "--out", default="fleet_trace.json",
                   metavar="FILE",
                   help="Chrome trace-event JSON output "
                        "(default: fleet_trace.json)")
    p.set_defaults(func=cmd_trace_merge)

    p = sub.add_parser("dot", help="Graphviz CFG rendering")
    p.add_argument("file")
    p.add_argument("--function", default=None)
    p.add_argument("--regions", choices=["none", "treegion", "slr",
                                         "hyperblock"], default="treegion")
    p.add_argument("--schedule", action="store_true",
                   help="schedule the regions and annotate blocks with "
                        "cycle counts")
    common(p, with_scheme=False)
    p.set_defaults(func=cmd_dot)

    # No prefix matching: a flag a command lacks must fail, not bind to
    # a longer one (``serve --trace`` would otherwise mean --trace-dir).
    for p in sub.choices.values():
        p.allow_abbrev = False
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CLIError as error:
        print(f"repro: error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
