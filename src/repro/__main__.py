"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list``                         — list the nine benchmark designs;
* ``run <design> [--config C]``    — run the flow on one design
  (``--json`` for a machine-readable report, ``--trace-out t.json`` for a
  Chrome ``trace_event`` file, ``--verbose`` for the span tree,
  ``--jobs N`` to fan multiple configs over worker processes);
* ``trace <design> [--out t.json]`` — run the flow and export the trace;
  ``trace --request <digest>`` (or a unique digest prefix, such as the
  12 characters ``submit`` prints) instead loads the merged per-request trace
  a service compile left behind (daemon span + every worker attempt,
  partial spans of killed attempts included);
* ``profile <design> --sweep A,B,C`` — run a broadcast-factor sweep and
  rank pipeline stages by self-time, fitting each stage's scaling slope
  to flag super-linear (candidate O(n²)) hot paths;
* ``events [--follow] [--grep S]`` — query the service's structured
  event journal (``repro-event/1`` JSONL);
* ``fuzz [--count K] [--budget S]`` — differential fuzzing: generate
  seeded random dataflow programs and check the simulator against a
  sequential reference, every IR pass for metamorphic equivalence, and
  the stage cache for digest determinism; failures are shrunk to minimal
  reproducers in ``tests/fuzz_corpus/`` (exit 1 on any divergence);
* ``dse <design> [--budget N]``    — seeded population search over
  transform plans × optimization configs × clock targets
  (``--backend inline|engine|service``, ``--json`` for the full
  report; see :mod:`repro.dse`);
* ``diagnose <design>``            — broadcast classification, advice and
  the §4 fix chain (one technique turned on per step, best config last);
* ``diemap <design>``              — ASCII die map + worst broadcast net;
* ``table1 | table2 | table3``     — reproduce a table (``--jobs N``);
* ``fig9 | fig15 | fig16 | fig17 | fig19`` — reproduce a figure (``--jobs N``);
* ``all [--out report.md]``        — run every experiment, one report
  (``--json report.json`` / ``--trace-out t.json`` for structured output,
  ``--jobs N`` for a parallel run);
* ``verilog <design> <out.v>``     — emit the generated netlist as Verilog;
* ``serve``                        — run the flow-compilation daemon
  (request coalescing, content-addressed result store, fault-tolerant
  worker processes — see :mod:`repro.service`);
* ``submit <design> [--wait]``     — submit a compilation to a daemon
  (exit 0 ok, 1 failed, 3 when the daemon applies backpressure or is
  unreachable after the client's backoff retries);
* ``status [job-id]``              — query a daemon: human-readable table
  of queue depths, hit rates and uptime (``--json`` for the raw
  snapshot document).

Batch commands (``run`` with several configs, ``all``) exit nonzero when
*any* job failed, while still reporting every job that completed.

Flow-running commands accept ``--calibration PATH`` to pin the §4.1
characterization to an explicit file (built there on first use); without
it the persistent cache under ``$REPRO_CACHE_DIR`` (default
``~/.cache/repro``) is used, so only the first cold run ever pays the
~14 s characterization cost.  They also accept ``--stage-cache off`` to
disable the staged pipeline's content-addressed artifact store
(``$REPRO_CACHE_DIR/stages`` — see :mod:`repro.pipeline`), which
otherwise lets re-runs and compares skip every stage whose inputs did not
change.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import time

from repro import Flow, obs
from repro.analysis import (
    classify_design,
    diagnose,
    fix_chain,
    format_critical_path,
)
from repro.designs import build_design, design_names
from repro.engine import Engine, FlowFailure, FlowJob
from repro.errors import ReproError
from repro.opt import CONFIG_LABELS
from repro.pipeline import StageArtifactStore
from repro.service.client import DEFAULT_HOST, DEFAULT_PORT

#: ``--config`` labels (shared with the service; see repro.opt).
CONFIGS = dict(CONFIG_LABELS)


class CliUsageError(ReproError):
    """Bad command-line input; :func:`main` prints it and exits with 2."""


def _configs_for(spec: str):
    """Parse a ``--config a,b,c`` list, or fail with the valid choices."""
    labels = [label.strip() for label in spec.split(",") if label.strip()]
    if not labels:
        raise CliUsageError(
            f"--config needs at least one label; valid configs: "
            f"{', '.join(sorted(CONFIGS))}"
        )
    unknown = [label for label in labels if label not in CONFIGS]
    if unknown:
        raise CliUsageError(
            f"unknown config {', '.join(repr(u) for u in unknown)}; "
            f"valid configs: {', '.join(sorted(CONFIGS))}"
        )
    return [(label, CONFIGS[label]) for label in labels]


def _check_design(name: str, include_extra: bool = False) -> str:
    if name not in design_names(include_extra=include_extra):
        raise CliUsageError(
            f"unknown design {name!r}; valid designs: "
            f"{', '.join(design_names(include_extra=include_extra))}"
        )
    return name


def _build_design(name: str, include_extra: bool = False):
    return build_design(_check_design(name, include_extra=include_extra))


def _flow_for(args) -> Flow:
    # --stage-cache: "off" disables stage reuse, "on" forces the default
    # store even under $REPRO_STAGE_CACHE=off, unset defers to the env.
    stage_cache = getattr(args, "stage_cache", None)
    if stage_cache is not None:
        stage_cache = StageArtifactStore() if stage_cache == "on" else False
    return Flow(
        seed=args.seed,
        calibration_path=getattr(args, "calibration", None),
        stage_cache=stage_cache,
    )


def _engine_for(args) -> Engine:
    return Engine(jobs=getattr(args, "jobs", 1), flow=_flow_for(args))


def _add_flow_options(parser, jobs: bool = True) -> None:
    parser.add_argument(
        "--calibration", default=None, metavar="PATH",
        help="calibration table file (built there on first use; its stored "
             "device/seed provenance must match the run)",
    )
    parser.add_argument(
        "--stage-cache", choices=("on", "off"), default=None,
        metavar="{on,off}",
        help="stage-artifact caching under $REPRO_CACHE_DIR/stages "
             "(default: on unless $REPRO_STAGE_CACHE=off); 'off' re-runs "
             "every pipeline stage",
    )
    if jobs:
        parser.add_argument(
            "--jobs", type=int, default=1, metavar="N",
            help="worker processes for independent flow runs "
                 "(1 = in-process, 0 = one per CPU)",
        )


def _cmd_list(_args) -> int:
    from repro.experiments.paper_data import TABLE1

    for name in design_names():
        row = TABLE1[name]
        print(f"{name:18s} {row.broadcast_type:20s} paper {row.freq[0]}->{row.freq[1]} MHz")
    return 0


def _cmd_run(args) -> int:
    configs = _configs_for(args.config)
    _check_design(args.design)
    engine = _engine_for(args)
    tracer = obs.Tracer()
    with obs.activate(tracer):
        # collect_errors: one bad config point must not eat its siblings'
        # results — report everything, then exit nonzero below.
        results = engine.run_flows(
            [FlowJob.make(args.design, config, tag=label) for label, config in configs],
            collect_errors=True,
        )
    failures = [r for r in results if isinstance(r, FlowFailure)]
    successes = [r for r in results if not isinstance(r, FlowFailure)]
    if not args.json:
        for result in results:
            if isinstance(result, FlowFailure):
                print(f"repro: error: {result.describe()}", file=sys.stderr)
                continue
            print(result.summary())
            if args.verbose:
                print(format_critical_path(result.timing))
    if args.verbose and not args.json:
        print()
        print(obs.render_console(tracer))
    if args.json:
        report = obs.run_report(tracer, successes)
        if failures:
            report["failures"] = [failure.record() for failure in failures]
        print(json.dumps(report, indent=2))
    if args.trace_out:
        obs.write_chrome_trace(args.trace_out, tracer)
        print(f"wrote Chrome trace to {args.trace_out}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_trace(args) -> int:
    if args.request:
        return _cmd_trace_request(args)
    if not args.design:
        raise CliUsageError("trace needs a design (or --request <digest>)")
    configs = _configs_for(args.config)
    _check_design(args.design)
    engine = _engine_for(args)
    tracer = obs.Tracer()
    with obs.activate(tracer):
        engine.run_flows(
            [FlowJob.make(args.design, config, tag=label) for label, config in configs]
        )
    print(obs.render_console(tracer))
    out = args.out or f"{args.design}_trace.json"
    obs.write_chrome_trace(out, tracer)
    print(f"\nwrote Chrome trace to {out} "
          f"(open in chrome://tracing or https://ui.perfetto.dev)")
    return 0


def _cmd_trace_request(args) -> int:
    """Render the merged per-request trace a service compile stored."""
    from repro.service import TraceStore, rebuild_trace

    store = TraceStore()
    matches = store.resolve(args.request)
    if len(matches) > 1:
        print(
            f"repro: error: request digest prefix {args.request!r} is "
            f"ambiguous; it matches: {', '.join(matches)}",
            file=sys.stderr,
        )
        return 1
    document = store.get(matches[0]) if matches else None
    if document is None:
        print(
            f"repro: error: no stored trace for request digest "
            f"{args.request!r} (has the service compiled it?)",
            file=sys.stderr,
        )
        return 1
    digest = matches[0]
    attempts = document.get("attempts") or 0
    print(
        f"trace {document.get('trace_id')} — request {digest[:12]} "
        f"job={document.get('job_id')} state={document.get('state')} "
        f"attempts={attempts} served_from={document.get('served_from') or '-'}"
    )
    roots = rebuild_trace(document)
    for root in roots:
        print()
        print(obs.render_console(root))
    if args.out:
        tracer = obs.Tracer()
        tracer.roots = roots
        obs.write_chrome_trace(args.out, tracer)
        print(f"\nwrote Chrome trace to {args.out}")
    return 0


#: Default broadcast-factor parameter of each sweepable design (the knob
#: ``repro profile --sweep`` varies; override with ``--param``).
SWEEP_PARAMS = {
    "genome": "unroll",
    "matmul": "pes",
    "stream_buffer": "depth",
    "vector_arith": "width",
    "stencil": "iterations",
}


def _cmd_profile(args) -> int:
    _check_design(args.design, include_extra=True)
    param = args.param or SWEEP_PARAMS.get(args.design)
    if not param:
        raise CliUsageError(
            f"design {args.design!r} has no default sweep parameter; "
            f"pass --param NAME (sweepable defaults: "
            f"{', '.join(f'{d}:{p}' for d, p in sorted(SWEEP_PARAMS.items()))})"
        )
    try:
        factors = [int(v) for v in args.sweep.split(",") if v.strip()]
    except ValueError as exc:
        raise CliUsageError(f"bad --sweep list {args.sweep!r}: {exc}") from exc
    if len(factors) < 2:
        raise CliUsageError("--sweep needs at least two factors")
    if any(f <= 0 for f in factors):
        raise CliUsageError(
            f"--sweep factors must be positive, got {args.sweep!r}"
        )
    if any(b <= a for a, b in zip(factors, factors[1:])):
        raise CliUsageError(
            f"--sweep factors must be strictly increasing, got {args.sweep!r}"
        )
    if args.repeat < 1:
        raise CliUsageError("--repeat must be at least 1")
    import gc

    reports = []
    # Repeats are interleaved round-robin over the factor list so slow
    # machine phases (frequency scaling, cache pressure) hit every factor
    # equally — batching repeats per factor lets drift systematically
    # inflate the factors measured last, which reads as a fake
    # super-linear slope.
    for _rep in range(args.repeat):
        for factor in factors:
            # Fresh flow per run, stage cache off: no stage-cache hit may
            # skip the work being timed.  The collection boundary keeps
            # garbage from earlier runs out of this run's span timings.
            gc.collect()
            flow = _flow_for(args)
            tracer = obs.Tracer()
            with obs.activate(tracer):
                design = build_design(args.design, **{param: factor})
                flow.run(design, CONFIGS[args.config])
            reports.append((float(factor), obs.run_report(tracer)))
        if not args.json:
            print(
                f"profile round {_rep + 1}/{args.repeat}: "
                f"{args.design} {param} in {{{args.sweep}}} "
                f"(per-path minima kept)",
                file=sys.stderr,
            )
    threshold = (
        args.fail_on_slope
        if args.fail_on_slope is not None
        else obs.SUPERLINEAR_SLOPE
    )
    document = obs.profile_reports(reports, top=args.top, slope_threshold=threshold)
    document["design"] = args.design
    document["param"] = param
    document["config"] = args.config
    document["repeat"] = args.repeat
    if args.json:
        print(json.dumps(document, indent=2))
    else:
        print(f"{args.design} ({param} sweep, config={args.config})")
        print(obs.render_profile(document))
    if args.fail_on_slope is not None and document.get("superlinear_paths"):
        print(
            "FAIL: super-linear scaling above slope "
            f"{threshold:g}: {', '.join(document['superlinear_paths'])}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_events(args) -> int:
    from repro.delay.cache import default_cache_dir
    from repro.obs.journal import follow_events, read_events

    path = args.path or os.path.join(
        default_cache_dir(), "journal", "events.jsonl"
    )

    def render(record) -> str:
        if args.json:
            return json.dumps(record, sort_keys=True)
        stamp = time.strftime("%H:%M:%S", time.localtime(record.get("ts", 0)))
        source = record.get("source") or "?"
        pid = record.get("pid") or "-"
        skip = {"schema", "ts", "event", "pid", "source"}
        fields = " ".join(
            f"{key}={record[key]}" for key in sorted(record) if key not in skip
        )
        return f"{stamp} {source:>13s}/{pid:<7} {record.get('event', '?'):<18s} {fields}"

    if args.follow:
        needle = (args.grep or "").lower()
        try:
            for record in follow_events(path):
                if needle and needle not in json.dumps(record).lower():
                    continue
                print(render(record), flush=True)
        except KeyboardInterrupt:
            pass
        return 0
    records = read_events(path, grep=args.grep, limit=args.limit)
    if not records:
        print(f"no events in {path}", file=sys.stderr)
        return 0
    for record in records:
        print(render(record))
    return 0


def _cmd_fuzz(args) -> int:
    from repro.fuzz.harness import CHECK_GROUPS, run_campaign

    checks = tuple(
        label.strip() for label in args.checks.split(",") if label.strip()
    )
    unknown = [label for label in checks if label not in CHECK_GROUPS]
    if unknown:
        raise CliUsageError(
            f"unknown check {', '.join(repr(u) for u in unknown)}; "
            f"valid checks: {', '.join(CHECK_GROUPS)}"
        )
    if args.count < 1:
        raise CliUsageError("--count must be at least 1")
    report = run_campaign(
        seed=args.seed,
        count=args.count,
        checks=checks or CHECK_GROUPS,
        budget_s=args.budget,
        corpus_dir=args.corpus_dir,
        shrink_failures=not args.no_shrink,
        log=lambda message: print(message, file=sys.stderr),
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        rate = report.programs / report.elapsed_s if report.elapsed_s else 0.0
        print(
            f"fuzz seed={report.seed}: {report.programs}/{report.requested} "
            f"programs in {report.elapsed_s:.1f}s ({rate:.1f}/s), "
            f"checks={','.join(report.checks)}, "
            f"divergences={len(report.divergences)}"
            + (" [budget exhausted]" if report.budget_exhausted else "")
        )
        for divergence in report.divergences:
            print(f"  DIVERGENCE {divergence.summary()}")
            if divergence.corpus_path:
                print(f"    reproducer: {divergence.corpus_path}")
    return 1 if report.divergences else 0


def _cmd_diagnose(args) -> int:
    design = _build_design(args.design, include_extra=True)
    print(classify_design(design).summary())
    chain = fix_chain(design, flow=_flow_for(args))
    baseline = chain.steps[0].timing
    print()
    print(format_critical_path(baseline))
    print()
    for line in diagnose(baseline):
        print(" *", line)
    print()
    print(chain.log())
    print(chain.best.summary())
    return 0


def _parse_design_params(items) -> dict:
    """Parse repeated ``--set NAME=VALUE`` design-builder overrides."""
    params = {}
    for item in items or []:
        name, eq, value = item.partition("=")
        if not eq or not name:
            raise CliUsageError(
                f"bad --set {item!r}; expected NAME=VALUE (e.g. unroll=16)"
            )
        try:
            params[name] = int(value)
        except ValueError:
            raise CliUsageError(
                f"bad --set {item!r}; design parameters are integers"
            )
    return params


def _cmd_dse(args) -> int:
    from repro.dse import explore, make_backend

    backend = make_backend(
        args.backend,
        jobs=getattr(args, "jobs", 1),
        host=args.host,
        port=args.port,
        flow=_flow_for(args) if args.backend in ("inline", "engine") else None,
    )
    report = explore(
        _check_design(args.design, include_extra=True),
        params=_parse_design_params(args.set),
        backend=backend,
        budget=args.budget,
        seed=args.seed,
        max_generations=args.generations,
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.summary())
    return 0 if report.winner is not None else 1


def _cmd_diemap(args) -> int:
    from repro.physical.device import get_device
    from repro.physical.diemap import density_map, worst_broadcast_map
    from repro.physical.fabric import Fabric

    design = _build_design(args.design, include_extra=True)
    result = _flow_for(args).run(design, CONFIGS[args.config])
    fabric = Fabric(get_device(design.device))
    print(density_map(result.gen.netlist, result.placement, fabric))
    print()
    print(worst_broadcast_map(result.gen.netlist, result.placement, fabric))
    return 0


def _cmd_verilog(args) -> int:
    from repro.rtl.verilog import write_verilog

    design = _build_design(args.design)
    result = _flow_for(args).run(design, CONFIGS[args.config])
    write_verilog(result.gen.netlist, args.output)
    print(f"wrote {len(result.gen.netlist.cells)} cells to {args.output}")
    return 0


def _cmd_serve(args) -> int:
    from repro.service import FlowService, ResultStore, ServiceServer

    journal = None
    if args.journal:
        from repro.obs.journal import EventJournal

        journal = EventJournal(args.journal, source="daemon")
    service = FlowService(
        store=ResultStore(root=args.store_dir, max_entries=args.store_max),
        workers=args.workers,
        queue_limit=args.queue_limit,
        max_attempts=args.max_attempts,
        job_timeout_s=args.job_timeout,
        journal=journal,
    )
    server = ServiceServer(service, host=args.host, port=args.port)

    async def _main() -> None:
        await server.start()
        print(
            "repro service listening on "
            f"http://{server.host}:{server.port} "
            f"(workers={service.workers}, queue_limit={service.queue_limit}, "
            f"store={service.store.root})",
            flush=True,
        )
        try:
            await server.wait_shutdown()
        finally:
            await server.stop()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_submit(args) -> int:
    from repro.service.client import ServiceBusyError, ServiceClient, ServiceError

    client = ServiceClient(args.host, args.port)
    try:
        record = client.submit(
            args.design,
            config=args.config,
            priority=args.priority,
            wait=args.wait,
            seed=args.seed,
            calibration_path=args.calibration,
        )
    except ServiceBusyError as exc:
        print(f"repro: busy: {exc}", file=sys.stderr)
        return 3
    except ServiceError as exc:
        if exc.status == 0:
            # Unreachable even after the client's backoff retries: same
            # "try again later" contract as backpressure, not a hard fail.
            print(f"repro: error: {exc}", file=sys.stderr)
            return 3
        if exc.payload and exc.payload.get("state") == "failed":
            error = exc.payload.get("error") or {}
            print(
                f"repro: error: job {exc.payload.get('id')} failed: "
                f"{error.get('error_type')}: {error.get('error')}",
                file=sys.stderr,
            )
        else:
            print(f"repro: error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(record, indent=2))
    else:
        label = f"{record['id']} {record['design']}[{record['config']}]"
        if record["state"] == "done":
            summary = record.get("summary", {})
            fmax = summary.get("fmax_mhz")
            fmax_text = f" Fmax={fmax:.0f}MHz" if fmax else ""
            print(
                f"{label} done via {record.get('served_from')}{fmax_text} "
                f"digest={record['digest'][:12]}"
            )
        else:
            print(
                f"{label} {record['state']} ({record.get('submitted_as')}) "
                f"digest={record['digest'][:12]}"
            )
    return 0


def _cmd_status(args) -> int:
    from repro.service.client import ServiceClient, ServiceError

    client = ServiceClient(args.host, args.port)
    try:
        document = client.job(args.job_id) if args.job_id else client.status()
    except ServiceError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 3 if exc.status == 0 else 1
    if args.json or args.job_id:
        print(json.dumps(document, indent=2))
        return 0
    print(_render_status_table(document))
    return 0


def _format_uptime(seconds: float) -> str:
    seconds = max(0, int(seconds))
    hours, rest = divmod(seconds, 3600)
    minutes, secs = divmod(rest, 60)
    if hours:
        return f"{hours}h {minutes:02d}m {secs:02d}s"
    if minutes:
        return f"{minutes}m {secs:02d}s"
    return f"{secs}s"


def _render_status_table(document) -> str:
    """The human view of a daemon snapshot: queue depths, hit rates,
    uptime, recent jobs.  (``--json`` prints the raw snapshot instead.)"""
    queue = document.get("queue", {})
    by_priority = queue.get("by_priority", {})
    counters = document.get("metrics", {}).get("counters", {})
    hits = counters.get("service.result_hits", 0)
    compiles = counters.get("service.compiles", 0)
    skipped = counters.get("service.stages_skipped", 0)
    ran = counters.get("service.stages_run", 0)

    def rate(part, whole) -> str:
        return f"{100.0 * part / whole:.0f}%" if whole else "-"

    rows = [
        ("uptime", _format_uptime(document.get("uptime_s", 0))),
        (
            "queue",
            f"{queue.get('depth', 0)}/{queue.get('limit', 0)} "
            f"(high {by_priority.get('high', 0)} / "
            f"normal {by_priority.get('normal', 0)} / "
            f"low {by_priority.get('low', 0)})",
        ),
        ("inflight", str(document.get("inflight", 0))),
        ("workers", str(document.get("workers", 0))),
        (
            "result store",
            f"{document.get('store', {}).get('entries', 0)} entries "
            f"(hit rate {rate(hits, hits + compiles)})",
        ),
        (
            "compiles",
            f"{compiles} (store hits {hits}, "
            f"coalesced {counters.get('service.coalesced', 0)})",
        ),
        (
            "stage cache",
            f"skipped {skipped} / ran {ran} "
            f"(warm {rate(skipped, skipped + ran)})",
        ),
        (
            "faults",
            f"retries {counters.get('service.retries', 0)}, "
            f"crashes {counters.get('service.crashes', 0)}, "
            f"timeouts {counters.get('service.timeouts', 0)}, "
            f"quarantined {counters.get('service.quarantined', 0)}, "
            f"rejected {counters.get('service.rejected', 0)}",
        ),
    ]
    lines = [f"{label:<14s} {value}" for label, value in rows]
    jobs = document.get("jobs", [])
    if jobs:
        lines.append("")
        lines.append(
            f"{'job':>9s}  {'design[config]':<28s} {'state':<9s} "
            f"{'att':>3s}  {'served from':<12s} trace"
        )
        for job in jobs:
            label = f"{job['design']}[{job['config']}]"
            trace_id = job.get("trace_id") or "-"
            lines.append(
                f"{job['id']:>9s}  {label:<28s} {job['state']:<9s} "
                f"{job['attempts']:>3d}  {job.get('served_from') or '-':<12s} "
                f"{trace_id}"
            )
    return "\n".join(lines)


def _experiment_command(name: str):
    def run(args) -> int:
        import repro.experiments as exp

        runner = getattr(exp, f"run_{name}")
        formatter = getattr(exp, f"format_{name}")
        print(formatter(runner(engine=_engine_for(args))))
        return 0

    return run


def main(argv=None) -> int:
    from repro.dse.backends import BACKEND_NAMES

    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    parser.add_argument("--seed", type=int, default=2020)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list benchmark designs").set_defaults(fn=_cmd_list)

    p_run = sub.add_parser("run", help="run the flow on one design")
    p_run.add_argument("design", choices=design_names())
    p_run.add_argument("--config", default="orig,full")
    p_run.add_argument("--verbose", action="store_true")
    p_run.add_argument(
        "--json", action="store_true",
        help="print a machine-readable run report instead of summaries",
    )
    p_run.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write a Chrome trace_event JSON of the run(s) to PATH",
    )
    _add_flow_options(p_run)
    p_run.set_defaults(fn=_cmd_run)

    p_trace = sub.add_parser(
        "trace",
        help="run the flow and export a Chrome trace, or inspect a "
        "stored service trace (--request)",
    )
    p_trace.add_argument("design", nargs="?", default=None, choices=design_names())
    p_trace.add_argument(
        "--request", default=None, metavar="DIGEST",
        help="show the merged per-request trace stored by the service "
        "for this request digest (or a unique prefix of it, such as the "
        "12 characters `repro submit` prints) instead of running the flow",
    )
    p_trace.add_argument("--config", default="orig,full")
    p_trace.add_argument(
        "--out", default=None, metavar="PATH",
        help="trace output path (default <design>_trace.json)",
    )
    _add_flow_options(p_trace)
    p_trace.set_defaults(fn=_cmd_trace)

    p_prof = sub.add_parser(
        "profile",
        help="rank flow hot paths by self-time over a parameter sweep",
    )
    p_prof.add_argument("design", choices=design_names(include_extra=True))
    p_prof.add_argument(
        "--sweep", required=True, metavar="A,B,...",
        help="comma-separated parameter values (at least two distinct), "
        "e.g. --sweep 1,2,4,8",
    )
    p_prof.add_argument(
        "--param", default=None, metavar="NAME",
        help="design parameter to sweep (default: the design's scale "
        "knob, e.g. unroll for genome)",
    )
    p_prof.add_argument("--config", default="full", choices=sorted(CONFIGS))
    p_prof.add_argument(
        "--top", type=int, default=10, metavar="K",
        help="number of hot paths to show (default 10)",
    )
    p_prof.add_argument(
        "--repeat", type=int, default=3, metavar="N",
        help="runs per factor; per-path minimum self-times are kept "
        "(default 3) — min-of-N suppresses scheduler and collector noise",
    )
    p_prof.add_argument(
        "--fail-on-slope", type=float, default=None, metavar="X",
        help="exit 1 when any path's fitted scaling exponent exceeds X "
        "(CI gate against super-linear regressions)",
    )
    p_prof.add_argument("--json", action="store_true")
    _add_flow_options(p_prof, jobs=False)
    # Profiling measures this run's wall clock; stage-cache hits would
    # replay stages in ~0ms and skip the very work being measured, so
    # default the cache off.
    p_prof.set_defaults(fn=_cmd_profile, stage_cache="off")

    p_events = sub.add_parser(
        "events", help="read or follow the structured event journal"
    )
    p_events.add_argument(
        "--path", default=None, metavar="FILE",
        help="journal path (default $REPRO_CACHE_DIR/journal/events.jsonl)",
    )
    p_events.add_argument(
        "--follow", action="store_true", help="tail the journal (Ctrl-C to stop)"
    )
    p_events.add_argument(
        "--grep", default=None, metavar="TEXT",
        help="only events whose JSON rendering contains TEXT",
    )
    p_events.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="only the last N matching events",
    )
    p_events.add_argument("--json", action="store_true")
    p_events.set_defaults(fn=_cmd_events)

    p_fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzzing: random programs vs reference, passes, cache",
    )
    # SUPPRESS keeps the global --seed (before the subcommand) working while
    # also accepting the more natural `repro fuzz --seed N` spelling.
    p_fuzz.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    p_fuzz.add_argument(
        "--count", type=int, default=50, metavar="K",
        help="number of programs to generate (default 50)",
    )
    p_fuzz.add_argument(
        "--budget", type=float, default=None, metavar="S",
        help="wall-clock budget in seconds; stop generating when exceeded",
    )
    p_fuzz.add_argument(
        "--checks", default="oracle,passes,cache", metavar="A,B,...",
        help="check groups to run: oracle, passes, cache "
             "(default: all three)",
    )
    p_fuzz.add_argument(
        "--corpus-dir", default=os.path.join("tests", "fuzz_corpus"),
        metavar="DIR",
        help="where shrunk reproducers are written "
             "(default tests/fuzz_corpus)",
    )
    p_fuzz.add_argument(
        "--no-shrink", action="store_true",
        help="report divergences without minimizing them first",
    )
    p_fuzz.add_argument("--json", action="store_true")
    p_fuzz.set_defaults(fn=_cmd_fuzz)

    p_diag = sub.add_parser(
        "diagnose", help="broadcast classification, advice and the §4 fix chain"
    )
    p_diag.add_argument("design", choices=design_names(include_extra=True))
    _add_flow_options(p_diag, jobs=False)
    p_diag.set_defaults(fn=_cmd_diagnose)

    p_dse = sub.add_parser(
        "dse",
        help="design-space exploration: seeded population search over "
        "transform plans, configs and clock targets",
    )
    p_dse.add_argument("design", choices=design_names(include_extra=True))
    p_dse.add_argument(
        "--backend", default="inline", choices=BACKEND_NAMES,
        help="where compiles run: this process, engine worker processes, "
        "or a flow-service daemon (default inline)",
    )
    p_dse.add_argument(
        "--budget", type=int, default=24, metavar="N",
        help="maximum number of flow compiles (coalesced, duplicate and "
        "pruned points are free; default 24)",
    )
    p_dse.add_argument(
        "--seed", type=int, default=argparse.SUPPRESS, metavar="N",
        help="search + compile seed (same as the global --seed; "
        "default 2020)",
    )
    p_dse.add_argument(
        "--generations", type=int, default=8, metavar="N",
        help="maximum mutation rounds after generation 0 (default 8)",
    )
    p_dse.add_argument(
        "--set", action="append", default=[], metavar="NAME=VALUE",
        help="design-builder parameter override (repeatable)",
    )
    p_dse.add_argument("--host", default="127.0.0.1")
    p_dse.add_argument(
        "--port", type=int, default=9321,
        help="service daemon port (default 9321)",
    )
    p_dse.add_argument(
        "--json", action="store_true",
        help="print the full machine-readable report",
    )
    _add_flow_options(p_dse)
    p_dse.set_defaults(fn=_cmd_dse)

    p_map = sub.add_parser("diemap", help="ASCII die map + worst broadcast")
    p_map.add_argument("design", choices=design_names(include_extra=True))
    p_map.add_argument("--config", default="orig", choices=sorted(CONFIGS))
    _add_flow_options(p_map, jobs=False)
    p_map.set_defaults(fn=_cmd_diemap)

    p_v = sub.add_parser("verilog", help="emit generated netlist as Verilog")
    p_v.add_argument("design", choices=design_names())
    p_v.add_argument("output")
    p_v.add_argument("--config", default="full", choices=sorted(CONFIGS))
    _add_flow_options(p_v, jobs=False)
    p_v.set_defaults(fn=_cmd_verilog)

    for exp_name in ("table1", "table2", "table3", "fig9", "fig15", "fig16", "fig17", "fig19"):
        p_exp = sub.add_parser(exp_name, help=f"reproduce {exp_name}")
        _add_flow_options(p_exp)
        p_exp.set_defaults(fn=_experiment_command(exp_name))

    p_all = sub.add_parser("all", help="run every experiment, print one report")
    p_all.add_argument("--out", default=None, help="also write the report here")
    p_all.add_argument(
        "--json", default=None, metavar="PATH",
        help="write a machine-readable report of every flow run to PATH",
    )
    p_all.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write a Chrome trace_event JSON of every flow run to PATH",
    )
    _add_flow_options(p_all)

    def _cmd_all(args) -> int:
        from repro.experiments.summary import run_all

        tracer = obs.Tracer()
        with obs.activate(tracer):
            report = run_all(engine=_engine_for(args))
        text = report.render()
        print(text)
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(text + "\n")
        if args.json:
            with open(args.json, "w") as handle:
                json.dump(obs.run_report(tracer), handle, indent=2)
                handle.write("\n")
            print(f"wrote flow-run report to {args.json}")
        if args.trace_out:
            obs.write_chrome_trace(args.trace_out, tracer)
            print(f"wrote Chrome trace to {args.trace_out}")
        if report.failures:
            for name, error in sorted(report.failures.items()):
                print(f"repro: error: {name} failed: {error}", file=sys.stderr)
            return 1
        return 0

    p_all.set_defaults(fn=_cmd_all)

    p_serve = sub.add_parser(
        "serve", help="run the flow-compilation daemon (see repro.service)"
    )
    p_serve.add_argument("--host", default=DEFAULT_HOST)
    p_serve.add_argument("--port", type=int, default=DEFAULT_PORT)
    p_serve.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="concurrent worker processes (default 2)",
    )
    p_serve.add_argument(
        "--queue-limit", type=int, default=32, metavar="N",
        help="max queued jobs before submissions get HTTP 429 (default 32)",
    )
    p_serve.add_argument(
        "--max-attempts", type=int, default=3, metavar="N",
        help="retry budget for crashed/hung workers (default 3)",
    )
    p_serve.add_argument(
        "--job-timeout", type=float, default=600.0, metavar="S",
        help="per-job wall-clock budget in seconds (default 600)",
    )
    p_serve.add_argument(
        "--store-max", type=int, default=256, metavar="N",
        help="result-store entry cap before LRU eviction (default 256)",
    )
    p_serve.add_argument(
        "--store-dir", default=None, metavar="DIR",
        help="result-store directory (default $REPRO_CACHE_DIR/results)",
    )
    p_serve.add_argument(
        "--journal", default=None, metavar="PATH",
        help="event-journal file (default $REPRO_CACHE_DIR/journal/"
        "events.jsonl)",
    )
    p_serve.set_defaults(fn=_cmd_serve)

    p_submit = sub.add_parser(
        "submit", help="submit one compilation to a running daemon"
    )
    p_submit.add_argument("design", choices=design_names(include_extra=True))
    p_submit.add_argument("--config", default="orig", choices=sorted(CONFIGS))
    p_submit.add_argument(
        "--priority", default="normal", choices=("high", "normal", "low")
    )
    p_submit.add_argument(
        "--wait", action="store_true", help="block until the job finishes"
    )
    p_submit.add_argument("--json", action="store_true")
    p_submit.add_argument("--host", default=DEFAULT_HOST)
    p_submit.add_argument("--port", type=int, default=DEFAULT_PORT)
    _add_flow_options(p_submit, jobs=False)
    p_submit.set_defaults(fn=_cmd_submit)

    p_status = sub.add_parser("status", help="query a running daemon")
    p_status.add_argument(
        "job_id", nargs="?", default=None, help="job id (omit for the overview)"
    )
    p_status.add_argument("--json", action="store_true")
    p_status.add_argument("--host", default=DEFAULT_HOST)
    p_status.add_argument("--port", type=int, default=DEFAULT_PORT)
    p_status.set_defaults(fn=_cmd_status)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CliUsageError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
