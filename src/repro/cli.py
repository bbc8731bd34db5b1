"""Command-line interface: run experiments, generate and replay traces.

Usage (installed, or ``python -m repro``):

    python -m repro info
    python -m repro experiment table2 --fast
    python -m repro experiment all
    python -m repro trace word --out word.trace --scale 16 --ops 10
    python -m repro replay word.trace --solution deltacfs
    python -m repro replay word.trace --metrics --trace-out trace.jsonl
    python -m repro inspect trace.jsonl --attribution
    python -m repro experiment table2 fig8 fig9 --fast --bench-json bench_out/
    python -m repro check
    python -m repro check --traces trace.jsonl crash-trace.jsonl
    python -m repro fleet --clients 10000 --shards 8 --arrival bursty
    python -m repro fleet --curve --bench-json bench_out/
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from typing import List, Optional

from repro.common.config import SYNC_POLICIES
from repro.metrics.report import format_bytes, format_table, format_tue


def _cmd_info(_args) -> int:
    import repro

    print(f"DeltaCFS reproduction v{repro.__version__}")
    print(__doc__.strip().splitlines()[0])
    print("\nsubsystems:")
    for name, role in [
        ("repro.core", "the DeltaCFS client engine (the paper's contribution)"),
        ("repro.server", "the cloud: versioned store, conflicts, fan-out"),
        ("repro.vfs", "virtual file system + operation interception (FUSE role)"),
        ("repro.delta", "rsync / bitwise rsync / patch"),
        ("repro.chunking", "rolling, strong, fixed, content-defined chunking"),
        ("repro.kvstore", "WAL-backed KV store (LevelDB role)"),
        ("repro.net", "wire protocol + accounted simulated WAN"),
        ("repro.cost", "calibrated CPU-tick model"),
        ("repro.baselines", "Dropbox / Seafile / NFS / Dropsync re-implementations"),
        ("repro.workloads", "paper traces + filebench op streams"),
        ("repro.faults", "corruption & crash-inconsistency injection"),
        ("repro.harness", "per-table/figure experiment drivers"),
    ]:
        print(f"  {name:18s} {role}")
    return 0


def _write_bench_doc(directory: str, name: str, doc) -> None:
    """Emit a prebuilt ``BENCH_<name>.json`` document into ``directory``."""
    import json
    import os

    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"BENCH_{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


def _cmd_experiment(args) -> int:
    """Run the selected rows of ``repro.harness.experiments.EXPERIMENTS``."""
    from repro.harness.experiments import EXPERIMENTS
    from repro.metrics.collector import bench_doc

    bench_dir = args.bench_json
    benched_any = False
    for name, experiment in EXPERIMENTS.items():
        if name not in args.name and "all" not in args.name:
            continue
        results = experiment.run(args.fast)
        print(f"\n=== {experiment.title} ===")
        print(experiment.render(results))
        if bench_dir and experiment.metrics is not None:
            _write_bench_doc(bench_dir, name, bench_doc(name, experiment.metrics(results)))
            benched_any = True

    if args.wall:
        from repro.harness.wallclock import wallclock_snapshot

        snap = wallclock_snapshot()
        context = snap["context"]
        print(
            f"\n=== wall-clock lane (measured, median of "
            f"{context['repeats']}; {context['input_mb']} MB inputs, "
            f"{context['block_size']} B blocks) ==="
        )
        print(
            format_table(
                ["lane", "fast MB/s", "ref MB/s", "speedup"],
                [
                    [
                        lane,
                        f"{info['fast_mb_per_s']:.1f}",
                        f"{info['ref_mb_per_s']:.2f}",
                        f"{snap['metrics'][lane + '/speedup']:.1f}x",
                    ]
                    for lane, info in sorted(context["lanes"].items())
                ],
            )
        )
        if bench_dir:
            _write_bench_doc(bench_dir, "wallclock", snap)
            benched_any = True

    if bench_dir and not benched_any:
        print(
            f"--bench-json: {'/'.join(args.name)} has no gate metrics to snapshot "
            f"(--help lists the RunResult/Table III experiments that do)",
            file=sys.stderr,
        )
        return 2
    return 0


def _cmd_fleet(args) -> int:
    """Fleet-scale virtual-time simulation against the sharded cloud."""
    from repro.harness.fleet import (
        FLEET_CURVE,
        FleetSpec,
        bench_doc,
        fleet_curve,
        run_fleet,
    )

    if args.trace_out and args.clients > 2000 and not args.curve:
        print(
            "--trace-out records every pipeline event; cap --clients "
            "at 2000 for a recordable run",
            file=sys.stderr,
        )
        return 2
    if args.health_out and (args.curve or args.bench_json):
        print(
            "--health-out writes one fleet's report; --curve and "
            "--bench-json run four, so drop --health-out or run one spec",
            file=sys.stderr,
        )
        return 2

    def show(results) -> None:
        print(format_table(
            [
                "clients", "shards", "arrival", "writes",
                "p50 s", "p99 s", "max s",
                "shard ticks max", "peak q", "up",
            ],
            [[
                r.spec.n_clients,
                r.spec.n_shards,
                r.spec.arrival,
                r.writes,
                f"{r.p50_latency:.3f}",
                f"{r.p99_latency:.3f}",
                f"{r.max_latency:.3f}",
                f"{max(r.shard_ticks):.3f}",
                max(r.shard_queue_peak),
                format_bytes(r.total_up_bytes),
            ] for r in results],
        ))

    with _obs_session(args) as session:
        if session is None:
            return 1
        obs, finish_trace = session
        if args.curve or args.bench_json:
            results = fleet_curve(FLEET_CURVE, obs=obs)
            show(results)
            if args.bench_json:
                _write_bench_doc(args.bench_json, "fleet", bench_doc(results))
        else:
            spec = FleetSpec(
                n_clients=args.clients,
                n_shards=args.shards,
                writes_per_client=args.writes_per_client,
                arrival=args.arrival,
                mean_gap=args.mean_gap,
                burst_every=args.burst_every,
                tick_seconds=args.tick_seconds,
                seed=args.seed,
                window_seconds=args.window_seconds,
                slo_seconds=args.slo,
                stall_horizon=args.stall_horizon,
            )
            try:
                spec.validate()
            except ValueError as exc:
                print(f"bad fleet spec: {exc}", file=sys.stderr)
                return 2
            results = [run_fleet(spec, obs=obs)]
            show(results)
        if args.health or args.health_out:
            reports = [r.health() for r in results]
            for report in reports:
                _print_health(report)
            if args.health_out:
                rc = _write_health_doc(args.health_out, reports[-1])
                if rc:
                    return rc
        finish_trace()
    if args.metrics:
        print()
        print(obs.report())
    return 0


def _print_health(report) -> None:
    """Render one health report (fleet or trace) as a table."""
    from repro.obs.health import ATTAINMENT_TARGET

    verdict = "HEALTHY" if report.healthy else "UNHEALTHY"
    print(f"\nhealth ({report.kind}): {verdict} — "
          f"attainment {report.attainment:.4f} of slo {report.slo_seconds:g}s "
          f"(target {ATTAINMENT_TARGET:.2f}), "
          f"{report.total_stalls} stalls, "
          f"{report.total_regressions} regressed windows")
    print(format_table(
        ["shard", "writes", "p50 s", "p90 s", "p99 s", "max s",
         "slo", "stalls", "windows", "regressed"],
        [[s.shard, s.writes, f"{s.p50:.3f}", f"{s.p90:.3f}",
          f"{s.p99:.3f}", f"{s.max_latency:.3f}", f"{s.slo_attainment:.4f}",
          s.stalls, s.windows,
          ",".join(str(w) for w in s.regressed_windows) or "-"]
         for s in report.shards],
    ))


def _write_health_doc(path: str, report) -> int:
    """Self-check and write a health report as JSON; nonzero on problems."""
    import json as _json

    from repro.obs.health import validate_health_doc

    doc = report.to_dict()
    problems = validate_health_doc(doc)
    if problems:
        print("health doc failed self-check: " + "; ".join(problems),
              file=sys.stderr)
        return 1
    try:
        with open(path, "w", encoding="utf-8") as fh:
            _json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        print(f"cannot write health report to {path!r}: {exc}",
              file=sys.stderr)
        return 1
    print(f"wrote {path}: health report (self-check passed)")
    return 0


def _cmd_trace(args) -> int:
    from repro.workloads import (
        append_write_trace,
        gedit_trace,
        random_write_trace,
        wechat_trace,
        word_trace,
    )
    from repro.workloads.traceio import save_trace_file

    factories = {
        "append": lambda: append_write_trace(scale=args.scale, appends=args.ops),
        "random": lambda: random_write_trace(scale=args.scale, writes=args.ops),
        "word": lambda: word_trace(scale=args.scale, saves=args.ops),
        "wechat": lambda: wechat_trace(scale=args.scale, modifications=args.ops),
        "gedit": lambda: gedit_trace(saves=args.ops),
    }
    factory = factories.get(args.workload)
    if factory is None:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    trace = factory()
    save_trace_file(trace, args.out)
    print(
        f"wrote {args.out}: {len(trace.ops)} ops, "
        f"{format_bytes(trace.stats.bytes_written)} written, "
        f"{format_bytes(trace.stats.update_bytes)} logical update"
    )
    return 0


@contextmanager
def _obs_session(args):
    """The observability hub a run's ``--trace-out``/``--metrics`` ask for.

    Observability is opt-in: without either flag the run uses NULL_OBS
    and is byte-identical to an uninstrumented run. ``--trace-out``
    streams each record to the file as it happens (no buffering); the
    yielded ``finish_trace()`` then appends a metrics snapshot record so
    `repro inspect` can reconcile and export OpenMetrics from the one
    file, and the file is closed on exit. Yields ``(obs, finish_trace)``,
    or ``None`` after reporting that the trace file cannot be opened.
    """
    from repro.obs import NULL_OBS, Observability, Tracer
    from repro.obs.export import write_snapshot_record

    if not args.trace_out:
        yield (Observability() if args.metrics else NULL_OBS), lambda: None
        return
    try:
        sink = open(args.trace_out, "w", encoding="utf-8")
    except OSError as exc:
        print(f"cannot write trace to {args.trace_out!r}: {exc}",
              file=sys.stderr)
        yield None
        return
    obs = Observability(tracer=Tracer(sink=sink))

    def finish_trace() -> None:
        write_snapshot_record(sink, obs.metrics, obs.clock.now())
        print(f"\nwrote {args.trace_out}: {obs.tracer.records_recorded} "
              f"trace records + metrics snapshot")

    with sink:
        yield obs, finish_trace


def _replay_with_crash(args, trace, journal_kv, obs, faults, config=None) -> int:
    """Replay with a simulated crash after op ``--crash-at N``.

    The same measured run as ``run_trace`` whose replay phase runs the
    first N ops, restarts the client (a new one over the surviving disk,
    link and KVs), runs ``recover()``, then finishes the trace. Prints the
    recovery report next to the usual traffic summary so a user can see
    what the journal bought them.
    """
    from dataclasses import replace

    from repro.harness.runner import build_system, measured_run
    from repro.workloads.traces import replay

    n = args.crash_at
    if not 0 <= n <= len(trace.ops):
        print(f"--crash-at {n} out of range (trace has {len(trace.ops)} ops)",
              file=sys.stderr)
        return 2
    system = build_system(
        "deltacfs", config=config, obs=obs, faults=faults,
        fault_seed=args.fault_seed, journal_kv=journal_kv,
    )
    with measured_run(system, trace, obs) as pump:
        replay(replace(trace, ops=trace.ops[:n]), system.fs, system.clock, pump=pump)
        report = system.restart().recover()
        replay(replace(trace, ops=trace.ops[n:]), system.fs, system.clock, pump=pump)

    print(f"crashed after op {n}/{len(trace.ops)}; "
          f"{len(report.dirty_paths)} dirty file(s) at the cut")
    print(f"recovery: {report.nodes_replayed} node(s) replayed, "
          f"{report.nodes_already_applied} already applied, "
          f"{report.blocks_repaired} block(s) repaired "
          f"({format_bytes(report.bytes_downloaded)} down), "
          f"{report.full_file_fallbacks} full-file fallback(s)")
    print(f"total traffic: up {format_bytes(system.channel.stats.up_bytes)}  "
          f"down {format_bytes(system.channel.stats.down_bytes)}")
    if args.metrics:
        print()
        print(obs.report())
    return 0


def _cmd_replay(args) -> int:
    from repro.faults.network import NO_FAULTS, NetworkFaults
    from repro.harness.runner import SOLUTIONS, run_trace
    from repro.workloads.traceio import load_trace_file

    if args.solution not in SOLUTIONS:
        print(f"unknown solution {args.solution!r}; pick one of {SOLUTIONS}",
              file=sys.stderr)
        return 2
    if args.journal is not None and args.solution != "deltacfs":
        print("--journal requires --solution deltacfs (the journaled client)",
              file=sys.stderr)
        return 2
    if args.crash_at is not None and args.journal is None:
        print("--crash-at requires --journal (recovery replays the journal)",
              file=sys.stderr)
        return 2
    config = None
    if args.delta_backend is not None or args.sync_policy is not None:
        if args.solution != "deltacfs":
            print("--delta-backend/--sync-policy require --solution deltacfs "
                  "(the policy-driven client)", file=sys.stderr)
            return 2
        from repro.common.config import DeltaCFSConfig
        from repro.delta.backends import get_backend

        config = DeltaCFSConfig()
        if args.delta_backend is not None:
            config.delta_backend = args.delta_backend
        if args.sync_policy is not None:
            config.sync_policy = args.sync_policy
        try:
            config.validate()
            get_backend(config.delta_backend)
        except ValueError as exc:
            print(f"bad sync config: {exc}", file=sys.stderr)
            return 2
    faults = NO_FAULTS
    if args.loss_rate or args.dup_rate or args.reorder_rate:
        if args.solution != "deltacfs":
            print("fault injection (--loss-rate/--dup-rate/--reorder-rate) "
                  "requires --solution deltacfs (the reliable transport)",
                  file=sys.stderr)
            return 2
        try:
            faults = NetworkFaults(
                drop_prob=args.loss_rate,
                dup_prob=args.dup_rate,
                reorder_prob=args.reorder_rate,
            )
            faults.validate()
        except ValueError as exc:
            print(f"bad fault plan: {exc}", file=sys.stderr)
            return 2
    try:
        trace = load_trace_file(args.trace)
    except (OSError, ValueError) as exc:
        print(f"cannot read trace {args.trace!r}: {exc}", file=sys.stderr)
        return 2
    with _obs_session(args) as session:
        if session is None:
            return 1
        obs, finish_trace = session
        journal_kv = None
        if args.journal is not None:
            from repro.kvstore.kv import LogStructuredKV

            # sync=True: the journal only helps if the records survive the
            # crash, so every append is fsynced.
            journal_kv = LogStructuredKV(args.journal, sync=True)
        if args.crash_at is not None:
            rc = _replay_with_crash(args, trace, journal_kv, obs, faults, config)
            if rc == 0:
                finish_trace()
            return rc
        result = run_trace(
            args.solution, trace, config=config, obs=obs, faults=faults,
            fault_seed=args.fault_seed, journal_kv=journal_kv,
        )
        finish_trace()
    print(
        format_table(
            ["trace", "solution", "cli CPU", "srv CPU", "up", "down", "TUE"],
            [[
                result.trace,
                result.solution,
                f"{result.client_ticks:.1f}",
                f"{result.server_ticks:.1f}",
                format_bytes(result.up_bytes),
                format_bytes(result.down_bytes),
                format_tue(result.tue),
            ]],
        )
    )
    if args.metrics:
        print()
        print(obs.report())
    return 0


def _cmd_inspect(args) -> int:
    """Offline analysis of a recorded JSONL trace (see repro.obs.analyze)."""
    from repro.obs.analyze import (
        AttributionError,
        TraceFormatError,
        attribute_uplink,
        critical_path,
        event_counts,
        load_trace,
        span_rollup,
    )
    from repro.obs.export import (
        check_openmetrics,
        to_openmetrics,
        write_chrome_trace,
    )
    from repro.obs.render import Distributions, distribution_table

    label = args.trace
    try:
        doc = load_trace(label)
    except OSError as exc:
        print(f"cannot read {label!r}: {exc}", file=sys.stderr)
        return 2
    except TraceFormatError as exc:
        print(f"{label}: {exc}", file=sys.stderr)
        return 2

    rc = 0
    targeted = (args.attribution or args.chrome_out or args.openmetrics_out
                or args.health or args.health_out)
    if args.summary or not targeted:
        rollup = span_rollup(doc)
        print(f"{label}: {len(doc.spans)} spans, "
              f"{len(doc.point_events())} events"
              + (", metrics snapshot embedded" if doc.snapshot else ""))
        if rollup:
            print()
            print(format_table(
                ["span", "count", "total s", "self s", "open"],
                [[r.name, r.count, f"{r.total:.3f}", f"{r.self_time:.3f}",
                  r.truncated or ""] for r in rollup],
            ))
        path = critical_path(doc)
        if path:
            print("\ncritical path (longest span chain):")
            for depth, span in enumerate(path):
                print(f"  {'  ' * depth}{span.name}  {span.duration:.3f}s"
                      + ("  [unclosed]" if span.truncated else ""))
        counts = event_counts(doc)
        if counts:
            print()
            print(format_table(
                ["event", "count"], [[name, n] for name, n in counts]
            ))
        table = distribution_table(Distributions.of_trace(doc))
        if table:
            print()
            print(table)

    if args.attribution:
        attribution = attribute_uplink(doc)
        print("\nuplink cost attribution (measured window):")
        print(format_table(
            ["path", "mechanism", "bytes", "msgs"],
            [[r.path or "(protocol)", r.mechanism, format_bytes(r.bytes),
              r.messages] for r in attribution.rows],
        ))
        print()
        print(format_table(
            ["mechanism", "bytes"],
            [[m, format_bytes(b)]
             for m, b in sorted(attribution.by_mechanism().items(),
                                key=lambda kv: -kv[1])],
        ))
        print(f"\ntotal attributed: {attribution.total_bytes} B"
              + (f"  (+ {attribution.preload_bytes} B preload, excluded)"
                 if attribution.preload_bytes else ""))
        try:
            attribution.reconcile()
        except AttributionError as exc:
            print(f"attribution drift: {exc}", file=sys.stderr)
            rc = 1
        else:
            print("reconciled: attribution total matches the recorded "
                  "channel.up.bytes exactly")

    if args.chrome_out:
        n = write_chrome_trace(doc.records, args.chrome_out)
        print(f"\nwrote {args.chrome_out}: {n} Chrome trace events "
              f"(load in Perfetto / chrome://tracing)")

    if args.openmetrics_out:
        if doc.snapshot is None:
            print("trace has no metrics snapshot record; re-record with "
                  "--trace-out (the CLI appends one)", file=sys.stderr)
            return 2
        text = to_openmetrics(doc.snapshot.get("metrics", {}))
        problems = check_openmetrics(text)
        if problems:
            print("OpenMetrics self-check failed: " + "; ".join(problems),
                  file=sys.stderr)
            return 1
        with open(args.openmetrics_out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"\nwrote {args.openmetrics_out}: OpenMetrics exposition "
              f"(self-check passed)")

    if args.health or args.health_out:
        from repro.obs.health import health_from_trace

        try:
            report = health_from_trace(doc)
        except ValueError as exc:
            print(f"cannot report health: {exc}", file=sys.stderr)
            return 2
        _print_health(report)
        if args.health_out:
            health_rc = _write_health_doc(args.health_out, report)
            if health_rc:
                return health_rc

    return rc


def _cmd_check(args) -> int:
    """Static lint + trace invariant verification (see repro.check)."""
    import json as _json
    import os

    from repro.check import (
        CheckConfig,
        gate,
        human_report,
        lint_paths,
        report_results,
        results_to_findings,
        verify_trace,
    )
    from repro.check.findings import FindingSummary, severity_rank
    from repro.obs.analyze import TraceFormatError, load_trace

    try:
        severity_rank(args.fail_on)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    lint_findings = []
    if not args.no_lint:
        paths = args.paths
        if not paths:
            import repro

            paths = [os.path.dirname(os.path.abspath(repro.__file__))]
        config = CheckConfig(only=tuple(args.only or ()))
        lint_findings = lint_paths(paths, config=config)
    findings = list(lint_findings)

    trace_results = {}
    for trace_path in args.traces or ():
        try:
            doc = load_trace(trace_path)
        except OSError as exc:
            print(f"cannot read {trace_path!r}: {exc}", file=sys.stderr)
            return 2
        except TraceFormatError as exc:
            print(f"{trace_path}: {exc}", file=sys.stderr)
            return 2
        results = verify_trace(doc)
        trace_results[trace_path] = results
        findings.extend(results_to_findings(results, trace_path))

    if args.sarif:
        from repro.check import sarif_json

        try:
            with open(args.sarif, "w", encoding="utf-8") as handle:
                handle.write(sarif_json(findings) + "\n")
        except OSError as exc:
            print(f"cannot write SARIF log to {args.sarif!r}: {exc}",
                  file=sys.stderr)
            return 2

    failed = gate(findings, fail_on=args.fail_on)
    if args.json:
        from dataclasses import asdict

        payload = {
            "findings": [asdict(f) for f in findings],
            "invariants": {
                path: [asdict(r) for r in results]
                for path, results in trace_results.items()
            },
            "summary": asdict(FindingSummary.of(findings)),
            "failed": failed,
        }
        print(_json.dumps(payload, indent=2, sort_keys=True))
    else:
        if not args.no_lint:
            print(human_report(lint_findings,
                               show_suppressed=args.show_suppressed))
        for trace_path, results in trace_results.items():
            print()
            print(report_results(results, trace_path))
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro", description="DeltaCFS reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="show the package inventory").set_defaults(
        func=_cmd_info
    )

    from repro.harness.experiments import EXPERIMENTS
    from repro.harness.fleet import FleetSpec

    gated = "/".join(n for n, e in EXPERIMENTS.items() if e.metrics is not None)
    experiment = sub.add_parser("experiment", help="regenerate a paper table/figure")
    experiment.add_argument(
        "name", nargs="+", choices=[*EXPERIMENTS, "all"],
        help="one or more experiments; they share one run matrix, so "
             "`table2 fig8 fig9` costs what `table2` costs",
    )
    experiment.add_argument("--fast", action="store_true", help="reduced op counts")
    experiment.add_argument(
        "--wall", action="store_true",
        help="also run the measured wall-clock lane (fast vs reference "
             "engines, real MB/s; see docs/performance.md)",
    )
    experiment.add_argument(
        "--bench-json", metavar="DIR", default=None,
        help="also write BENCH_<name>.json snapshot(s) into DIR for "
             f"tools/bench_gate.py ({gated}, "
             "and BENCH_wallclock.json with --wall)",
    )
    experiment.set_defaults(func=_cmd_experiment)

    spec = FleetSpec()  # the one place the fleet defaults are written
    fleet = sub.add_parser(
        "fleet",
        help="virtual-time fleet simulation against the sharded cloud "
             "(see docs/fleet.md)",
    )
    fleet.add_argument("--clients", type=int, default=spec.n_clients,
                       help=f"simulated clients (default {spec.n_clients})")
    fleet.add_argument("--shards", type=int, default=spec.n_shards,
                       help="CloudServer shards behind the router")
    fleet.add_argument("--writes-per-client", type=int,
                       default=spec.writes_per_client)
    fleet.add_argument("--arrival", choices=["poisson", "bursty"],
                       default=spec.arrival,
                       help="independent exponential gaps, or synchronized "
                            "waves that stress shard queues")
    fleet.add_argument("--mean-gap", type=float, default=spec.mean_gap,
                       help="poisson: mean seconds between one client's writes")
    fleet.add_argument("--burst-every", type=float, default=spec.burst_every,
                       help="bursty: seconds between waves")
    fleet.add_argument("--tick-seconds", type=float, default=spec.tick_seconds,
                       help="virtual seconds of shard-core time per modelled "
                            "CPU tick (wimpy-core scale factor)")
    fleet.add_argument("--seed", type=int, default=spec.seed)
    fleet.add_argument(
        "--curve", action="store_true",
        help="run the committed scaling curve instead of a single spec",
    )
    fleet.add_argument(
        "--bench-json", metavar="DIR", default=None,
        help="run the committed curve and write BENCH_fleet.json into DIR "
             "for tools/bench_gate.py",
    )
    fleet.add_argument(
        "--metrics", action="store_true",
        help="print the observability metrics report after the run",
    )
    fleet.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="write the structured event trace as JSONL to PATH "
             "(small fleets only; feeds `repro check --traces`)",
    )
    fleet.add_argument(
        "--health", action="store_true",
        help="print the per-shard SLO health report (attainment, stalls, "
             "window-over-window p99 regressions)",
    )
    fleet.add_argument(
        "--slo", type=float, default=spec.slo_seconds, metavar="SECONDS",
        help="sync-latency objective: a write meets the SLO when its "
             f"latency is at or under this (default {spec.slo_seconds})",
    )
    fleet.add_argument(
        "--window-seconds", type=float, default=spec.window_seconds,
        metavar="SECONDS",
        help="telemetry rollup window width in virtual seconds "
             f"(default {spec.window_seconds:g})",
    )
    fleet.add_argument(
        "--stall-horizon", type=float, default=spec.stall_horizon,
        metavar="SECONDS",
        help="a write whose sync takes longer than this counts as a stall "
             f"(default {spec.stall_horizon:g})",
    )
    fleet.add_argument(
        "--health-out", metavar="PATH", default=None,
        help="write the health report as schema-checked JSON to PATH "
             "(nonzero exit when the self-check fails)",
    )
    fleet.set_defaults(func=_cmd_fleet)

    trace = sub.add_parser("trace", help="generate and save a workload trace")
    trace.add_argument("workload", choices=["append", "random", "word", "wechat", "gedit"])
    trace.add_argument("--out", required=True)
    trace.add_argument("--scale", type=int, default=32)
    trace.add_argument("--ops", type=int, default=10,
                       help="saves/modifications/appends, per workload")
    trace.set_defaults(func=_cmd_trace)

    replay = sub.add_parser("replay", help="replay a saved trace through a sync system")
    replay.add_argument("trace")
    replay.add_argument("--solution", default="deltacfs")
    replay.add_argument(
        "--metrics",
        action="store_true",
        help="print the observability metrics report after the run",
    )
    replay.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="write the structured event trace as JSONL to PATH",
    )
    replay.add_argument(
        "--delta-backend", default=None, metavar="NAME",
        help="delta encoder the client uses when a delta triggers "
             "(bitwise/rsync/cdc-shingle; deltacfs only, see "
             "docs/delta-backends.md)",
    )
    replay.add_argument(
        "--sync-policy", default=None,
        choices=SYNC_POLICIES,
        help="mechanism-selection policy: static (paper behaviour), "
             "cost-model (online RPC-vs-delta scoring), or the bounding "
             "policies (deltacfs only)",
    )
    replay.add_argument(
        "--loss-rate", type=float, default=0.0, metavar="P",
        help="drop each uplink/downlink message with probability P "
             "(deltacfs only; engages the reliable transport)",
    )
    replay.add_argument(
        "--dup-rate", type=float, default=0.0, metavar="P",
        help="duplicate each delivered message with probability P",
    )
    replay.add_argument(
        "--reorder-rate", type=float, default=0.0, metavar="P",
        help="delay each delivered message past later sends with probability P",
    )
    replay.add_argument(
        "--fault-seed", type=int, default=0,
        help="seed for the fault plan and retransmit jitter (identical "
             "seeds reproduce identical schedules)",
    )
    replay.add_argument(
        "--journal", metavar="PATH", default=None,
        help="attach a crash-recovery journal (fsynced WAL at PATH; "
             "deltacfs only)",
    )
    replay.add_argument(
        "--crash-at", type=int, default=None, metavar="N",
        help="kill the client after trace op N, recover from the journal, "
             "then finish the trace (requires --journal)",
    )
    replay.set_defaults(func=_cmd_replay)

    inspect = sub.add_parser(
        "inspect", help="analyze a recorded JSONL trace offline"
    )
    inspect.add_argument(
        "trace", help="trace.jsonl from replay/fleet --trace-out",
    )
    inspect.add_argument(
        "--summary", action="store_true",
        help="span rollup + critical path + event counts (default when no "
             "other output is requested)",
    )
    inspect.add_argument(
        "--attribution", action="store_true",
        help="attribute every uplink byte to (path, mechanism) and "
             "reconcile against the recorded totals (nonzero exit on drift)",
    )
    inspect.add_argument(
        "--chrome-out", metavar="PATH", default=None,
        help="export spans/events as Chrome trace-event JSON to PATH",
    )
    inspect.add_argument(
        "--openmetrics-out", metavar="PATH", default=None,
        help="export the embedded metrics snapshot as OpenMetrics text to PATH",
    )
    inspect.add_argument(
        "--health", action="store_true",
        help="print the SLO health report of the trace: a fleet trace's "
             "rebuilt from its run record and completions, any other's "
             "from ship-to-accept latencies",
    )
    inspect.add_argument(
        "--health-out", metavar="PATH", default=None,
        help="write the --health report as schema-checked JSON to PATH",
    )
    inspect.set_defaults(func=_cmd_inspect)

    check = sub.add_parser(
        "check",
        help="lint the source tree and verify protocol invariants over "
             "recorded traces (see docs/static-analysis.md)",
    )
    check.add_argument(
        "paths", nargs="*",
        help="files/directories to lint (default: the installed repro "
             "package)",
    )
    check.add_argument(
        "--traces", nargs="+", metavar="JSONL", default=None,
        help="JSONL trace file(s) from replay --trace-out to verify "
             "against the invariant catalog",
    )
    check.add_argument(
        "--no-lint", action="store_true",
        help="skip the static lint layer (verify traces only)",
    )
    check.add_argument(
        "--only", nargs="+", metavar="RULE", default=None,
        help="run only the named lint rule ids (e.g. DET001 OBS001)",
    )
    check.add_argument(
        "--fail-on", default="warning",
        choices=["advice", "warning", "error"],
        help="minimum severity that makes the run exit nonzero "
             "(default: warning)",
    )
    check.add_argument(
        "--show-suppressed", action="store_true",
        help="include findings silenced by reprolint comments in the report",
    )
    check.add_argument(
        "--json", action="store_true",
        help="emit the findings + invariant results as one JSON document",
    )
    check.add_argument(
        "--sarif", metavar="PATH", default=None,
        help="also write the findings as a SARIF 2.1.0 log to PATH",
    )
    check.set_defaults(func=_cmd_check)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
