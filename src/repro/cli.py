"""Command-line interface.

``python -m repro`` (or the ``seacma`` console script) runs the pipeline
against a simulated world and emits the paper's tables, defense feeds
and exported datasets.

Subcommands::

    seacma run       --preset tiny --seed 7 --days 2 [--fault-rate P]
                     [--no-retries] [--no-milking] [--out DIR]
                     [--store-dir DIR] [--workers K] [--fsync]
                     [--trace-dir DIR] [--metrics]
    seacma resume    STORE_DIR --days 2 [--no-milking]
                     [--workers K] [--fsync]
                     [--trace-dir DIR] [--metrics]
    seacma tables    --preset tiny --seed 7 --days 2 [--from-store DIR]
    seacma feeds     --preset tiny --seed 7 --days 2
    seacma report    --preset tiny --seed 7 --days 2 [--from-store DIR]
    seacma trace     summarize TRACE_DIR
    seacma store     check STORE_DIR
    seacma feed      serve STORE_DIR [--host H] [--port N]
                     [--serve-workers N] [--checkpoint-interval K]
    seacma feed      pull  STORE_DIR [--since N] [--json]
    seacma feed      lag   STORE_DIR [--cohorts N] [--clients-per-cohort N]
                     [--poll-minutes F] [--fault-rate P] [--fleet-seed N]
                     [--poll-jitter F]
    seacma selfcheck --preset small

``run`` is one streaming loop: every finished publisher domain feeds
the incremental analysis stages while the crawl goes on, and
``--store-dir`` persists the run into a store directory as it goes;
``resume`` continues a run whose process died mid-crawl; ``tables`` and
``report`` with ``--from-store`` regenerate their output offline from a
stored run without re-crawling anything.  ``run --workers K`` executes
the crawl across K worker processes (byte-identical results to
``--workers 1``); ``--fault-rate`` injects deterministic transient
faults.  ``--trace-dir`` records a telemetry trace (``spans.jsonl``,
Chrome ``trace.json``, ``metrics.prom``) without changing a single
output byte; ``--metrics`` prints the metrics registry after the run;
``trace summarize`` aggregates a recorded trace offline.  ``--fsync``
additionally fsyncs every store write (the paranoid durability mode;
off by default).  ``store check`` validates a run store end to end —
repairing torn tails, rolling back uncommitted write intents, and
printing per-stream record counts — and exits non-zero on corruption
that crash recovery cannot explain.

Publisher pages are derived on demand into a bounded cache, so
populations of 10k+ publishers run in bounded memory.

The ``feed`` group works against the versioned blocklist a streamed,
milking-enabled run published into its store: ``feed serve`` mounts it
behind an HTTP API — the precomputed-payload asyncio engine, optionally
replicated across ``--serve-workers`` SO_REUSEPORT processes, with
delta-chain compaction tuned by
``--checkpoint-interval`` — ``feed pull`` performs one snapshot/delta
poll in-process (``--since`` gives the client's current version,
``--json`` dumps the raw payload), and ``feed lag`` replays a simulated
client fleet against the publication timeline and prints the
protection-lag table (with p50/p95/p99 lag and serving-latency
percentiles) comparing the feed to the simulated Safe Browsing
blacklist.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import pathlib
import sys

from repro import SeacmaPipeline, WorldConfig, build_world
from repro.errors import ConfigError, StoreError
from repro.analysis.export import export_milking_report, write_crawl_dataset
from repro.analysis.feeds import (
    build_domain_feed,
    build_gateway_feed,
    build_phone_feed,
    feed_vs_gsb,
)
from repro.core import reports
from repro.core.milking import MilkingConfig

_PRESETS = {
    "tiny": WorldConfig.tiny,
    "small": WorldConfig.small,
    "paper": WorldConfig.paper_scale,
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="seacma",
        description="SEACMA campaign discovery & tracking (IMC'19 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "run the pipeline and optionally export datasets"),
        ("tables", "run the pipeline and print Tables 1-4"),
        ("feeds", "run the pipeline and print the defense feeds"),
        ("report", "run the pipeline and print a full markdown report"),
        ("selfcheck", "build a world and validate its structural invariants"),
    ):
        command = sub.add_parser(name, help=help_text)
        command.add_argument("--preset", choices=sorted(_PRESETS), default="tiny")
        command.add_argument("--seed", type=int, default=7)
        command.add_argument("--days", type=float, default=2.0, help="milking days")
        if name != "selfcheck":
            command.add_argument(
                "--fault-rate",
                type=float,
                default=0.0,
                help="per-fetch transient-fault injection probability",
            )
            command.add_argument(
                "--no-retries",
                action="store_true",
                help="disable the retry/resume machinery (degraded mode)",
            )
        if name == "run":
            command.add_argument("--out", type=pathlib.Path, default=None)
            command.add_argument("--no-milking", action="store_true")
            command.add_argument(
                "--store-dir",
                type=pathlib.Path,
                default=None,
                help="persist the run into this store directory",
            )
            command.add_argument(
                "--workers",
                type=int,
                default=1,
                help="crawl worker processes (results are byte-identical "
                "to --workers 1)",
            )
            command.add_argument(
                "--fsync",
                action="store_true",
                help="fsync every store write (durability against power "
                "loss, not just process death)",
            )
            _add_telemetry_arguments(command)
        if name in ("tables", "report"):
            command.add_argument(
                "--from-store",
                type=pathlib.Path,
                default=None,
                help="regenerate offline from a stored run (skips the crawl)",
            )
    resume = sub.add_parser(
        "resume", help="continue an interrupted streaming run from its store"
    )
    resume.add_argument("store_dir", type=pathlib.Path)
    resume.add_argument("--days", type=float, default=2.0, help="milking days")
    resume.add_argument("--no-milking", action="store_true")
    resume.add_argument(
        "--workers", type=int, default=1, help="crawl worker processes"
    )
    resume.add_argument(
        "--fsync",
        action="store_true",
        help="fsync every store write while resuming",
    )
    _add_telemetry_arguments(resume)
    store = sub.add_parser(
        "store", help="inspect and repair durable run stores"
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)
    check = store_sub.add_parser(
        "check",
        help="validate a run store, repairing recoverable crash damage",
    )
    check.add_argument("store_dir", type=pathlib.Path)
    trace = sub.add_parser(
        "trace", help="inspect a telemetry trace written by --trace-dir"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    summarize = trace_sub.add_parser(
        "summarize", help="aggregate a trace directory per span name"
    )
    summarize.add_argument("trace_dir", type=pathlib.Path)
    feed = sub.add_parser(
        "feed", help="serve and measure a stored run's blocklist feed"
    )
    feed_sub = feed.add_subparsers(dest="feed_command", required=True)
    serve = feed_sub.add_parser(
        "serve", help="serve the stored feed over HTTP (foreground)"
    )
    serve.add_argument("store_dir", type=pathlib.Path)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8337, help="listen port (0 = ephemeral)"
    )
    serve.add_argument(
        "--serve-workers",
        type=int,
        default=1,
        help="SO_REUSEPORT worker replicas "
        "(this process plus N-1 forked workers on the same port)",
    )
    serve.add_argument(
        "--checkpoint-interval",
        type=int,
        default=None,
        help="delta-chain compaction spacing in versions (default 8): "
        "clients further behind than this are caught up via checkpoint "
        "deltas instead of one near-full-size delta",
    )
    pull = feed_sub.add_parser(
        "pull", help="perform one feed poll against the stored history"
    )
    pull.add_argument("store_dir", type=pathlib.Path)
    pull.add_argument(
        "--since",
        type=int,
        default=None,
        help="feed version the client already holds (omitted = fresh client)",
    )
    pull.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="print the raw response payload instead of the summary",
    )
    lag = feed_sub.add_parser(
        "lag",
        help="replay a simulated client fleet and print protection lag vs GSB",
    )
    lag.add_argument("store_dir", type=pathlib.Path)
    lag.add_argument("--cohorts", type=int, default=20)
    lag.add_argument("--clients-per-cohort", type=int, default=50_000)
    lag.add_argument(
        "--poll-minutes", type=float, default=30.0, help="client poll interval"
    )
    lag.add_argument(
        "--fault-rate",
        type=float,
        default=0.0,
        help="per-poll transient-fault injection probability",
    )
    lag.add_argument(
        "--fleet-seed", type=int, default=0, help="fleet randomness seed"
    )
    lag.add_argument(
        "--poll-jitter",
        type=float,
        default=0.0,
        help="per-client poll-time jitter as a fraction of the poll "
        "interval (0 keeps the exact grid; 0.5 spreads each poll "
        "uniformly across half an interval, seeded and deterministic)",
    )
    return parser


def _add_telemetry_arguments(command: argparse.ArgumentParser) -> None:
    command.add_argument(
        "--trace-dir",
        type=pathlib.Path,
        default=None,
        help="record a telemetry trace into this directory "
        "(spans.jsonl, Chrome trace.json, metrics.prom); outputs are "
        "byte-identical with or without tracing",
    )
    command.add_argument(
        "--metrics",
        action="store_true",
        help="print the metrics registry (Prometheus text) after the run",
    )


def _run_pipeline(args):
    # Built first: a bad --days fails before the world does any work.
    milking_config = _milking_config(args)
    config = _PRESETS[args.preset](seed=args.seed)
    fault_rate = getattr(args, "fault_rate", 0.0)
    if fault_rate:
        config = dataclasses.replace(config, fault_rate=fault_rate)
    world = build_world(config)
    pipeline = SeacmaPipeline(
        world,
        milking_config=milking_config,
        retries_enabled=not getattr(args, "no_retries", False),
    )
    with_milking = not getattr(args, "no_milking", False)
    telemetry = _activate_telemetry(args, world)
    try:
        store = contextlib.nullcontext()
        if getattr(args, "store_dir", None) is not None:
            from repro.store import JsonlStore

            store = JsonlStore(
                args.store_dir,
                run_id=f"{args.preset}-{args.seed}",
                fsync=args.fsync,
            )
        with store as opened:
            result = pipeline.run_streaming(
                store=opened,
                with_milking=with_milking,
                workers=getattr(args, "workers", 1),
            )
    finally:
        if telemetry is not None:
            from repro.telemetry import deactivate

            deactivate()
    return world, result, telemetry


def _activate_telemetry(args, world):
    """Install a process Telemetry when the run asked for one."""
    if getattr(args, "trace_dir", None) is None and not getattr(
        args, "metrics", False
    ):
        return None
    from repro.telemetry import Telemetry, activate

    return activate(Telemetry(world.clock))


def _report_telemetry(args, telemetry) -> None:
    """Post-run telemetry output: trace bundle and/or metrics text."""
    if telemetry is None:
        return
    trace_dir = getattr(args, "trace_dir", None)
    if trace_dir is not None:
        files = telemetry.export(trace_dir)
        spans = len(telemetry.tracer.spans) + len(telemetry.tracer.adopted)
        print(
            f"trace written to {trace_dir}/ ({spans} spans: "
            + ", ".join(sorted(path.name for path in files.values()))
            + ")"
        )
    if getattr(args, "metrics", False):
        print(telemetry.metrics.to_prometheus(), end="")


def _milking_config(args) -> MilkingConfig:
    return MilkingConfig(
        duration_days=args.days, post_lookup_days=min(args.days, 12.0)
    )


def _resume(args) -> int:
    from repro.store import JsonlStore
    from repro.store.persist import load_world

    milking_config = _milking_config(args)
    with JsonlStore.open(args.store_dir, fsync=args.fsync) as store:
        world = load_world(store)
        pipeline = SeacmaPipeline(world, milking_config=milking_config)
        telemetry = _activate_telemetry(args, world)
        try:
            result = pipeline.resume_streaming(
                store,
                with_milking=not args.no_milking,
                workers=args.workers,
            )
        finally:
            if telemetry is not None:
                from repro.telemetry import deactivate

                deactivate()
    print(
        f"resumed run {store.run_id}: {result.crawl.publishers_visited} publishers "
        f"crawled in total, {len(result.crawl.interactions)} ads, "
        f"{len(result.discovery.seacma_campaigns)} SEACMA campaigns"
    )
    _report_telemetry(args, telemetry)
    return 0


def _load_stored(path):
    from repro.store import JsonlStore
    from repro.store.persist import load_result, load_world

    with JsonlStore.open(path) as store:
        return load_world(store), load_result(store)


def _print_tables(world, result) -> None:
    now = world.clock.now()
    print(reports.render_table(reports.table1(result.discovery, world.gsb, now), "TABLE 1"))
    print("")
    print(reports.render_table(reports.table2(result.discovery, world.webpulse), "TABLE 2"))
    print("")
    print(reports.render_table(reports.table3(result.attribution, result.discovery, world.networks), "TABLE 3"))
    if result.milking is not None:
        print("")
        print(reports.render_table(reports.table4(result.milking), "TABLE 4"))


def _print_feeds(world, result) -> None:
    if result.milking is None:
        print("no milking report; feeds unavailable")
        return
    domains = build_domain_feed(result.milking)
    comparison = feed_vs_gsb(domains, world.gsb)
    print(f"domain feed: {len(domains)} indicators")
    print(f"  GSB never lists {comparison.only_in_feed} of them "
          f"({100 * comparison.exclusive_fraction:.1f}% exclusive coverage)")
    if comparison.mean_head_start_days is not None:
        print(f"  mean head start over GSB: {comparison.mean_head_start_days:.1f} days")
    phones = build_phone_feed(result.milking)
    print(f"phone feed: {phones.values()}")
    gateways = build_gateway_feed(result.milking)
    print(f"gateway feed: {len(gateways)} URLs")


def main(argv: list[str] | None = None) -> int:
    """CLI entry point.

    Operational errors (missing or damaged run stores, bad
    configuration) are reported as one-line messages on stderr with a
    non-zero exit code — no tracebacks for predictable failures.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "workers", 1) < 1:
        parser.error("--workers must be at least 1")
    try:
        return _dispatch(args)
    except (StoreError, ConfigError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def _feed(args) -> int:
    from repro.feed import (
        NOT_MODIFIED,
        AsyncFeedHTTPServer,
        FeedClientFleet,
        FeedRequest,
        FeedServer,
        FleetConfig,
        lag_table,
    )
    from repro.feed.payloads import CHECKPOINT_INTERVAL
    from repro.store import JsonlStore
    from repro.store.persist import load_world

    with JsonlStore.open(args.store_dir) as store:
        checkpoint_interval = getattr(args, "checkpoint_interval", None)
        if checkpoint_interval is not None and checkpoint_interval < 1:
            raise ConfigError("--checkpoint-interval must be at least 1")
        server = FeedServer.from_store(
            store,
            checkpoint_interval=(
                checkpoint_interval if checkpoint_interval is not None
                else CHECKPOINT_INTERVAL
            ),
        )
        world = load_world(store) if args.feed_command == "lag" else None
    latest = server.latest
    if args.feed_command == "serve":
        if args.serve_workers < 1:
            raise ConfigError("--serve-workers must be at least 1")
        httpd = AsyncFeedHTTPServer(
            server, host=args.host, port=args.port, workers=args.serve_workers
        )
        print(
            f"serving feed v{latest.version} ({len(latest)} entries) "
            f"at {httpd.url}/v1/feed [asyncio, {args.serve_workers} replica(s)]"
        )
        try:
            httpd.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            httpd.shutdown()
        return 0
    if args.feed_command == "pull":
        response = server.handle(FeedRequest(client_version=args.since))
        if args.as_json:
            sys.stdout.write(response.payload.decode("utf-8"))
            if response.payload:
                sys.stdout.write("\n")
            return 0
        print(
            f"{response.status}: v{response.version} "
            f"hash={response.content_hash[:12] or '-'} "
            f"bytes={response.size}"
        )
        if response.status != NOT_MODIFIED:
            print(
                f"history: {len(server.snapshots)} versions, "
                f"latest has {len(latest)} entries"
            )
        return 0
    # lag
    config = FleetConfig(
        cohorts=args.cohorts,
        clients_per_cohort=args.clients_per_cohort,
        poll_interval_minutes=args.poll_minutes,
        fault_rate=args.fault_rate,
        seed=args.fleet_seed,
        poll_jitter_fraction=args.poll_jitter,
    )
    fleet = FeedClientFleet(server, config, gsb=world.gsb)
    report = fleet.run()
    print(
        f"fleet: {report.modeled_clients} modeled clients in "
        f"{config.cohorts} cohorts, {report.polls} polls "
        f"({report.modeled_requests} modeled requests, "
        f"{report.failed_attempts} faulted attempts)"
    )
    print(
        f"feed: {len(server.snapshots)} versions, "
        f"{len(report.protection)} protected domains"
    )
    print("")
    print(reports.render_table(lag_table(report), "PROTECTION LAG"))
    lag_pct = report.lag_percentiles()
    if lag_pct["count"]:
        print(
            f"\nprotection lag percentiles (min, {lag_pct['count']} "
            f"cohort-domain samples): "
            f"p50={lag_pct['p50']:.1f} p95={lag_pct['p95']:.1f} "
            f"p99={lag_pct['p99']:.1f} max={lag_pct['max']:.1f}"
        )
    latency = report.latency_percentiles()
    if latency["count"]:
        print(
            f"serving latency percentiles (ms, wall): "
            f"p50={latency['p50']:.3f} p95={latency['p95']:.3f} "
            f"p99={latency['p99']:.3f}"
        )
    head_start = report.mean_head_start_days()
    if head_start is not None:
        print(
            f"\nmean head start over GSB: {head_start:.1f} days "
            f"(GSB ever lists {100 * report.gsb_listed_fraction():.1f}%)"
        )
    return 0


def _store_check(args) -> int:
    """``seacma store check``: validate (and repair) a run store.

    Recoverable crash damage — torn tails and an uncommitted write
    intent, cut back to the byte sizes its journal record holds — is
    repaired and reported.  Damage a crash cannot explain (a corrupt
    interior record, a stream shorter than its journaled size) raises
    :class:`~repro.errors.StoreError`, which :func:`main` turns into a
    one-line stderr message and exit code 2.
    """
    from repro.store import JsonlStore

    with JsonlStore.open(args.store_dir) as store:
        recovery = store.last_recovery
        counts = store.check()
    status = "clean" if recovery.clean else "repaired"
    print(f"run {store.run_id!r} at {args.store_dir}: {status}")
    for stream, torn in sorted(recovery.torn_tails.items()):
        print(f"  repaired torn tail: {stream} ({torn} bytes trimmed)")
    if recovery.intent_rolled_back is not None:
        dropped = ", ".join(
            f"{stream}: {count}"
            for stream, count in sorted(recovery.records_rolled_back.items())
        )
        print(
            f"  rolled back uncommitted intent "
            f"{recovery.intent_rolled_back!r}"
            + (f" ({dropped})" if dropped else "")
        )
    for stream in recovery.streams_removed:
        print(f"  removed stream born inside the rolled-back intent: {stream}")
    print("  streams:")
    for stream, count in sorted(counts.items()):
        print(f"    {stream:<14} {count:>8} records")
    return 0


def _dispatch(args) -> int:
    if args.command == "resume":
        return _resume(args)
    if args.command == "store":
        return _store_check(args)
    if args.command == "feed":
        return _feed(args)
    if args.command == "trace":
        from repro.telemetry.summarize import render_summary, summarize_trace

        print(render_summary(summarize_trace(args.trace_dir)))
        return 0
    if args.command == "selfcheck":
        world = build_world(_PRESETS[args.preset](seed=args.seed))
        issues = world.self_check()
        if issues:
            for issue in issues:
                print(f"FAIL: {issue}")
            return 1
        print(
            f"world ok: {len(world.publishers)} publishers, "
            f"{len(world.campaigns)} campaigns, {len(world.networks)} networks"
        )
        return 0
    telemetry = None
    if getattr(args, "from_store", None) is not None:
        world, result = _load_stored(args.from_store)
    else:
        world, result, telemetry = _run_pipeline(args)
    if args.command == "tables":
        _print_tables(world, result)
    elif args.command == "feeds":
        _print_feeds(world, result)
    elif args.command == "report":
        from repro.analysis.reportgen import generate_report

        print(generate_report(world, result))
    else:  # run
        print(
            f"crawled {result.crawl.publishers_visited} publishers, "
            f"{len(result.crawl.interactions)} ads, "
            f"{len(result.discovery.seacma_campaigns)} SEACMA campaigns"
        )
        if result.crawl.residential_dropped:
            print(
                f"residential cap: {result.crawl.residential_dropped} "
                "residential-group domains not visited (bandwidth budget)"
            )
        if args.store_dir is not None:
            print(f"run store written to {args.store_dir}/")
        if result.milking is not None:
            print(
                f"milking: {len(result.milking.domains)} domains, "
                f"{len(result.milking.files)} files"
            )
        if result.fault_stats is not None:
            print(f"faults: {result.fault_stats.summary()}")
            print(
                reports.render_table(
                    reports.fault_health(result.fault_stats), "FAULT HEALTH"
                )
            )
        if args.out is not None:
            args.out.mkdir(parents=True, exist_ok=True)
            with (args.out / "crawl.json").open("w") as handle:
                write_crawl_dataset(result.crawl.interactions, handle)
            if result.milking is not None:
                (args.out / "milking.json").write_text(
                    export_milking_report(result.milking)
                )
            print(f"datasets written to {args.out}/")
        _report_telemetry(args, telemetry)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
