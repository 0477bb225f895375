"""Command-line interface: simulate → resolve → query/serve → pedigree.

The CLI mirrors the SNAPS deployment split: ``resolve`` runs the offline
phase and saves a pedigree graph; ``query`` and ``pedigree`` answer one
request per process from that file, and ``serve`` keeps the graph and
indexes loaded to answer many over HTTP (see ``repro.serve``).
``simulate`` and ``anonymise`` manage datasets.

Examples::

    python -m repro simulate --dataset ios --scale 0.1 --out data/ios
    python -m repro resolve  --data data/ios --out data/ios.graph.json
    python -m repro query    --graph data/ios.graph.json \
        --first-name mary --surname macdonald --top 5
    python -m repro serve    --graph data/ios.graph.json --port 8080
    python -m repro pedigree --graph data/ios.graph.json \
        --entity 42 --format gedcom
    python -m repro anonymise --data data/ios --out data/ios-anon

Snapshots (``repro.store``) persist the complete offline output so the
online commands warm-start without rebuilding anything, and new data
batches fold in incrementally::

    python -m repro resolve  --data data/ios --snapshot-out data/store
    python -m repro serve    --snapshot data/store --port 8080
    python -m repro query    --snapshot data/store \
        --first-name mary --surname macdonald
    python -m repro snapshot ingest --store data/store --data data/delta
    python -m repro snapshot log    --store data/store
    python -m repro snapshot verify --store data/store

Streaming (``repro.stream``) keeps a replica fresh continuously: spool
micro-batch CSV pairs into a directory and ``stream`` validates,
ingests, and promotes each one into the serving process with zero
downtime (crash-safe; re-running resumes exactly once)::

    python -m repro serve  --snapshot data/store --port 8080
    python -m repro stream --spool data/spool --store data/store \
        --serve-url http://localhost:8080

Telemetry: ``resolve`` and ``query`` accept ``--trace`` (print the span
tree after the run) and ``--metrics-out run.json`` (write the full run
report); ``report`` renders a saved report; ``-v/-vv`` before the
subcommand turns on INFO/DEBUG logging on stderr::

    python -m repro -v resolve --data data/ios --out ios.graph.json \
        --trace --metrics-out run.json
    python -m repro report run.json
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SNAPS family-pedigree search (EDBT 2022 reproduction)",
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="log progress to stderr (-v INFO, -vv DEBUG)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_telemetry_flags(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--trace", action="store_true",
            help="print the span tree and metrics after the run",
        )
        command.add_argument(
            "--metrics-out", metavar="PATH",
            help="write the run report (spans + metrics) as JSON",
        )
        command.add_argument(
            "--trace-out", metavar="PATH",
            help="stream every closed span to a JSONL trace file as the "
            "run progresses (crash-safe with SNAPS_OBS=durable)",
        )
        command.add_argument(
            "--trace-memory", action="store_true",
            help="also capture tracemalloc peaks per span (slower)",
        )
        command.add_argument(
            "--profile", action="store_true",
            help="sample Python stacks during the run (also via "
            "SNAPS_PROFILE=1) and add a top-N table to the run report",
        )
        command.add_argument(
            "--profile-out", metavar="PATH",
            help="write collapsed-stack (flamegraph) profile output here",
        )

    simulate = sub.add_parser("simulate", help="generate a synthetic dataset")
    simulate.add_argument(
        "--dataset", choices=("ios", "kil", "tiny", "ios-census"), default="tiny"
    )
    simulate.add_argument("--scale", type=float, default=0.1)
    simulate.add_argument("--seed", type=int, default=11)
    simulate.add_argument("--out", required=True, help="output CSV stem")

    def add_validation_flags(command: argparse.ArgumentParser) -> None:
        mode = command.add_mutually_exclusive_group()
        mode.add_argument(
            "--strict", action="store_true",
            help="fail fast on any dirty input row (the default)",
        )
        mode.add_argument(
            "--quarantine", action="store_true",
            help="drop dirty certificates/records, report them, continue",
        )
        command.add_argument(
            "--quarantine-report", metavar="PATH",
            help="write the per-row quarantine report as JSONL",
        )

    def add_supervise_flags(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--task-timeout", type=float, default=None, metavar="SECONDS",
            help="per-task deadline for pool workers; a task running "
            "longer is killed and re-executed (default: no deadline; "
            "also via SNAPS_TASK_TIMEOUT)",
        )
        command.add_argument(
            "--task-retries", type=int, default=None, metavar="K",
            help="re-execution budget per crashed/hung/failed task "
            "before it is quarantined (default: 2; also via "
            "SNAPS_TASK_RETRIES)",
        )
        command.add_argument(
            "--quarantine-dir", metavar="DIR",
            help="where poison-task artifacts (tasks.jsonl) are written "
            "(default: <tmp>/snaps-quarantine; also via "
            "SNAPS_QUARANTINE_DIR)",
        )

    resolve = sub.add_parser("resolve", help="run offline ER, save pedigree graph")
    resolve.add_argument("--data", help="dataset CSV stem")
    resolve.add_argument("--out", help="pedigree graph JSON path")
    resolve.add_argument(
        "--snapshot-out", metavar="DIR",
        help="also persist the full offline output (clusters, graph, "
        "indexes) as a snapshot in this store directory",
    )
    resolve.add_argument("--merge-threshold", type=float, default=0.85)
    resolve.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="parallel resolution workers: 0 forces the serial path, "
        "N >= 1 forces the parallel path with N processes "
        "(default: auto — parallel on large datasets only)",
    )
    resolve.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="partition the resolve into N shards, each resolved in an "
        "isolated process; output is byte-identical to the serial path, "
        "and --snapshot-out snapshots gain a shard sidecar so later "
        "ingests re-resolve only dirty shards",
    )
    resolve.add_argument("--no-propagation", action="store_true")
    resolve.add_argument("--no-ambiguity", action="store_true")
    resolve.add_argument("--no-relational", action="store_true")
    resolve.add_argument("--no-refinement", action="store_true")
    checkpointing = resolve.add_mutually_exclusive_group()
    checkpointing.add_argument(
        "--checkpoint", metavar="DIR",
        help="checkpoint every completed phase into DIR so an "
        "interrupted run can continue with --resume",
    )
    checkpointing.add_argument(
        "--resume", metavar="DIR",
        help="continue an interrupted run from its checkpoint DIR "
        "(dataset and flags are restored from the checkpoint)",
    )
    add_validation_flags(resolve)
    add_supervise_flags(resolve)
    add_telemetry_flags(resolve)

    query = sub.add_parser("query", help="search the pedigree graph")
    query_source = query.add_mutually_exclusive_group(required=True)
    query_source.add_argument("--graph", help="pedigree graph JSON path")
    query_source.add_argument(
        "--snapshot", metavar="DIR",
        help="warm-start from a snapshot store (prebuilt indexes)",
    )
    query.add_argument("--first-name", required=True)
    query.add_argument("--surname", required=True)
    query.add_argument("--gender", choices=("m", "f"))
    query.add_argument("--year-from", type=int)
    query.add_argument("--year-to", type=int)
    query.add_argument("--parish")
    query.add_argument("--record-type", choices=("birth", "death"))
    query.add_argument("--top", type=int, default=10)
    query.add_argument(
        "--geo", action="store_true",
        help="score parishes by geographic distance instead of spelling",
    )
    query.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="result rendering (json matches the /v1/search payload)",
    )
    add_telemetry_flags(query)

    serve = sub.add_parser(
        "serve", help="serve queries over HTTP from a loaded pedigree graph"
    )
    serve_source = serve.add_mutually_exclusive_group(required=True)
    serve_source.add_argument("--graph", help="pedigree graph JSON path")
    serve_source.add_argument(
        "--snapshot", metavar="DIR",
        help="warm-start from a snapshot store: boot without rebuilding "
        "any index",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080)
    serve.add_argument(
        "--cache-size", type=int, default=256,
        help="result-cache entries (0 disables caching)",
    )
    serve.add_argument(
        "--cache-ttl", type=float, default=300.0, metavar="SECONDS",
        help="result-cache entry lifetime (0 = keep forever)",
    )
    serve.add_argument(
        "--max-concurrency", type=int, default=8,
        help="search/pedigree requests executing at once",
    )
    serve.add_argument(
        "--max-pending", type=int, default=32,
        help="requests allowed to queue for a slot before 429s",
    )
    serve.add_argument(
        "--queue-timeout", type=float, default=1.0, metavar="SECONDS",
        help="longest a request may wait for a slot before a 503",
    )
    serve.add_argument(
        "--request-timeout", type=float, default=5.0, metavar="SECONDS",
        help="per-request deadline (0 = no deadline)",
    )
    serve.add_argument(
        "--geo", action="store_true",
        help="score parishes by geographic distance instead of spelling",
    )
    serve.add_argument(
        "--breaker-threshold", type=int, default=3,
        help="consecutive backend failures that open a circuit",
    )
    serve.add_argument(
        "--breaker-reset", type=float, default=30.0, metavar="SECONDS",
        help="seconds an open circuit waits before a recovery probe",
    )
    serve.add_argument(
        "--slo-deadline", type=float, default=0.5, metavar="SECONDS",
        help="latency objective deadline for search/pedigree requests",
    )
    serve.add_argument(
        "--slo-latency-target", type=float, default=0.99,
        help="fraction of read requests that must meet the deadline",
    )
    serve.add_argument(
        "--slo-availability", type=float, default=0.999,
        help="fraction of requests that must not be server errors",
    )
    serve.add_argument(
        "--slo-window", type=float, default=300.0, metavar="SECONDS",
        help="rolling window the SLO burn rates are computed over",
    )
    serve.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="pre-fork N worker processes sharing one memory-mapped "
        "snapshot and one listening socket (requires --snapshot; "
        "0 = one serving process)",
    )
    serve.add_argument(
        "--run-dir", metavar="DIR",
        help="pre-fork scratch directory for heartbeats/control/metrics "
        "files (default: private tempdir)",
    )
    add_telemetry_flags(serve)

    report = sub.add_parser("report", help="render a saved run report")
    report.add_argument("report", help="path to a --metrics-out JSON file")
    report.add_argument(
        "--format", choices=("text", "prom"), default="text",
        help="text tables (default) or Prometheus exposition format",
    )

    bench_history = sub.add_parser(
        "bench-history",
        help="fold benchmark run reports into BENCH_HISTORY.jsonl and "
        "compare against the rolling baseline",
    )
    bench_history.add_argument(
        "--results-dir", default="benchmarks/results", metavar="DIR",
        help="directory holding <bench>.metrics.json artefacts",
    )
    bench_history.add_argument(
        "--history", default="BENCH_HISTORY.jsonl", metavar="PATH",
        help="history file to append to and compare against",
    )
    bench_history.add_argument(
        "--check", action="store_true",
        help="exit non-zero when a time-like measure regressed past "
        "the threshold vs its rolling baseline",
    )
    bench_history.add_argument(
        "--threshold", type=float, default=1.5,
        help="regression ratio: latest/baseline above this fails --check",
    )
    bench_history.add_argument(
        "--min-delta", type=float, default=0.05, metavar="SECONDS",
        help="absolute slowdown below this never fails (noise floor)",
    )
    bench_history.add_argument(
        "--window", type=int, default=5,
        help="rolling-baseline size (median of up to N previous runs)",
    )
    bench_history.add_argument(
        "--sha", metavar="GITSHA",
        help="record this sha instead of asking git",
    )
    bench_history.add_argument(
        "--no-append", action="store_true",
        help="only compare; do not add new rows to the history",
    )
    bench_history.add_argument(
        "--show", action="store_true",
        help="also print every history row for the touched benches",
    )

    pedigree = sub.add_parser("pedigree", help="extract one entity's pedigree")
    pedigree_source = pedigree.add_mutually_exclusive_group(required=True)
    pedigree_source.add_argument("--graph", help="pedigree graph JSON path")
    pedigree_source.add_argument(
        "--snapshot", metavar="DIR",
        help="read the pedigree graph from a snapshot store",
    )
    pedigree.add_argument("--entity", type=int, required=True)
    pedigree.add_argument("--generations", type=int, default=2)
    pedigree.add_argument(
        "--format", choices=("ascii", "dot", "gedcom", "json"), default="ascii"
    )

    anonymise = sub.add_parser("anonymise", help="anonymise a dataset for release")
    anonymise.add_argument("--data", required=True, help="input CSV stem")
    anonymise.add_argument("--out", required=True, help="output CSV stem")
    anonymise.add_argument("--k", type=int, default=10)
    anonymise.add_argument("--seed", type=int, default=0)

    snapshot = sub.add_parser(
        "snapshot", help="inspect and grow a snapshot store"
    )
    snapshot_sub = snapshot.add_subparsers(dest="snapshot_command", required=True)

    def add_store_args(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--store", required=True, metavar="DIR", help="snapshot store root"
        )
        command.add_argument(
            "--id", metavar="SNAPSHOT", help="snapshot id (default: HEAD)"
        )

    snap_log = snapshot_sub.add_parser(
        "log", help="show the lineage chain of a snapshot"
    )
    add_store_args(snap_log)

    snap_inspect = snapshot_sub.add_parser(
        "inspect", help="print one snapshot's manifest details"
    )
    add_store_args(snap_inspect)

    snap_verify = snapshot_sub.add_parser(
        "verify", help="check payload checksums against the manifest"
    )
    add_store_args(snap_verify)

    snap_ingest = snapshot_sub.add_parser(
        "ingest", help="fold a delta dataset into a snapshot incrementally"
    )
    snap_ingest.add_argument(
        "--store", required=True, metavar="DIR", help="snapshot store root"
    )
    snap_ingest.add_argument(
        "--data", required=True, help="delta dataset CSV stem"
    )
    snap_ingest.add_argument(
        "--parent", metavar="SNAPSHOT",
        help="base snapshot id to ingest against (default: HEAD)",
    )
    snap_ingest.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="parallel resolution workers for the re-resolve step "
        "(0 = serial, N >= 1 = parallel, default: auto)",
    )
    snap_ingest.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="shard count for the child snapshot's sidecar (default: "
        "inherit the parent snapshot's partition)",
    )
    add_validation_flags(snap_ingest)
    add_supervise_flags(snap_ingest)
    add_telemetry_flags(snap_ingest)

    stream = sub.add_parser(
        "stream",
        help="continuously ingest spooled micro-batches and promote "
        "snapshots into a live replica",
    )
    stream.add_argument(
        "--spool", required=True, metavar="DIR",
        help="spool directory micro-batches arrive in (CSV pairs, "
        "optional .ready markers / batches.list manifest)",
    )
    stream.add_argument(
        "--store", required=True, metavar="DIR", help="snapshot store root"
    )
    stream.add_argument(
        "--serve-url", metavar="URL",
        help="replica base URL to promote new snapshots into via "
        "POST /v1/reload (omit to ingest without promotion)",
    )
    stream.add_argument(
        "--checkpoint", metavar="DIR",
        help="journal/checkpoint directory (default: <spool>/.stream)",
    )
    stream.add_argument(
        "--poll-interval", type=float, default=1.0, metavar="SECONDS",
        help="idle delay between spool polls (default: 1.0)",
    )
    stream.add_argument(
        "--max-lag-batches", type=int, default=4, metavar="N",
        help="backlog size beyond which pending batches coalesce into "
        "one ingest window (default: 4)",
    )
    stream.add_argument(
        "--no-coalesce", action="store_true",
        help="never merge batches; every batch becomes its own snapshot",
    )
    stream.add_argument(
        "--require-ready", action="store_true",
        help="only pick up batches with an explicit .ready marker "
        "(skip stable-file detection)",
    )
    stream.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="parallel resolution workers per ingest (0 = serial, "
        "default: auto)",
    )
    stream.add_argument(
        "--drain", action="store_true",
        help="exit once the spool is caught up and promoted (batch mode)",
    )
    stream.add_argument(
        "--max-batches", type=int, default=None, metavar="N",
        help="stop after ingesting N batches",
    )
    stream.add_argument(
        "--journal-max-entries", type=int, default=None, metavar="N",
        help="compact the ingest journal whenever its live entry count "
        "exceeds N (settled windows fold into a state header; "
        "exactly-once is preserved; default: never compact)",
    )
    add_validation_flags(stream)
    add_supervise_flags(stream)
    add_telemetry_flags(stream)
    return parser


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.data.loader import save_dataset_csv
    from repro.data.synthetic import (
        make_ios_census_dataset,
        make_ios_dataset,
        make_kil_dataset,
        make_tiny_dataset,
    )

    if args.dataset == "ios":
        dataset = make_ios_dataset(scale=args.scale, seed=args.seed)
    elif args.dataset == "kil":
        dataset = make_kil_dataset(scale=args.scale, seed=args.seed)
    elif args.dataset == "ios-census":
        dataset = make_ios_census_dataset(scale=args.scale, seed=args.seed)
    else:
        dataset = make_tiny_dataset(seed=args.seed)
    records_path, certs_path = save_dataset_csv(dataset, args.out)
    print(f"wrote {records_path} and {certs_path}")
    print(dataset.describe())
    return 0


def _telemetry(args: argparse.Namespace):
    """(trace, metrics) for a subcommand with telemetry flags, or Nones
    when no telemetry output was requested.  ``--trace-out`` attaches a
    streaming JSONL writer to the trace (fsync per span under
    ``SNAPS_OBS=durable``)."""
    trace_out = getattr(args, "trace_out", None)
    if not (args.trace or args.metrics_out or trace_out):
        return None, None
    from repro.obs import MetricsRegistry, TraceWriter, default_trace

    trace = default_trace(capture_memory=args.trace_memory)
    if trace_out and trace.enabled:
        trace.writer = TraceWriter(trace_out)
    return trace, MetricsRegistry()


def _profiler(args: argparse.Namespace):
    """A started :class:`SamplingProfiler` when ``--profile`` or
    ``SNAPS_PROFILE`` asks for one, else ``None``."""
    from repro.obs import SamplingProfiler, profile_from_env

    profiler = (
        SamplingProfiler()
        if getattr(args, "profile", False)
        else profile_from_env()
    )
    if profiler is not None:
        profiler.start()
    return profiler


def _finish_profile(args: argparse.Namespace, profiler, report: dict | None) -> None:
    """Stop a profiler, fold it into the run report, write collapsed
    stacks when ``--profile-out`` was given."""
    if profiler is None:
        return
    profiler.stop()
    if report is not None:
        report["profile"] = profiler.as_dict()
    profile_out = getattr(args, "profile_out", None)
    if profile_out:
        path = profiler.write_collapsed(profile_out)
        print(f"collapsed-stack profile written to {path}", file=sys.stderr)


def _emit_telemetry(args: argparse.Namespace, report: dict) -> None:
    from repro.obs import render_report, save_report

    if args.metrics_out:
        try:
            path = save_report(report, args.metrics_out)
        except OSError as exc:
            print(f"cannot write run report: {exc}", file=sys.stderr)
        else:
            print(f"run report written to {path}", file=sys.stderr)
    if args.trace:
        print(render_report(report), file=sys.stderr, end="")


def _load_checked(args: argparse.Namespace, metrics=None):
    """Dataset load honouring ``--strict``/``--quarantine``.

    Raises :class:`~repro.data.DatasetLoadError` in strict mode (the
    default); in quarantine mode dirty rows are dropped and summarised
    on stderr (and written to ``--quarantine-report`` when given).
    """
    from repro.data import load_dataset_checked

    dataset, report = load_dataset_checked(
        args.data,
        mode="quarantine" if args.quarantine else "strict",
        report_path=args.quarantine_report,
        metrics=metrics,
    )
    if report.issues:
        print(report.summary(), file=sys.stderr)
        if args.quarantine_report:
            print(
                f"quarantine report written to {args.quarantine_report}",
                file=sys.stderr,
            )
    return dataset


def _supervise_config(args: argparse.Namespace):
    """Worker-supervision config from flags, layered over the SNAPS_TASK_*
    environment (flags win where given)."""
    import dataclasses

    from repro.supervise import SuperviseConfig

    config = SuperviseConfig.from_env()
    overrides = {}
    if getattr(args, "task_timeout", None) is not None:
        overrides["task_timeout_s"] = args.task_timeout
    if getattr(args, "task_retries", None) is not None:
        overrides["max_task_retries"] = args.task_retries
    if getattr(args, "quarantine_dir", None):
        overrides["quarantine_dir"] = args.quarantine_dir
    return dataclasses.replace(config, **overrides) if overrides else config


def _parallel_config(args: argparse.Namespace):
    """ParallelConfig carrying the worker count plus supervision knobs."""
    from repro.parallel import ParallelConfig

    return ParallelConfig(workers=args.workers, supervise=_supervise_config(args))


def _install_stop_handlers(checkpoint) -> None:
    """Route SIGINT/SIGTERM to the checkpointer as a graceful-stop
    request: the in-flight phase finishes and commits, then the run
    exits 128+signum with a --resume hint."""
    import signal

    def _handler(signum: int, frame) -> None:  # pragma: no cover - signal
        checkpoint.request_stop(signum)
        print(
            f"received signal {signum}: finishing the current phase, "
            "committing it, then stopping",
            file=sys.stderr,
        )

    signal.signal(signal.SIGINT, _handler)
    signal.signal(signal.SIGTERM, _handler)


def _cmd_resolve(args: argparse.Namespace) -> int:
    from repro.core import SnapsConfig, SnapsResolver
    from repro.core.checkpoint import (
        CheckpointError,
        GracefulExit,
        ResolveCheckpointer,
    )
    from repro.data import DatasetLoadError
    from repro.eval import evaluate_linkage
    from repro.faults import ResourceFault
    from repro.pedigree import build_pedigree_graph, save_pedigree_graph
    from repro.supervise import TaskQuarantinedError

    if not args.out and not args.snapshot_out:
        print(
            "resolve needs --out and/or --snapshot-out (nowhere to write)",
            file=sys.stderr,
        )
        return 2
    if args.shards is not None and args.shards < 1:
        print("--shards must be >= 1", file=sys.stderr)
        return 2
    if not args.data and not args.resume:
        print("resolve needs --data (or --resume DIR)", file=sys.stderr)
        return 2
    trace, metrics = _telemetry(args)
    checkpoint = None
    try:
        if args.resume:
            # Dataset and flags come from the checkpoint itself, so the
            # resumed run cannot diverge from the interrupted one.
            checkpoint, dataset, config = ResolveCheckpointer.resume(args.resume)
            done = checkpoint.completed_prefix()
            print(
                f"resuming from {args.resume}: "
                f"{', '.join(done) if done else 'no'} phase(s) already done",
                file=sys.stderr,
            )
        else:
            dataset = _load_checked(args, metrics)
            config = SnapsConfig(
                merge_threshold=args.merge_threshold,
                use_propagation=not args.no_propagation,
                use_ambiguity=not args.no_ambiguity,
                use_relational=not args.no_relational,
                use_refinement=not args.no_refinement,
            )
            if args.checkpoint:
                checkpoint = ResolveCheckpointer.begin(
                    args.checkpoint, dataset, config
                )
    except DatasetLoadError as error:
        print(f"dataset error: {error}", file=sys.stderr)
        if not args.quarantine:
            print(
                "hint: re-run with --quarantine to drop the bad rows "
                "and continue (see --quarantine-report)",
                file=sys.stderr,
            )
        return 2
    except CheckpointError as error:
        print(f"checkpoint error: {error}", file=sys.stderr)
        return 2
    if checkpoint is not None:
        _install_stop_handlers(checkpoint)

    parallel = _parallel_config(args)
    profiler = _profiler(args)
    sharded = None
    try:
        if args.shards is not None:
            from repro.shard import resolve_sharded

            # Shard count is an execution detail: it is not part of the
            # config fingerprint, so a checkpoint taken serially resumes
            # sharded (and vice versa), and the output stays byte-identical.
            sharded = resolve_sharded(
                dataset,
                config,
                n_shards=args.shards,
                trace=trace,
                metrics=metrics,
                checkpoint=checkpoint,
                parallel=parallel,
            )
            result = sharded.result
            print(
                f"sharded across {sharded.plan.n_shards} shard(s), plan "
                f"{sharded.plan.fingerprint}: "
                f"{sharded.n_boundary_pairs} boundary pair(s)"
            )
            for stat in sharded.shard_stats:
                print(
                    f"  shard {stat['shard']}: {stat['records']} records "
                    f"(+{stat['passengers']} passengers), {stat['pairs']} pairs "
                    f"-> {stat['clusters']} clusters in {stat['elapsed']:.2f}s"
                )
        else:
            result = SnapsResolver(config).resolve(
                dataset,
                trace=trace,
                metrics=metrics,
                checkpoint=checkpoint,
                parallel=parallel,
            )
    except GracefulExit as stop:
        print(
            f"{stop}; resume with: repro resolve --resume "
            f"{args.checkpoint or args.resume}",
            file=sys.stderr,
        )
        return 128 + stop.signum
    except TaskQuarantinedError as error:
        print(f"supervised execution error: {error}", file=sys.stderr)
        return 2
    except ResourceFault as error:
        print(f"resource error: {error}", file=sys.stderr)
        return 2
    print(
        f"resolved {len(dataset)} records: |N_A|={result.n_atomic} "
        f"|N_R|={result.n_relational} in {result.timings.total():.1f}s"
    )
    for role_pair in ("Bp-Bp", "Bp-Dp"):
        truth = dataset.true_match_pairs(role_pair)
        if truth:
            ev = evaluate_linkage(result.matched_pairs(role_pair), truth, role_pair)
            print(
                f"  {role_pair}: P={ev.precision:.1f}% R={ev.recall:.1f}% "
                f"F*={ev.f_star:.1f}%"
            )
    graph = build_pedigree_graph(dataset, result.entities)
    if args.out:
        path = save_pedigree_graph(graph, args.out)
        print(f"pedigree graph ({len(graph)} entities) written to {path}")
    if args.snapshot_out:
        from repro.store import SnapshotStore

        sidecar_writer = None
        if sharded is not None:
            from repro.store.shards import write_shard_sidecar

            plan = sharded.plan
            sidecar_writer = lambda directory: write_shard_sidecar(  # noqa: E731
                directory, plan, result.entities
            )
        try:
            manifest = SnapshotStore(args.snapshot_out).save(
                result,
                graph=graph,
                config=config,
                trace=trace,
                metrics=metrics,
                sidecar_writer=sidecar_writer,
            )
        except ResourceFault as error:
            print(f"resource error: {error}", file=sys.stderr)
            return 2
        print(
            f"snapshot {manifest.snapshot_id} "
            f"({manifest.counts['entities']} entities) written to "
            f"{args.snapshot_out}"
        )
    if trace is not None or metrics is not None or profiler is not None:
        report = result.report(meta={"data": args.data or args.resume})
        _finish_profile(args, profiler, report)
        _emit_telemetry(args, report)
    return 0


def _load_snapshot_engine_parts(store_dir: str, graph_only: bool = False):
    """(graph, keyword_index, sim_index, manifest) from a store's HEAD."""
    from repro.store import SnapshotStore

    loaded = SnapshotStore(store_dir).load(
        artifacts=("graph",) if graph_only else ("graph", "indexes")
    )
    return loaded.graph, loaded.keyword_index, loaded.sim_index, loaded.manifest


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.pedigree import load_pedigree_graph
    from repro.query import Query, QueryEngine

    if args.snapshot:
        graph, keyword_index, sim_index, _ = _load_snapshot_engine_parts(
            args.snapshot
        )
    else:
        graph = load_pedigree_graph(args.graph)
        keyword_index = sim_index = None
    trace, metrics = _telemetry(args)
    engine = QueryEngine(
        graph,
        use_geographic_distance=args.geo,
        trace=trace,
        metrics=metrics,
        keyword_index=keyword_index,
        sim_index=sim_index,
    )
    query = Query(
        first_name=args.first_name,
        surname=args.surname,
        gender=args.gender,
        year_from=args.year_from,
        year_to=args.year_to,
        parish=args.parish,
        record_type=args.record_type,
    )
    hits = engine.search(query, top_m=args.top)
    if trace is not None or metrics is not None:
        from repro.obs import build_report

        _emit_telemetry(
            args,
            build_report(
                trace=trace,
                metrics=metrics,
                meta={"kind": "query", "graph": args.graph or args.snapshot},
            ),
        )
    if args.format == "json":
        import json

        from repro.serve.serialization import search_payload

        print(json.dumps(search_payload(hits), indent=2))
        return 0 if hits else 1
    if not hits:
        print("no matches")
        return 1
    print(f"{'entity':>8}  {'score':>7}  name")
    for hit in hits:
        print(
            f"{hit.entity.entity_id:>8}  {hit.score_percent:6.2f}%  "
            f"{hit.entity.display_name()}"
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.obs import MetricsRegistry
    from repro.pedigree import load_pedigree_graph
    from repro.serve import (
        PreforkConfig,
        PreforkMaster,
        ServeConfig,
        ServingApp,
        make_server,
    )

    config = ServeConfig(
        host=args.host,
        port=args.port,
        cache_size=args.cache_size,
        cache_ttl_s=args.cache_ttl or None,
        max_concurrency=args.max_concurrency,
        max_pending=args.max_pending,
        queue_timeout_s=args.queue_timeout,
        request_timeout_s=args.request_timeout or None,
        use_geographic_distance=args.geo,
        breaker_threshold=args.breaker_threshold,
        breaker_reset_s=args.breaker_reset,
        slo_availability=args.slo_availability,
        slo_latency_target=args.slo_latency_target,
        slo_deadline_s=args.slo_deadline,
        slo_window_s=args.slo_window,
    )
    if args.workers:
        if not args.snapshot:
            print(
                "error: --workers requires --snapshot (the workers share "
                "one memory-mapped snapshot)",
                file=sys.stderr,
            )
            return 2
        master = PreforkMaster(
            args.snapshot,
            config=PreforkConfig(workers=args.workers, run_dir=args.run_dir),
            serve_config=config,
        )
        print(
            f"prefork master: {args.workers} workers on "
            f"http://{args.host}:{args.port} (snapshot store {args.snapshot}, "
            f"run dir {master.run_dir}) — Ctrl-C to stop",
            file=sys.stderr,
        )
        try:
            master.start()
        except KeyboardInterrupt:
            pass
        return 0
    store = None
    if args.snapshot:
        # Warm start: the snapshot carries the graph and both prebuilt
        # indexes, so boot performs no index construction at all.  The
        # store stays attached so POST /v1/reload can pick up new
        # snapshots without a restart.
        from repro.store import SnapshotStore

        store = SnapshotStore(args.snapshot)
        graph, keyword_index, sim_index, manifest = _load_snapshot_engine_parts(
            args.snapshot
        )
    else:
        graph = load_pedigree_graph(args.graph)
        keyword_index = sim_index = manifest = None
    # /metricz always needs a live registry; the --trace/--metrics-out
    # flags only control what is emitted at shutdown.
    _, metrics = _telemetry(args)
    app = ServingApp(
        graph,
        config,
        metrics=metrics or MetricsRegistry(),
        keyword_index=keyword_index,
        sim_index=sim_index,
        store=store,
        manifest=manifest,
    )
    server = make_server(app, config.host, config.port)
    host, port = server.server_address[:2]
    print(
        f"serving {len(graph)} entities on http://{host}:{port} "
        f"(cache={config.cache_size}, concurrency={config.max_concurrency}) "
        "— Ctrl-C to stop",
        file=sys.stderr,
    )
    profiler = _profiler(args)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
        if args.trace or args.metrics_out or profiler is not None:
            from repro.obs import build_report

            report = build_report(
                metrics=app.metrics,
                meta={"kind": "serve", "graph": args.graph or args.snapshot},
            )
            _finish_profile(args, profiler, report)
            _emit_telemetry(args, report)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs import load_report, render_prometheus, render_report

    try:
        report = load_report(args.report)
    except (OSError, ValueError) as error:
        print(f"cannot read run report: {error}", file=sys.stderr)
        return 1
    if args.format == "prom":
        info = {
            key: str(value)
            for key, value in report.get("meta", {}).items()
            if isinstance(value, (str, int)) and not key.startswith("time_")
        }
        print(render_prometheus(report.get("metrics", {}), info=info or None), end="")
        return 0
    print(render_report(report), end="")
    return 0


def _cmd_bench_history(args: argparse.Namespace) -> int:
    import glob
    import os
    from datetime import datetime, timezone

    from repro.obs import load_report
    from repro.obs.history import (
        append_rows,
        compute_deltas,
        find_regressions,
        git_sha,
        history_row,
        load_history,
    )

    pattern = os.path.join(args.results_dir, "*.metrics.json")
    sources = sorted(glob.glob(pattern))
    sha = args.sha if args.sha else git_sha()
    recorded_at = datetime.now(timezone.utc).isoformat()
    rows = []
    for source in sources:
        try:
            report = load_report(source)
        except (OSError, ValueError) as error:
            print(f"skipping {source}: {error}", file=sys.stderr)
            continue
        rows.append(history_row(report, source, recorded_at, sha=sha))
    if not sources:
        print(f"no *.metrics.json artefacts under {args.results_dir}", file=sys.stderr)
    try:
        if args.no_append:
            appended = []
        else:
            appended = append_rows(args.history, rows)
        history = load_history(args.history)
    except ValueError as error:
        print(f"history error: {error}", file=sys.stderr)
        return 1
    print(
        f"{args.history}: {len(history)} row(s), {len(appended)} new"
    )
    if args.show:
        for row in history:
            print(
                f"  {row['recorded_at']}  {row['bench']}"
                f" scale={row.get('scale')} sha={row.get('git_sha')}"
                f" measures={len(row.get('measures', {}))}"
            )
    deltas = compute_deltas(history, window=args.window)
    for entry in deltas:
        if not entry["baseline_runs"]:
            print(
                f"  {entry['bench']} (scale={entry['scale']}): first run, "
                "no baseline yet"
            )
            continue
        times = {
            name: cmp
            for name, cmp in entry["measures"].items()
            if name.startswith("span:") or name.startswith("meta:time_")
        }
        shown = sorted(
            times.items(), key=lambda kv: -abs(kv[1]["delta"])
        )[:4]
        print(
            f"  {entry['bench']} (scale={entry['scale']}, "
            f"baseline of {entry['baseline_runs']}):"
        )
        for name, cmp in shown:
            ratio = cmp["ratio"]
            print(
                f"    {name:<38} {cmp['value']:>9.3f} vs {cmp['baseline']:>9.3f}"
                f"  ({'x%.2f' % ratio if ratio is not None else 'n/a'})"
            )
    if args.check:
        regressions = find_regressions(
            deltas, threshold=args.threshold, min_delta=args.min_delta
        )
        if regressions:
            print(f"REGRESSION: {len(regressions)} measure(s) past x{args.threshold}:")
            for reg in regressions:
                print(
                    f"  {reg['bench']} {reg['measure']}: "
                    f"{reg['value']:.3f} vs baseline {reg['baseline']:.3f} "
                    f"(x{reg['ratio']:.2f})"
                )
            return 3
        print(f"regression check passed (threshold x{args.threshold})")
    return 0


def _cmd_pedigree(args: argparse.Namespace) -> int:
    from repro.pedigree import (
        extract_pedigree,
        load_pedigree_graph,
        render_ascii_tree,
        render_dot,
        render_gedcom,
    )

    if args.snapshot:
        graph, _, _, _ = _load_snapshot_engine_parts(args.snapshot, graph_only=True)
    else:
        graph = load_pedigree_graph(args.graph)
    try:
        pedigree = extract_pedigree(graph, args.entity, args.generations)
    except KeyError:
        print(f"unknown entity id: {args.entity}", file=sys.stderr)
        return 1
    if args.format == "json":
        import json

        from repro.serve.serialization import pedigree_payload

        print(json.dumps(pedigree_payload(pedigree), indent=2))
    elif args.format == "dot":
        print(render_dot(pedigree))
    elif args.format == "gedcom":
        print(render_gedcom(pedigree))
    else:
        print(render_ascii_tree(pedigree))
    return 0


def _cmd_anonymise(args: argparse.Namespace) -> int:
    from repro.anonymize import anonymise_dataset
    from repro.data.loader import load_dataset_csv, save_dataset_csv

    dataset = load_dataset_csv(args.data)
    anonymised, report = anonymise_dataset(dataset, k=args.k, seed=args.seed)
    records_path, certs_path = save_dataset_csv(anonymised, args.out)
    print(f"wrote {records_path} and {certs_path}")
    print(
        f"mapped {report.n_female_names_mapped + report.n_male_names_mapped} "
        f"first names, {report.n_surnames_mapped} surnames; "
        f"generalised {report.n_causes_generalised} causes of death"
    )
    return 0


def _cmd_snapshot(args: argparse.Namespace) -> int:
    from repro.store import SnapshotError, SnapshotStore

    store = SnapshotStore(args.store)
    try:
        if args.snapshot_command == "log":
            for manifest in store.log(args.id):
                head = " (HEAD)" if manifest.snapshot_id == store.latest() else ""
                print(f"snapshot {manifest.snapshot_id}{head}")
                print(f"  parent:  {manifest.parent or '(root)'}")
                print(f"  created: {manifest.created_at}")
                print(
                    f"  dataset: {manifest.dataset.get('name')} "
                    f"({manifest.dataset.get('records')} records)"
                )
                print(
                    f"  counts:  {manifest.counts.get('entities')} entities, "
                    f"{manifest.counts.get('clusters')} clusters"
                )
            return 0
        if args.snapshot_command == "inspect":
            from repro.store.shards import has_shard_sidecar, load_merge_manifest

            manifest = store.manifest(args.id)
            depth = len(store.log(manifest.snapshot_id)) - 1
            print(f"snapshot {manifest.snapshot_id}")
            print(f"  schema version:     {manifest.schema_version}")
            print(f"  parent:             {manifest.parent or '(root)'}")
            print(f"  chain depth:        {depth} ancestor(s) to root")
            print(f"  created:            {manifest.created_at}")
            print(f"  config fingerprint: {manifest.config_fingerprint}")
            print(
                f"  dataset:            {manifest.dataset.get('name')} "
                f"({manifest.dataset.get('records')} records, "
                f"{manifest.dataset.get('certificates')} certificates)"
            )
            print(f"  dataset sha256:     {manifest.dataset.get('sha256')}")
            for key, value in sorted(manifest.counts.items()):
                print(f"  {key + ':':<19} {value}")
            print("  artifacts:")
            total_bytes = 0
            for name, blob in sorted(manifest.artifacts.items()):
                total_bytes += blob["bytes"]
                print(
                    f"    {name:<16} {blob['path']:<22} "
                    f"{blob['bytes']:>9} B  sha256 {blob['sha256'][:16]}…"
                )
            print(f"    {'(total)':<16} {'':<22} {total_bytes:>9} B")
            directory = store.path_of(manifest.snapshot_id)
            if has_shard_sidecar(directory):
                merge = load_merge_manifest(directory)
                print(
                    f"  shards:             {merge['n_shards']} "
                    f"(partition {merge['partition_fingerprint']}, "
                    f"{merge['covered_records']} covered records)"
                )
                for entry in sorted(merge["shards"], key=lambda e: e["shard"]):
                    print(
                        f"    shard {entry['shard']:<10} {entry['path']:<22} "
                        f"{entry['bytes']:>9} B  {entry['records']} records, "
                        f"{entry['clusters']} clusters"
                    )
            return 0
        if args.snapshot_command == "verify":
            snapshot_id = args.id or store.latest()
            problems = store.verify(args.id)
            if problems:
                print(f"snapshot {snapshot_id}: {len(problems)} problem(s)")
                for problem in problems:
                    print(f"  - {problem}")
                return 1
            print(f"snapshot {snapshot_id}: OK")
            return 0
        # ingest
        from repro.data import DatasetLoadError
        from repro.store import IncrementalResolver

        trace, metrics = _telemetry(args)
        try:
            delta = _load_checked(args, metrics)
        except DatasetLoadError as error:
            print(f"dataset error: {error}", file=sys.stderr)
            if not args.quarantine:
                print(
                    "hint: re-run with --quarantine to drop the bad rows "
                    "and continue (see --quarantine-report)",
                    file=sys.stderr,
                )
            return 2
        profiler = _profiler(args)
        from repro.faults import ResourceFault
        from repro.supervise import TaskQuarantinedError

        try:
            result = IncrementalResolver(store).ingest(
                delta,
                parent=args.parent,
                trace=trace,
                metrics=metrics,
                workers=args.workers,
                shards=args.shards,
                supervise=_supervise_config(args),
            )
        except TaskQuarantinedError as error:
            print(f"supervised execution error: {error}", file=sys.stderr)
            return 2
        except ResourceFault as error:
            print(f"resource error: {error}", file=sys.stderr)
            return 2
        stats = result.stats
        print(
            f"ingested {stats['delta_records']} delta records: re-resolved "
            f"{stats['dirty_pairs']}/{stats['candidate_pairs']} pairs "
            f"({stats['dirty_records']}/{stats['combined_records']} records "
            f"dirty), replayed {stats['replayed_clusters']} clean clusters"
        )
        if "shards_total" in stats:
            print(
                f"  shards: re-resolved {stats['shards_reresolved']}"
                f"/{stats['shards_total']} dirty shard(s); the rest "
                f"replayed untouched"
            )
        print(
            f"snapshot {result.manifest.snapshot_id} written "
            f"(parent {result.manifest.parent})"
        )
        if trace is not None or metrics is not None or profiler is not None:
            report = result.linkage.report(
                meta={"kind": "ingest", "store": args.store, "data": args.data}
            )
            _finish_profile(args, profiler, report)
            _emit_telemetry(args, report)
        return 0
    except (SnapshotError, ValueError) as error:
        print(f"snapshot error: {error}", file=sys.stderr)
        return 1


def _cmd_stream(args: argparse.Namespace) -> int:
    import signal

    from repro.store import SnapshotError, SnapshotStore
    from repro.stream import StreamConfig, StreamPipeline

    try:
        config = StreamConfig(
            spool=args.spool,
            serve_url=args.serve_url,
            checkpoint=args.checkpoint,
            poll_interval_s=args.poll_interval,
            max_lag_batches=args.max_lag_batches,
            coalesce=not args.no_coalesce,
            workers=args.workers,
            validation="quarantine" if args.quarantine else "strict",
            require_ready=args.require_ready,
            drain=args.drain,
            max_batches=args.max_batches,
            journal_max_entries=args.journal_max_entries,
            supervise=_supervise_config(args),
        )
    except ValueError as error:
        print(f"stream error: {error}", file=sys.stderr)
        return 2
    trace, metrics = _telemetry(args)
    profiler = _profiler(args)
    pipeline = StreamPipeline(
        SnapshotStore(args.store), config, metrics=metrics, trace=trace
    )

    def _request_stop(signum, frame):  # pragma: no cover - signal path
        print("stopping after the in-flight window...", file=sys.stderr)
        pipeline.stop()

    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            signal.signal(signum, _request_stop)
        except ValueError:  # pragma: no cover - non-main thread
            pass
    try:
        ingested = pipeline.run()
    except SnapshotError as error:
        print(f"stream error: {error}", file=sys.stderr)
        return 1
    lineage = pipeline.journal.snapshot_lineage()
    print(
        f"ingested {ingested} batch(es) into {len(lineage)} snapshot(s)"
        + (f"; HEAD {lineage[-1]}" if lineage else "")
    )
    unpromoted = pipeline.journal.unpromoted() if args.serve_url else []
    if unpromoted:
        print(
            f"warning: {len(unpromoted)} window(s) committed but not "
            "promoted (replica unreachable?); re-run to retry",
            file=sys.stderr,
        )
    if trace is not None or metrics is not None or profiler is not None:
        from repro.obs import build_report

        report = build_report(
            trace,
            pipeline.metrics,
            meta={"kind": "stream", "spool": str(args.spool), "store": args.store},
        )
        _finish_profile(args, profiler, report)
        _emit_telemetry(args, report)
    return 1 if unpromoted else 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "resolve": _cmd_resolve,
    "query": _cmd_query,
    "serve": _cmd_serve,
    "report": _cmd_report,
    "bench-history": _cmd_bench_history,
    "pedigree": _cmd_pedigree,
    "anonymise": _cmd_anonymise,
    "snapshot": _cmd_snapshot,
    "stream": _cmd_stream,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    from repro.faults import install_from_env

    # Arm fault injection when SNAPS_FAULTS is set (chaos runs only;
    # a no-op — and no injector churn — for everyone else).
    install_from_env()
    args = build_parser().parse_args(argv)
    if args.verbose:
        from repro.obs.logs import configure

        configure(args.verbose)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        # Downstream pager/grep closed the pipe early (e.g.
        # `repro snapshot inspect | head`); exit quietly like other
        # well-behaved CLI tools.  Detach stdout so the interpreter's
        # shutdown flush doesn't raise a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141  # 128 + SIGPIPE


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
