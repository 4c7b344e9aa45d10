"""Command-line interface: ``repro-study``.

Subcommands::

    repro-study generate --dataset primary --scale 0.15 --out data/primary
    repro-study validate --data data/primary          # or --scale 0.15
    repro-study report --scale 0.15 [--only table1,figure1]
    repro-study manet --scale 0.15 [--full]
    repro-study inspect run.manifest.json
    repro-study monitor rundir            # or http://127.0.0.1:PORT
    repro-study audit run.manifest.json [--json] [--strict]
    repro-study diff a.manifest.json b.manifest.json

``report`` regenerates every table and figure of the paper;
``manet --full`` runs the paper's 200-node, 100 km arena configuration
(slow — minutes, not seconds).

Pipeline commands accept ``--workers N`` to shard validation over a
process pool (``0`` = all CPUs); results are identical for any worker
count.

Out-of-core studies: ``generate --store disk`` writes a segment store
instead of one JSONL directory, and ``validate --store disk`` streams
the study one segment at a time (``--segment-users N`` sets segment
size, ``--store-dir`` keeps the built store, ``--checkpoint-dir`` makes
the run resumable after a crash) — peak memory is bounded by the
largest segment while every output byte matches the in-memory path.  They also accept observability flags: ``--trace out.jsonl``
dumps the run's span/event/metric stream as JSON lines and writes a run
manifest next to it (``out.manifest.json``), ``--manifest PATH`` picks
the manifest location explicitly, and ``--no-obs`` turns instrumentation
off entirely (output is byte-identical either way).  ``inspect`` pretty
prints a previously written manifest.

Fault tolerance: ``--retries N``, ``--shard-timeout S`` and
``--on-failure {fail_fast,retry_then_serial,skip_and_report}`` arm the
shard-level resilience layer (crash recovery, deterministic retry
backoff, poison-shard serial fallback); ``validate --inject-faults
plan.json`` additionally replays a deterministic fault plan for
operator drills (see ``repro.runtime.faults``).

Live telemetry: ``validate`` and ``serve`` accept ``--telemetry DIR``
(a background sampler atomically rewrites ``DIR/live.json`` every
``--telemetry-interval`` seconds) and ``--metrics-port PORT`` (an
OpenMetrics endpoint at ``http://127.0.0.1:PORT/metrics``, ``0`` picks
an ephemeral port).  ``monitor <dir|url>`` tails either into a
rate-computing TTY dashboard (events/s, watermark lag, RSS,
ETA); both are strictly no-op when the flags are absent and never
change the run's output bytes.

Auditing: every manifest embeds a paper-fidelity scorecard;
``audit <manifest>`` re-evaluates and prints it (exit 1 on any failing
check; ``--strict`` also fails on warnings, ``--json`` emits the
canonical byte-deterministic JSON).  ``diff <a> <b>`` structurally
compares two manifests (or two ``--trace`` JSONL files) and exits 1 on
regression — statistic drift, config/dataset changes, worsening
scorecard flips, above-threshold stage slowdowns — while re-runs of the
same configuration at any worker count diff clean.  ``--profile`` runs
every shard under cProfile + tracemalloc and records per-stage
summaries in the trace and manifest.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import List, Optional

from .core import (
    ClassifyConfig,
    MatchConfig,
    VisitConfig,
    validate,
    validate_store,
)
from .obs import (
    NULL_OBS,
    ObsContext,
    ProgressLine,
    RunManifest,
    TelemetrySampler,
    activate,
    build_manifest,
    diff_manifests,
    diff_traces,
    format_dashboard,
    profile_summary,
    read_status,
    read_trace,
    registry_collector,
    scorecard_for_manifest,
    write_trace,
)
from .runtime import POLICIES, FaultPlan, ResilienceConfig
from .experiments import (
    build_study,
    collect_headline,
    figure1,
    figure2,
    figure3,
    figure4,
    figure5,
    figure6,
    figure7,
    figure8,
    table1,
    table2,
)
from .io import load_dataset, load_dataset_into_store, save_dataset
from .manet import bench_config, paper_config
from .store import DEFAULT_SEGMENT_USERS, StudyStore
from .synth import (
    baseline_config,
    generate_dataset,
    generate_study_store,
    primary_config,
)

#: Experiment registry: name -> module with a run(artifacts) function.
EXPERIMENTS = {
    "table1": table1,
    "figure1": figure1,
    "figure2": figure2,
    "figure3": figure3,
    "figure4": figure4,
    "table2": table2,
    "figure5": figure5,
    "figure6": figure6,
    "figure7": figure7,
    "figure8": figure8,
}


def _worker_count(value: str) -> int:
    count = int(value)
    if count < 0:
        raise argparse.ArgumentTypeError(
            f"must be >= 0 (0 = all CPUs), got {count}"
        )
    return count


def _add_workers_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=_worker_count,
        default=None,
        metavar="N",
        help="shard the validation pipeline over N processes (0 = all CPUs)",
    )


def _segment_users(value: str) -> int:
    count = int(value)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {count}")
    return count


def _lateness_seconds(value: str) -> float:
    seconds = float(value)
    if seconds < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {seconds}")
    return seconds


def _positive_int(value: str) -> int:
    count = int(value)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {count}")
    return count


def _add_store_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store",
        choices=["memory", "disk"],
        default="memory",
        help="disk: stream the study through an on-disk segment store, "
             "one segment at a time — bounded memory, byte-identical output",
    )
    parser.add_argument(
        "--segment-users",
        type=_segment_users,
        default=DEFAULT_SEGMENT_USERS,
        metavar="N",
        help="users per segment when building a disk store "
             f"(default {DEFAULT_SEGMENT_USERS})",
    )
    parser.add_argument(
        "--store-dir",
        metavar="PATH",
        help="where to build the segment store when --data is a JSONL "
             "directory or the study is generated (default: a temp dir, "
             "removed afterwards)",
    )
    parser.add_argument(
        "--checkpoint-dir",
        metavar="PATH",
        help="persist per-segment results here; a re-run replays finished "
             "segments instead of recomputing (disk store only)",
    )


def _add_resilience_flags(
    parser: argparse.ArgumentParser, inject: bool = False
) -> None:
    parser.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="retry a failed shard up to N times with deterministic backoff "
             "(arms the fault-tolerance layer)",
    )
    parser.add_argument(
        "--shard-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="treat a shard running longer than this as failed "
             "(process-pool runs only)",
    )
    parser.add_argument(
        "--on-failure",
        choices=POLICIES,
        default=None,
        help="policy for a shard that keeps failing: abort on first failure, "
             "fall back to in-process serial execution (default), or skip the "
             "shard and report its users as degraded",
    )
    if inject:
        parser.add_argument(
            "--inject-faults",
            metavar="PLAN",
            help="JSON fault plan replayed deterministically against the run "
                 "(crash/exception/delay keyed by stage, shard and attempt)",
        )


def _resilience_from_args(args: argparse.Namespace):
    """Build ``(ResilienceConfig | None, FaultPlan | None, exit_code | None)``.

    The resilience layer arms when any of its flags (or a fault plan)
    is present; unset flags fall back to the config defaults.
    """
    plan_path = getattr(args, "inject_faults", None)
    plan = None
    if plan_path:
        try:
            plan = FaultPlan.load(plan_path)
        except (OSError, ValueError, KeyError) as exc:
            print(f"cannot read fault plan: {exc}", file=sys.stderr)
            return None, None, 2
    armed = (
        args.retries is not None
        or args.shard_timeout is not None
        or args.on_failure is not None
        or plan is not None
    )
    if not armed:
        return None, None, None
    defaults = ResilienceConfig()
    try:
        config = ResilienceConfig(
            max_retries=(
                args.retries if args.retries is not None else defaults.max_retries
            ),
            shard_timeout_s=args.shard_timeout,
            on_failure=args.on_failure or defaults.on_failure,
        )
    except ValueError as exc:
        print(f"invalid resilience flags: {exc}", file=sys.stderr)
        return None, None, 2
    return config, plan, None


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        metavar="PATH",
        help="write the run's span/event/metric stream as JSON lines to PATH "
             "(a manifest lands next to it)",
    )
    parser.add_argument(
        "--manifest",
        metavar="PATH",
        help="write the run manifest to PATH (default: derived from --trace)",
    )
    parser.add_argument(
        "--no-obs",
        action="store_true",
        help="disable observability entirely (results are identical either way)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run each shard under cProfile + tracemalloc; per-stage "
             "summaries land in the trace stream and manifest "
             "(results are identical either way, just slower)",
    )


def _obs_context(args: argparse.Namespace):
    """Build the command's observation context from its obs flags.

    Returns ``(context, error_exit_code)``; the context is ``NULL_OBS``
    under ``--no-obs``, which conflicts with the output flags and with
    ``--profile``.
    """
    if args.no_obs:
        if args.trace or args.manifest or args.profile:
            print(
                "--trace/--manifest/--profile need observability; drop --no-obs",
                file=sys.stderr,
            )
            return None, 2
        return NULL_OBS, None
    return ObsContext(profile=args.profile), None


def _add_telemetry_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--telemetry",
        metavar="DIR",
        help="sample live run telemetry (metrics, RSS, watermarks) into "
             "DIR/live.json — atomically rewritten, tail it from another "
             "terminal with 'repro-study monitor DIR'",
    )
    parser.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve OpenMetrics text format at "
             "http://127.0.0.1:PORT/metrics and the JSON status at /live "
             "(0 = pick an ephemeral port; implies telemetry on)",
    )
    parser.add_argument(
        "--telemetry-interval",
        type=float,
        default=1.0,
        metavar="S",
        help="seconds between telemetry samples (default 1.0)",
    )


def _telemetry_armed(args: argparse.Namespace) -> bool:
    return args.telemetry is not None or args.metrics_port is not None


def _start_telemetry(args: argparse.Namespace, command: str, collectors):
    """Build and start the command's :class:`TelemetrySampler`.

    Returns ``(sampler | None, error_exit_code | None)``.  Endpoint and
    status-file locations go to *stderr*: stdout carries the run's
    summary, which must stay byte-identical with telemetry on or off.
    """
    if not _telemetry_armed(args):
        return None, None
    try:
        sampler = TelemetrySampler(
            collectors=collectors,
            interval_s=args.telemetry_interval,
            status_path=args.telemetry,
            port=args.metrics_port,
            command=command,
        )
    except (ValueError, OSError) as exc:
        print(f"invalid telemetry flags: {exc}", file=sys.stderr)
        return None, 2
    try:
        sampler.start()
    except OSError as exc:
        print(f"cannot start telemetry endpoint: {exc}", file=sys.stderr)
        return None, 2
    if sampler.port is not None:
        print(
            f"telemetry: http://127.0.0.1:{sampler.port}/metrics",
            file=sys.stderr,
        )
    if sampler.status_path is not None:
        print(f"telemetry: {sampler.status_path}", file=sys.stderr)
    return sampler, None


def _write_obs_artifacts(
    args: argparse.Namespace,
    ctx,
    command: str,
    dataset=None,
    seeds=None,
    timings=None,
    extra=None,
    health=None,
    headline=None,
) -> None:
    """Write the trace JSONL and/or manifest a command was asked for.

    The manifest records any experiment ``headline`` statistics under
    ``extra["headline"]``, per-stage profile summaries under
    ``extra["profile"]`` when ``--profile`` ran, and embeds the
    fidelity scorecard evaluated over the run's statistics.
    """
    if not ctx.enabled:
        return
    if args.trace:
        print(f"wrote trace: {write_trace(args.trace, ctx)}")
    manifest_path = args.manifest
    if manifest_path is None and args.trace:
        manifest_path = Path(args.trace).with_suffix(".manifest.json")
    if manifest_path:
        extra = dict(extra or {})
        if health is not None:
            extra["health"] = health.as_dict()
        if headline:
            extra["headline"] = dict(sorted(headline.items()))
        if ctx.profiles:
            extra["profile"] = profile_summary(ctx.profiles)
        manifest = build_manifest(
            command,
            dataset=dataset,
            configs=(VisitConfig(), MatchConfig(), ClassifyConfig()),
            seeds=seeds,
            workers=getattr(args, "workers", None),
            timings=timings,
            metrics=ctx.metrics.snapshot(),
            extra=extra,
        )
        manifest.scorecard = scorecard_for_manifest(manifest).as_dict()
        print(f"wrote manifest: {manifest.write(manifest_path)}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-study",
        description="Reproduction of 'On the Validity of Geosocial Mobility Traces'",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic study dataset")
    gen.add_argument("--dataset", choices=["primary", "baseline"], default="primary")
    gen.add_argument("--scale", type=float, default=1.0, help="population scale (0, 1]")
    gen.add_argument("--seed", type=int, default=None, help="override the preset seed")
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument(
        "--store",
        choices=["jsonl", "disk"],
        default="jsonl",
        help="disk: write a segment store (streams users, bounded memory) "
             "instead of one JSONL directory",
    )
    gen.add_argument(
        "--segment-users",
        type=_segment_users,
        default=DEFAULT_SEGMENT_USERS,
        metavar="N",
        help=f"users per segment with --store disk (default {DEFAULT_SEGMENT_USERS})",
    )
    _add_workers_flag(gen)

    val = sub.add_parser("validate", help="run the checkin-validity pipeline")
    val.add_argument("--data", help="dataset directory written by 'generate'")
    val.add_argument("--scale", type=float, default=0.15,
                     help="generate a Primary dataset at this scale instead")
    val.add_argument("--timings", action="store_true",
                     help="print the per-stage runtime breakdown")
    val.add_argument("--quiet", action="store_true",
                     help="suppress the live segment progress line "
                          "(--store disk; it is TTY-only regardless)")
    _add_workers_flag(val)
    _add_store_flags(val)
    _add_resilience_flags(val, inject=True)
    _add_obs_flags(val)
    _add_telemetry_flags(val)

    srv = sub.add_parser(
        "serve",
        help="run the streaming validation service over an event stream "
             "(verdicts and metrics byte-identical to batch validate)",
    )
    srv.add_argument("--data", help="dataset directory written by 'generate' "
                     "(replayed event-by-event; also the POI universe for "
                     "--events)")
    srv.add_argument("--scale", type=float, default=0.15,
                     help="generate a Primary dataset at this scale instead")
    srv.add_argument("--events", metavar="PATH",
                     help="replay a captured JSONL event stream (requires "
                          "--data for the POI universe)")
    srv.add_argument("--dump-events", metavar="PATH",
                     help="also write the replayed event stream as JSONL")
    srv.add_argument("--lateness", type=_lateness_seconds, default=0.0,
                     metavar="S",
                     help="accept events up to S seconds behind each user's "
                          "high-water mark (default 0: strictly in order)")
    srv.add_argument("--checkpoint-dir", metavar="PATH",
                     help="persist serving state snapshots here; with "
                          "--resume a killed server picks up where it left "
                          "off without re-verdicting")
    srv.add_argument("--checkpoint-every", type=int, default=1000, metavar="N",
                     help="snapshot every N ingested events (default 1000)")
    srv.add_argument("--resume", action="store_true",
                     help="restore the latest snapshot from --checkpoint-dir "
                          "before ingesting")
    srv.add_argument("--verdicts", metavar="PATH",
                     help="write the verdict stream as JSON lines")
    srv.add_argument("--quiet", action="store_true",
                     help="suppress the live event progress line "
                          "(it is TTY-only regardless)")
    _add_obs_flags(srv)
    _add_telemetry_flags(srv)

    rep = sub.add_parser("report", help="regenerate the paper's tables and figures")
    rep.add_argument("--scale", type=float, default=0.15)
    rep.add_argument(
        "--only",
        help=f"comma-separated subset of: {', '.join(EXPERIMENTS)}",
    )
    _add_workers_flag(rep)
    _add_resilience_flags(rep)
    _add_obs_flags(rep)

    man = sub.add_parser("manet", help="run the Figure 8 MANET comparison")
    man.add_argument("--scale", type=float, default=0.15)
    man.add_argument(
        "--full",
        action="store_true",
        help="use the paper's 200-node, 100 km configuration (slow)",
    )
    man.add_argument(
        "--seeds",
        type=_positive_int,
        default=1,
        help="repeat the simulation under N consecutive MANET seeds and "
             "report mean ± band for each Figure 8 ratio (default: 1)",
    )
    _add_workers_flag(man)
    _add_resilience_flags(man)
    _add_obs_flags(man)

    exp = sub.add_parser("export", help="export every table/figure's data to CSV")
    exp.add_argument("--scale", type=float, default=0.15)
    exp.add_argument("--out", required=True, help="output directory for CSV files")
    exp.add_argument("--no-manet", action="store_true",
                     help="skip the (slow) Figure 8 simulation")
    _add_workers_flag(exp)
    _add_resilience_flags(exp)
    _add_obs_flags(exp)

    rec = sub.add_parser(
        "recover", help="up-sample missing checkins (§7) and report the gain"
    )
    rec.add_argument("--scale", type=float, default=0.15)
    _add_workers_flag(rec)
    _add_resilience_flags(rec)
    _add_obs_flags(rec)

    ins = sub.add_parser("inspect", help="pretty-print a run manifest")
    ins.add_argument("manifest_path", metavar="MANIFEST",
                     help="path to a manifest written via --trace/--manifest")

    mon = sub.add_parser(
        "monitor",
        help="tail a running (or finished) command's live telemetry as a "
             "TTY dashboard",
    )
    mon.add_argument(
        "target", metavar="RUN",
        help="what to tail: a --telemetry directory, a live.json path, or "
             "an http://127.0.0.1:PORT endpoint from --metrics-port",
    )
    mon.add_argument(
        "--once", action="store_true",
        help="render one dashboard frame and exit",
    )
    mon.add_argument(
        "--interval", type=float, default=2.0, metavar="S",
        help="seconds between refreshes (default 2.0)",
    )

    aud = sub.add_parser(
        "audit",
        help="score a run manifest against the paper's reference values",
    )
    aud.add_argument("manifest_path", metavar="MANIFEST",
                     help="path to a manifest written via --trace/--manifest")
    aud.add_argument("--json", action="store_true",
                     help="emit the scorecard as canonical JSON "
                          "(byte-deterministic for equivalent runs)")
    aud.add_argument("--strict", action="store_true",
                     help="exit non-zero on warnings too, not just failures")

    dif = sub.add_parser(
        "diff",
        help="compare two runs; exit 1 on regression (drift, config "
             "change, scorecard flip, wall-time regression)",
    )
    dif.add_argument("a_path", metavar="A",
                     help="reference run: manifest JSON, or --trace JSONL "
                          "when both paths end in .jsonl")
    dif.add_argument("b_path", metavar="B", help="candidate run")
    dif.add_argument("--json", action="store_true",
                     help="emit the diff as canonical JSON")
    dif.add_argument("--wall-threshold", type=float, default=0.25,
                     metavar="FRACTION",
                     help="relative per-stage slowdown counted as a "
                          "regression (default 0.25 = 25%%)")
    dif.add_argument("--wall-floor", type=float, default=0.5,
                     metavar="SECONDS",
                     help="absolute slowdown floor below which wall-time "
                          "movement is reported as info only (default 0.5 s)")
    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    preset = primary_config if args.dataset == "primary" else baseline_config
    config = preset() if args.seed is None else preset(seed=args.seed)
    config = config.scaled(args.scale)
    if args.store == "disk":
        store = generate_study_store(
            config, args.out, segment_users=args.segment_users,
            workers=args.workers,
        )
        print(
            f"wrote {store.name} store: {store.n_users} users, "
            f"{store.n_checkins} checkins, {store.n_gps_points} GPS points "
            f"in {len(store.segments)} segment(s) -> {args.out}"
        )
        return 0
    dataset = generate_dataset(config)
    save_dataset(dataset, args.out)
    stats = dataset.stats()
    print(f"wrote {stats.name}: {stats.n_users} users, {stats.n_checkins} checkins, "
          f"{stats.n_gps_points} GPS points -> {args.out}")
    return 0


def _dataset_error(exc: Exception) -> int:
    """One line on stderr for a dataset that cannot be loaded; exit 2.

    The loaders' messages already name the file and the offending
    record (a non-finite coordinate, a reference to an unknown user).
    """
    print(f"cannot load dataset: {exc}", file=sys.stderr)
    return 2


def _cmd_validate_disk(args, ctx, resilience, fault_plan) -> int:
    """``validate --store disk``: stream the study through a segment store.

    The study reaches the pipeline as a store whichever way it arrives:
    ``--data`` pointing at an existing store opens it, ``--data``
    pointing at a JSONL directory spills it into one (at ``--store-dir``
    or a temp dir), and no ``--data`` generates the Primary study
    straight into segments.  Output — summary, counters, gauges, dataset
    fingerprint, scorecard — is byte-identical to the in-memory path.
    """
    import shutil
    import tempfile

    seeds = {}
    scratch: Optional[str] = None
    try:
        with activate(ctx):
            if args.data and StudyStore.is_store(args.data):
                store = StudyStore.open(args.data)
                extra = {"data": args.data}
            elif args.data:
                store_dir = args.store_dir
                if store_dir is None:
                    scratch = tempfile.mkdtemp(prefix="repro-store-")
                    store_dir = scratch
                try:
                    store = load_dataset_into_store(
                        args.data, store_dir, segment_users=args.segment_users
                    )
                except (OSError, ValueError) as exc:
                    return _dataset_error(exc)
                extra = {"data": args.data}
            else:
                config = primary_config()
                seeds["primary"] = config.seed
                store_dir = args.store_dir
                if store_dir is None:
                    scratch = tempfile.mkdtemp(prefix="repro-store-")
                    store_dir = scratch
                store = generate_study_store(
                    config.scaled(args.scale),
                    store_dir,
                    segment_users=args.segment_users,
                )
                extra = {"scale": args.scale}
            extra["store"] = {"mode": "disk", **store.segment_summary()}
            # Progress is cosmetic and stderr-only: suppressed when the
            # stream is not a terminal (logs, CI) or under --quiet.
            progress = (
                sys.stderr
                if sys.stderr.isatty() and not args.quiet
                else None
            )
            collectors = [registry_collector(ctx.metrics)] if ctx.enabled else []
            sampler, err = _start_telemetry(args, "validate", collectors)
            if err is not None:
                return err
            finished = False
            try:
                summary = validate_store(
                    store, workers=args.workers,
                    resilience=resilience, fault_plan=fault_plan,
                    checkpoints=args.checkpoint_dir,
                    progress=progress,
                    telemetry=sampler,
                )
                finished = True
            finally:
                if sampler is not None:
                    sampler.close(finished=finished)
        print(summary.summary())
        if summary.health.recovered or summary.health.degraded:
            print(summary.health.format_report())
        if args.timings:
            print(summary.timings.format_report())
        _write_obs_artifacts(
            args, ctx, "validate",
            dataset=store.fingerprint(visit_counts=summary.visit_counts),
            seeds=seeds,
            timings=summary.timings.as_dict(),
            extra=extra,
            health=summary.health if resilience is not None else None,
        )
    finally:
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    ctx, err = _obs_context(args)
    if err is not None:
        return err
    resilience, fault_plan, err = _resilience_from_args(args)
    if err is not None:
        return err
    if args.store == "disk":
        return _cmd_validate_disk(args, ctx, resilience, fault_plan)
    seeds = {}
    with activate(ctx):
        if args.data:
            try:
                dataset = load_dataset(args.data)
            except (OSError, ValueError) as exc:
                return _dataset_error(exc)
            extra = {"data": args.data}
        else:
            config = primary_config()
            seeds["primary"] = config.seed
            dataset = generate_dataset(config.scaled(args.scale))
            extra = {"scale": args.scale}
        collectors = [registry_collector(ctx.metrics)] if ctx.enabled else []
        sampler, err = _start_telemetry(args, "validate", collectors)
        if err is not None:
            return err
        finished = False
        try:
            report = validate(
                dataset, workers=args.workers,
                resilience=resilience, fault_plan=fault_plan,
            )
            finished = True
        finally:
            if sampler is not None:
                sampler.close(finished=finished)
    print(report.summary())
    if report.health.recovered or report.health.degraded:
        print(report.health.format_report())
    if args.timings:
        print(report.timings.format_report())
    _write_obs_artifacts(
        args, ctx, "validate",
        dataset=dataset,
        seeds=seeds,
        timings=report.timings.as_dict(),
        extra=extra,
        health=report.health if resilience is not None else None,
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """``repro-study serve``: ingest an event stream, print the summary.

    The stream comes from ``--events`` (a captured JSONL stream), or is
    replayed from ``--data`` / a generated study.  Output — summary
    text, semantic metrics, dataset fingerprint, scorecard — is
    byte-identical to ``validate`` over the same study.
    """
    from .serve import ServeConfig, ValidationService, read_events, write_events
    from .synth import replay_events

    ctx, err = _obs_context(args)
    if err is not None:
        return err
    if args.events and not args.data:
        print("--events needs --data for the POI universe", file=sys.stderr)
        return 2
    if args.resume and not args.checkpoint_dir:
        print("--resume needs --checkpoint-dir", file=sys.stderr)
        return 2
    serve_config = ServeConfig(allowed_lateness_s=args.lateness)
    seeds = {}
    with activate(ctx):
        if args.data:
            try:
                dataset = load_dataset(args.data)
            except (OSError, ValueError) as exc:
                return _dataset_error(exc)
            extra = {"data": args.data}
        else:
            config = primary_config()
            seeds["primary"] = config.seed
            dataset = generate_dataset(config.scaled(args.scale))
            extra = {"scale": args.scale}
        total_events: Optional[int] = None
        if args.events:
            # Stays a generator — captured streams can be huge, and the
            # progress line copes with an unknown total.
            events = read_events(args.events)
            extra["events"] = args.events
        else:
            events = replay_events(dataset)
            stats = dataset.stats()
            # One registration per user, then every GPS fix and checkin.
            total_events = stats.n_users + stats.n_gps_points + stats.n_checkins
        if args.dump_events:
            events = list(events)
            total_events = len(events)
            print(f"wrote events: {write_events(args.dump_events, events)}")

        # On --resume append: verdicts settled before the crash are
        # already in the file, and the restored service only re-emits
        # ones settled after the snapshot.  Truncating here would lose
        # the pre-snapshot prefix permanently; consumers deduplicate by
        # (user_id, seq), so appending keeps the stream exactly-once.
        verdict_mode = "a" if args.resume else "w"
        verdict_file = (
            open(args.verdicts, verdict_mode) if args.verdicts else None
        )
        sink = None
        if verdict_file is not None:
            def sink(verdict):
                verdict_file.write(json.dumps(verdict.as_dict()) + "\n")
        # The progress line is cosmetic and stderr-only: suppressed when
        # stderr is not a terminal (logs, CI) or under --quiet.
        prog = (
            ProgressLine(sys.stderr, "events", total=total_events,
                         check_every=1024)
            if sys.stderr.isatty() and not args.quiet
            else None
        )
        sampler = None
        finished = False
        try:
            service = ValidationService(
                dataset.pois,
                serve_config,
                name=dataset.name,
                state_store=args.checkpoint_dir,
                checkpoint_every=(
                    args.checkpoint_every if args.checkpoint_dir else None
                ),
                sink=sink,
                telemetry=_telemetry_armed(args),
            )
            if service.telemetry is not None:
                collectors = [service.telemetry.collect]
                if ctx.enabled:
                    collectors.append(registry_collector(ctx.metrics))
                sampler, err = _start_telemetry(args, "serve", collectors)
                if err is not None:
                    return err
            skip = service.restore() if args.resume else 0
            fed = 0
            for i, event in enumerate(events):
                if i < skip:
                    continue
                service.ingest(event)
                fed += 1
                if prog is not None:
                    prog.update()
            summary = service.finish()
            finished = True
        finally:
            if prog is not None:
                prog.close()
            if sampler is not None:
                sampler.close(finished=finished)
            if verdict_file is not None:
                verdict_file.close()
        if skip:
            print(f"resumed from snapshot at event {skip}")
        extra["serve"] = {
            "events": summary.n_events,
            "fed": fed,
            "chunks": summary.n_chunks,
            "verdicts": summary.n_verdicts,
            "lateness_s": args.lateness,
        }
    print(summary.summary())
    if args.verdicts:
        print(f"wrote verdicts: {args.verdicts}")
    _write_obs_artifacts(
        args, ctx, "serve",
        dataset=summary.fingerprint,
        seeds=seeds,
        extra=extra,
    )
    return 0


def _study_artifacts(args: argparse.Namespace, ctx):
    """Run ``build_study`` for a study-shaped command under ``ctx``."""
    resilience, fault_plan, err = _resilience_from_args(args)
    if err is not None:
        raise SystemExit(err)
    return build_study(
        scale=args.scale, workers=args.workers, obs=ctx,
        resilience=resilience, fault_plan=fault_plan,
    )


def _write_study_artifacts(
    args: argparse.Namespace, ctx, command: str, artifacts, headline=None
) -> None:
    """Manifest/trace output shared by report/manet/export/recover."""
    health = artifacts.primary_report.health
    _write_obs_artifacts(
        args, ctx, command,
        dataset=artifacts.primary,
        seeds={"primary": 20131121, "baseline": 20131122},
        timings=artifacts.primary_report.timings.as_dict(),
        extra={"scale": args.scale, "scope": "primary"},
        health=health if (health.recovered or health.degraded) else None,
        headline=headline,
    )


def _cmd_report(args: argparse.Namespace) -> int:
    names = list(EXPERIMENTS)
    if args.only:
        names = [n.strip() for n in args.only.split(",") if n.strip()]
        unknown = [n for n in names if n not in EXPERIMENTS]
        if unknown:
            print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
            return 2
    ctx, err = _obs_context(args)
    if err is not None:
        return err
    artifacts = _study_artifacts(args, ctx)
    results = []
    with activate(ctx):
        for name in names:
            result = EXPERIMENTS[name].run(artifacts)
            results.append(result)
            text = (
                result.format_table() if hasattr(result, "format_table")
                else result.format_report()
            )
            print(text)
            print()
    _write_study_artifacts(
        args, ctx, "report", artifacts,
        headline=collect_headline(results),
    )
    return 0


def _cmd_manet(args: argparse.Namespace) -> int:
    ctx, err = _obs_context(args)
    if err is not None:
        return err
    artifacts = _study_artifacts(args, ctx)
    config = paper_config() if args.full else bench_config()
    with activate(ctx):
        if args.seeds > 1:
            result = figure8.run_multi(artifacts, config, seeds=args.seeds)
        else:
            result = figure8.run(artifacts, config)
    print(result.format_report())
    _write_study_artifacts(
        args, ctx, "manet", artifacts,
        headline=collect_headline([result]),
    )
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from .experiments.export import export_all

    ctx, err = _obs_context(args)
    if err is not None:
        return err
    artifacts = _study_artifacts(args, ctx)
    with activate(ctx):
        paths = export_all(artifacts, args.out, include_manet=not args.no_manet)
    print(f"wrote {len(paths)} CSV files to {args.out}")
    _write_study_artifacts(args, ctx, "export", artifacts)
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    from .core import recovery_gain

    ctx, err = _obs_context(args)
    if err is not None:
        return err
    artifacts = _study_artifacts(args, ctx)
    with activate(ctx):
        gain = recovery_gain(artifacts.primary)
    print(gain.format_report())
    _write_study_artifacts(args, ctx, "recover", artifacts)
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    try:
        manifest = RunManifest.load(args.manifest_path)
    except (OSError, ValueError, KeyError) as exc:
        print(f"cannot read manifest: {exc}", file=sys.stderr)
        return 2
    print(manifest.format_report())
    return 0


def _cmd_monitor(args: argparse.Namespace) -> int:
    """``repro-study monitor``: tail a run's live telemetry.

    ``RUN`` is whatever the producing command advertised: the
    ``--telemetry`` directory (its atomically-rewritten ``live.json``),
    the status file itself, or the ``--metrics-port`` HTTP endpoint.
    Renders the dashboard every ``--interval`` seconds until the run
    flags itself finished; ``--once`` renders a single frame.  Exit 2
    when the target is unreachable, 1 when it becomes unreachable
    mid-tail.
    """
    if args.interval <= 0:
        print(f"--interval must be > 0, got {args.interval}", file=sys.stderr)
        return 2
    try:
        sample = read_status(args.target)
    except (OSError, ValueError) as exc:
        print(f"cannot read telemetry from {args.target}: {exc}",
              file=sys.stderr)
        return 2
    redraw = sys.stdout.isatty() and not args.once
    print(format_dashboard(sample))
    if args.once or sample.get("finished"):
        return 0
    previous = sample
    while True:
        time.sleep(args.interval)
        try:
            sample = read_status(args.target)
        except (OSError, ValueError) as exc:
            print(f"lost telemetry from {args.target}: {exc}", file=sys.stderr)
            return 1
        if redraw:
            # Home + clear-to-end keeps the dashboard in place without
            # flashing a full screen erase between frames.
            sys.stdout.write("\x1b[H\x1b[J")
        print(format_dashboard(sample, previous))
        if sample.get("finished"):
            return 0
        previous = sample


def _cmd_audit(args: argparse.Namespace) -> int:
    """Re-evaluate a manifest's fidelity scorecard; exit 1 on failure."""
    try:
        manifest = RunManifest.load(args.manifest_path)
    except (OSError, ValueError, KeyError) as exc:
        print(f"cannot read manifest: {exc}", file=sys.stderr)
        return 2
    scorecard = scorecard_for_manifest(manifest)
    if args.json:
        print(scorecard.to_json(), end="")
    else:
        print(scorecard.format_report())
    failing = {"fail", "warn"} if args.strict else {"fail"}
    return 1 if scorecard.status in failing else 0


def _cmd_diff(args: argparse.Namespace) -> int:
    """Structurally compare two runs; exit 1 on regression."""
    a_path, b_path = Path(args.a_path), Path(args.b_path)
    try:
        if a_path.suffix == ".jsonl" and b_path.suffix == ".jsonl":
            diff = diff_traces(
                read_trace(a_path, strict=False),
                read_trace(b_path, strict=False),
            )
        else:
            diff = diff_manifests(
                RunManifest.load(a_path),
                RunManifest.load(b_path),
                wall_rel_threshold=args.wall_threshold,
                wall_abs_floor_s=args.wall_floor,
            )
    except (OSError, ValueError, KeyError) as exc:
        print(f"cannot diff runs: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(diff.as_dict(), indent=2, sort_keys=True))
    else:
        print(diff.format_report())
    return 1 if diff.has_regressions else 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "validate": _cmd_validate,
        "serve": _cmd_serve,
        "report": _cmd_report,
        "manet": _cmd_manet,
        "export": _cmd_export,
        "recover": _cmd_recover,
        "inspect": _cmd_inspect,
        "monitor": _cmd_monitor,
        "audit": _cmd_audit,
        "diff": _cmd_diff,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
