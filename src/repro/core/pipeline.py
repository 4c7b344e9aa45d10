"""End-to-end validation pipeline: the paper's Sections 4–5 in one call.

``validate(dataset)`` runs visit extraction, checkin-to-visit matching,
and extraneous classification, and bundles the results with the headline
numbers (Figure 1's Venn regions, the class breakdown) into a single
:class:`ValidationReport`.

``validate_store(store)`` is the out-of-core twin: it streams a
:class:`repro.store.StudyStore` through the same three stages one
segment at a time, so peak memory is bounded by one segment while
counters, gauges, summaries and fingerprints stay byte-identical to the
in-memory path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Mapping, Optional, Sequence, TextIO, Tuple, Union

from ..model import CheckinType, Dataset, UserData
from ..obs import ObsContext, ProgressLine, activate, config_hash, thread_activate
from ..obs import current as obs_current
from ..runtime import (
    DegradedResult,
    ResilienceConfig,
    RunHealth,
    RuntimeTimings,
    StreamMerger,
    resolve_executor,
    shard_count,
    shard_segment,
)
from ..runtime.faults import inject
from ..store import CheckpointStore, SegmentEntry, StudyStore
from .classify import ClassificationResult, ClassifyConfig, classify_dataset
from .matching import MatchConfig, MatchingResult, RegionCounts, match_dataset
from .visits import VisitConfig, extract_dataset_visits


def format_summary(
    name: str,
    counts: RegionCounts,
    type_counts: Mapping[CheckinType, int],
    skipped: Sequence[str] = (),
) -> str:
    """The pipeline's human-readable summary, from Figure 1's regions.

    Single formatter behind :meth:`ValidationReport.summary` and
    :meth:`HeadlineCounts.summary` — the streaming and serving paths
    accumulate the same integers the in-memory result derives, so all
    render the exact same text.
    """
    n_extraneous = counts.n_extraneous
    extraneous_fraction = counts.extraneous_fraction()
    lines = [
        f"Dataset: {name}",
        f"  checkins: {counts.n_checkins}   visits: {counts.n_visits}",
        f"  honest checkins:     {counts.n_honest}"
        f" ({100 * (1 - extraneous_fraction):.0f}% of checkins)",
        f"  extraneous checkins: {n_extraneous}"
        f" ({100 * extraneous_fraction:.0f}% of checkins)",
        f"  missing checkins:    {counts.n_missing}"
        f" ({100 * (1 - counts.coverage_fraction()):.0f}% of visits)",
        "  extraneous breakdown:",
    ]
    for kind in (
        CheckinType.SUPERFLUOUS,
        CheckinType.REMOTE,
        CheckinType.DRIVEBY,
        CheckinType.OTHER,
    ):
        share = type_counts[kind] / n_extraneous if n_extraneous else 0.0
        lines.append(
            f"    {kind.value:<12} {type_counts[kind]:>7}  ({100 * share:.0f}% of extraneous)"
        )
    if skipped:
        lines.append(
            f"  DEGRADED RUN: {len(skipped)} user(s) skipped after repeated"
            f" shard failures [{', '.join(skipped)}]"
        )
    return "\n".join(lines)


@dataclass
class ValidationReport(RegionCounts):
    """Everything the paper's core analysis produces for one dataset."""

    dataset: Dataset
    matching: MatchingResult
    classification: ClassificationResult
    #: Per-stage/shard timings of the run that produced this report.
    timings: RuntimeTimings = field(default_factory=RuntimeTimings)
    #: What the resilience layer had to do (retries, rebuilds, skips);
    #: empty/clean when resilience was off or nothing failed.
    health: RunHealth = field(default_factory=RunHealth)

    @property
    def n_honest(self) -> int:
        """Checkins matching a GPS visit (Figure 1 intersection)."""
        return self.matching.n_honest

    @property
    def n_extraneous(self) -> int:
        """Checkins without a matching visit (Figure 1 left region)."""
        return self.matching.n_extraneous

    @property
    def n_missing(self) -> int:
        """Visits without a matching checkin (Figure 1 right region)."""
        return self.matching.n_missing

    def type_counts(self) -> Dict[CheckinType, int]:
        """Checkin count per class (honest + the extraneous taxonomy)."""
        return self.classification.counts()

    def summary(self) -> str:
        """Human-readable report mirroring the paper's headline numbers."""
        return format_summary(
            self.dataset.name, self, self.type_counts(),
            self.health.skipped_user_ids(),
        )



def validate(
    dataset: Dataset,
    visit_config: Optional[VisitConfig] = None,
    match_config: Optional[MatchConfig] = None,
    classify_config: Optional[ClassifyConfig] = None,
    workers: Optional[int] = None,
    executor=None,
    obs=None,
    resilience=None,
    fault_plan=None,
    health: Optional[RunHealth] = None,
) -> ValidationReport:
    """Run the full checkin-validity pipeline on a dataset.

    Visit extraction runs only for users whose visits are not yet
    populated, so pre-extracted datasets are not recomputed.

    ``workers`` > 1 shards every stage over a process pool (``0`` means
    all CPUs); alternatively pass a prebuilt ``executor`` (for pool
    reuse across datasets).  Any worker count produces a report
    identical to the serial run; ``report.timings`` records how the
    wall time split across stages and shards.

    ``resilience`` (a :class:`repro.runtime.ResilienceConfig`) arms
    shard-level fault tolerance: failed shards are retried with
    deterministic backoff, crashed pools are rebuilt and only the
    unfinished shards re-run, and poison shards fall back to the serial
    path — a recovered run is byte-identical to a clean one.  Under the
    ``skip_and_report`` policy, users whose shard kept failing are
    excluded from downstream stages and surfaced on ``report.health``
    (and in the summary), never silently missing.  ``fault_plan`` (a
    :class:`repro.runtime.FaultPlan`) deterministically injects faults
    for drills; ``health`` lets callers share one
    :class:`repro.runtime.RunHealth` accumulator across runs.

    ``obs`` is an optional :class:`repro.obs.ObsContext`; when given (or
    when one is already ambient via :func:`repro.obs.activate`), the run
    records spans and metrics into it.  Observation never changes the
    report — output is byte-identical with obs on or off.
    """
    ctx = obs if obs is not None else obs_current()
    exec_, owned = resolve_executor(executor, workers)
    timings = RuntimeTimings()
    if health is None:
        health = RunHealth()
    try:
        with activate(ctx), ctx.span(
            "pipeline.validate",
            dataset=dataset.name,
            users=len(dataset.users),
            workers=exec_.workers,
        ):
            matching, classification = _segment_results(
                dataset, visit_config, match_config, classify_config, exec_,
                timings, resilience, fault_plan, health,
            )
            ctx.count("pipeline.runs_total", 1)
            set_headline_gauges(ctx, matching, health)
    finally:
        if owned:
            exec_.close()
    return ValidationReport(
        dataset=dataset,
        matching=matching,
        classification=classification,
        timings=timings,
        health=health,
    )


def set_headline_gauges(
    ctx, counts: RegionCounts, health: Optional[RunHealth] = None
) -> None:
    """Publish Figure 1's headline fractions as gauges.

    ``counts`` is any :class:`RegionCounts` (a record or a
    :class:`MatchingResult`).  Every caller sets them once, after
    aggregation, from the same integer operands, so the floats agree
    bit for bit at any worker count and on every path — and they are
    the direct inputs of the fidelity scorecard.
    """
    ctx.set_gauge("matching.extraneous_fraction", counts.extraneous_fraction())
    ctx.set_gauge("matching.missing_fraction", 1.0 - counts.coverage_fraction())
    if health is not None and health.degraded:
        ctx.set_gauge("pipeline.degraded", 1.0)


@dataclass
class HeadlineCounts(RegionCounts):
    """Figure 1's regions for one run, as plain aggregates.

    The base of every summary that counts instead of keeping per-checkin
    results — the streamed :class:`ValidationSummary` and the serving
    layer's ``ServeSummary``.  Totals and fractions come from
    :class:`RegionCounts`, the text from :func:`format_summary`, exactly
    as for :class:`ValidationReport`.
    """

    name: str
    n_honest: int
    n_extraneous: int
    n_missing: int
    type_counts: Dict[CheckinType, int]

    def skipped_user_ids(self) -> Tuple[str, ...]:
        """Users a degraded run left out (none unless health is tracked)."""
        return ()

    def summary(self) -> str:
        """Identical text to :meth:`ValidationReport.summary`."""
        return format_summary(
            self.name, self, self.type_counts, self.skipped_user_ids()
        )


@dataclass
class ValidationSummary(HeadlineCounts):
    """Aggregates of a streamed (out-of-core) validation run.

    Carries everything the report-level consumers need — headline
    counts, the class breakdown, per-user visit counts for the dataset
    fingerprint — without holding any per-checkin results, so its size
    is O(users), not O(records).
    """

    n_users: int
    n_segments: int
    #: Per-user extracted-visit count (``-1`` = extraction skipped), the
    #: input of :meth:`repro.store.StudyStore.fingerprint`.
    visit_counts: Dict[str, int]
    timings: RuntimeTimings = field(default_factory=RuntimeTimings)
    health: RunHealth = field(default_factory=RunHealth)
    #: Segments replayed from checkpoints instead of recomputed.
    segments_reused: int = 0

    def skipped_user_ids(self) -> Tuple[str, ...]:
        return self.health.skipped_user_ids()

    def add_segment(self, user_ids: Sequence[str], results: Mapping) -> None:
        """Fold one segment's results (checkpoint-shaped: ``matching``,
        ``labels``, ``visits``) into the running counts."""
        for user_matching in results["matching"].values():
            self.n_honest += len(user_matching.matches)
            self.n_extraneous += len(user_matching.extraneous)
            self.n_missing += len(user_matching.missing)
        for label in results["labels"].values():
            self.type_counts[label] += 1
        for user_id in user_ids:
            visits = results["visits"].get(user_id)
            self.visit_counts[user_id] = -1 if visits is None else len(visits)


def _segment_results(
    dataset: Dataset,
    visit_config: Optional[VisitConfig],
    match_config: Optional[MatchConfig],
    classify_config: Optional[ClassifyConfig],
    exec_,
    timings: RuntimeTimings,
    resilience,
    fault_plan,
    health: RunHealth,
    shards=None,
):
    """Run the three stages on one dataset: extract, match, classify.

    Users whose extraction was skipped during this call have no visits;
    matching and classification run on the rest, keeping a degraded run
    going.  ``shards`` pre-plans extraction — a store segment passes
    the plan from its manifest counts
    (:func:`repro.runtime.shard_segment`), so segment size, not study
    size, bounds the sharding work; ``None`` shards the dataset itself.
    """
    skip_base = len(health.skipped)
    extract_dataset_visits(
        dataset, visit_config, executor=exec_, timings=timings,
        resilience=resilience, fault_plan=fault_plan, health=health,
        shards=shards,
    )
    skipped = {
        user_id
        for degraded in health.skipped[skip_base:]
        if degraded.stage == "extract"
        for user_id in degraded.user_ids
    }
    working = (
        dataset
        if not skipped
        else dataset.subset(
            [u for u in dataset.users if u not in skipped],
            name=dataset.name,
        )
    )
    matching = match_dataset(
        working, match_config, executor=exec_, timings=timings,
        resilience=resilience, fault_plan=fault_plan, health=health,
    )
    classification = classify_dataset(
        working, matching, classify_config, executor=exec_,
        timings=timings, resilience=resilience, fault_plan=fault_plan,
        health=health,
    )
    return matching, classification


def _load_segment_resilient(
    store: StudyStore,
    entry: SegmentEntry,
    pois,
    resilience: Optional[ResilienceConfig],
    fault_plan,
) -> Tuple[Optional[Dataset], int, Optional[DegradedResult]]:
    """Load one segment as a segment-granular resilient work unit.

    Faults scripted at stage ``"segment.load"`` (with ``shard_id`` as
    the segment id) fire here, before the actual read.  With
    ``resilience`` armed, failed loads retry with the same deterministic
    backoff as shards; a load that keeps failing follows the policy —
    ``skip_and_report`` returns a :class:`DegradedResult` covering the
    whole segment instead of raising.  Returns
    ``(dataset_or_None, retries, degraded_or_None)``.
    """
    attempt = 1
    max_attempts = resilience.max_attempts if resilience is not None else 1
    while True:
        try:
            fault = (
                fault_plan.lookup("segment.load", entry.segment_id, attempt)
                if fault_plan is not None
                else None
            )
            if fault is not None:
                inject(fault, allow_exit=False)
            return store.load_segment(entry, pois=pois), attempt - 1, None
        except Exception as exc:
            if resilience is None or resilience.on_failure == "fail_fast":
                raise
            if attempt < max_attempts:
                backoff = resilience.backoff_s(attempt)
                if backoff:
                    time.sleep(backoff)
                attempt += 1
                continue
            if resilience.on_failure == "skip_and_report":
                return None, attempt - 1, DegradedResult(
                    stage="segment.load",
                    shard_id=entry.segment_id,
                    user_ids=entry.user_ids,
                    attempts=attempt,
                    error=f"{type(exc).__name__}: {exc}",
                )
            raise


def validate_store(
    store: StudyStore,
    visit_config: Optional[VisitConfig] = None,
    match_config: Optional[MatchConfig] = None,
    classify_config: Optional[ClassifyConfig] = None,
    workers: Optional[int] = None,
    executor=None,
    obs=None,
    resilience=None,
    fault_plan=None,
    health: Optional[RunHealth] = None,
    checkpoints: Optional[Union[CheckpointStore, str, Path]] = None,
    keep_results: bool = False,
    progress: Optional[TextIO] = None,
    telemetry=None,
) -> Union[ValidationSummary, ValidationReport]:
    """Run the validation pipeline over a study store, segment by segment.

    The walk takes one segment at a time on the calling thread: load it
    (GPS traces as mmap-backed views), push it through extraction →
    matching → classification with the usual executor/resilience
    machinery, reduce its results into running aggregates, and drop it
    before the next load — peak memory is bounded by one segment, not
    study size.  ``workers`` (or an explicit ``executor``) parallelises
    the stages *within* each segment over one process pool.

    Per-user computation is deterministic, segments partition the user
    set in dataset order, and reduction follows manifest order at any
    worker count — so the summary text, semantic counters and gauges,
    and dataset fingerprint are byte-identical to
    ``validate(store.load_dataset())`` at any worker count.  Checkpoint
    files are byte-identical run to run; across worker counts they
    decode to equal payloads.

    ``checkpoints`` (a :class:`repro.store.CheckpointStore` or a
    directory path) arms per-segment crash recovery: finished segments
    persist their results keyed by the pipeline config hash and the
    segment's content fingerprints, and a restarted run replays them
    (including their counter deltas, when observability was on) instead
    of recomputing.

    ``resilience`` additionally covers the segment *load* as its own
    work unit: failed loads retry with deterministic backoff, and under
    ``skip_and_report`` a segment whose load keeps failing is recorded
    on ``health`` (its users surface as skipped) instead of aborting.
    :class:`repro.runtime.FaultSpec` entries may target stage
    ``"segment.load"`` (``shard_id`` = segment id) and may scope any
    fault to one segment via their ``segment`` field.

    ``progress`` (a text stream, normally stderr) renders a rate-limited
    segments/users/ETA line after each reduced segment.

    ``telemetry`` (a :class:`repro.obs.TelemetrySampler`) publishes live
    progress — ``store.segments_done``, ``store.users_done`` (+ the
    ``store.users_done_total`` counter the monitor rates) and the
    planned totals — into the sampler's own
    :class:`~repro.obs.LiveMetrics` bag.  The run's
    :class:`~repro.obs.MetricsRegistry` is never touched, so manifests
    and parity suites stay byte-identical with telemetry on or off.

    ``keep_results=False`` (the default, the out-of-core mode) returns a
    :class:`ValidationSummary`; ``keep_results=True`` materialises every
    segment's users and per-checkin results into a full
    :class:`ValidationReport` — only sensible for studies that fit in
    RAM (parity tests, small runs).
    """
    visit_config = visit_config or VisitConfig()
    match_config = match_config or MatchConfig()
    classify_config = classify_config or ClassifyConfig()
    ctx = obs if obs is not None else obs_current()
    if health is None:
        health = RunHealth()
    if checkpoints is not None and not isinstance(checkpoints, CheckpointStore):
        checkpoints = CheckpointStore(checkpoints)
    checkpoint_key = config_hash(visit_config, match_config, classify_config)
    # With a fault plan but no explicit resilience config, segment loads
    # run under the default policy — mirroring run_stage's convention.
    load_resilience = resilience
    if load_resilience is None and fault_plan is not None:
        load_resilience = ResilienceConfig()

    summary = ValidationSummary(
        name=store.name,
        n_honest=0,
        n_extraneous=0,
        n_missing=0,
        type_counts={kind: 0 for kind in CheckinType},
        n_users=store.n_users,
        n_segments=len(store.segments),
        visit_counts={},
        health=health,
    )
    # keep_results only: the full per-user results, merged in order.
    merger = StreamMerger()
    labels: Dict[str, CheckinType] = {}
    checkins: Dict = {}
    users: Dict[str, UserData] = {}
    prog = (
        ProgressLine(progress, "users", total=store.n_users)
        if progress is not None
        else None
    )
    live = telemetry.live if telemetry is not None else None
    if live is not None:
        live.set_gauge("store.segments_planned", float(len(store.segments)))
        live.set_gauge("store.users_planned", float(store.n_users))
        live.set_gauge("store.segments_done", 0.0)
        live.set_gauge("store.users_done", 0.0)

    pois = store.load_pois()
    exec_, owned = resolve_executor(executor, workers)

    def run_segment(entry: SegmentEntry, parent_span):
        """Replay or compute one segment; ``(users, results)``.

        ``results`` is checkpoint-shaped (``matching``, ``labels``,
        ``checkins``, ``visits`` and, when checkpointing, ``counters``);
        ``users`` is the segment's users under ``keep_results`` only.
        """
        results = (
            checkpoints.load(entry, checkpoint_key)
            if checkpoints is not None
            else None
        )
        if results is not None:
            seg_dataset = None
            if keep_results:
                seg_dataset = store.load_segment(entry, pois=pois)
                for user_id, data in seg_dataset.users.items():
                    data.visits = results["visits"][user_id]
            with ctx.span(
                "store.segment",
                segment=entry.segment_id,
                users=entry.n_users,
                reused=True,
            ):
                summary.segments_reused += 1
                ctx.count("store.segments_reused", 1)
                for name, delta in results["counters"].items():
                    ctx.count(name, delta)
                ctx.count("store.segments_total", 1)
            return (seg_dataset.users if keep_results else None), results

        seg_plan = (
            fault_plan.for_segment(entry.segment_id)
            if fault_plan is not None
            else None
        )
        seg_dataset, load_retries, degraded = _load_segment_resilient(
            store, entry, pois, load_resilience, seg_plan
        )
        # Load-level recovery lands before the checkpoint snapshot,
        # so recovery noise never pollutes checkpoint bytes.
        if load_retries:
            health.retries += load_retries
            ctx.count("runtime.shard_retries", load_retries)
        if degraded is not None:
            health.skipped.append(degraded)
            ctx.count("runtime.shards_skipped", 1)
            ctx.count("store.segments_total", 1)
            return None, {"matching": {}, "labels": {}, "checkins": {}, "visits": {}}
        shards = shard_segment(
            entry.user_ids,
            entry.gps_counts,
            entry.checkin_counts,
            shard_count(exec_, entry.n_users),
        )

        def run_stages():
            return _segment_results(
                seg_dataset, visit_config, match_config, classify_config,
                exec_, summary.timings, resilience, seg_plan, health, shards,
            )

        delta = None
        if ctx.enabled:
            # A private context per segment gives its checkpoint a clean
            # counter delta; the run context absorbs it afterwards.
            seg_ctx = ObsContext(profile=ctx.profile_enabled)
            base_s = ctx.clock()
            with thread_activate(seg_ctx), seg_ctx.span(
                "store.segment",
                segment=entry.segment_id,
                users=entry.n_users,
                reused=False,
            ):
                matching, classification = run_stages()
            delta = seg_ctx.delta()
        else:
            matching, classification = run_stages()
        # Key order matters: this dict is the checkpoint payload.
        results = {
            "matching": matching.per_user,
            "labels": classification.labels,
            "checkins": classification.checkins,
            "visits": {
                user_id: data.visits
                for user_id, data in seg_dataset.users.items()
            },
        }
        if checkpoints is not None:
            before = ctx.metrics.snapshot()["counters"] if ctx.enabled else {}
            seg_counters = delta["metrics"]["counters"] if delta is not None else {}
            # A segment counter survives if it is new or changed the
            # cumulative value (new-but-zero keys included), so replay
            # recreates the exact key set.
            results["counters"] = {
                name: value
                for name, value in seg_counters.items()
                if name not in before or value != 0
            }
            checkpoints.save(entry, checkpoint_key, results)
        if delta is not None:
            ctx.absorb(delta, parent_id=parent_span.span_id, base_s=base_s)
        ctx.count("store.segments_total", 1)
        return (seg_dataset.users if keep_results else None), results

    def reduce(index: int, entry: SegmentEntry, seg_users, results) -> None:
        summary.add_segment(entry.user_ids, results)
        if keep_results:
            merger.absorb(results["matching"])
            labels.update(results["labels"])
            checkins.update(results["checkins"])
            if seg_users is not None:
                users.update(seg_users)
        if prog is not None:
            prog.update(
                entry.n_users,
                head=f"segments {index + 1}/{len(store.segments)}",
                tail=f"reused {summary.segments_reused}",
            )
        if live is not None:
            live.set_gauge("store.segments_done", float(index + 1))
            live.set_gauge("store.users_done", float(len(summary.visit_counts)))
            live.inc("store.users_done_total", entry.n_users)

    try:
        with activate(ctx), ctx.span(
            "pipeline.validate",
            dataset=store.name,
            users=store.n_users,
            workers=exec_.workers,
            segments=len(store.segments),
        ) as pipeline_span:
            # One statement per segment: nothing from segment i is still
            # referenced when segment i + 1 is loaded.
            for index, entry in enumerate(store.segments):
                reduce(index, entry, *run_segment(entry, pipeline_span))
            ctx.count("pipeline.runs_total", 1)
            set_headline_gauges(ctx, summary, health)
    finally:
        if owned:
            exec_.close()
        if prog is not None:
            prog.close()
    if keep_results:
        return ValidationReport(
            dataset=Dataset(name=store.name, pois=pois, users=users),
            matching=MatchingResult(config=match_config, per_user=merger.merged),
            classification=ClassificationResult(
                config=classify_config, labels=labels, checkins=checkins
            ),
            timings=summary.timings,
            health=health,
        )
    return summary
