"""End-to-end validation pipeline: the paper's Sections 4–5 in one call.

``validate(dataset)`` runs visit extraction, checkin-to-visit matching,
and extraneous classification, and bundles the results with the headline
numbers (Figure 1's Venn regions, the class breakdown) into a single
:class:`ValidationReport`.

``validate_store(store)`` is the out-of-core twin: it streams a
:class:`repro.store.StudyStore` through the same three stages one
segment (or one in-flight window of segments) at a time, so peak memory
is bounded by the segments in flight while counters, gauges, summaries
and fingerprints stay byte-identical to the in-memory path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, TextIO, Tuple, Union

from ..model import CheckinType, Dataset, UserData
from ..obs import ObsContext, activate, config_hash, thread_activate
from ..obs import current as obs_current
from ..runtime import (
    DegradedResult,
    ResilienceConfig,
    RunHealth,
    RuntimeTimings,
    StreamMerger,
    inflight_window,
    resolve_executor,
    run_pipelined,
    shard_count,
    shard_segment,
)
from ..runtime.errors import RuntimeConfigError
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


class _SegmentProgress:
    """Rate-limited segment progress line for long out-of-core runs.

    Rendered with a carriage return so the line updates in place;
    :meth:`close` finishes it with a newline.  Purely cosmetic — it
    writes to the given stream (normally stderr) and never touches the
    run's results or metrics.
    """

    #: Minimum seconds between renders (the last segment always renders).
    INTERVAL_S = 0.5

    def __init__(self, stream: TextIO, n_segments: int, n_users: int) -> None:
        self.stream = stream
        self.n_segments = n_segments
        self.n_users = n_users
        self.done_segments = 0
        self.done_users = 0
        self.reused = 0
        self._t0 = time.monotonic()
        self._last_render = 0.0
        self._wrote = False

    def update(self, n_users: int, reused: bool) -> None:
        """Record one finished segment; render when the interval elapsed."""
        self.done_segments += 1
        self.done_users += n_users
        if reused:
            self.reused += 1
        now = time.monotonic()
        if (
            now - self._last_render >= self.INTERVAL_S
            or self.done_segments == self.n_segments
        ):
            self._last_render = now
            self._render(now)

    @staticmethod
    def _eta(seconds: float) -> str:
        minutes, secs = divmod(int(seconds), 60)
        hours, minutes = divmod(minutes, 60)
        if hours:
            return f"{hours}:{minutes:02d}:{secs:02d}"
        return f"{minutes}:{secs:02d}"

    def _render(self, now: float) -> None:
        elapsed = max(now - self._t0, 1e-9)
        rate = self.done_users / elapsed
        remaining = max(self.n_users - self.done_users, 0)
        eta_s = remaining / rate if rate > 0 else 0.0
        line = (
            f"segments {self.done_segments}/{self.n_segments}"
            f"  users {self.done_users}/{self.n_users}"
            f"  {rate:,.0f} users/s"
            f"  ETA {self._eta(eta_s)}"
            f"  reused {self.reused}"
        )
        self.stream.write("\r" + line.ljust(79))
        self.stream.flush()
        self._wrote = True

    def close(self) -> None:
        """Terminate the in-place line (no-op if nothing was rendered)."""
        if self._wrote:
            self.stream.write("\n")
            self.stream.flush()



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
    inflight_segments: Optional[int] = None,
    progress: Optional[TextIO] = None,
    telemetry=None,
) -> Union[ValidationSummary, ValidationReport]:
    """Run the validation pipeline over a study store, segment by segment.

    Each segment is loaded (GPS traces as mmap-backed views), pushed
    through extraction → matching → classification with the usual
    executor/resilience machinery, reduced into running aggregates, and
    dropped — peak memory is bounded by segments in flight, not study
    size.

    The walk is one ``load`` / ``compute`` / ``reduce`` triple driven by
    :func:`repro.runtime.run_pipelined`.  ``load`` probes the segment's
    checkpoint and maps it, ``compute`` runs the three stages under a
    private obs context, and ``reduce`` folds results strictly in
    manifest order.  ``inflight_segments`` is the window: at ``1`` (the
    default for serial runs and whenever an explicit ``executor`` is
    passed) the triple runs inline on the calling thread, one segment at
    a time, with no threads; a wider window (sized from ``workers`` by
    default for parallel runs) lets a prefetch thread load that many
    segments ahead while up to two lane threads compute different
    segments, each lane on its own executor.  Peak RSS is bounded by
    ``baseline + inflight × largest segment``.

    Per-user computation is deterministic, segments partition the user
    set in dataset order, and reduction happens in manifest order at any
    ``inflight_segments``/worker count — so the summary text, semantic
    counters and gauges, dataset fingerprint, and checkpoint files are
    byte-identical to ``validate(store.load_dataset())`` and across
    windows.

    ``checkpoints`` (a :class:`repro.store.CheckpointStore` or a
    directory path) arms per-segment crash recovery: finished segments
    persist their results keyed by the pipeline config hash and the
    segment's content fingerprints, and a restarted run replays them
    (including their counter deltas, when observability was on) instead
    of recomputing.  Checkpoint writes stay atomic under concurrency.

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
    ``store.users_done_total`` counter the monitor rates), the planned
    totals, and the scheduler's in-flight/overlap/stall figures — into
    the sampler's own :class:`~repro.obs.LiveMetrics` bag.  The run's
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
    # An explicit executor cannot be shared across in-flight segments
    # (the resilience layer rebuilds pools on crash, which would cancel
    # sibling segments' shards), so it pins the window to 1.
    if executor is not None and (inflight_segments or 1) > 1:
        raise RuntimeConfigError(
            "an explicit executor cannot be shared across in-flight "
            "segments; pass workers= instead"
        )
    inflight = inflight_window(
        inflight_segments,
        workers if executor is None else None,
        len(store.segments),
    )
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
        _SegmentProgress(progress, len(store.segments), store.n_users)
        if progress is not None
        else None
    )
    live = telemetry.live if telemetry is not None else None
    if live is not None:
        live.set_gauge("store.segments_planned", float(len(store.segments)))
        live.set_gauge("store.users_planned", float(store.n_users))
        live.set_gauge("store.segments_done", 0.0)
        live.set_gauge("store.users_done", 0.0)
        live.set_gauge("store.inflight_segments", float(inflight))

    # Two lanes hide one segment's stage-boundary pool idling behind the
    # other's compute; more lanes add process pressure, not throughput.
    # Every lane runs at the full requested width, so the shard layout —
    # and therefore every per-segment counter — is the same at any window.
    lanes = max(1, min(2, inflight, len(store.segments)))
    lane_execs = [
        resolve_executor(executor if lane == 0 else None, workers)
        for lane in range(lanes)
    ]
    pois = store.load_pois()

    def seg_plan_for(entry: SegmentEntry):
        return (
            fault_plan.for_segment(entry.segment_id)
            if fault_plan is not None
            else None
        )

    def load(index: int, entry: SegmentEntry):
        payload = (
            checkpoints.load(entry, checkpoint_key)
            if checkpoints is not None
            else None
        )
        if payload is None:
            seg_dataset, load_retries, degraded = _load_segment_resilient(
                store, entry, pois, load_resilience, seg_plan_for(entry)
            )
            return None, seg_dataset, load_retries, degraded
        seg_dataset = None
        if keep_results:
            seg_dataset = store.load_segment(entry, pois=pois)
            for user_id, data in seg_dataset.users.items():
                data.visits = payload["visits"][user_id]
        return payload, seg_dataset, 0, None

    def compute(index: int, entry: SegmentEntry, loaded, lane_id: int):
        payload, seg_dataset, load_retries, degraded = loaded
        outcome: Dict[str, Any] = {
            "reused": payload is not None,
            "results": payload,
            "users": (
                seg_dataset.users
                if keep_results and seg_dataset is not None
                else None
            ),
            "load_retries": load_retries,
            "degraded": degraded,
            "delta": None,
            "base_s": 0.0,
            "timings": RuntimeTimings(),
            "health": RunHealth(),
        }
        if payload is not None:
            return outcome
        if degraded is not None:
            outcome["results"] = {
                "matching": {}, "labels": {}, "checkins": {}, "visits": {},
            }
            return outcome
        exec_ = lane_execs[lane_id][0]
        shards = shard_segment(
            entry.user_ids,
            entry.gps_counts,
            entry.checkin_counts,
            shard_count(exec_, entry.n_users),
        )

        def run_stages():
            return _segment_results(
                seg_dataset, visit_config, match_config, classify_config,
                exec_, outcome["timings"], resilience, seg_plan_for(entry),
                outcome["health"], shards,
            )

        if ctx.enabled:
            # A private context per segment: the parent context is not
            # thread-safe, and a fresh one gives the reducer a clean
            # counter delta for the segment's checkpoint.
            seg_ctx = ObsContext(profile=ctx.profile_enabled)
            outcome["base_s"] = ctx.clock()
            with thread_activate(seg_ctx), seg_ctx.span(
                "store.segment",
                segment=entry.segment_id,
                users=entry.n_users,
                reused=False,
            ):
                matching, classification = run_stages()
            outcome["delta"] = seg_ctx.delta()
        else:
            matching, classification = run_stages()
        # Key order matters: this dict is the checkpoint payload.
        outcome["results"] = {
            "matching": matching.per_user,
            "labels": classification.labels,
            "checkins": classification.checkins,
            "visits": {
                user_id: data.visits
                for user_id, data in seg_dataset.users.items()
            },
        }
        return outcome

    def reduce(index: int, entry: SegmentEntry, outcome) -> None:
        results = outcome["results"]
        if outcome["reused"]:
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
        else:
            # Load-level recovery lands before the checkpoint snapshot,
            # so recovery noise never pollutes checkpoint bytes.
            if outcome["load_retries"]:
                health.retries += outcome["load_retries"]
                ctx.count("runtime.shard_retries", outcome["load_retries"])
            degraded = outcome["degraded"]
            if degraded is not None:
                health.skipped.append(degraded)
                ctx.count("runtime.shards_skipped", 1)
            health.merge(outcome["health"])
            summary.timings.stages.extend(outcome["timings"].stages)
            if checkpoints is not None and degraded is None:
                before = ctx.metrics.snapshot()["counters"] if ctx.enabled else {}
                seg_counters = (
                    outcome["delta"]["metrics"]["counters"]
                    if outcome["delta"] is not None
                    else {}
                )
                # A segment counter survives if it is new or changed the
                # cumulative value (new-but-zero keys included), so
                # replay recreates the exact key set.
                results["counters"] = {
                    name: value
                    for name, value in seg_counters.items()
                    if name not in before or value != 0
                }
                checkpoints.save(entry, checkpoint_key, results)
            if outcome["delta"] is not None:
                ctx.absorb(
                    outcome["delta"],
                    parent_id=pipeline_span.span_id,
                    base_s=outcome["base_s"],
                )
            ctx.count("store.segments_total", 1)
        summary.add_segment(entry.user_ids, results)
        if keep_results:
            merger.absorb(results["matching"])
            labels.update(results["labels"])
            checkins.update(results["checkins"])
            if outcome["users"] is not None:
                users.update(outcome["users"])
        if prog is not None:
            prog.update(entry.n_users, reused=outcome["reused"])
        if live is not None:
            live.set_gauge("store.segments_done", float(index + 1))
            live.set_gauge("store.users_done", float(len(summary.visit_counts)))
            live.inc("store.users_done_total", entry.n_users)

    def on_progress(snap: Dict[str, Any]) -> None:
        # Reducer-thread callback from run_pipelined: publish the
        # scheduler's live efficiency figures to the sampler bag.
        live.set_gauge("store.inflight_segments", float(snap["inflight"]))
        live.set_gauge("store.prefetch_overlap", float(snap["overlap"]))
        live.set_gauge("store.prefetch_stalls", float(snap["stalls"]))
        live.set_gauge("store.reduce_wait_s", snap["reduce_wait_s"])

    try:
        with activate(ctx), ctx.span(
            "pipeline.validate",
            dataset=store.name,
            users=store.n_users,
            workers=lane_execs[0][0].workers,
            segments=len(store.segments),
        ) as pipeline_span:
            ctx.set_gauge("store.inflight_segments", float(inflight))
            stats = run_pipelined(
                store.segments, load, compute, reduce,
                inflight=inflight, lanes=lanes,
                on_progress=on_progress if live is not None else None,
            )
            if inflight > 1:
                # Window 1 runs inline: there is no prefetch to count.
                ctx.count("store.prefetch_overlap_total", stats["overlap"])
                ctx.count("store.prefetch_stalls_total", stats["stalls"])
            ctx.count("pipeline.runs_total", 1)
            set_headline_gauges(ctx, summary, health)
    finally:
        for exec_, owned in lane_execs:
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
