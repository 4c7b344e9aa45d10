"""Incremental per-user validation engine.

The batch pipeline sees a user's complete trace; the streaming engine
sees it one event at a time and must still produce byte-identical
verdicts.  The bridge is the **settlement horizon** ``H``:

    H = max(match β, classify β, visit max-gap, fix max-age,
            4 × speed-window)

Every stage of the pipeline is *local* within ``H``: a checkin can only
match a visit within β seconds, stay-point clusters break at gaps over
``max_gap_s``, and the classifier's GPS locator/speedometer reject
samples further than ``max_fix_age_s`` / ``4 × speed_window_s`` away.
So whenever a user's merged event timeline (GPS fixes + checkins)
contains a gap *strictly greater* than ``H``, everything before the gap
is **settled**: no future event can change its verdicts, and running
the batch kernels on that chunk alone provably reproduces the batch
output for it — including tie-break rematch rounds, which proceed in
lockstep per independent component (strictly greater, because a checkin
exactly β after a visit end still matches).

The engine buffers pending events per user, cuts settled chunks as gaps
open up, and runs the *unchanged* batch kernels
(:func:`repro.core.extract_visits` with a carried-over visit counter,
:func:`repro.core.match_user`, per-user classification) on each chunk.
Semantic counters accumulate in plain per-user dicts — the engine never
touches the ambient obs context — and are folded into the service's
context at finish time with the exact key-creation behaviour of the
batch path.

Ingest is O(1) amortised: a **gate** tracks the earliest time at which
any currently-open gap becomes settleable; the O(k log k) settle scan
over pending events only runs once the watermark passes the gate.
Out-of-order arrivals (within ``allowed_lateness_s``) can only close
gaps, so a stale-low gate merely causes a harmless empty scan, after
which the gate is recomputed.

Everything here is a pure function of the per-user event sequence:
replaying the same events through a fresh or restored
:class:`UserStreamState` yields the same verdicts with the same
sequence numbers, which is what makes crash/resume exactly-once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core import (
    ClassifyConfig,
    MatchConfig,
    MatchStats,
    VisitConfig,
    classify_user_extraneous,
    extract_visits,
    match_user,
)
from ..geo import GridIndex
from ..model import Checkin, GpsTrace
from ..obs import NULL_OBS
from .events import StreamEvent, Verdict

#: Snapshot payload format version (bump when UserStreamState changes).
SERVE_STATE_FORMAT = 1


@dataclass(frozen=True)
class ServeConfig:
    """Streaming service configuration: the three pipeline configs plus
    the event-time lateness bound.

    ``allowed_lateness_s`` is how far behind the per-user high-water
    mark an event may arrive.  Settlement waits for the watermark
    (``max_seen_t - allowed_lateness_s``) to pass a gap, so any arrival
    within the bound lands in a still-pending region and parity with
    batch order is preserved.  ``0`` means strictly in-order ingest.
    """

    visit: VisitConfig = field(default_factory=VisitConfig)
    match: MatchConfig = field(default_factory=MatchConfig)
    classify: ClassifyConfig = field(default_factory=ClassifyConfig)
    allowed_lateness_s: float = 0.0

    def __post_init__(self) -> None:
        if self.allowed_lateness_s < 0:
            raise ValueError(
                f"allowed_lateness_s must be >= 0, got {self.allowed_lateness_s}"
            )

    def settlement_horizon_s(self) -> float:
        """The locality bound ``H``: an event-timeline gap strictly
        greater than this seals everything before it (1800 s at the
        paper's defaults)."""
        return max(
            self.match.beta_s,
            self.classify.beta_s,
            self.visit.max_gap_s,
            self.classify.max_fix_age_s,
            4.0 * self.classify.speed_window_s,
        )


@dataclass
class UserStreamState:
    """One user's streaming state — pending events, carried counters,
    and the verdict sequence.  Plain picklable data; snapshots persist
    it verbatim (see :mod:`repro.serve.snapshot`).

    ``gate_t`` is transient (recomputed by every settle scan and on
    restore); it is kept here so state stays a single object.
    """

    user_id: str
    #: Pending GPS fixes as (t, x, y), arrival order (stable tie order).
    pending_gps: List[Tuple[float, float, float]] = field(default_factory=list)
    #: Pending checkins, arrival order.
    pending_checkins: List[Checkin] = field(default_factory=list)
    #: High-water mark of ingested event time.
    max_seen_t: float = -math.inf
    #: Earliest watermark at which a settle scan can pay off.
    gate_t: float = math.inf
    #: Visit-id counter carried across chunks (batch numbering).
    visit_counter: int = 0
    #: Next verdict sequence number.
    verdict_seq: int = 0
    #: Accumulated semantic counters (extract.* / matching.* / classify.*).
    counters: Dict[str, int] = field(default_factory=dict)
    #: Max matching rounds over this user's chunks (= batch rounds).
    max_rounds: int = 0
    n_gps: int = 0
    n_checkins: int = 0
    n_visits: int = 0
    n_chunks: int = 0
    finalized: bool = False

    def pending_count(self) -> int:
        return len(self.pending_gps) + len(self.pending_checkins)


def _bump(counters: Dict[str, int], name: str, n: int) -> None:
    # += with key creation even at n == 0, mirroring ObsContext.count:
    # the batch path creates zero-valued keys and parity requires the
    # same key set.
    counters[name] = counters.get(name, 0) + n


class StreamEngine:
    """Chunk-settling incremental pipeline over one POI index.

    Stateless apart from config and the shared (read-only) POI grid;
    all mutable state lives in :class:`UserStreamState`, so one engine
    serves every user.
    """

    def __init__(self, config: Optional[ServeConfig], poi_index: GridIndex) -> None:
        self.config = config or ServeConfig()
        self.poi_index = poi_index
        self.horizon_s = self.config.settlement_horizon_s()

    # -- ingest ------------------------------------------------------------

    def new_state(self, user_id: str) -> UserStreamState:
        return UserStreamState(user_id=user_id)

    def ingest(self, state: UserStreamState, event: StreamEvent) -> List[Verdict]:
        """Feed one gps/checkin event; returns newly settled verdicts."""
        if state.finalized:
            raise RuntimeError(f"user {state.user_id} is already finalized")
        kind, _, t, x, y, checkin = event
        if kind == "gps":
            state.pending_gps.append((t, x, y))
            state.n_gps += 1
        elif kind == "checkin":
            state.pending_checkins.append(checkin)
            state.n_checkins += 1
        else:
            raise ValueError(f"engine cannot ingest {kind!r} events")
        max_seen_t = state.max_seen_t
        if t > max_seen_t:
            # The cheap gap test first: most in-order fixes open none.
            if t - max_seen_t > self.horizon_s and state.pending_count() > 1:
                # The in-order arrival just opened a gap: everything at
                # or before the previous high-water mark settles once
                # the watermark clears it.
                state.gate_t = min(state.gate_t, max_seen_t + self.horizon_s)
            state.max_seen_t = max_seen_t = t
        elif max_seen_t - t > self.config.allowed_lateness_s:
            raise ValueError(
                f"event for {state.user_id} at t={t} arrived "
                f"{max_seen_t - t:.0f}s late "
                f"(allowed_lateness_s={self.config.allowed_lateness_s})"
            )
        watermark = max_seen_t - self.config.allowed_lateness_s
        if watermark > state.gate_t:
            return self._settle(state, watermark)
        return []

    def finalize(self, state: UserStreamState) -> List[Verdict]:
        """End of stream: settle everything pending, close the counter
        set out exactly like one batch user (users_total, rounds_total,
        zero-valued keys), and return the final verdicts."""
        if state.finalized:
            raise RuntimeError(f"user {state.user_id} is already finalized")
        verdicts = self._settle(state, math.inf, force=True)
        c = state.counters
        _bump(c, "extract.users_total", 1)
        _bump(c, "extract.visits_total", 0)
        _bump(c, "extract.gps_points_total", 0)
        _bump(c, "matching.users_total", 1)
        _bump(c, "matching.rounds_total", state.max_rounds)
        _bump(c, "matching.rematch_rounds", max(0, state.max_rounds - 1))
        _bump(c, "matching.honest_total", 0)
        _bump(c, "matching.extraneous_total", 0)
        _bump(c, "matching.missing_total", 0)
        _bump(c, "classify.users_total", 1)
        _bump(c, "classify.extraneous_total", 0)
        state.finalized = True
        return verdicts

    # -- settlement --------------------------------------------------------

    def _settle(
        self, state: UserStreamState, watermark: float, force: bool = False
    ) -> List[Verdict]:
        """Cut and process every chunk sealed below ``watermark``.

        A chunk boundary sits after time ``b`` when the next pending
        event is more than ``H`` later; the chunk is sealed once the
        watermark passes ``b + H`` (no in-bounds arrival can land at or
        before ``b`` any more).  ``force`` seals everything (end of
        stream).  Recomputes ``gate_t`` from the surviving boundaries.
        """
        horizon = self.horizon_s
        gps_sorted = sorted(state.pending_gps, key=lambda p: p[0])
        checkins_sorted = sorted(state.pending_checkins, key=lambda c: c.t)
        times = sorted(
            [p[0] for p in gps_sorted] + [c.t for c in checkins_sorted]
        )
        if not times:
            state.gate_t = math.inf
            return []
        # Boundaries are monotone: if a later gap is sealed, every
        # earlier one is too, so the cutoff is the last sealed boundary.
        # Under force everything seals — gaps included — so the cutoff
        # is the final event time and no gate survives; the chunking
        # below still splits the settled region at every gap.
        cutoff: Optional[float] = times[-1] if force else None
        next_gate = math.inf
        if not force:
            for i in range(len(times) - 1):
                if times[i + 1] - times[i] > horizon:
                    if watermark > times[i] + horizon:
                        cutoff = times[i]
                    else:
                        next_gate = min(next_gate, times[i] + horizon)
        state.gate_t = next_gate
        if cutoff is None:
            return []
        settled_times = [t for t in times if t <= cutoff]
        settled_checkins = [c for c in checkins_sorted if c.t <= cutoff]
        # Split the settled region into chunks at gaps > H and run the
        # batch kernels on each, oldest first.
        ranges: List[float] = []  # inclusive end time of each chunk
        previous = settled_times[0]
        for t in settled_times[1:]:
            if t - previous > horizon:
                ranges.append(previous)
            previous = t
        ranges.append(previous)
        verdicts: List[Verdict] = []
        gps_at = checkins_at = 0
        for chunk_end in ranges:
            gps_hi = gps_at
            while gps_hi < len(gps_sorted) and gps_sorted[gps_hi][0] <= chunk_end:
                gps_hi += 1
            ck_hi = checkins_at
            while (
                ck_hi < len(settled_checkins)
                and settled_checkins[ck_hi].t <= chunk_end
            ):
                ck_hi += 1
            verdicts.extend(
                self._process_chunk(
                    state,
                    gps_sorted[gps_at:gps_hi],
                    settled_checkins[checkins_at:ck_hi],
                )
            )
            gps_at, checkins_at = gps_hi, ck_hi
        # Keep arrival order in the pending lists: sorted() is stable,
        # so same-timestamp ties keep replaying in trace order.
        state.pending_gps = [p for p in state.pending_gps if p[0] > cutoff]
        state.pending_checkins = [
            c for c in state.pending_checkins if c.t > cutoff
        ]
        return verdicts

    def _process_chunk(
        self,
        state: UserStreamState,
        gps: List[Tuple[float, float, float]],
        checkins: List[Checkin],
    ) -> List[Verdict]:
        """Run extract → match → classify on one settled chunk using the
        batch kernels, accumulating the exact batch counter deltas."""
        config = self.config
        counters = state.counters
        trace = GpsTrace(
            [p[0] for p in gps], [p[1] for p in gps], [p[2] for p in gps]
        )
        visits = extract_visits(
            trace,
            state.user_id,
            config.visit,
            self.poi_index,
            start_counter=state.visit_counter,
        )
        state.visit_counter += len(visits)
        state.n_visits += len(visits)
        state.n_chunks += 1
        _bump(counters, "extract.gps_points_total", len(gps))
        _bump(counters, "extract.visits_total", len(visits))
        stats = MatchStats()
        matching = match_user(
            checkins,
            visits,
            config.match,
            user_id=state.user_id,
            obs=NULL_OBS,
            stats=stats,
        )
        if stats.rounds:
            # Batch creates this key once a round executes (count may
            # be 0); chunks with no checkins and no visits run zero
            # rounds and must not create it.
            _bump(counters, "matching.tie_losers_total", stats.tie_losers)
        _bump(counters, "matching.honest_total", len(matching.matches))
        _bump(counters, "matching.extraneous_total", len(matching.extraneous))
        _bump(counters, "matching.missing_total", len(matching.missing))
        state.max_rounds = max(state.max_rounds, stats.rounds)
        labels = classify_user_extraneous(
            trace, visits, matching.extraneous, config.classify
        )
        for label in labels:
            _bump(counters, f"classify.{label.value}_total", 1)
        _bump(counters, "classify.extraneous_total", len(labels))
        return self._emit(state, matching, labels)

    def _emit(self, state, matching, labels) -> List[Verdict]:
        """Order a chunk's results into the verdict stream: checkin
        verdicts by (t, checkin_id), then missing visits by start."""
        keyed = [
            (checkin.t, checkin.checkin_id, "honest", visit.visit_id)
            for checkin, visit in matching.matches
        ] + [
            (checkin.t, checkin.checkin_id, label.value, None)
            for checkin, label in zip(matching.extraneous, labels)
        ]
        keyed.sort(key=lambda item: (item[0], item[1]))
        verdicts = []
        for t, checkin_id, label, visit_id in keyed:
            verdicts.append(
                Verdict(
                    user_id=state.user_id,
                    seq=state.verdict_seq,
                    kind="checkin",
                    subject_id=checkin_id,
                    label=label,
                    t=t,
                    visit_id=visit_id,
                )
            )
            state.verdict_seq += 1
        for visit in matching.missing:
            verdicts.append(
                Verdict(
                    user_id=state.user_id,
                    seq=state.verdict_seq,
                    kind="missing",
                    subject_id=visit.visit_id,
                    label="missing",
                    t=visit.t_start,
                    visit_id=visit.visit_id,
                )
            )
            state.verdict_seq += 1
        return verdicts
