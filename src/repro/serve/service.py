"""The long-running validation service: ingest loop, snapshots, summary.

:class:`ValidationService` wraps the per-user :class:`StreamEngine` with
everything a server needs:

* **inline ingest** — every event runs on the caller's thread, so
  per-user state has a single writer and the verdict stream's order is
  deterministic across users; the service starts no threads;
* **verdict sink** — settled verdicts reach the caller through a
  callback (or pile up in :attr:`verdicts`) in emission order;
* **snapshots** — with a :class:`repro.serve.snapshot.ServeStateStore`
  armed, state persists every ``checkpoint_every`` events (and on
  demand); :meth:`restore` brings a fresh service back to the snapshot
  and tells the caller which event to resume feeding from;
* **observability** — semantic counters accumulate in per-user dicts
  and fold into the service's obs context at
  :meth:`finish`, reproducing the batch run's counter/gauge/histogram
  payload exactly, plus ``serve.*`` counters for the serving mechanics.

The headline guarantee (pinned by ``tests/test_serve_parity.py``):
replaying a dataset event-by-event and calling :meth:`finish` yields
the batch :func:`repro.core.validate` verdicts, semantic metrics,
summary text and dataset fingerprint, byte for byte.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from ..core import HeadlineCounts, build_poi_index, set_headline_gauges
from ..model import EXTRANEOUS_TYPES, CheckinType, Poi
from ..obs import config_hash, fingerprint_from_counts
from ..obs import current as obs_current
from .engine import ServeConfig, StreamEngine, UserStreamState
from .events import StreamEvent, Verdict
from .snapshot import ServeStateStore


class ServeTelemetry:
    """Live serving instruments: the event-time watermark, the
    settlement backlog and the ingest/verdict throughput counters.

    The caller thread that ingests is the only writer of every slot, so
    the hot path takes no lock; :meth:`collect` (the sampler's collector
    protocol) reads the plain numbers racily from the sampler thread —
    an instantaneous estimate is exactly what backpressure gauges want.

    Event-time semantics (DESIGN §12): the **watermark**
    (``serve.watermark_s``) is the highest event time the service has
    been fed, and ``serve.watermark_wall_lag_s`` is wall-clock ``now``
    minus the watermark — how far behind reality the service's view
    is, meaningful when events carry epoch timestamps (a replay of a
    synthetic timeline reports its distance from the epoch instead).
    """

    def __init__(self) -> None:
        self.events = 0
        self.backlog = 0
        self.watermark = -math.inf
        self.verdicts = 0

    def note_event(self, t: float, pending_delta: int) -> None:
        """One trace event at time ``t`` moved the backlog by ``pending_delta``."""
        self.events += 1
        self.backlog += pending_delta
        if t > self.watermark:
            self.watermark = t

    def collect(self) -> Dict[str, Any]:
        """Metrics-shaped snapshot (the collector protocol of
        :class:`repro.obs.TelemetrySampler`)."""
        gauges: Dict[str, float] = {
            "serve.backlog_events": float(max(self.backlog, 0)),
        }
        watermark = self.watermark
        if watermark != -math.inf:
            gauges["serve.watermark_s"] = watermark
            gauges["serve.watermark_wall_lag_s"] = time.time() - watermark
        return {
            "counters": {
                "serve.events_ingested_total": float(self.events),
                "serve.verdicts_emitted_total": float(self.verdicts),
            },
            "gauges": gauges,
            "histograms": {},
        }


@dataclass
class ServeSummary(HeadlineCounts):
    """Aggregates of a completed serving session.

    Shares the batch/streamed summaries' :class:`HeadlineCounts` base, so
    :meth:`summary` renders the identical text, and :attr:`fingerprint`
    is the post-extraction dataset fingerprint a batch run of the same
    study would record.
    """

    n_users: int
    n_events: int
    n_chunks: int
    n_verdicts: int
    #: Per-user extracted-visit count, in registration order.
    visit_counts: Dict[str, int] = field(default_factory=dict)
    #: Post-extraction dataset fingerprint (batch-identical).
    fingerprint: Dict[str, Any] = field(default_factory=dict)


class ValidationService:
    """One serving session over a fixed POI universe.

    Feed :class:`StreamEvent` records through :meth:`ingest` (register
    each user before their first trace event), then :meth:`finish` to
    settle everything and get the :class:`ServeSummary`.
    """

    def __init__(
        self,
        pois: Union[Sequence[Poi], dict],
        config: Optional[ServeConfig] = None,
        *,
        name: str = "stream",
        state_store: Optional[Union[str, ServeStateStore]] = None,
        checkpoint_every: Optional[int] = None,
        sink: Optional[Callable[[Verdict], None]] = None,
        obs=None,
        telemetry: bool = False,
    ) -> None:
        self.config = config or ServeConfig()
        self.name = name
        self._n_pois = len(pois)
        self._engine = StreamEngine(self.config, build_poi_index(pois))
        self._obs = obs_current() if obs is None else obs
        self._sink = sink
        # Disabled telemetry is strictly no hook object at all: the
        # ingest hot path branches on `is None` and allocates nothing.
        self._telemetry: Optional[ServeTelemetry] = (
            ServeTelemetry() if telemetry else None
        )
        self._states: Dict[str, UserStreamState] = {}
        self._cursor = 0
        self._generation = 0
        self._finished = False
        self._verdicts_total = 0
        #: Settled verdicts per user, kept only when no sink is given.
        self.verdicts: Dict[str, List[Verdict]] = {}
        self._store: Optional[ServeStateStore]
        if state_store is None:
            self._store = None
        elif isinstance(state_store, ServeStateStore):
            self._store = state_store
        else:
            self._store = ServeStateStore(state_store)
        self.checkpoint_every = checkpoint_every
        self._key = config_hash(self.config)

    # -- ingest ------------------------------------------------------------

    def ingest(self, event: StreamEvent) -> None:
        """Feed one event; verdicts flow to the sink as chunks settle."""
        if self._finished:
            raise RuntimeError("service is finished")
        self._cursor += 1
        if event.kind == "register":
            self._register(event.user_id)
        else:
            try:
                state = self._states[event.user_id]
            except KeyError:
                raise KeyError(
                    f"user {event.user_id!r} not registered; send a register "
                    "event before trace events"
                ) from None
            tel = self._telemetry
            if tel is None:
                verdicts = self._engine.ingest(state, event)
                if verdicts:
                    self._emit(verdicts)
            else:
                # The pending-count delta around the engine call is this
                # event's exact contribution to the settlement backlog:
                # +1 while it waits for its chunk to seal, minus
                # everything a settle scan drained.
                before = state.pending_count()
                verdicts = self._engine.ingest(state, event)
                tel.note_event(event.t, state.pending_count() - before)
                self._emit(verdicts)
        if (
            self._store is not None
            and self.checkpoint_every
            and self._cursor % self.checkpoint_every == 0
        ):
            self.snapshot()

    def _register(self, user_id: str) -> None:
        # Idempotent so a resumed feed may safely replay registrations.
        if user_id in self._states:
            return
        self._states[user_id] = self._engine.new_state(user_id)

    def _emit(self, verdicts: List[Verdict]) -> None:
        if not verdicts:
            return
        if self._telemetry is not None:
            self._telemetry.verdicts += len(verdicts)
        for verdict in verdicts:
            self._verdicts_total += 1
            if self._sink is not None:
                self._sink(verdict)
            else:
                self.verdicts.setdefault(verdict.user_id, []).append(verdict)

    @property
    def cursor(self) -> int:
        """Events ingested so far (including before a restore)."""
        return self._cursor

    @property
    def telemetry(self) -> Optional[ServeTelemetry]:
        """The live instruments (``None`` unless ``telemetry=True``).

        Pass ``service.telemetry.collect`` to a
        :class:`repro.obs.TelemetrySampler` to expose the serve
        watermark/backpressure families via ``live.json`` / ``/metrics``.
        """
        return self._telemetry

    @property
    def verdicts_emitted(self) -> int:
        return self._verdicts_total

    # -- snapshots ---------------------------------------------------------

    def snapshot(self) -> None:
        """Persist all user states and commit the cursor."""
        if self._store is None:
            raise RuntimeError("service has no state store")
        self._generation += 1
        for state in self._states.values():
            self._store.save_user(self._key, self._generation, state)
        self._store.save_cursor(
            self._key,
            {
                "cursor": self._cursor,
                "generation": self._generation,
                "users": list(self._states),
                "verdicts_total": self._verdicts_total,
                "name": self.name,
                "n_pois": self._n_pois,
            },
        )
        self._obs.count("serve.snapshots_total", 1)

    def restore(self) -> int:
        """Load the latest usable snapshot; returns the event cursor to
        resume feeding from (0 = nothing usable, start fresh).

        All-or-nothing: a torn or stale snapshot (any missing/unusable
        user file, wrong config key) restores nothing.  Must be called
        before any ingest.
        """
        if self._store is None:
            raise RuntimeError("service has no state store")
        if self._cursor or self._states:
            raise RuntimeError("restore() must run before any ingest")
        record = self._store.load_cursor(self._key)
        if record is None:
            return 0
        states: Dict[str, UserStreamState] = {}
        for user_id in record["users"]:
            state = self._store.load_user(self._key, record["generation"], user_id)
            if state is None:
                return 0
            states[user_id] = state
        self._states = states
        self._cursor = record["cursor"]
        self._generation = record["generation"]
        self._verdicts_total = record["verdicts_total"]
        self._obs.count("serve.restores_total", 1)
        return self._cursor

    # -- finish ------------------------------------------------------------

    def finish(self) -> ServeSummary:
        """Settle everything pending, fold counters into the obs
        context, and return the session summary."""
        if self._finished:
            raise RuntimeError("service is already finished")
        self._finished = True
        tel = self._telemetry
        for state in self._states.values():
            if tel is None:
                self._emit(self._engine.finalize(state))
            else:
                before = state.pending_count()
                verdicts = self._engine.finalize(state)
                tel.backlog += state.pending_count() - before
                self._emit(verdicts)
        return self._fold()

    def _fold(self) -> ServeSummary:
        """Aggregate per-user accounting into the obs context (in
        registration order) and the summary; emits the exact semantic
        counter/gauge/histogram payload of one batch run."""
        ctx = self._obs
        n_honest = n_extraneous = n_missing = 0
        n_gps = n_checkins = n_chunks = 0
        type_counts: Dict[CheckinType, int] = {kind: 0 for kind in CheckinType}
        visit_counts: Dict[str, int] = {}
        with ctx.span(
            "serve.session",
            users=len(self._states),
            events=self._cursor,
        ):
            for user_id, state in self._states.items():
                counters = state.counters
                for metric in sorted(counters):
                    ctx.count(metric, counters[metric])
                ctx.observe("extract.visits_per_user", state.n_visits)
                ctx.observe("matching.rounds_per_user", state.max_rounds)
                n_honest += counters.get("matching.honest_total", 0)
                n_extraneous += counters.get("matching.extraneous_total", 0)
                n_missing += counters.get("matching.missing_total", 0)
                for kind in EXTRANEOUS_TYPES:
                    type_counts[kind] += counters.get(
                        f"classify.{kind.value}_total", 0
                    )
                visit_counts[user_id] = state.n_visits
                n_gps += state.n_gps
                n_checkins += state.n_checkins
                n_chunks += state.n_chunks
            type_counts[CheckinType.HONEST] = n_honest
            summary = ServeSummary(
                name=self.name,
                n_honest=n_honest,
                n_extraneous=n_extraneous,
                n_missing=n_missing,
                type_counts=type_counts,
                n_users=len(self._states),
                n_events=self._cursor,
                n_chunks=n_chunks,
                n_verdicts=self._verdicts_total,
                visit_counts=visit_counts,
            )
            ctx.count("pipeline.runs_total", 1)
            set_headline_gauges(ctx, summary)
            ctx.count("serve.users_total", len(self._states))
            ctx.count("serve.events_total", self._cursor)
            ctx.count("serve.gps_total", n_gps)
            ctx.count("serve.checkins_total", n_checkins)
            ctx.count("serve.chunks_total", n_chunks)
            ctx.count("serve.verdicts_total", self._verdicts_total)
        summary.fingerprint = fingerprint_from_counts(
            self.name,
            self._n_pois,
            (
                (user_id, state.n_gps, state.n_checkins, state.n_visits)
                for user_id, state in self._states.items()
            ),
        )
        return summary
