"""Observation context: hierarchical spans + metrics + events for one run.

The central object is :class:`ObsContext`.  Pipeline code never holds a
reference to it; instead it asks for the ambient context::

    from repro.obs import current

    ctx = current()
    with ctx.span("matching.round", round=3):
        ...
    ctx.count("matching.rematch_rounds", 1)

When no context is active, :func:`current` returns the
:data:`NULL_OBS` singleton whose every method is a no-op — the
disabled-observability cost is one global read plus an empty method
call, and pipeline *results* are byte-identical either way (the
instrumentation only observes, never steers).

Worker processes get a fresh context per work unit (see
``repro.runtime.executor``); its :meth:`ObsContext.delta` is shipped
back with the shard result and folded into the parent with
:meth:`ObsContext.absorb`, shard-id order, so parallel runs aggregate
deterministically.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .metrics import MetricsRegistry


@dataclass
class SpanRecord:
    """One finished span.

    Times are seconds relative to the owning context's creation (a
    monotonic clock), so serial and worker-side spans share a shape and
    worker spans can be rebased onto the parent timeline on absorb.
    """

    span_id: int
    parent_id: Optional[int]
    name: str
    start_s: float
    end_s: float
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        """Span length in seconds."""
        return self.end_s - self.start_s

    def as_dict(self) -> Dict[str, Any]:
        """JSON-safe record."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "duration_s": self.duration_s,
            "attrs": dict(self.attrs),
        }


@dataclass
class EventRecord:
    """One point-in-time annotation, attached to the span open at emit time."""

    name: str
    t_s: float
    span_id: Optional[int]
    attrs: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-safe record."""
        return {
            "name": self.name,
            "t_s": self.t_s,
            "span_id": self.span_id,
            "attrs": dict(self.attrs),
        }


class _SpanHandle:
    """Context manager for one open span; records on exit."""

    __slots__ = ("ctx", "span_id", "name", "attrs", "start_s")

    def __init__(self, ctx: "ObsContext", name: str, attrs: Dict[str, Any]) -> None:
        self.ctx = ctx
        self.name = name
        self.attrs = attrs
        self.span_id = ctx.next_id()
        self.start_s = ctx.clock()

    def annotate(self, **attrs: Any) -> None:
        """Attach extra attributes to the span before it closes."""
        self.attrs.update(attrs)

    def __enter__(self) -> "_SpanHandle":
        self.ctx._stack.append(self.span_id)
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.ctx._stack.pop()
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        parent = self.ctx._stack[-1] if self.ctx._stack else None
        self.ctx.spans.append(
            SpanRecord(
                span_id=self.span_id,
                parent_id=parent,
                name=self.name,
                start_s=self.start_s,
                end_s=self.ctx.clock(),
                attrs=self.attrs,
            )
        )


class ObsContext:
    """Spans, events and metrics of one observed run (or one shard).

    ``profile=True`` additionally arms the per-stage profiling hooks
    (see :mod:`repro.obs.profile`): worker shards run under cProfile +
    tracemalloc and ship their profile records home with the delta.
    """

    enabled = True

    def __init__(self, profile: bool = False) -> None:
        self.profile_enabled = bool(profile)
        self.metrics = MetricsRegistry()
        self.spans: List[SpanRecord] = []
        self.events: List[EventRecord] = []
        self.profiles: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        self._next_id = 0
        self._t0 = time.perf_counter()

    # -- plumbing ----------------------------------------------------------

    def clock(self) -> float:
        """Monotonic seconds since this context was created."""
        return time.perf_counter() - self._t0

    def next_id(self) -> int:
        """Allocate the next span id."""
        self._next_id += 1
        return self._next_id

    # -- recording API (mirrored as no-ops on NULL_OBS) --------------------

    def span(self, name: str, **attrs: Any) -> _SpanHandle:
        """Open a span; use as ``with ctx.span("stage.match", shards=4):``.

        Spans are recorded on *exit* (completion order, like a Chrome
        trace); ``start_s`` lets consumers re-sort chronologically.
        """
        return _SpanHandle(self, name, attrs)

    def event(self, name: str, **attrs: Any) -> None:
        """Record a point-in-time event under the currently open span."""
        self.events.append(
            EventRecord(
                name=name,
                t_s=self.clock(),
                span_id=self._stack[-1] if self._stack else None,
                attrs=attrs,
            )
        )

    def count(self, name: str, n: int = 1) -> None:
        """Increment counter ``name`` by ``n``."""
        self.metrics.counter(name).inc(n)

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name``."""
        self.metrics.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        """Add one observation to histogram ``name``."""
        self.metrics.histogram(name).observe(value)

    def record_profile(self, record: Dict[str, Any]) -> None:
        """Attach one profile record (see :mod:`repro.obs.profile`)."""
        self.profiles.append(dict(record))

    # -- worker delta shipping ---------------------------------------------

    def delta(self) -> Dict[str, Any]:
        """Everything a worker sends home: spans, events, raw metrics."""
        return {
            "spans": [s.as_dict() for s in self.spans],
            "events": [e.as_dict() for e in self.events],
            "metrics": self.metrics.snapshot(raw=True),
            "profiles": [dict(p) for p in self.profiles],
        }

    def absorb(
        self,
        delta: Dict[str, Any],
        parent_id: Optional[int] = None,
        base_s: float = 0.0,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Fold a worker :meth:`delta` into this context.

        Worker span ids are remapped into this context's id space, the
        worker's root spans are re-parented under ``parent_id`` (and
        annotated with ``attrs``, e.g. the shard id), and worker-relative
        times are rebased by ``base_s`` onto this context's timeline.
        """
        id_map: Dict[int, int] = {}
        for record in delta.get("spans", []):
            id_map[record["span_id"]] = self.next_id()
        for record in delta.get("spans", []):
            worker_parent = record["parent_id"]
            is_root = worker_parent is None
            span_attrs = dict(record["attrs"])
            if is_root and attrs:
                span_attrs.update(attrs)
            self.spans.append(
                SpanRecord(
                    span_id=id_map[record["span_id"]],
                    parent_id=parent_id if is_root else id_map[worker_parent],
                    name=record["name"],
                    start_s=base_s + record["start_s"],
                    end_s=base_s + record["end_s"],
                    attrs=span_attrs,
                )
            )
        for record in delta.get("events", []):
            span_id = record["span_id"]
            self.events.append(
                EventRecord(
                    name=record["name"],
                    t_s=base_s + record["t_s"],
                    span_id=id_map.get(span_id, parent_id),
                    attrs=dict(record["attrs"]),
                )
            )
        for record in delta.get("profiles", []):
            merged = dict(record)
            if attrs:
                merged.update(attrs)
            self.profiles.append(merged)
        self.metrics.merge_snapshot(delta.get("metrics", {}))

    # -- introspection helpers (used by tests and `inspect`) ---------------

    def spans_named(self, name: str) -> List[SpanRecord]:
        """All finished spans called ``name``, in record order."""
        return [s for s in self.spans if s.name == name]

    def span_tree(self) -> Dict[Optional[int], List[SpanRecord]]:
        """Finished spans grouped by parent id."""
        tree: Dict[Optional[int], List[SpanRecord]] = {}
        for span in self.spans:
            tree.setdefault(span.parent_id, []).append(span)
        return tree


class _NullSpan:
    """Reusable no-op span handle."""

    __slots__ = ()

    def annotate(self, **attrs: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullObs:
    """Disabled observability: every method is a near-free no-op."""

    enabled = False
    profile_enabled = False

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def event(self, name: str, **attrs: Any) -> None:
        pass

    def count(self, name: str, n: int = 1) -> None:
        pass

    def set_gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def record_profile(self, record: Dict[str, Any]) -> None:
        pass


#: The disabled-observability singleton `current()` falls back to.
NULL_OBS = NullObs()

_current: Any = NULL_OBS

#: Thread-local override.  A thread that activates its own context via
#: :class:`thread_activate` sees that context from :func:`current`;
#: every other thread keeps seeing the process-global one set by
#: :class:`activate`.
_tls = threading.local()


def current() -> Any:
    """The ambient observation context (``NULL_OBS`` when none active)."""
    override = getattr(_tls, "ctx", None)
    if override is not None:
        return override
    return _current


class activate:
    """Make ``ctx`` the ambient context for a ``with`` block (re-entrant).

    Process-local by design: worker processes start at ``NULL_OBS`` and
    the runtime activates a fresh per-shard context explicitly.
    """

    __slots__ = ("ctx", "_previous")

    def __init__(self, ctx: Any) -> None:
        self.ctx = ctx
        self._previous: Any = NULL_OBS

    def __enter__(self) -> Any:
        global _current
        self._previous = _current
        _current = self.ctx
        return self.ctx

    def __exit__(self, *exc_info: Any) -> None:
        global _current
        _current = self._previous


class thread_activate:
    """Make ``ctx`` the ambient context *for this thread only* (re-entrant).

    The store walk runs each segment, and the executor each in-process
    shard, under a private :class:`ObsContext`; the thread-local override
    shadows whatever context is ambient, so the unit's spans and counters
    land in its own context and never in its parent's.  Other threads
    are unaffected.
    """

    __slots__ = ("ctx", "_previous")

    def __init__(self, ctx: Any) -> None:
        self.ctx = ctx
        self._previous: Any = None

    def __enter__(self) -> Any:
        self._previous = getattr(_tls, "ctx", None)
        _tls.ctx = self.ctx
        return self.ctx

    def __exit__(self, *exc_info: Any) -> None:
        _tls.ctx = self._previous
