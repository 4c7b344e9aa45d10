"""Span recording: nesting, ordering, events, ambient context, no-op mode."""

from __future__ import annotations

import pickle

import pytest

from repro.obs import (
    NULL_OBS,
    ObsContext,
    activate,
    current,
    read_trace,
    trace_records,
    write_trace,
)


class TestSpans:
    def test_nesting_parents(self):
        ctx = ObsContext()
        with ctx.span("outer") as outer:
            with ctx.span("middle") as middle:
                with ctx.span("inner"):
                    pass
        by_name = {s.name: s for s in ctx.spans}
        assert by_name["outer"].parent_id is None
        assert by_name["middle"].parent_id == outer.span_id
        assert by_name["inner"].parent_id == middle.span_id

    def test_completion_order_and_start_times(self):
        ctx = ObsContext()
        with ctx.span("a"):
            with ctx.span("b"):
                pass
        # Recorded on exit: inner closes first.
        assert [s.name for s in ctx.spans] == ["b", "a"]
        a, b = ctx.spans[1], ctx.spans[0]
        assert a.start_s <= b.start_s <= b.end_s <= a.end_s
        assert a.duration_s >= 0

    def test_sibling_ordering(self):
        ctx = ObsContext()
        for name in ("s1", "s2", "s3"):
            with ctx.span(name):
                pass
        assert [s.name for s in ctx.spans] == ["s1", "s2", "s3"]
        assert all(s.parent_id is None for s in ctx.spans)
        ids = [s.span_id for s in ctx.spans]
        assert ids == sorted(ids)  # allocation order is monotonic

    def test_attrs_and_annotate(self):
        ctx = ObsContext()
        with ctx.span("stage.match", workers=2) as span:
            span.annotate(shards=4)
        record = ctx.spans[0]
        assert record.attrs == {"workers": 2, "shards": 4}

    def test_exception_annotates_and_propagates(self):
        ctx = ObsContext()
        with pytest.raises(RuntimeError):
            with ctx.span("doomed"):
                raise RuntimeError("boom")
        assert ctx.spans[0].attrs["error"] == "RuntimeError"
        assert not ctx._stack  # stack unwound despite the raise

    def test_events_attach_to_open_span(self):
        ctx = ObsContext()
        with ctx.span("stage.extract") as span:
            ctx.event("runtime.shard_retry", shard_id=3)
        ctx.event("orphan")
        assert ctx.events[0].span_id == span.span_id
        assert ctx.events[0].attrs == {"shard_id": 3}
        assert ctx.events[1].span_id is None

    def test_span_tree_and_named_lookup(self):
        ctx = ObsContext()
        with ctx.span("root") as root:
            with ctx.span("leaf"):
                pass
            with ctx.span("leaf"):
                pass
        assert len(ctx.spans_named("leaf")) == 2
        assert len(ctx.span_tree()[root.span_id]) == 2


class TestAmbientContext:
    def test_default_is_null(self):
        assert current() is NULL_OBS

    def test_activate_and_restore(self):
        ctx = ObsContext()
        with activate(ctx):
            assert current() is ctx
        assert current() is NULL_OBS

    def test_nested_activation_restores_previous(self):
        a, b = ObsContext(), ObsContext()
        with activate(a):
            with activate(b):
                assert current() is b
            assert current() is a
        assert current() is NULL_OBS


class TestNullObs:
    def test_all_calls_are_noops(self):
        with NULL_OBS.span("anything", x=1) as span:
            span.annotate(y=2)
        NULL_OBS.count("c", 5)
        NULL_OBS.observe("h", 1.0)
        NULL_OBS.set_gauge("g", 2.0)
        NULL_OBS.event("e")
        assert not NULL_OBS.enabled

    def test_disabled_records_nothing(self):
        # Pipeline code paths run against NULL_OBS by default; nothing
        # may leak into a context that was never activated.
        ctx = ObsContext()
        with NULL_OBS.span("ghost"):
            pass
        assert ctx.spans == [] and len(ctx.metrics) == 0


class TestDelta:
    def make_worker_delta(self):
        worker = ObsContext()
        with worker.span("shard.run"):
            with worker.span("matching.round", round=1):
                pass
            worker.count("matching.users_total", 2)
            worker.observe("matching.rounds_per_user", 1.0)
            worker.event("note", k="v")
        return worker.delta()

    def test_delta_is_picklable(self):
        delta = self.make_worker_delta()
        assert pickle.loads(pickle.dumps(delta)) == delta

    def test_absorb_reparents_and_remaps(self):
        delta = self.make_worker_delta()
        parent = ObsContext()
        with parent.span("stage.match") as stage:
            pass
        parent.absorb(delta, parent_id=stage.span_id, base_s=stage.start_s,
                      attrs={"shard_id": 7})
        root = parent.spans_named("shard.run")[0]
        assert root.parent_id == stage.span_id
        assert root.attrs["shard_id"] == 7
        inner = parent.spans_named("matching.round")[0]
        assert inner.parent_id == root.span_id
        assert parent.metrics.counter("matching.users_total").value == 2
        ids = [s.span_id for s in parent.spans]
        assert len(ids) == len(set(ids))  # no id collisions after remap

    def test_absorb_order_is_deterministic_for_counters(self):
        d1, d2 = self.make_worker_delta(), self.make_worker_delta()
        a, b = ObsContext(), ObsContext()
        a.absorb(d1), a.absorb(d2)
        b.absorb(d2), b.absorb(d1)
        assert a.metrics.snapshot() == b.metrics.snapshot()


class TestJsonlExport:
    def test_round_trip(self, tmp_path):
        ctx = ObsContext()
        with ctx.span("root", k=1):
            ctx.event("ping")
        ctx.count("c.total", 3)
        ctx.observe("h.values", 2.5)
        path = write_trace(tmp_path / "trace.jsonl", ctx)
        records = read_trace(path)
        assert records == trace_records(ctx)
        types = {r["type"] for r in records}
        assert types == {"span", "event", "metric"}
        metric = next(r for r in records if r.get("kind") == "counter")
        assert metric == {"type": "metric", "kind": "counter",
                          "name": "c.total", "value": 3}
        histogram = next(r for r in records if r.get("kind") == "histogram")
        assert histogram["count"] == 1 and histogram["p50"] == 2.5
