"""Self time from nested spans, and the wrappers that record them."""

import types

import numpy as np
import pytest

from tracing import Tracer, self_times


def test_self_time_subtracts_direct_children_only():
    #          root [0, 10]
    #          ├── a [1, 4]
    #          │   └── a1 [2, 3]
    #          └── b [5, 9]
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    own = self_times(parent, start, end)
    assert own.tolist() == [3.0, 2.0, 1.0, 4.0]
    assert own.sum() == end[0] - start[0]


def _fake_clock(monkeypatch):
    ticks = iter(float(i) for i in range(1000))
    monkeypatch.setattr("tracing.time.perf_counter", lambda: next(ticks))


class Widget:
    def outer(self, n):
        return [self.inner(i) for i in range(n)]

    def inner(self, i):
        return i

    @classmethod
    def build(cls):
        return cls()


def test_patched_calls_nest_and_add_up(monkeypatch):
    tracer = Tracer()
    _fake_clock(monkeypatch)
    tracer.patch(Widget, "outer", "outer")
    tracer.patch(Widget, "inner", "inner")
    tracer.patch(Widget, "build", "build")
    root = tracer.open(tracer.name_of("other"))
    widget = Widget.build()
    assert widget.outer(3) == [0, 1, 2]
    tracer.close(root)
    tracer.restore()
    cols = tracer.arrays()
    names = [tracer.names[i] for i in cols["name_id"]]
    assert names == ["other", "build", "outer", "inner", "inner", "inner"]
    assert cols["parent"].tolist() == [-1, 0, 0, 2, 2, 2]
    layers = tracer.layer_self_times()
    root = cols["end"][0] - cols["start"][0]
    assert sum(layers.values()) == pytest.approx(root)
    assert layers["inner"] == 3.0
    # Restored: calls no longer record spans.
    Widget().outer(2)
    assert tracer.span_count() == 6
    assert "outer" in vars(Widget) and not hasattr(vars(Widget)["outer"], "__wrapped__")
    assert isinstance(vars(Widget)["build"], classmethod)


def test_empty_result_is_relabelled_and_callback_runs():
    module = types.SimpleNamespace()
    seen = []
    tracer = Tracer()
    step = tracer.wrap(lambda xs: xs, "settle", empty_name="dispatch",
                       on_result=lambda args, result: seen.append(result))
    module.step = step
    module.step([])
    module.step([1])
    assert [tracer.names[i] for i in tracer.arrays()["name_id"]] == ["dispatch", "settle"]
    assert seen == [[], [1]]


def test_iterate_records_each_next_and_the_end():
    tracer = Tracer()
    assert list(tracer.iterate(iter([1, 2]), "decode")) == [1, 2]
    assert tracer.span_count() == 3


def test_exception_closes_span():
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap(boom, "boom")()
    cols = tracer.arrays()
    assert cols["end"][0] >= cols["start"][0]
    tracer.close(tracer.open(tracer.name_of("after")))
    assert tracer.arrays()["parent"].tolist() == [-1, -1]


def test_gc_watch_counts_collections():
    import gc

    tracer = Tracer()
    tracer.watch_gc()
    try:
        gc.collect()
    finally:
        tracer.unwatch_gc()
    assert tracer.gc_collections >= 1
    assert tracer.gc_pause_s > 0.0


def test_save_round_trips(tmp_path):
    tracer = Tracer()
    tracer.close(tracer.open(tracer.name_of("other")))
    tracer.save(tmp_path / "t.npz")
    data = np.load(tmp_path / "t.npz")
    assert data["names"].tolist() == ["other"]
    assert data["parent"].tolist() == [-1]
