"""The pipelined segment scheduler's ordering, bounding, and failure law.

``run_pipelined`` promises exactly three things, whatever the thread
interleaving: ``reduce`` runs on the caller's thread strictly in item
order; at most ``inflight`` items sit past ``load`` but before their
``reduce``; and when item *i* fails, every item before it is still
reduced before the original exception resurfaces, with later work
discarded.  These tests pin each promise with instrumented callbacks —
no sleeps-as-synchronisation, only events the scheduler itself drives.
"""

from __future__ import annotations

import threading

import pytest

from repro.runtime import run_pipelined


@pytest.mark.parametrize("inflight", [1, 2])
def test_reduce_runs_in_order_on_caller_thread(inflight):
    items = list(range(8))
    reduced = []
    caller = threading.get_ident()
    reducer_threads = set()

    stats = run_pipelined(
        items,
        load=lambda i, item: item * 10,
        compute=lambda i, item, loaded, lane: loaded + 1,
        reduce=lambda i, item, result: (
            reduced.append((i, result)),
            reducer_threads.add(threading.get_ident()),
        ),
        inflight=inflight,
        lanes=2,
    )
    assert reduced == [(i, i * 10 + 1) for i in items]
    assert reducer_threads == {caller}
    assert stats["overlap"] + stats["stalls"] == len(items)


def test_window_one_runs_inline_without_threads(monkeypatch):
    """Window 1 has nothing to overlap: every stage runs on the caller's
    thread and the scheduler starts no threads at all."""
    caller = threading.get_ident()
    stage_threads = set()

    def refuse_start(self):
        raise AssertionError(f"window 1 started thread {self.name!r}")

    monkeypatch.setattr(threading.Thread, "start", refuse_start)

    def load(i, item):
        stage_threads.add(("load", threading.get_ident()))
        return item

    def compute(i, item, loaded, lane):
        stage_threads.add(("compute", threading.get_ident()))
        return loaded

    reduced = []
    run_pipelined(
        list(range(4)),
        load=load,
        compute=compute,
        reduce=lambda i, item, result: reduced.append(result),
        inflight=1,
        lanes=2,
    )
    assert reduced == [0, 1, 2, 3]
    assert stage_threads == {("load", caller), ("compute", caller)}


def test_results_ordered_even_when_completion_is_reversed():
    """Later items finishing first must not reach the reducer early."""
    first_done = threading.Event()

    def compute(i, item, loaded, lane):
        if i == 0:
            # Item 0 finishes last: wait until item 1 has computed.
            first_done.wait(timeout=10)
        elif i == 1:
            first_done.set()
        return i

    reduced = []
    run_pipelined(
        [0, 1],
        load=lambda i, item: item,
        compute=compute,
        reduce=lambda i, item, result: reduced.append(i),
        inflight=2,
        lanes=2,
    )
    assert reduced == [0, 1]


def test_inflight_bounds_loaded_but_unreduced_items():
    inflight = 2
    lock = threading.Lock()
    outstanding = 0
    peak = 0

    def load(i, item):
        nonlocal outstanding, peak
        with lock:
            outstanding += 1
            peak = max(peak, outstanding)
        return item

    def reduce(i, item, result):
        nonlocal outstanding
        with lock:
            outstanding -= 1

    run_pipelined(
        list(range(10)),
        load=load,
        compute=lambda i, item, loaded, lane: loaded,
        reduce=reduce,
        inflight=inflight,
        lanes=2,
    )
    assert peak <= inflight


@pytest.mark.parametrize("inflight", [1, 2])
def test_failure_reduces_prefix_then_raises(inflight):
    class Boom(RuntimeError):
        pass

    reduced = []

    def compute(i, item, loaded, lane):
        if i == 3:
            raise Boom("item 3 exploded")
        return i

    with pytest.raises(Boom, match="item 3 exploded"):
        run_pipelined(
            list(range(6)),
            load=lambda i, item: item,
            compute=compute,
            reduce=lambda i, item, result: reduced.append(i),
            inflight=inflight,
            lanes=1,
        )
    assert reduced == [0, 1, 2]


def test_load_failure_propagates_with_prefix_reduced():
    class LoadBoom(RuntimeError):
        pass

    reduced = []

    def load(i, item):
        if i == 2:
            raise LoadBoom("segment 2 unreadable")
        return item

    with pytest.raises(LoadBoom, match="segment 2 unreadable"):
        run_pipelined(
            list(range(5)),
            load=load,
            compute=lambda i, item, loaded, lane: loaded,
            reduce=lambda i, item, result: reduced.append(i),
            inflight=3,
            lanes=2,
        )
    assert reduced == [0, 1]


def test_reduce_failure_stops_and_joins_cleanly():
    class ReduceBoom(RuntimeError):
        pass

    def reduce(i, item, result):
        if i == 1:
            raise ReduceBoom("reducer rejected item 1")

    before = threading.active_count()
    with pytest.raises(ReduceBoom):
        run_pipelined(
            list(range(6)),
            load=lambda i, item: item,
            compute=lambda i, item, loaded, lane: loaded,
            reduce=reduce,
            inflight=2,
            lanes=2,
        )
    # All scheduler threads joined — nothing leaked past the failure.
    assert threading.active_count() <= before


def test_empty_items_is_a_noop():
    stats = run_pipelined(
        [],
        load=lambda i, item: item,
        compute=lambda i, item, loaded, lane: loaded,
        reduce=lambda i, item, result: None,
        inflight=4,
        lanes=2,
    )
    assert stats["overlap"] == 0 and stats["stalls"] == 0


def test_invalid_inflight_rejected():
    with pytest.raises(ValueError, match="inflight"):
        run_pipelined(
            [1],
            load=lambda i, item: item,
            compute=lambda i, item, loaded, lane: loaded,
            reduce=lambda i, item, result: None,
            inflight=0,
        )


def test_stats_account_every_item():
    n = 12
    stats = run_pipelined(
        list(range(n)),
        load=lambda i, item: item,
        compute=lambda i, item, loaded, lane: loaded,
        reduce=lambda i, item, result: None,
        inflight=4,
        lanes=3,
    )
    assert stats["overlap"] + stats["stalls"] == n
    assert stats["reduce_wait_s"] >= 0.0
    assert stats["prefetch_stall_s"] >= 0.0


@pytest.mark.parametrize("inflight", [1, 2])
def test_on_progress_called_per_reduce_with_done_and_inflight(inflight):
    n = 6
    snapshots = []
    caller = threading.get_ident()
    threads = set()

    def on_progress(snapshot):
        snapshots.append(snapshot)
        threads.add(threading.get_ident())

    run_pipelined(
        list(range(n)),
        load=lambda i, item: item,
        compute=lambda i, item, loaded, lane: loaded,
        reduce=lambda i, item, result: None,
        inflight=inflight,
        lanes=2,
        on_progress=on_progress,
    )
    assert [s["done"] for s in snapshots] == list(range(1, n + 1))
    assert threads == {caller}
    for snapshot in snapshots:
        # In-flight = loaded but not yet reduced; never negative, never
        # beyond the configured window.
        assert 0 <= snapshot["inflight"] <= inflight
        assert snapshot["overlap"] + snapshot["stalls"] == snapshot["done"]
    assert snapshots[-1]["inflight"] == 0


def test_on_progress_exceptions_are_swallowed():
    reduced = []

    def on_progress(snapshot):
        raise RuntimeError("observer bug must not sink the run")

    stats = run_pipelined(
        list(range(4)),
        load=lambda i, item: item,
        compute=lambda i, item, loaded, lane: loaded,
        reduce=lambda i, item, result: reduced.append(i),
        inflight=2,
        lanes=2,
        on_progress=on_progress,
    )
    assert reduced == [0, 1, 2, 3]
    assert stats["overlap"] + stats["stalls"] == 4
