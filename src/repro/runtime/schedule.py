"""Pipelined segment scheduler: overlap load, compute, and reduce.

The out-of-core pipeline (``validate_store``, parallel ``generate``)
processes a manifest-ordered list of independent work items — segments.
Serially each item goes load → compute → reduce before the next starts,
so the process pool idles during loads and the loader idles during
compute.  :func:`run_pipelined` overlaps them while keeping the
*observable* behaviour identical to the serial loop:

* one **prefetch thread** walks the items in order, calling ``load``
  for each; a semaphore caps how many items may be past ``load`` but
  not yet reduced (``inflight``), which bounds peak memory at
  ``inflight × item``;
* ``lanes`` **lane threads** pull loaded items off a queue and call
  ``compute`` — each lane is expected to own its resources (its own
  executor, its own obs context via ``repro.obs.thread_activate``), so
  multiple segments' shards can be in flight across the lanes' pools
  concurrently;
* the **caller's thread** runs ``reduce`` strictly in item order,
  regardless of completion order — so merges, checkpoint writes, and
  counter absorption happen exactly as the serial loop would do them.

A window of 1 has nothing to overlap, so it runs each item as
``reduce(compute(load(item)))`` inline on the caller's thread and starts
no threads; a wider window only adds the threads around the same three
callbacks.

Errors reproduce serial semantics: if item *i* fails (in ``load`` or
``compute``), items ``0..i-1`` are still reduced first, then the
original exception propagates from :func:`run_pipelined` — exactly the
state a serial loop would leave behind (finished prefix checkpointed,
failure surfaced).  Work already in flight for items past *i* is
discarded.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from .executor import available_workers

__all__ = ["inflight_window", "run_pipelined"]


def inflight_window(
    inflight_segments: Optional[int], workers: Optional[int], n_items: int
) -> int:
    """How many items may be in flight (loaded or computing) at once.

    An explicit ``inflight_segments`` must be ``>= 1`` and is capped at
    the item count.  Otherwise a serial run (``workers`` ``None`` or
    ``1``) gets window 1, and a parallel one is sized from the worker
    count — enough items to hide load latency and stage-boundary pool
    idling, capped so memory stays a small multiple of one item.
    """
    if inflight_segments is not None:
        if inflight_segments < 1:
            raise ValueError(
                f"inflight_segments must be >= 1, got {inflight_segments}"
            )
        return min(inflight_segments, max(n_items, 1))
    if workers is None or workers == 1:
        return 1
    effective = workers if workers > 0 else available_workers()
    return max(1, min(n_items, min(effective, 4) + 1))

#: Queue sentinel telling a lane thread to exit.
_STOP = object()


class _State:
    """Shared scheduler state: completed-result slots + failure flag."""

    __slots__ = ("cond", "results", "stop", "prefetch_stall_s", "loaded")

    def __init__(self) -> None:
        self.cond = threading.Condition()
        # index -> ("ok", value) | ("err", exception)
        self.results: dict = {}
        self.stop = threading.Event()
        # Seconds the prefetch thread spent blocked on the inflight
        # window; written by the prefetch thread only, read after join.
        self.prefetch_stall_s = 0.0
        # Items the prefetch thread has taken a slot for (telemetry:
        # ``loaded - reduced`` is the live in-flight count).
        self.loaded = 0

    def post(self, index: int, outcome: Tuple[str, Any]) -> None:
        with self.cond:
            self.results[index] = outcome
            self.cond.notify_all()

    def ready(self, index: int) -> bool:
        with self.cond:
            return index in self.results

    def take(self, index: int) -> Tuple[str, Any]:
        with self.cond:
            while index not in self.results:
                self.cond.wait()
            return self.results.pop(index)


def _prefetch(
    items: Sequence[Any],
    load: Callable[[int, Any], Any],
    slots: threading.Semaphore,
    work: "queue.Queue",
    state: _State,
    lanes: int,
) -> None:
    """Load items in order, bounded by ``slots``; feed the lane queue."""
    try:
        for index, item in enumerate(items):
            if not slots.acquire(blocking=False):
                t0 = time.perf_counter()
                slots.acquire()
                state.prefetch_stall_s += time.perf_counter() - t0
            if state.stop.is_set():
                slots.release()
                break
            state.loaded += 1
            try:
                loaded = load(index, item)
            except BaseException as exc:  # noqa: BLE001 - shipped to reducer
                state.post(index, ("err", exc))
                continue
            work.put((index, item, loaded))
    finally:
        for _ in range(lanes):
            work.put(_STOP)


def _lane(
    lane_id: int,
    compute: Callable[[int, Any, Any, int], Any],
    work: "queue.Queue",
    state: _State,
) -> None:
    """Pull loaded items and compute them until the stop sentinel."""
    while True:
        unit = work.get()
        if unit is _STOP:
            break
        index, item, loaded = unit
        if state.stop.is_set():
            state.post(index, ("err", _Cancelled()))
            continue
        try:
            result = compute(index, item, loaded, lane_id)
        except BaseException as exc:  # noqa: BLE001 - shipped to reducer
            state.post(index, ("err", exc))
        else:
            state.post(index, ("ok", result))
        # An idle lane must not keep its last item alive past its reduce.
        unit = loaded = result = None


class _Cancelled(Exception):
    """Placeholder outcome for items abandoned after an earlier failure."""


def run_pipelined(
    items: Sequence[Any],
    load: Callable[[int, Any], Any],
    compute: Callable[[int, Any, Any, int], Any],
    reduce: Callable[[int, Any, Any], None],
    inflight: int,
    lanes: int = 1,
    on_progress: Optional[Callable[[Dict[str, Any]], None]] = None,
) -> Dict[str, Any]:
    """Run ``load → compute → reduce`` over ``items`` with overlap.

    ``load(index, item)`` runs on the prefetch thread, at most
    ``inflight`` items ahead of the reducer.  ``compute(index, item,
    loaded, lane_id)`` runs on one of ``lanes`` lane threads.
    ``reduce(index, item, result)`` runs on the calling thread, strictly
    in index order.  The first failing item's exception propagates after
    every earlier item has been reduced; later items are discarded.
    At ``inflight == 1`` all three run inline on the calling thread
    (lane 0) and no thread is started.

    ``on_progress``, if given, is called on the calling thread after each
    successful ``reduce`` with a live snapshot of the stats dict plus
    ``done`` (items reduced so far, 1-based) and ``inflight`` (items past
    ``load`` but not yet reduced).  Exceptions it raises are swallowed —
    progress reporting must never change pipeline semantics.

    Returns pipeline-efficiency stats: ``overlap`` items whose result
    was already waiting when the reducer got to them, ``stalls`` items
    the reducer had to wait for (with the total ``reduce_wait_s``), and
    ``prefetch_stall_s`` the prefetch thread spent blocked on the
    inflight window.
    """
    if inflight < 1:
        raise ValueError(f"inflight must be >= 1, got {inflight}")
    stats: Dict[str, Any] = {"overlap": 0, "stalls": 0, "reduce_wait_s": 0.0}
    if inflight == 1:
        for index, item in enumerate(items):
            reduce(index, item, compute(index, item, load(index, item), 0))
            stats["overlap"] += 1
            _report(on_progress, stats, index + 1, 0)
        stats["prefetch_stall_s"] = 0.0
        return stats
    lanes = max(1, min(lanes, inflight, len(items) or 1))
    state = _State()
    slots = threading.Semaphore(inflight)
    work: "queue.Queue" = queue.Queue()
    threads = [
        threading.Thread(
            target=_prefetch,
            args=(items, load, slots, work, state, lanes),
            name="repro-prefetch",
            daemon=True,
        )
    ]
    for lane_id in range(lanes):
        threads.append(
            threading.Thread(
                target=_lane,
                args=(lane_id, compute, work, state),
                name=f"repro-lane-{lane_id}",
                daemon=True,
            )
        )
    for thread in threads:
        thread.start()
    failure: Optional[BaseException] = None
    try:
        for index, item in enumerate(items):
            if state.ready(index):
                stats["overlap"] += 1
                kind, value = state.take(index)
            else:
                stats["stalls"] += 1
                t0 = time.perf_counter()
                kind, value = state.take(index)
                stats["reduce_wait_s"] += time.perf_counter() - t0
            if kind == "err":
                failure = value
                break
            try:
                reduce(index, item, value)
            finally:
                slots.release()
            _report(
                on_progress, stats, index + 1,
                max(0, state.loaded - (index + 1)),
            )
    finally:
        state.stop.set()
        # Unblock a prefetch thread parked on the semaphore, then drain.
        slots.release()
        for thread in threads:
            thread.join()
    stats["prefetch_stall_s"] = state.prefetch_stall_s
    if failure is not None:
        raise failure
    return stats


def _report(
    on_progress: Optional[Callable[[Dict[str, Any]], None]],
    stats: Dict[str, Any],
    done: int,
    inflight: int,
) -> None:
    """Hand ``on_progress`` a snapshot; its exceptions are swallowed."""
    if on_progress is None:
        return
    snapshot = dict(stats, done=done, inflight=inflight)
    try:
        on_progress(snapshot)
    except Exception:  # noqa: BLE001 - progress is best-effort
        pass
