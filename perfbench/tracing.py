"""In-memory span recorder that wraps public functions from outside.

The traced pass replaces selected functions and methods of the program
with timing wrappers (:meth:`Tracer.patch`), so nothing under ``src/``
changes.  Every call becomes a span with a name, start, end and parent
span; spans are kept in flat arrays while the pass runs and written out
once it ends.  A span's self time is its duration minus the durations
of its direct children, so the self times of all spans under one root
add up to the root's duration exactly.
"""

from __future__ import annotations

import gc
import time
from array import array
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional

import numpy as np

def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Per-span self time: duration minus the direct children's durations.

    ``parent[i]`` is the index of span ``i``'s parent, ``-1`` for a root.
    """
    duration = end - start
    children = np.zeros_like(duration)
    nested = parent >= 0
    np.add.at(children, parent[nested], duration[nested])
    return duration - children


class Tracer:
    """Records nested spans on one thread."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patches: List[tuple] = []
        self.gc_pause_s = 0.0
        self.gc_collections = 0
        self._gc_t0 = 0.0

    # -- recording ------------------------------------------------------

    def name_of(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int, nid: Optional[int] = None) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        if nid is not None:
            self.name_id[idx] = nid

    def wrap(
        self,
        func: Callable,
        name: str,
        empty_name: Optional[str] = None,
        on_result: Optional[Callable[[tuple, Any], None]] = None,
    ) -> Callable:
        """``func`` recorded as span ``name``.

        With ``empty_name``, a call whose result is empty is recorded
        under that name instead.  ``on_result(args, result)`` runs after
        the span closes, so its cost stays out of every span but the
        enclosing one.
        """
        nid = self.name_of(name)
        eid = self.name_of(empty_name) if empty_name is not None else None
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(nid)
            try:
                result = func(*args, **kwargs)
            except BaseException:
                tracer.close(idx)
                raise
            tracer.close(idx, eid if eid is not None and not result else None)
            if on_result is not None:
                on_result(args, result)
            return result

        traced.__wrapped__ = func
        return traced

    def patch(self, owner: Any, attr: str, name: str, **kwargs) -> None:
        """Replace ``owner.attr`` (module global, method, classmethod or
        staticmethod) with a traced wrapper until :meth:`restore`."""
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            replacement: Any = classmethod(self.wrap(raw.__func__, name, **kwargs))
        elif isinstance(raw, staticmethod):
            replacement = staticmethod(self.wrap(raw.__func__, name, **kwargs))
        else:
            replacement = self.wrap(raw, name, **kwargs)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def iterate(self, iterable: Iterable, name: str) -> Iterator:
        """Yield from ``iterable`` with each ``next()`` recorded as a span."""
        nid = self.name_of(name)
        iterator = iter(iterable)
        while True:
            idx = self.open(nid)
            try:
                item = next(iterator)
            except StopIteration:
                self.close(idx)
                return
            self.close(idx)
            yield item

    # -- garbage collector ----------------------------------------------

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_t0 = time.perf_counter()
        else:
            self.gc_pause_s += time.perf_counter() - self._gc_t0
            self.gc_collections += 1

    def watch_gc(self) -> None:
        gc.callbacks.append(self._on_gc)

    def unwatch_gc(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -- results ----------------------------------------------------------

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def layer_self_times(self) -> Dict[str, float]:
        """Summed self time per span name over every recorded span."""
        cols = self.arrays()
        own = self_times(cols["parent"], cols["start"], cols["end"])
        totals = np.bincount(cols["name_id"], weights=own, minlength=len(self.names))
        return {name: float(totals[i]) for i, name in enumerate(self.names)}

    def span_count(self) -> int:
        return len(self.start)

    def save(self, path) -> None:
        """Write every span to ``path`` (compressed ``.npz``)."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

