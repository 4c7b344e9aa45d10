"""Executors: where sharded work units actually run.

Two implementations share one tiny interface (``map`` preserving
submission order, ``workers``, ``close``):

* :class:`SerialExecutor` — runs shards in-process, zero overhead; the
  reference semantics every parallel run must reproduce byte-for-byte.
* :class:`ParallelExecutor` — fans shards out over a lazily created
  ``ProcessPoolExecutor``.  The pool persists across ``map`` calls so a
  multi-stage pipeline (extract → match → classify) pays process
  start-up once; call ``close()`` (or use ``with``) when done.

Determinism does not depend on the executor: results are collected in
submission order and merged by dataset user order (see
:mod:`repro.runtime.merge`), so completion races never reorder output.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..obs import ObsContext, activate, thread_activate
from ..obs import current as obs_current
from .errors import RuntimeConfigError, ShardError, WorkUnitError
from .faults import FaultPlan
from .resilience import ResilienceConfig, RunHealth, run_shards_resilient
from .sharding import Shard
from .timing import ShardTiming, StageTiming

#: Shards per worker: mild oversubscription lets LPT smooth stragglers.
OVERSUBSCRIBE = 2

#: Serialises pool submissions across threads.  A fork-context pool
#: forks its workers inside ``submit``, and each fork briefly holds the
#: write end of the new worker's sentinel pipe in the parent.  A worker
#: another thread forks in that window inherits the write end and keeps
#: it open, so when the first worker dies its pool never sees the
#: sentinel fire, never marks itself broken, and the dead worker's
#: future never completes.  Any two threads that each drive their own
#: executor can start or rebuild pools concurrently.
_SUBMIT_LOCK = threading.Lock()


def available_workers() -> int:
    """Usable CPU count (respects scheduler affinity when exposed)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


class SerialExecutor:
    """Run work units one after another in the calling process."""

    name = "serial"
    workers = 1

    def map(self, fn: Callable[[Any], Any], payloads: Sequence[Any]) -> List[Any]:
        """Apply ``fn`` to each payload, in order.

        A failing payload surfaces as :class:`WorkUnitError` naming its
        submission index — the same contract as the parallel executor.
        """
        results = []
        for index, payload in enumerate(payloads):
            try:
                results.append(fn(payload))
            except Exception as exc:
                raise WorkUnitError(index, exc) from exc
        return results

    def close(self) -> None:
        """Nothing to release."""

    def __enter__(self) -> "SerialExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class ParallelExecutor:
    """Fan work units out over a persistent process pool.

    ``workers`` defaults to the usable CPU count.  The fork start method
    is preferred when the platform offers it (workers inherit the loaded
    modules instead of re-importing numpy per process); payload
    functions are top-level module functions, so spawn platforms work
    identically, only slower to warm up.
    """

    name = "parallel"

    def __init__(
        self,
        workers: Optional[int] = None,
        mp_context: Optional[multiprocessing.context.BaseContext] = None,
    ) -> None:
        if workers is not None and workers < 1:
            raise RuntimeConfigError(f"workers must be >= 1, got {workers}")
        self.workers = workers or available_workers()
        if mp_context is None and "fork" in multiprocessing.get_all_start_methods():
            mp_context = multiprocessing.get_context("fork")
        self._mp_context = mp_context
        self._pool: Optional[ProcessPoolExecutor] = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            # Cap actual processes at the usable CPU count: extra
            # processes on an undersized host only add contention.
            # ``self.workers`` keeps the *requested* count so shard
            # layout — and therefore results — is host-independent.
            self._pool = ProcessPoolExecutor(
                max_workers=min(self.workers, available_workers()),
                mp_context=self._mp_context,
            )
        return self._pool

    def submit(self, fn: Callable[[Any], Any], payload: Any) -> Future:
        """Submit one work unit, returning its future.

        The per-shard control the resilience layer needs (timeouts,
        selective retry) lives on the future; ``map`` stays the simple
        all-or-nothing path.  Safe to call from several threads, each
        with its own executor (see :data:`_SUBMIT_LOCK`).
        """
        with _SUBMIT_LOCK:
            return self._ensure_pool().submit(fn, payload)

    def map(self, fn: Callable[[Any], Any], payloads: Sequence[Any]) -> List[Any]:
        """Apply ``fn`` to each payload across the pool.

        Results come back in submission order regardless of completion
        order — the determinism guarantee starts here.  A failing
        payload cancels its still-queued siblings and surfaces as
        :class:`WorkUnitError` naming the submission index; a dead
        worker (``BrokenProcessPool``) additionally drops the broken
        pool so the executor stays reusable.
        """
        futures = [self.submit(fn, payload) for payload in payloads]
        try:
            return [self._collect(index, future) for index, future in enumerate(futures)]
        except BaseException:
            for future in futures:
                future.cancel()
            raise

    def _collect(self, index: int, future: Future) -> Any:
        try:
            return future.result()
        except BrokenProcessPool:
            self.reset()  # the pool is dead; next use builds a fresh one
            raise
        except Exception as exc:
            raise WorkUnitError(index, exc) from exc

    def reset(self) -> None:
        """Discard the pool without waiting (crash/straggler recovery).

        Unlike :meth:`close` this never blocks on in-flight work — a
        hung or crashed worker must not wedge recovery — and the next
        ``submit``/``map`` lazily builds a fresh pool.
        """
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        """Shut the pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


#: Anything with the executor interface (duck-typed; see SerialExecutor).
Executor = Any


def resolve_executor(
    executor: Optional[Executor] = None, workers: Optional[int] = None
) -> Tuple[Executor, bool]:
    """Turn the ``(executor, workers)`` calling convention into an executor.

    Exactly one of the two may be given.  ``workers=None`` or ``1`` maps
    to the serial reference executor; ``workers=0`` means "all CPUs".
    Returns ``(executor, owned)`` where ``owned`` tells the caller it
    created the executor and must close it.
    """
    if executor is not None:
        if workers is not None:
            raise RuntimeConfigError("pass either executor= or workers=, not both")
        return executor, False
    if workers is None or workers == 1:
        return SerialExecutor(), True
    if workers == 0:
        return ParallelExecutor(), True
    return ParallelExecutor(workers=workers), True


def shard_count(executor: Executor, n_users: int) -> int:
    """How many shards a stage should cut for ``executor``."""
    if n_users <= 0:
        return 1
    return max(1, min(n_users, executor.workers * OVERSUBSCRIBE))


@dataclass(frozen=True)
class _Instrumented:
    """Picklable wrapper measuring wall time (and observing) ``fn``.

    When ``observe`` is set, the work unit runs inside a fresh
    worker-local :class:`ObsContext`; its span/metric delta rides home
    with the result so the parent can aggregate deterministically.  The
    same wrapper runs under both executors, so serial and parallel runs
    share one aggregation path.  ``profile`` additionally runs the work
    unit under cProfile + tracemalloc (see :mod:`repro.obs.profile`);
    the profile record ships home inside the delta and the observed
    result stays byte-identical — profiling observes, never steers.
    """

    fn: Callable[[Any], Any]
    observe: bool = False
    profile: bool = False

    def __call__(self, payload: Any) -> Tuple[float, Any, Any]:
        t0 = time.perf_counter()
        if not self.observe:
            result = self.fn(payload)
            return time.perf_counter() - t0, None, result
        ctx = ObsContext(profile=self.profile)
        # Also override the thread-local slot: an in-process shard (and
        # a forked worker) inherits the submitting thread's override
        # (see repro.obs), which would otherwise swallow its counters.
        with activate(ctx), thread_activate(ctx), ctx.span("shard.run"):
            if self.profile:
                from ..obs.profile import profile_call

                result, record = profile_call(self.fn, payload)
                ctx.record_profile(record)
            else:
                result = self.fn(payload)
        return time.perf_counter() - t0, ctx.delta(), result


def run_stage(
    stage: str,
    executor: Executor,
    shards: Sequence[Shard],
    worker: Callable[[Any], Any],
    payload_of: Callable[[Shard], Any],
    resilience: Optional[ResilienceConfig] = None,
    fault_plan: Optional[FaultPlan] = None,
    health: Optional[RunHealth] = None,
) -> Tuple[List[Any], StageTiming]:
    """Run one sharded stage and capture its timings.

    ``worker`` must be a top-level (picklable) function taking the
    payload built by ``payload_of``.  Shard failures surface as
    :class:`ShardError` naming the stage, shard and users.

    ``resilience`` arms the retry/timeout/fallback layer (see
    :mod:`repro.runtime.resilience`); under its ``skip_and_report``
    policy a skipped shard's result slot is ``None`` and the skip is
    recorded on ``health``.  ``fault_plan`` deterministically injects
    crashes/exceptions/delays for drills and tests (a plan without an
    explicit config runs under the default policy).

    With an active observation context, the stage runs under a
    ``stage.<name>`` span, workers ship their span/metric deltas back,
    and the deltas are absorbed in shard-id order — the same totals for
    any worker count.
    """
    if resilience is None and fault_plan is not None:
        resilience = ResilienceConfig()
    obs = obs_current()
    timing = StageTiming(stage=stage, executor=executor.name, workers=executor.workers)
    with obs.span(
        f"stage.{stage}",
        executor=executor.name,
        workers=executor.workers,
        shards=len(shards),
    ) as stage_span:
        t0 = time.perf_counter()
        payloads = [payload_of(shard) for shard in shards]
        task = _Instrumented(
            worker,
            observe=obs.enabled,
            profile=getattr(obs, "profile_enabled", False),
        )
        if resilience is not None:
            timed_results, attempts = run_shards_resilient(
                stage, executor, shards, task, payloads,
                resilience, fault_plan, health,
            )
        else:
            try:
                timed_results = executor.map(task, payloads)
            except WorkUnitError as exc:
                shard = shards[exc.index]
                raise ShardError(
                    stage, shard.shard_id, shard.user_ids, exc.cause
                ) from exc.cause
            except Exception as exc:  # pool-level failure; no single shard
                raise ShardError(stage, -1, (), exc) from exc
            attempts = [1] * len(shards)
        results = []
        for shard, n_attempts, timed in zip(shards, attempts, timed_results):
            if timed is None:  # skipped under skip_and_report
                results.append(None)
                continue
            wall_s, delta, result = timed
            timing.shards.append(
                ShardTiming(
                    shard_id=shard.shard_id,
                    n_users=len(shard),
                    weight=shard.weight,
                    wall_s=wall_s,
                    attempts=n_attempts,
                )
            )
            if delta is not None:
                obs.absorb(
                    delta,
                    parent_id=stage_span.span_id,
                    base_s=stage_span.start_s,
                    attrs={"stage": stage, "shard_id": shard.shard_id,
                           "n_users": len(shard)},
                )
            obs.observe("runtime.shard_wall_s", wall_s)
            results.append(result)
        timing.wall_s = time.perf_counter() - t0
        stage_span.annotate(wall_s=timing.wall_s)
        if task.profile:
            stage_profiles = [
                p for p in getattr(obs, "profiles", [])
                if p.get("stage") == stage
            ]
            if stage_profiles:
                stage_span.annotate(
                    profile_peak_kb=max(
                        p.get("tracemalloc_peak_kb", 0.0)
                        for p in stage_profiles
                    )
                )
    obs.count("runtime.shards_total", len(shards))
    obs.count("runtime.stages_total", 1)
    return results, timing
