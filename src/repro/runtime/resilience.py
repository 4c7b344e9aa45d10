"""Shard-level fault tolerance wrapped around both executors.

The sharded pipeline is embarrassingly parallel, which makes worker
crashes, stragglers and poison shards the dominant failure mode at
scale: one OOM-killed worker used to abort a whole multi-hour run.
This module bounds the blast radius of a failing shard to *that shard*:

* **Retry with deterministic backoff.**  Each failed shard is retried
  up to ``max_retries`` times; the backoff before attempt *k* is the
  pure function ``min(backoff_base_s · 2^(k-1), backoff_max_s)`` — no
  jitter, so recovery schedules replay exactly.
* **Per-shard timeout.**  Under the process pool, a shard that exceeds
  ``shard_timeout_s`` is treated as failed and the pool is rebuilt so
  the straggler cannot occupy a worker slot (the abandoned process is
  not waited on).  The serial executor cannot be preempted, so timeouts
  are not enforced there — serial is the reference semantics.
* **Crash recovery.**  A dead worker breaks the whole
  ``ProcessPoolExecutor``; the runner keeps every result that completed
  before the break, rebuilds the pool, and re-runs only the unfinished
  shards.
* **Poison-shard isolation.**  A shard that fails every pool attempt is
  retried once more *in the parent process* on the serial reference
  path (``retry_then_serial``), so a pool-specific failure (pickling,
  memory pressure, a crashing worker) cannot poison the run — and a
  recovered run stays byte-identical to a clean serial run.
* **Degraded-run policy.**  When even the serial fallback fails, the
  ``on_failure`` policy decides: ``fail_fast`` aborts on the *first*
  failure (no retries), ``retry_then_serial`` raises a
  :class:`~repro.runtime.errors.ShardError`, and ``skip_and_report``
  records a structured :class:`DegradedResult` — retry counts, the
  error, the affected user ids — on the run's :class:`RunHealth` and
  continues.  Skipped users are surfaced on the report and in the run
  manifest, never silently missing.

Results never depend on the recovery path taken: retries re-run the
same pure work unit, and the merge order is fixed by shard ids.  Only
observability output (retry counters, recovery events) differs.
"""

from __future__ import annotations

import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..obs import current as obs_current
from .errors import RuntimeConfigError, ShardError
from .faults import FaultPlan, with_faults
from .sharding import Shard

#: Degraded-run policies, in increasing order of tolerance.
POLICIES = ("fail_fast", "retry_then_serial", "skip_and_report")


@dataclass(frozen=True)
class ResilienceConfig:
    """Retry/timeout/fallback policy for one run."""

    #: Pool re-submissions after the first attempt (0 disables retries).
    max_retries: int = 2
    #: Per-shard wall-clock budget, seconds (None = unbounded; only
    #: enforceable under the process pool).
    shard_timeout_s: Optional[float] = None
    #: What to do with a shard that keeps failing (see :data:`POLICIES`).
    on_failure: str = "retry_then_serial"
    #: First retry waits this long; doubles per attempt (0 = no backoff).
    backoff_base_s: float = 0.05
    #: Ceiling on any single backoff sleep, seconds.
    backoff_max_s: float = 1.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise RuntimeConfigError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.on_failure not in POLICIES:
            raise RuntimeConfigError(
                f"on_failure must be one of {POLICIES}, got {self.on_failure!r}"
            )
        if self.shard_timeout_s is not None and self.shard_timeout_s <= 0:
            raise RuntimeConfigError(
                f"shard_timeout_s must be > 0, got {self.shard_timeout_s}"
            )
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise RuntimeConfigError("backoff times must be >= 0")

    @property
    def max_attempts(self) -> int:
        """Pool attempts per shard (first try + retries)."""
        return 1 + self.max_retries

    def backoff_s(self, attempt: int) -> float:
        """Deterministic backoff before re-running attempt ``attempt + 1``."""
        if self.backoff_base_s == 0:
            return 0.0
        return min(self.backoff_base_s * (2 ** (attempt - 1)), self.backoff_max_s)


@dataclass(frozen=True)
class DegradedResult:
    """One shard the run gave up on (``skip_and_report`` only)."""

    stage: str
    shard_id: int
    user_ids: Tuple[str, ...]
    attempts: int
    error: str

    def as_dict(self) -> Dict[str, Any]:
        """JSON-safe record (the manifest shape)."""
        return {
            "stage": self.stage,
            "shard_id": self.shard_id,
            "user_ids": list(self.user_ids),
            "attempts": self.attempts,
            "error": self.error,
        }


@dataclass
class RunHealth:
    """What the resilience layer had to do to finish one run."""

    retries: int = 0
    timeouts: int = 0
    pool_rebuilds: int = 0
    serial_fallbacks: int = 0
    skipped: List[DegradedResult] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        """True when any shard was skipped (its users have no results)."""
        return bool(self.skipped)

    @property
    def recovered(self) -> bool:
        """True when any retry, rebuild or fallback happened."""
        return bool(
            self.retries or self.timeouts or self.pool_rebuilds
            or self.serial_fallbacks
        )

    def merge(self, other: "RunHealth") -> None:
        """Fold another run's (e.g. one segment's) record into this one."""
        self.retries += other.retries
        self.timeouts += other.timeouts
        self.pool_rebuilds += other.pool_rebuilds
        self.serial_fallbacks += other.serial_fallbacks
        self.skipped.extend(other.skipped)

    def skipped_user_ids(self, stage: Optional[str] = None) -> Tuple[str, ...]:
        """Users without results, optionally restricted to one stage."""
        return tuple(
            user_id
            for result in self.skipped
            if stage is None or result.stage == stage
            for user_id in result.user_ids
        )

    def as_dict(self) -> Dict[str, Any]:
        """JSON-safe record (lands in the manifest's ``extra.health``)."""
        return {
            "degraded": self.degraded,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "pool_rebuilds": self.pool_rebuilds,
            "serial_fallbacks": self.serial_fallbacks,
            "skipped": [result.as_dict() for result in self.skipped],
        }

    def format_report(self) -> str:
        """Human-readable recovery summary."""
        lines = [
            "run health: "
            + ("DEGRADED" if self.degraded
               else "recovered" if self.recovered else "clean"),
            f"  retries:          {self.retries}",
            f"  timeouts:         {self.timeouts}",
            f"  pool rebuilds:    {self.pool_rebuilds}",
            f"  serial fallbacks: {self.serial_fallbacks}",
        ]
        for result in self.skipped:
            users = ", ".join(result.user_ids)
            lines.append(
                f"  skipped: stage {result.stage!r} shard {result.shard_id}"
                f" after {result.attempts} attempt(s) [{users}]: {result.error}"
            )
        return "\n".join(lines)


def run_shards_resilient(
    stage: str,
    executor: Any,
    shards: Sequence[Shard],
    task: Callable[[Any], Any],
    payloads: Sequence[Any],
    config: ResilienceConfig,
    plan: Optional[FaultPlan] = None,
    health: Optional[RunHealth] = None,
) -> Tuple[List[Optional[Any]], List[int]]:
    """Run one stage's shards under the retry/timeout/fallback policy.

    Returns ``(results, attempts)`` aligned with ``shards``; a skipped
    shard's result slot is ``None`` (only possible under
    ``skip_and_report``).  ``task`` must be deterministic — retries
    re-run it verbatim, which is what keeps recovered runs
    byte-identical to clean ones.
    """
    if health is None:
        health = RunHealth()
    attempts = [0] * len(shards)
    results: List[Optional[Any]] = [None] * len(shards)
    done = [False] * len(shards)
    if hasattr(executor, "submit"):
        _run_pool(
            stage, executor, shards, task, payloads, config, plan, health,
            attempts, results, done,
        )
    else:
        _run_serial(
            stage, shards, task, payloads, config, plan, health,
            attempts, results, done,
        )
    return results, attempts


def _fail(
    stage: str, shard: Shard, cause: BaseException, attempts: int
) -> ShardError:
    """Build the terminal error for a shard that exhausted every path."""
    return ShardError(stage, shard.shard_id, shard.user_ids, cause, attempts=attempts)


def _give_up(
    stage: str,
    shard: Shard,
    index: int,
    cause: BaseException,
    config: ResilienceConfig,
    health: RunHealth,
    attempts: List[int],
    results: List[Optional[Any]],
    done: List[bool],
) -> None:
    """Terminal failure handling: raise or record a :class:`DegradedResult`."""
    if config.on_failure != "skip_and_report":
        raise _fail(stage, shard, cause, attempts[index])
    obs = obs_current()
    health.skipped.append(
        DegradedResult(
            stage=stage,
            shard_id=shard.shard_id,
            user_ids=shard.user_ids,
            attempts=attempts[index],
            error=repr(cause),
        )
    )
    obs.count("runtime.shards_skipped", 1)
    obs.event(
        "runtime.shard_skipped",
        stage=stage,
        shard_id=shard.shard_id,
        attempts=attempts[index],
        n_users=len(shard),
    )
    results[index] = None
    done[index] = True


def _serial_fallback(
    stage: str,
    shard: Shard,
    index: int,
    task: Callable[[Any], Any],
    payload: Any,
    plan: Optional[FaultPlan],
    config: ResilienceConfig,
    health: RunHealth,
    attempts: List[int],
    results: List[Optional[Any]],
    done: List[bool],
) -> None:
    """Poison-shard isolation: run the shard in-parent on the serial path."""
    obs = obs_current()
    attempts[index] += 1
    health.serial_fallbacks += 1
    obs.count("runtime.serial_fallbacks", 1)
    obs.event(
        "runtime.serial_fallback",
        stage=stage,
        shard_id=shard.shard_id,
        attempt=attempts[index],
    )
    fn = with_faults(task, plan, stage, shard.shard_id, attempts[index],
                     allow_exit=False)
    try:
        results[index] = fn(payload)
        done[index] = True
    except Exception as exc:
        _give_up(stage, shard, index, exc, config, health, attempts, results, done)


def _record_retry(
    stage: str, shard: Shard, next_attempt: int, health: RunHealth
) -> None:
    obs = obs_current()
    health.retries += 1
    obs.count("runtime.shard_retries", 1)
    obs.event(
        "runtime.shard_retry",
        stage=stage,
        shard_id=shard.shard_id,
        attempt=next_attempt,
    )


def _submit(executor: Any, fn: Callable[[Any], Any], payload: Any) -> Future:
    """Submit one shard; a pool that broke earlier in the round (a shard
    submitted before this one already killed its worker) yields a failed
    future, so the shard is collected and retried like every other shard
    the break left unfinished."""
    try:
        return executor.submit(fn, payload)
    except BrokenProcessPool as exc:
        future: Future = Future()
        future.set_exception(exc)
        return future


def _run_pool(
    stage: str,
    executor: Any,
    shards: Sequence[Shard],
    task: Callable[[Any], Any],
    payloads: Sequence[Any],
    config: ResilienceConfig,
    plan: Optional[FaultPlan],
    health: RunHealth,
    attempts: List[int],
    results: List[Optional[Any]],
    done: List[bool],
) -> None:
    """Process-pool path: rounds of submissions with crash/timeout recovery."""
    obs = obs_current()
    pending = list(range(len(shards)))
    while pending:
        submitted = []
        for index in pending:
            attempts[index] += 1
            fn = with_faults(
                task, plan, stage, shards[index].shard_id, attempts[index],
                allow_exit=True,
            )
            submitted.append((index, _submit(executor, fn, payloads[index])))
        failed: Dict[int, BaseException] = {}
        pool_broken = False
        for index, future in submitted:
            shard = shards[index]
            try:
                results[index] = future.result(timeout=config.shard_timeout_s)
                done[index] = True
            except FutureTimeout as exc:
                future.cancel()
                failed[index] = exc
                pool_broken = True  # the straggler still occupies a worker
                health.timeouts += 1
                obs.count("runtime.shard_timeouts", 1)
                obs.event(
                    "runtime.shard_timeout",
                    stage=stage,
                    shard_id=shard.shard_id,
                    attempt=attempts[index],
                    timeout_s=config.shard_timeout_s,
                )
            except BrokenProcessPool as exc:
                # Shards that finished before the break kept their
                # results; everything else is unaccounted for.
                failed[index] = exc
                pool_broken = True
                obs.event(
                    "runtime.worker_crash",
                    stage=stage,
                    shard_id=shard.shard_id,
                    attempt=attempts[index],
                )
            except Exception as exc:
                failed[index] = getattr(exc, "cause", None) or exc
        if pool_broken:
            executor.reset()
            health.pool_rebuilds += 1
            obs.count("runtime.pool_rebuilds", 1)
            obs.event("runtime.pool_rebuild", stage=stage)
        pending = []
        backoff = 0.0
        for index in sorted(failed):
            shard = shards[index]
            cause = failed[index]
            if config.on_failure == "fail_fast":
                raise _fail(stage, shard, cause, attempts[index])
            if attempts[index] < config.max_attempts:
                _record_retry(stage, shard, attempts[index] + 1, health)
                backoff = max(backoff, config.backoff_s(attempts[index]))
                pending.append(index)
            else:
                _serial_fallback(
                    stage, shard, index, task, payloads[index], plan,
                    config, health, attempts, results, done,
                )
        if backoff:
            time.sleep(backoff)


def _run_serial(
    stage: str,
    shards: Sequence[Shard],
    task: Callable[[Any], Any],
    payloads: Sequence[Any],
    config: ResilienceConfig,
    plan: Optional[FaultPlan],
    health: RunHealth,
    attempts: List[int],
    results: List[Optional[Any]],
    done: List[bool],
) -> None:
    """Serial path: same retry policy in-process (no preemptive timeout)."""
    for index, (shard, payload) in enumerate(zip(shards, payloads)):
        while not done[index]:
            attempts[index] += 1
            fn = with_faults(task, plan, stage, shard.shard_id, attempts[index],
                             allow_exit=False)
            try:
                results[index] = fn(payload)
                done[index] = True
            except Exception as exc:
                if config.on_failure == "fail_fast":
                    raise _fail(stage, shard, exc, attempts[index])
                if attempts[index] < config.max_attempts:
                    _record_retry(stage, shard, attempts[index] + 1, health)
                    time.sleep(config.backoff_s(attempts[index]))
                    continue
                # Serial *is* the fallback path — nothing further to try.
                _give_up(
                    stage, shard, index, exc, config, health,
                    attempts, results, done,
                )
