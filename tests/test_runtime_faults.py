"""Fault-injection suite: the resilience layer under scripted failures.

Every fault here comes from a deterministic :class:`FaultPlan` keyed by
``(stage, shard_id, attempt)`` — worker crashes (``os._exit`` inside the
work unit), injected exceptions, and delays that trip the per-shard
timeout.  The invariants under test:

* a recovered run (crash, exception, or timeout) is byte-identical to a
  clean serial run — the recovery path never leaks into results;
* ``skip_and_report`` surfaces the exact skipped user ids on the report
  and its health record, never silently dropping users;
* retry/rebuild/fallback counters land in the metrics snapshot (and
  thus the manifest) for any worker count;
* the executors stay usable after a failure (cancelled siblings, pool
  reset on ``BrokenProcessPool``).
"""

from __future__ import annotations

import json
import multiprocessing
import os
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from repro.core import validate, validate_store
from repro.io import load_dataset
from repro.obs import ObsContext, activate, build_manifest
from repro.runtime import (
    FaultPlan,
    FaultSpec,
    InjectedCrash,
    InjectedFault,
    ParallelExecutor,
    ResilienceConfig,
    RunHealth,
    SerialExecutor,
    ShardError,
    WorkUnitError,
    merge_user_maps,
)
from repro.runtime.faults import inject
from repro.synth import generate_dataset, generate_study_store, primary_config

from helpers import make_dataset, make_user

GOLDEN_DIR = Path(__file__).resolve().parent / "data" / "golden_study"

#: Small but non-trivial synthetic study (~7 users).
STUDY_SCALE = 0.03

#: No backoff sleeps in tests — determinism does not need real waiting.
FAST = dict(backoff_base_s=0.0)


def fresh_study():
    return generate_dataset(primary_config().scaled(STUDY_SCALE))


def plan_of(*faults: FaultSpec) -> FaultPlan:
    return FaultPlan(faults=tuple(faults))


@pytest.fixture
def two_real_workers(monkeypatch):
    """Force the pool to really hold two processes even on a 1-CPU host.

    ``ParallelExecutor`` caps pool size at the usable CPU count; on a
    single-CPU host a sleeping straggler then blocks queued siblings
    into spurious extra timeouts.  Timeout tests need a genuinely
    concurrent second worker for exact counter expectations.
    """
    from repro.runtime import executor as executor_module

    monkeypatch.setattr(executor_module, "available_workers", lambda: 2)


# ---------------------------------------------------------------------------
# FaultPlan: pure, validated, JSON round-trippable
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_lookup_is_exact_and_pure(self):
        plan = plan_of(
            FaultSpec("extract", 0, 1, "crash"),
            FaultSpec("match", 1, 2, "delay", delay_s=0.5),
        )
        for _ in range(3):  # pure: same answer every time
            assert plan.lookup("extract", 0, 1).kind == "crash"
            assert plan.lookup("extract", 0, 2) is None
            assert plan.lookup("extract", 1, 1) is None
            assert plan.lookup("match", 1, 2).delay_s == 0.5

    def test_json_round_trip(self, tmp_path):
        plan = plan_of(
            FaultSpec("extract", 0, 1, "crash"),
            FaultSpec("classify", 2, 3, "exception"),
            FaultSpec("match", 1, 1, "delay", delay_s=2.0),
        )
        path = plan.write(tmp_path / "plan.json")
        assert FaultPlan.load(path) == plan
        # and the on-disk shape is the documented one
        data = json.loads(path.read_text())
        assert {entry["kind"] for entry in data["faults"]} == {
            "crash", "exception", "delay",
        }

    def test_rejects_bad_specs(self):
        with pytest.raises(ValueError, match="kind"):
            FaultSpec("extract", 0, 1, "meteor")
        with pytest.raises(ValueError, match="1-based"):
            FaultSpec("extract", 0, 0, "crash")
        with pytest.raises(ValueError, match="delay_s"):
            FaultSpec("extract", 0, 1, "delay")
        with pytest.raises(ValueError, match="duplicate"):
            plan_of(FaultSpec("a", 0, 1, "crash"), FaultSpec("a", 0, 1, "exception"))
        with pytest.raises(ValueError, match="faults"):
            FaultPlan.from_dict({})

    def test_attempt_defaults_to_first(self):
        plan = FaultPlan.from_dict(
            {"faults": [{"stage": "match", "shard_id": 1, "kind": "exception"}]}
        )
        assert plan.lookup("match", 1, 1).kind == "exception"

    def test_parent_side_crash_raises_instead_of_exiting(self):
        with pytest.raises(InjectedCrash):
            inject(FaultSpec("x", 0, 1, "crash"), allow_exit=False)
        with pytest.raises(InjectedFault):
            inject(FaultSpec("x", 0, 1, "exception"), allow_exit=True)


# ---------------------------------------------------------------------------
# Executor-level contracts (satellite bugfix)
# ---------------------------------------------------------------------------


def _echo(payload):
    return payload


def _fail_on_bad(payload):
    if payload == "bad":
        raise ValueError("poisoned payload")
    return payload


def _exit_on_die(payload):
    if payload == "die":
        os._exit(3)
    return payload


class TestExecutorFailureContracts:
    def test_serial_map_wraps_failure_with_index(self):
        with pytest.raises(WorkUnitError) as err:
            SerialExecutor().map(_fail_on_bad, ["ok", "bad"])
        assert err.value.index == 1
        assert isinstance(err.value.cause, ValueError)

    def test_parallel_map_wraps_failure_and_stays_usable(self):
        with ParallelExecutor(workers=2) as executor:
            with pytest.raises(WorkUnitError) as err:
                executor.map(_fail_on_bad, ["ok", "bad", "ok2"])
            assert err.value.index == 1
            assert isinstance(err.value.cause, ValueError)
            # siblings were cancelled/collected; the pool still works
            assert executor.map(_echo, ["x", "y"]) == ["x", "y"]

    def test_broken_pool_resets_and_executor_is_reusable(self):
        with ParallelExecutor(workers=2) as executor:
            with pytest.raises(BrokenProcessPool):
                executor.map(_exit_on_die, ["die", "a", "b"])
            assert executor._pool is None  # dead pool dropped, not cached
            assert executor.map(_echo, ["x", "y"]) == ["x", "y"]

    def test_pool_broken_between_submissions_retries_the_round(self):
        """A shard that kills its worker can break the pool before the
        round's later shards are submitted; those submissions raise
        instead of returning a future, and must be retried like any
        shard the break left unfinished rather than escape the run."""
        from concurrent.futures import Future

        from repro.runtime.resilience import run_shards_resilient
        from repro.runtime.sharding import Shard

        class BreaksOnSecondSubmit:
            workers = 2

            def __init__(self):
                self.submits = 0
                self.resets = 0

            def submit(self, fn, payload):
                self.submits += 1
                if self.submits == 2:
                    raise BrokenProcessPool("worker died mid-round")
                future = Future()
                future.set_result(fn(payload))
                return future

            def reset(self):
                self.resets += 1

        executor = BreaksOnSecondSubmit()
        health = RunHealth()
        shards = [Shard(i, (f"u{i}",), 1) for i in range(3)]
        results, attempts = run_shards_resilient(
            "extract", executor, shards, _echo, ["a", "b", "c"],
            ResilienceConfig(**FAST), health=health,
        )
        assert results == ["a", "b", "c"]
        assert attempts == [1, 2, 1]
        assert executor.resets == health.pool_rebuilds == 1
        assert health.retries == 1

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the race is between forks",
    )
    def test_pool_started_by_another_thread_keeps_crashes_visible(
        self, monkeypatch
    ):
        """Two threads start pools at once, as the pipelined store walk's
        lanes do after injected crashes.  The holder thread's worker must
        not inherit the write end of the sentinel pipe of a worker this
        thread is forking, or that worker's death goes unseen and its
        future never completes.  The bad interleaving is forced: this
        thread's first pipe waits until the holder has forked (or two
        seconds pass, which is what serialised submissions make it do)."""
        import multiprocessing.popen_fork as popen_fork
        import threading

        crasher_thread = threading.current_thread()
        window_open = threading.Event()
        holder_forked = threading.Event()

        class RacyOs:
            def __getattr__(self, name):
                return getattr(os, name)

            def pipe(self):
                fds = os.pipe()
                if (threading.current_thread() is crasher_thread
                        and not window_open.is_set()):
                    window_open.set()
                    holder_forked.wait(timeout=2)
                return fds

        crasher = ParallelExecutor(workers=1)
        holder = ParallelExecutor(workers=1)

        def hold():
            window_open.wait(timeout=20)
            holder.submit(_echo, "x")
            holder_forked.set()

        monkeypatch.setattr(popen_fork, "os", RacyOs())
        thread = threading.Thread(target=hold, daemon=True)
        try:
            thread.start()
            crash = crasher.submit(_exit_on_die, "die")
            with pytest.raises(BrokenProcessPool):
                crash.result(timeout=20)
            thread.join(timeout=30)
            assert not thread.is_alive()
        finally:
            crasher.reset()
            holder.reset()


# ---------------------------------------------------------------------------
# Recovery is invisible in results
# ---------------------------------------------------------------------------


class TestRecoveredRunsAreIdentical:
    @pytest.fixture(scope="class")
    def serial_summary(self):
        return validate(fresh_study()).summary()

    def check_identical(self, plan, serial_summary, workers=2, **config):
        health = RunHealth()
        report = validate(
            fresh_study(),
            workers=workers,
            resilience=ResilienceConfig(**{**FAST, **config}),
            fault_plan=plan,
            health=health,
        )
        assert report.summary() == serial_summary
        assert not health.degraded
        return health

    def test_worker_crash_recovers(self, serial_summary):
        health = self.check_identical(
            plan_of(FaultSpec("extract", 0, 1, "crash")), serial_summary
        )
        assert health.pool_rebuilds >= 1
        assert health.retries >= 1

    def test_injected_exception_recovers(self, serial_summary):
        health = self.check_identical(
            plan_of(FaultSpec("match", 1, 1, "exception")), serial_summary
        )
        assert health.retries == 1
        assert health.pool_rebuilds == 0  # an exception does not kill the pool

    def test_slow_shard_times_out_and_recovers(self, serial_summary, two_real_workers):
        health = self.check_identical(
            plan_of(FaultSpec("classify", 0, 1, "delay", delay_s=5.0)),
            serial_summary,
            shard_timeout_s=0.8,
        )
        assert health.timeouts == 1
        assert health.pool_rebuilds >= 1  # straggler's pool was torn down

    def test_poison_shard_falls_back_to_serial(self, serial_summary):
        # Crashes on every pool attempt; only the in-parent serial
        # fallback (attempt 3) is clean.
        plan = plan_of(
            FaultSpec("match", 0, 1, "crash"), FaultSpec("match", 0, 2, "crash")
        )
        health = self.check_identical(plan, serial_summary, max_retries=1)
        assert health.serial_fallbacks >= 1

    def test_serial_executor_retries_in_process(self, serial_summary):
        health = self.check_identical(
            plan_of(FaultSpec("extract", 0, 1, "exception")),
            serial_summary,
            workers=1,
        )
        assert health.retries == 1

    def test_fail_fast_aborts_on_first_failure(self):
        with pytest.raises(ShardError) as err:
            validate(
                fresh_study(),
                workers=2,
                resilience=ResilienceConfig(on_failure="fail_fast", **FAST),
                fault_plan=plan_of(FaultSpec("extract", 1, 1, "exception")),
            )
        assert err.value.stage == "extract"
        assert err.value.shard_id == 1
        assert err.value.attempts == 1

    def test_retry_then_serial_raises_when_even_serial_fails(self):
        # Fault every attempt, including the serial fallback (attempt 4).
        plan = plan_of(
            *(FaultSpec("extract", 0, a, "exception") for a in (1, 2, 3, 4))
        )
        with pytest.raises(ShardError) as err:
            validate(
                fresh_study(),
                workers=2,
                resilience=ResilienceConfig(max_retries=2, **FAST),
                fault_plan=plan,
            )
        assert err.value.attempts == 4


# ---------------------------------------------------------------------------
# Degraded runs: skipped users are loud, never silently missing
# ---------------------------------------------------------------------------


class TestSkipAndReport:
    def run_degraded(self, workers):
        # The extract shard 0 fails on every attempt, serial included.
        plan = plan_of(
            *(FaultSpec("extract", 0, a, "exception") for a in range(1, 6))
        )
        health = RunHealth()
        report = validate(
            fresh_study(),
            workers=workers,
            resilience=ResilienceConfig(
                max_retries=1, on_failure="skip_and_report", **FAST
            ),
            fault_plan=plan,
            health=health,
        )
        return report, health

    @pytest.mark.parametrize("workers", [1, 2])
    def test_exact_skipped_users_surface(self, workers):
        report, health = self.run_degraded(workers)
        assert health.degraded and report.health is health
        [skip] = health.skipped
        assert skip.stage == "extract" and skip.shard_id == 0
        expected_users = set(skip.user_ids)
        assert expected_users  # the shard was not empty
        assert set(health.skipped_user_ids()) == expected_users
        # skipped users are absent downstream, present users are intact
        assert expected_users.isdisjoint(report.matching.per_user)
        assert expected_users.isdisjoint(
            {c.user_id for c in report.classification.checkins.values()}
        )
        # ... and the human-readable summary names them
        for user_id in expected_users:
            assert user_id in report.summary()
        assert "DEGRADED RUN" in report.summary()

    def test_health_report_and_dict_shape(self):
        report, health = self.run_degraded(workers=2)
        data = health.as_dict()
        assert data["degraded"] is True
        assert data["skipped"][0]["user_ids"] == list(health.skipped[0].user_ids)
        assert "DEGRADED" in health.format_report()
        assert health.skipped[0].attempts >= 2

    def test_merge_rejects_unexplained_holes(self):
        dataset = make_dataset([make_user("u0"), make_user("u1")])
        merged = merge_user_maps(dataset, [{"u0": 1}], allow_missing={"u1"})
        assert merged == {"u0": 1}
        with pytest.raises(ValueError, match="missed"):
            merge_user_maps(dataset, [{"u0": 1}], allow_missing={"u0"})


# ---------------------------------------------------------------------------
# Counters reach the manifest for any worker count
# ---------------------------------------------------------------------------


class TestManifestIntegration:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_retry_counters_in_manifest(self, workers):
        ctx = ObsContext()
        with activate(ctx):
            report = validate(
                fresh_study(),
                workers=workers,
                resilience=ResilienceConfig(**FAST),
                fault_plan=plan_of(FaultSpec("match", 0, 1, "exception")),
            )
        manifest = build_manifest(
            "validate",
            dataset=report.dataset,
            workers=workers,
            timings=report.timings.as_dict(),
            metrics=ctx.metrics.snapshot(),
            extra={"health": report.health.as_dict()},
        )
        assert manifest.counter("runtime.shard_retries") == 1
        assert manifest.extra["health"]["retries"] == 1
        assert manifest.extra["health"]["degraded"] is False
        assert "health:" in manifest.format_report()

    def test_retried_shard_attempts_recorded_in_timings(self):
        report = validate(
            fresh_study(),
            workers=2,
            resilience=ResilienceConfig(**FAST),
            fault_plan=plan_of(FaultSpec("match", 0, 1, "exception")),
        )
        match_stage = report.timings.stage("match")
        by_id = {s.shard_id: s for s in match_stage.shards}
        assert by_id[0].attempts == 2
        assert all(s.attempts == 1 for s in match_stage.shards if s.shard_id != 0)
        assert by_id[0].as_dict()["attempts"] == 2


# ---------------------------------------------------------------------------
# Config invariants
# ---------------------------------------------------------------------------


class TestResilienceConfig:
    def test_backoff_is_deterministic_and_bounded(self):
        config = ResilienceConfig(backoff_base_s=0.05, backoff_max_s=0.2)
        assert [config.backoff_s(a) for a in (1, 2, 3, 4)] == [0.05, 0.1, 0.2, 0.2]
        assert ResilienceConfig(backoff_base_s=0.0).backoff_s(7) == 0.0

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ResilienceConfig(max_retries=-1)
        with pytest.raises(ValueError):
            ResilienceConfig(on_failure="explode")
        with pytest.raises(ValueError):
            ResilienceConfig(shard_timeout_s=0)

    def test_max_attempts(self):
        assert ResilienceConfig(max_retries=0).max_attempts == 1
        assert ResilienceConfig(max_retries=3).max_attempts == 4


# ---------------------------------------------------------------------------
# Acceptance: golden fixture survives one crash + one timeout untouched
# ---------------------------------------------------------------------------


class TestGoldenFaultDrill:
    def test_crash_plus_timeout_is_byte_identical_to_serial(self, two_real_workers):
        serial = validate(load_dataset(GOLDEN_DIR))
        plan = plan_of(
            FaultSpec("extract", 0, 1, "crash"),
            FaultSpec("match", 1, 1, "delay", delay_s=5.0),
        )
        ctx = ObsContext()
        health = RunHealth()
        with activate(ctx):
            recovered = validate(
                load_dataset(GOLDEN_DIR),
                workers=2,
                resilience=ResilienceConfig(
                    on_failure="retry_then_serial", shard_timeout_s=1.0, **FAST
                ),
                fault_plan=plan,
                health=health,
            )
        # Byte-identical report despite a dead worker and a straggler.
        assert recovered.summary() == serial.summary()
        assert recovered.type_counts() == serial.type_counts()
        assert list(recovered.matching.per_user) == list(serial.matching.per_user)
        assert recovered.classification.labels == serial.classification.labels
        # The manifest records the retries and the recovery path.
        manifest = build_manifest(
            "validate",
            dataset=recovered.dataset,
            workers=2,
            timings=recovered.timings.as_dict(),
            metrics=ctx.metrics.snapshot(),
            extra={"health": health.as_dict()},
        )
        assert manifest.counter("runtime.shard_retries") >= 2  # crash + timeout
        assert manifest.counter("runtime.pool_rebuilds") >= 2
        assert manifest.counter("runtime.shard_timeouts") == 1
        assert manifest.extra["health"]["degraded"] is False
        assert manifest.extra["health"]["retries"] == health.retries
        assert health.timeouts == 1 and health.pool_rebuilds >= 2


# ---------------------------------------------------------------------------
# Out-of-core drills: faults while streaming a segment store
# ---------------------------------------------------------------------------


class TestStoreStreamFaultDrill:
    """Crash/resume drills against ``validate_store``'s segment stream.

    Shard ids restart at 0 inside every segment, so one FaultSpec keyed
    to shard 0 attempt 1 fires in *every* segment — each segment loses a
    worker mid-stream and must recover without a trace in the results.
    """

    SEGMENT_USERS = 3

    @pytest.fixture(scope="class")
    def store(self, tmp_path_factory):
        return generate_study_store(
            primary_config().scaled(STUDY_SCALE),
            tmp_path_factory.mktemp("drill") / "store",
            segment_users=self.SEGMENT_USERS,
        )

    @pytest.fixture(scope="class")
    def clean_summary(self, store):
        return validate_store(store)

    def test_crash_in_every_segment_recovers_byte_identical(
        self, store, clean_summary
    ):
        health = RunHealth()
        summary = validate_store(
            store,
            workers=2,
            resilience=ResilienceConfig(**FAST),
            fault_plan=plan_of(FaultSpec("extract", 0, 1, "crash")),
            health=health,
        )
        assert len(store.segments) > 1
        assert summary.summary() == clean_summary.summary()
        assert summary.visit_counts == clean_summary.visit_counts
        assert not health.degraded
        # the crash really fired once per segment
        assert health.retries >= len(store.segments)

    def test_store_files_stay_intact_through_worker_crashes(self, store):
        validate_store(
            store,
            workers=2,
            resilience=ResilienceConfig(**FAST),
            fault_plan=plan_of(FaultSpec("match", 0, 1, "crash")),
        )
        store.verify()  # no torn segment files, fingerprints intact
        assert list(store.directory.rglob("*.tmp")) == []

    def test_resume_reruns_only_unfinished_segments(
        self, store, clean_summary, tmp_path, monkeypatch
    ):
        ckpt = tmp_path / "ckpt"
        real = store.load_segment
        loaded = []

        def load_or_die(entry, pois=None):
            loaded.append(entry.segment_id)
            if len(loaded) > 2:
                raise RuntimeError("simulated crash mid-stream")
            return real(entry, pois=pois)

        monkeypatch.setattr(store, "load_segment", load_or_die)
        with pytest.raises(RuntimeError, match="mid-stream"):
            validate_store(store, checkpoints=ckpt)
        assert loaded == [0, 1, 2]  # died loading the third segment

        # The two finished segments left atomic checkpoints behind...
        assert len(list(ckpt.glob("ckpt-*.pkl"))) == 2
        assert list(ckpt.glob("*.tmp")) == []

        # ...and the restarted run replays them instead of recomputing.
        loaded.clear()
        monkeypatch.setattr(store, "load_segment", real)
        resumed = validate_store(store, checkpoints=ckpt)
        assert resumed.segments_reused == 2
        assert resumed.summary() == clean_summary.summary()
        assert resumed.visit_counts == clean_summary.visit_counts

    def test_torn_checkpoint_recomputes_instead_of_failing(
        self, store, clean_summary, tmp_path
    ):
        ckpt = tmp_path / "ckpt"
        validate_store(store, checkpoints=ckpt)
        victim = sorted(ckpt.glob("ckpt-*.pkl"))[0]
        victim.write_bytes(victim.read_bytes()[:7])  # torn mid-write
        rerun = validate_store(store, checkpoints=ckpt)
        assert rerun.segments_reused == len(store.segments) - 1
        assert rerun.summary() == clean_summary.summary()

    def test_skipped_segment_shard_degrades_loudly(self, store):
        plan = plan_of(
            *(FaultSpec("extract", 0, a, "exception") for a in range(1, 6))
        )
        health = RunHealth()
        summary = validate_store(
            store,
            workers=2,
            resilience=ResilienceConfig(
                max_retries=1, on_failure="skip_and_report", **FAST
            ),
            fault_plan=plan,
            health=health,
        )
        assert health.degraded
        # shard 0 of every segment was skipped, and each skip is its own
        # health record with that segment's exact users
        assert len(health.skipped) == len(store.segments)
        skipped_users = set(health.skipped_user_ids())
        assert skipped_users
        for user_id in skipped_users:
            assert summary.visit_counts[user_id] == -1
            assert user_id in summary.summary()
        assert "DEGRADED RUN" in summary.summary()


class TestPipelinedFaultDrill:
    """Crash/resume drills with segments pipelined across threads.

    With ``inflight_segments > 1`` a failure lands while *other*
    segments are mid-load or mid-compute on their own lanes.  The
    reducer must still checkpoint exactly the finished manifest prefix,
    a resumed run must replay only those, and recovery noise (retries,
    skips, torn checkpoints) must never leak into results.
    """

    SEGMENT_USERS = 3

    @pytest.fixture(scope="class")
    def store(self, tmp_path_factory):
        return generate_study_store(
            primary_config().scaled(STUDY_SCALE),
            tmp_path_factory.mktemp("pipedrill") / "store",
            segment_users=self.SEGMENT_USERS,
        )

    @pytest.fixture(scope="class")
    def clean_summary(self, store):
        return validate_store(store)

    def test_crash_in_every_segment_recovers_byte_identical(
        self, store, clean_summary
    ):
        health = RunHealth()
        summary = validate_store(
            store,
            workers=2,
            inflight_segments=3,
            resilience=ResilienceConfig(**FAST),
            fault_plan=plan_of(FaultSpec("extract", 0, 1, "crash")),
            health=health,
        )
        assert summary.summary() == clean_summary.summary()
        assert summary.visit_counts == clean_summary.visit_counts
        assert not health.degraded
        assert health.retries >= len(store.segments)

    def test_segment_scoped_fault_fires_only_there(self, store, clean_summary):
        """A FaultSpec with ``segment=`` set leaves other segments alone."""
        health = RunHealth()
        summary = validate_store(
            store,
            workers=2,
            inflight_segments=3,
            resilience=ResilienceConfig(**FAST),
            fault_plan=plan_of(
                FaultSpec("extract", 0, 1, "exception", segment=1)
            ),
            health=health,
        )
        assert summary.summary() == clean_summary.summary()
        assert health.retries == 1  # one segment's shard 0, nobody else's

    def test_segment_load_fault_retries_and_recovers(
        self, store, clean_summary
    ):
        health = RunHealth()
        summary = validate_store(
            store,
            inflight_segments=2,
            resilience=ResilienceConfig(**FAST),
            fault_plan=plan_of(
                FaultSpec("segment.load", 1, 1, "exception", segment=1)
            ),
            health=health,
        )
        assert summary.summary() == clean_summary.summary()
        assert health.retries == 1
        assert not health.degraded

    def test_segment_load_exhaustion_skips_and_reports(self, store):
        plan = plan_of(
            *(
                FaultSpec("segment.load", 1, a, "exception", segment=1)
                for a in range(1, 6)
            )
        )
        health = RunHealth()
        summary = validate_store(
            store,
            inflight_segments=2,
            resilience=ResilienceConfig(
                max_retries=1, on_failure="skip_and_report", **FAST
            ),
            fault_plan=plan,
            health=health,
        )
        assert health.degraded
        assert len(health.skipped) == 1
        assert health.skipped[0].stage == "segment.load"
        skipped_users = set(store.segments[1].user_ids)
        assert set(health.skipped_user_ids()) == skipped_users
        for user_id in skipped_users:
            assert summary.visit_counts[user_id] == -1
        assert "DEGRADED RUN" in summary.summary()

    def test_midflight_kill_resumes_finished_prefix_only(
        self, store, clean_summary, tmp_path, monkeypatch
    ):
        """Die while later segments are mid-load/mid-compute on lanes.

        The prefetch thread is segments ahead of the reducer, so when
        segment 2's load explodes, segments 0 and 1 are in different
        stages (reduced / computing).  Only finished segments may leave
        checkpoints; the resumed run replays exactly those and never
        double-counts one.
        """
        ckpt = tmp_path / "ckpt"
        real = store.load_segment
        loaded = []

        def load_or_die(entry, pois=None):
            loaded.append(entry.segment_id)
            if entry.segment_id == 2:
                raise RuntimeError("simulated crash mid-flight")
            return real(entry, pois=pois)

        monkeypatch.setattr(store, "load_segment", load_or_die)
        # Observed run: checkpoints must carry counter deltas so the
        # resumed run's replay can be audited for double counting.
        with activate(ObsContext()):
            with pytest.raises(RuntimeError, match="mid-flight"):
                validate_store(
                    store, inflight_segments=3, workers=2, checkpoints=ckpt
                )
        # Loads ran ahead of the reducer, but only segments 0 and 1 —
        # the finished prefix — left checkpoints behind.
        assert loaded[:3] == [0, 1, 2]
        names = sorted(p.name for p in ckpt.glob("ckpt-*.pkl"))
        assert [n.split("-")[1] for n in names] == ["00000", "00001"]
        assert list(ckpt.glob("*.tmp")) == []

        monkeypatch.setattr(store, "load_segment", real)
        ctx = ObsContext()
        with activate(ctx):
            resumed = validate_store(
                store, inflight_segments=3, workers=2, checkpoints=ckpt
            )
        assert resumed.segments_reused == 2
        assert resumed.summary() == clean_summary.summary()
        assert resumed.visit_counts == clean_summary.visit_counts
        # No double counting: users tally exactly once across replayed
        # and recomputed segments.
        counters = ctx.metrics.snapshot()["counters"]
        assert counters["matching.users_total"] == store.n_users
        assert counters["store.segments_reused"] == 2
        assert counters["store.segments_total"] == len(store.segments)

    def test_torn_concurrent_checkpoints_recompute(
        self, store, clean_summary, tmp_path
    ):
        ckpt = tmp_path / "ckpt"
        validate_store(store, inflight_segments=3, workers=2, checkpoints=ckpt)
        victims = sorted(ckpt.glob("ckpt-*.pkl"))[:2]
        for victim in victims:
            victim.write_bytes(victim.read_bytes()[:7])  # torn mid-write
        rerun = validate_store(
            store, inflight_segments=3, workers=2, checkpoints=ckpt
        )
        assert rerun.segments_reused == len(store.segments) - len(victims)
        assert rerun.summary() == clean_summary.summary()

    def test_degraded_segment_leaves_no_checkpoint(self, store, tmp_path):
        """A skip-and-reported load must recompute next run, not replay."""
        ckpt = tmp_path / "ckpt"
        plan = plan_of(
            *(
                FaultSpec("segment.load", 0, a, "exception", segment=0)
                for a in range(1, 6)
            )
        )
        validate_store(
            store,
            inflight_segments=2,
            resilience=ResilienceConfig(
                max_retries=1, on_failure="skip_and_report", **FAST
            ),
            fault_plan=plan,
            checkpoints=ckpt,
        )
        names = sorted(p.name for p in ckpt.glob("ckpt-*.pkl"))
        assert len(names) == len(store.segments) - 1
        assert all(not n.startswith("ckpt-00000-") for n in names)


class TestSegmentScopedFaultPlan:
    """``FaultSpec.segment`` scoping and the ``for_segment`` view."""

    def test_for_segment_resolves_scoping(self):
        everywhere = FaultSpec("extract", 0, 1, "exception")
        only_two = FaultSpec("match", 0, 1, "crash", segment=2)
        plan = plan_of(everywhere, only_two)
        view = plan.for_segment(2)
        assert view.lookup("extract", 0, 1) is everywhere
        assert view.lookup("match", 0, 1) is only_two
        elsewhere = plan.for_segment(0)
        assert elsewhere.lookup("match", 0, 1) is None
        assert elsewhere.lookup("extract", 0, 1) is everywhere

    def test_unscoped_plan_returns_self(self):
        plan = plan_of(FaultSpec("extract", 0, 1, "exception"))
        assert plan.for_segment(5) is plan

    def test_segment_field_round_trips_json(self, tmp_path):
        plan = plan_of(
            FaultSpec("segment.load", 1, 1, "exception", segment=1),
            FaultSpec("extract", 0, 1, "crash"),
        )
        path = plan.write(tmp_path / "plan.json")
        loaded = FaultPlan.load(path)
        assert loaded == plan
        assert loaded.faults[0].segment == 1
        assert loaded.faults[1].segment is None

    def test_rejects_negative_segment(self):
        with pytest.raises(ValueError, match="segment"):
            FaultSpec("extract", 0, 1, "exception", segment=-1)


# ---------------------------------------------------------------------------
# Serving drills: kill the streaming service, resume from snapshots
# ---------------------------------------------------------------------------


class TestServeCrashDrill:
    """Kill the streaming service after every Nth verdict and resume.

    Exactly-once contract: the resumed service replays only events past
    the snapshot cursor, re-emitting at most the verdicts that were
    in flight when the snapshot was cut.  Deduplicating by
    ``(user_id, seq)`` must reconstruct the uninterrupted verdict
    stream exactly — nothing dropped, nothing duplicated with different
    bytes, nothing changed — and the final summary must equal both the
    uninterrupted serve run and the batch pipeline.
    """

    CHECKPOINT_EVERY = 400

    def _reference(self):
        from repro.serve import ValidationService
        from repro.synth import replay_events

        dataset = load_dataset(GOLDEN_DIR)
        events = list(replay_events(dataset))
        service = ValidationService(dataset.pois, name=dataset.name)
        for event in events:
            service.ingest(event)
        summary = service.finish()
        verdicts = {
            user: [v.as_dict() for v in vs]
            for user, vs in service.verdicts.items()
        }
        return dataset, events, verdicts, summary

    def test_kill_after_every_nth_verdict_loses_nothing(self, tmp_path):
        from repro.serve import ValidationService

        dataset, events, reference, ref_summary = self._reference()
        total = sum(len(v) for v in reference.values())
        assert total > 0
        kill_every = 10

        for threshold in range(kill_every, total + 1, kill_every):
            store_dir = tmp_path / f"kill-{threshold}"
            seen = {}  # (user, seq) -> verdict dict, across incarnations

            def absorb(verdict, seen=seen):
                key = (verdict.user_id, verdict.seq)
                record = verdict.as_dict()
                if key in seen:
                    # Duplicates from replay must be byte-identical.
                    assert seen[key] == record
                seen[key] = record

            # First incarnation: crash once >= threshold verdicts out.
            service = ValidationService(
                dataset.pois, name=dataset.name,
                state_store=store_dir,
                checkpoint_every=self.CHECKPOINT_EVERY,
                sink=absorb,
            )
            crashed_mid_stream = False
            for event in events:
                service.ingest(event)
                if service.verdicts_emitted >= threshold:
                    crashed_mid_stream = True
                    break
            # Abandon the service: no finish(), no final snapshot.  High
            # thresholds only complete at finish(); killing after the
            # last event but before finish() is a drill point too.
            if threshold == kill_every:
                # The fixture settles chunks mid-stream, so the first
                # threshold must hit while events are still flowing.
                assert crashed_mid_stream

            # Second incarnation: restore, replay the tail, finish.
            resumed = ValidationService(
                dataset.pois, name=dataset.name,
                state_store=store_dir,
                checkpoint_every=self.CHECKPOINT_EVERY,
                sink=absorb,
            )
            cursor = resumed.restore()
            assert 0 <= cursor < len(events)
            for event in events[cursor:]:
                resumed.ingest(event)
            summary = resumed.finish()

            # Nothing dropped, duplicated or changed.
            rebuilt = {}
            for (user, seq), record in sorted(seen.items()):
                rebuilt.setdefault(user, []).append(record)
            assert rebuilt == reference, f"threshold={threshold}"
            assert summary.n_verdicts == ref_summary.n_verdicts
            assert summary.summary() == ref_summary.summary()

    def test_torn_snapshot_falls_back_to_fresh_start(self, tmp_path):
        """A truncated user state file invalidates the whole snapshot:
        restore() returns 0 and a full replay is still byte-identical."""
        from repro.serve import ValidationService

        dataset, events, reference, ref_summary = self._reference()
        store_dir = tmp_path / "torn"
        service = ValidationService(
            dataset.pois, name=dataset.name,
            state_store=store_dir, checkpoint_every=self.CHECKPOINT_EVERY,
        )
        for event in events[: len(events) // 2]:
            service.ingest(event)
        service.snapshot()
        user_files = sorted(store_dir.glob("serve-user-*.pkl"))
        assert user_files
        user_files[0].write_bytes(user_files[0].read_bytes()[:11])

        resumed = ValidationService(
            dataset.pois, name=dataset.name, state_store=store_dir,
        )
        assert resumed.restore() == 0
        for event in events:
            resumed.ingest(event)
        summary = resumed.finish()
        assert {
            user: [v.as_dict() for v in vs]
            for user, vs in resumed.verdicts.items()
        } == reference
        assert summary.summary() == ref_summary.summary()

    def test_batch_agreement_survives_resume(self, tmp_path):
        """The resumed run's summary still equals batch validate()."""
        from repro.serve import ValidationService

        dataset, events, _, _ = self._reference()
        batch = validate(load_dataset(GOLDEN_DIR))
        store_dir = tmp_path / "resume"
        service = ValidationService(
            dataset.pois, name=dataset.name,
            state_store=store_dir, checkpoint_every=self.CHECKPOINT_EVERY,
        )
        for event in events[: 2 * len(events) // 3]:
            service.ingest(event)
        service.snapshot()

        resumed = ValidationService(
            dataset.pois, name=dataset.name, state_store=store_dir,
        )
        cursor = resumed.restore()
        assert cursor > 0
        for event in events[cursor:]:
            resumed.ingest(event)
        assert resumed.finish().summary() == batch.summary()
