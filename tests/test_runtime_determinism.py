"""Determinism of the parallel validation runtime.

The contract (see repro/runtime): for any worker count, the sharded
pipeline returns results identical to the serial reference — same
per-user match pairs, same counts, same classification labels, same
``summary()`` text, same iteration order.  The suite runs a seeded
synthetic study through workers ∈ {1, 2, 4} and compares against
workers=None (the serial path), plus unit tests of the sharding/merge
machinery the guarantee rests on.
"""

from __future__ import annotations

import pytest

from repro.core import MatchConfig, match_dataset, validate
from repro.core.visits import extract_dataset_visits
from repro.model import Dataset, UserData
from repro.runtime import (
    ParallelExecutor,
    RuntimeConfigError,
    SerialExecutor,
    Shard,
    merge_user_maps,
    resolve_executor,
    shard_dataset,
    user_weight,
)
from repro.synth import generate_dataset, primary_config

from helpers import make_dataset, make_user

#: Small but non-trivial: ~7 users, every checkin class populated.
STUDY_SCALE = 0.03


def fresh_study():
    """A fresh, identically-seeded raw dataset per run (no shared state)."""
    return generate_dataset(primary_config().scaled(STUDY_SCALE))


def fingerprint(report):
    """Everything that must be invariant across worker counts."""
    return {
        "user_order": list(report.matching.per_user),
        "pairs": {
            user_id: [(c.checkin_id, v.visit_id) for c, v in m.matches]
            for user_id, m in report.matching.per_user.items()
        },
        "extraneous": {
            user_id: [c.checkin_id for c in m.extraneous]
            for user_id, m in report.matching.per_user.items()
        },
        "missing": {
            user_id: [v.visit_id for v in m.missing]
            for user_id, m in report.matching.per_user.items()
        },
        "counts": (
            report.matching.n_honest,
            report.matching.n_extraneous,
            report.matching.n_missing,
        ),
        "labels": report.classification.labels,
        "summary": report.summary(),
    }


class TestPipelineDeterminism:
    @pytest.fixture(scope="class")
    def serial_fingerprint(self):
        return fingerprint(validate(fresh_study()))

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_validate_matches_serial(self, workers, serial_fingerprint):
        report = validate(fresh_study(), workers=workers)
        assert fingerprint(report) == serial_fingerprint

    def test_timings_recorded(self):
        report = validate(fresh_study(), workers=2)
        assert [s.stage for s in report.timings.stages] == [
            "extract",
            "match",
            "classify",
        ]
        for stage in report.timings.stages:
            assert stage.executor == "parallel"
            assert stage.workers == 2
            assert stage.shards and all(s.wall_s >= 0 for s in stage.shards)
        assert report.timings.wall_s > 0
        assert "extract" in report.timings.format_report()

    def test_extraction_identical_across_executors(self):
        serial = extract_dataset_visits(fresh_study())
        parallel = extract_dataset_visits(fresh_study(), workers=2)
        for user_id, data in serial.users.items():
            assert parallel.users[user_id].visits == data.visits

    def test_matching_identical_with_shared_pool(self):
        # One explicit executor reused across calls (the pool-reuse API).
        serial = extract_dataset_visits(fresh_study())
        with ParallelExecutor(workers=2) as executor:
            a = match_dataset(serial, executor=executor)
            b = match_dataset(serial, MatchConfig(rematch_losers=True), executor=executor)
        assert {u: [(c.checkin_id, v.visit_id) for c, v in m.matches]
                for u, m in a.per_user.items()} == {
            u: [(c.checkin_id, v.visit_id) for c, v in m.matches]
            for u, m in match_dataset(serial).per_user.items()
        }
        assert b.n_honest >= a.n_honest  # rematching can only add matches


class TestPrimaryStudyDeterminism:
    """At 200 Primary users, a 4-worker validate equals the serial one."""

    USERS = 200

    @pytest.fixture(scope="class")
    def study(self):
        dataset = generate_dataset(primary_config().scaled(self.USERS / 244))
        assert len(dataset.users) == self.USERS
        return dataset

    @staticmethod
    def raw_clone(dataset):
        """A copy with visits cleared, so every run re-extracts from GPS."""
        return Dataset(
            name=dataset.name,
            pois=dataset.pois,
            users={
                user_id: UserData(
                    profile=data.profile, gps=data.gps, checkins=data.checkins
                )
                for user_id, data in dataset.users.items()
            },
        )

    def test_four_workers_match_serial(self, study):
        serial = validate(self.raw_clone(study))
        parallel = validate(self.raw_clone(study), workers=4)
        assert fingerprint(parallel) == fingerprint(serial)


class TestSharding:
    def make(self, weights):
        users = [
            make_user(f"u{i}", checkins=[], visits=[]) for i in range(len(weights))
        ]
        dataset = make_dataset(users)
        table = {f"u{i}": w for i, w in enumerate(weights)}
        return dataset, lambda data: table[data.user_id]

    def test_balances_by_weight_not_count(self):
        dataset, weight_fn = self.make([100, 1, 1, 1, 1, 96])
        shards = shard_dataset(dataset, 2, weight_fn=weight_fn)
        loads = sorted(shard.weight for shard in shards)
        assert loads == [100, 100]  # LPT: heavy users isolated, light ones pooled

    def test_deterministic_and_ordered(self):
        dataset, weight_fn = self.make([5, 3, 8, 1, 2, 7, 4, 6])
        a = shard_dataset(dataset, 3, weight_fn=weight_fn)
        b = shard_dataset(dataset, 3, weight_fn=weight_fn)
        assert a == b
        order = {user_id: i for i, user_id in enumerate(dataset.users)}
        for shard in a:
            positions = [order[u] for u in shard.user_ids]
            assert positions == sorted(positions)

    def test_partition_is_exact(self):
        dataset, weight_fn = self.make(list(range(1, 12)))
        shards = shard_dataset(dataset, 4, weight_fn=weight_fn)
        seen = [u for shard in shards for u in shard.user_ids]
        assert sorted(seen) == sorted(dataset.users)
        assert len(seen) == len(set(seen))

    def test_more_shards_than_users(self):
        dataset, weight_fn = self.make([1, 2])
        shards = shard_dataset(dataset, 8, weight_fn=weight_fn)
        assert len(shards) == 2  # empty shards are dropped

    def test_rejects_bad_shard_count(self):
        dataset, _ = self.make([1])
        with pytest.raises(RuntimeConfigError):
            shard_dataset(dataset, 0)

    def test_default_weight_uses_gps_before_extraction(self):
        extracted = make_user("u0", checkins=[], visits=[])
        raw = make_user("u1", gps=[], checkins=[])
        assert user_weight(extracted) == 0
        assert user_weight(raw) >= 1


class TestMergeAndResolve:
    def dataset(self):
        return make_dataset([make_user("u0"), make_user("u1"), make_user("u2")])

    def test_merge_restores_dataset_order(self):
        merged = merge_user_maps(self.dataset(), [{"u2": 2, "u0": 0}, {"u1": 1}])
        assert list(merged) == ["u0", "u1", "u2"]

    def test_merge_rejects_overlap_missing_unknown(self):
        with pytest.raises(ValueError, match="more than one shard"):
            merge_user_maps(self.dataset(), [{"u0": 1}, {"u0": 2, "u1": 1, "u2": 1}])
        with pytest.raises(ValueError, match="missed"):
            merge_user_maps(self.dataset(), [{"u0": 1}])
        with pytest.raises(ValueError, match="unknown"):
            merge_user_maps(self.dataset(), [{"u0": 1, "u1": 1, "u2": 1, "zz": 1}])

    def test_resolve_executor_conventions(self):
        executor, owned = resolve_executor(None, None)
        assert isinstance(executor, SerialExecutor) and owned
        executor, owned = resolve_executor(None, 1)
        assert isinstance(executor, SerialExecutor) and owned
        executor, owned = resolve_executor(None, 3)
        assert isinstance(executor, ParallelExecutor) and owned
        assert executor.workers == 3
        executor.close()
        mine = SerialExecutor()
        executor, owned = resolve_executor(mine, None)
        assert executor is mine and not owned
        with pytest.raises(RuntimeConfigError):
            resolve_executor(mine, 2)
        with pytest.raises(RuntimeConfigError):
            resolve_executor(None, -1)
