"""Full study generation."""

import numpy as np
import pytest

from repro.model import CheckinType, PoiCategory
from repro.store import StudyStore
from repro.synth import generate_dataset, generate_study_store, primary_config


@pytest.fixture(scope="module")
def small():
    return generate_dataset(primary_config(seed=77).scaled(0.04))


def test_user_count(small):
    assert len(small) == 10


def test_every_user_has_home_poi(small):
    for user_id in small.users:
        home = small.pois[f"home-{user_id}"]
        assert home.category is PoiCategory.RESIDENCE


def test_gps_traces_nonempty_and_sorted(small):
    for data in small.users.values():
        assert len(data.gps) > 500
        times = [p.t for p in data.gps]
        assert times == sorted(times)


def test_checkins_reference_known_pois(small):
    for checkin in small.all_checkins:
        assert checkin.poi_id in small.pois


def test_checkins_have_ground_truth_intents(small):
    checkins = small.all_checkins
    assert checkins
    assert all(c.intent is not None for c in checkins)
    kinds = {c.intent for c in checkins}
    assert CheckinType.HONEST in kinds
    assert CheckinType.REMOTE in kinds


def test_visits_not_extracted_by_default(small):
    assert not small.has_visits()


def test_ground_truth_visits_option():
    ds = generate_dataset(
        primary_config(seed=78).scaled(0.02), with_ground_truth_visits=True
    )
    assert ds.has_visits()
    for visit in ds.all_visits:
        assert visit.duration >= 360.0
        assert visit.poi_id in ds.pois


def test_study_days_positive_and_plausible(small):
    days = [d.profile.study_days for d in small.users.values()]
    assert all(4 <= d <= 29 for d in days)


def test_deterministic_generation():
    a = generate_dataset(primary_config(seed=5).scaled(0.02))
    b = generate_dataset(primary_config(seed=5).scaled(0.02))
    assert a.stats() == b.stats()
    ua = next(iter(a.users.values()))
    ub = next(iter(b.users.values()))
    assert ua.checkins == ub.checkins
    assert ua.gps == ub.gps


def test_different_seeds_differ():
    a = generate_dataset(primary_config(seed=5).scaled(0.02))
    b = generate_dataset(primary_config(seed=6).scaled(0.02))
    assert a.stats() != b.stats()


def test_dataset_name(small):
    assert small.name == "Primary"


class TestParallelStoreGeneration:
    """``generate_study_store(workers=...)``: chunks fan out to worker
    processes but land in the writer in plan order, so the store is
    bit-for-bit the one the serial path writes."""

    CONFIG_ARGS = dict(seed=77, scale=0.04, segment_users=3)

    def build(self, directory, **kwargs):
        config = primary_config(seed=self.CONFIG_ARGS["seed"])
        return generate_study_store(
            config.scaled(self.CONFIG_ARGS["scale"]), directory,
            segment_users=self.CONFIG_ARGS["segment_users"], **kwargs,
        )

    def test_parallel_fingerprint_matches_serial(self, tmp_path):
        serial = self.build(tmp_path / "serial")
        parallel = self.build(tmp_path / "parallel", workers=2)
        assert parallel.fingerprint() == serial.fingerprint()
        assert parallel.n_users == serial.n_users
        assert len(parallel.segments) == len(serial.segments)

    def test_single_chunk_study_still_parallel_safe(self, tmp_path):
        config = primary_config(seed=77).scaled(0.04)
        serial = generate_study_store(
            config, tmp_path / "serial", segment_users=64
        )
        parallel = generate_study_store(
            config, tmp_path / "parallel", segment_users=64, workers=2
        )
        assert len(serial.segments) == 1
        assert parallel.fingerprint() == serial.fingerprint()

    def test_observed_parallel_generation_counts_like_serial(self, tmp_path):
        """Four chunks through a three-deep queue: each chunk's obs delta
        is absorbed once, in chunk order, and the counters match serial."""
        from repro.obs import ObsContext, activate

        def observed(directory, **kwargs):
            ctx = ObsContext()
            with activate(ctx):
                self.build(directory, **kwargs)
            return ctx

        serial = observed(tmp_path / "serial")
        parallel = observed(tmp_path / "parallel", workers=2)
        assert parallel.metrics.snapshot()["counters"] == \
            serial.metrics.snapshot()["counters"]
        chunks = [span.attrs["chunk"] for span in parallel.spans_named("shard.run")]
        assert chunks == [0, 1, 2, 3]

    def test_parallel_store_reopens_and_verifies(self, tmp_path):
        self.build(tmp_path / "store", workers=2)
        store = StudyStore.open(tmp_path / "store")
        store.verify()
        assert store.n_users == 10
