"""Extraneous checkin classification."""

import pytest

from repro.core import (
    ClassifyConfig,
    GpsLocator,
    classify_dataset,
    match_dataset,
)
from repro.core.classify import classify_extraneous_checkin
from repro.geo import units
from repro.model import CheckinType
from oracles import BucketGrid
from helpers import (
    make_checkin,
    make_dataset,
    make_user,
    make_visit,
    moving_gps,
    stationary_gps,
)

MIN = 60.0


class TestGpsLocator:
    def test_interpolates(self):
        locator = GpsLocator(moving_gps(0, 0, 600, 0, 0, 600))
        x, y = locator.locate(30.0, max_fix_age_s=300)
        assert x == pytest.approx(30.0, abs=1e-6)

    def test_exact_sample(self):
        locator = GpsLocator(stationary_gps(5, 7, 0, 600))
        assert locator.locate(120.0, 300) == (5.0, 7.0)

    def test_snaps_to_nearest_when_one_side_stale(self):
        points = stationary_gps(0, 0, 0, 300) + stationary_gps(100, 0, 4000, 4300)
        locator = GpsLocator(points)
        x, _ = locator.locate(360.0, max_fix_age_s=300)
        assert x == 0.0

    def test_none_when_all_stale(self):
        locator = GpsLocator(stationary_gps(0, 0, 0, 300))
        assert locator.locate(5000.0, max_fix_age_s=300) is None

    def test_none_on_empty_trace(self):
        assert GpsLocator([]).locate(0, 300) is None

    def test_speed_stationary(self):
        locator = GpsLocator(stationary_gps(0, 0, 0, 600))
        assert locator.speed(300.0, 90.0) == pytest.approx(0.0)

    def test_speed_moving(self):
        # 600 m in 600 s = 1 m/s.
        locator = GpsLocator(moving_gps(0, 0, 600, 0, 0, 600))
        assert locator.speed(300.0, 90.0) == pytest.approx(1.0, rel=0.01)

    def test_speed_none_with_single_point(self):
        locator = GpsLocator([next(iter(stationary_gps(0, 0, 0, 0)))])
        assert locator.speed(0.0, 90.0) is None


def classify_one(checkin, gps, visits, config=None):
    config = config or ClassifyConfig()
    locator = GpsLocator(gps)
    grid = BucketGrid.from_points([(v.x, v.y, v) for v in visits], cell_size=500.0)
    candidates = grid.within(checkin.x, checkin.y, config.alpha_m)
    return classify_extraneous_checkin(checkin, locator, candidates, config)


class TestTaxonomy:
    def test_remote(self):
        gps = stationary_gps(0, 0, 0, 30 * MIN)
        checkin = make_checkin(x=2000, y=0, t=10 * MIN)
        assert classify_one(checkin, gps, []) is CheckinType.REMOTE

    def test_remote_boundary_exclusive(self):
        gps = stationary_gps(0, 0, 0, 30 * MIN)
        checkin = make_checkin(x=499, y=0, t=10 * MIN)
        assert classify_one(checkin, gps, []) is not CheckinType.REMOTE

    def test_driveby(self):
        # Driving at 10 m/s past the checkin POI.
        gps = moving_gps(0, 0, 6000, 0, 0, 10 * MIN)
        checkin = make_checkin(x=3000, y=100, t=5 * MIN)
        assert classify_one(checkin, gps, []) is CheckinType.DRIVEBY

    def test_walking_below_4mph_is_not_driveby(self):
        # 1 m/s ≈ 2.2 mph.
        gps = moving_gps(0, 0, 600, 0, 0, 10 * MIN)
        checkin = make_checkin(x=300, y=50, t=5 * MIN)
        assert classify_one(checkin, gps, []) is not CheckinType.DRIVEBY

    def test_superfluous_near_qualifying_visit(self):
        gps = stationary_gps(0, 0, 0, 30 * MIN)
        visit = make_visit(x=0, y=0, t_start=0, t_end=30 * MIN)
        checkin = make_checkin(x=300, y=0, t=10 * MIN)
        assert classify_one(checkin, gps, [visit]) is CheckinType.SUPERFLUOUS

    def test_other_when_stationary_without_visit(self):
        gps = stationary_gps(0, 0, 0, 30 * MIN)
        checkin = make_checkin(x=100, y=0, t=10 * MIN)
        assert classify_one(checkin, gps, []) is CheckinType.OTHER

    def test_other_when_no_gps_fix(self):
        gps = stationary_gps(0, 0, 0, 5 * MIN)
        checkin = make_checkin(x=0, y=0, t=100 * MIN)
        assert classify_one(checkin, gps, []) is CheckinType.OTHER

    def test_visit_outside_beta_does_not_make_superfluous(self):
        gps = stationary_gps(0, 0, 0, 200 * MIN)
        visit = make_visit(x=0, y=0, t_start=0, t_end=10 * MIN)
        checkin = make_checkin(x=100, y=0, t=100 * MIN)
        assert classify_one(checkin, gps, [visit]) is CheckinType.OTHER


class TestClassifyDataset:
    def test_all_checkins_labelled(self, primary, primary_report):
        classification = primary_report.classification
        assert len(classification.labels) == len(primary.all_checkins)

    def test_honest_labels_match_matching(self, primary_report):
        matched = {c.checkin_id for c in primary_report.matching.honest_checkins}
        honest_labels = {
            cid
            for cid, kind in primary_report.classification.labels.items()
            if kind is CheckinType.HONEST
        }
        assert matched == honest_labels

    def test_classification_accuracy_against_intents(self, primary, primary_report):
        """Labels agree with generator ground truth for the vast majority."""
        classification = primary_report.classification
        agree = total = 0
        for checkin in primary.all_checkins:
            label = classification.labels[checkin.checkin_id]
            total += 1
            if label is checkin.intent:
                agree += 1
        assert agree / total > 0.85

    def test_counts_sum(self, primary_report):
        counts = primary_report.classification.counts()
        assert sum(counts.values()) == len(primary_report.classification.labels)

    def test_fractions_of_extraneous_sum_to_one(self, primary_report):
        fractions = primary_report.classification.fractions_of_extraneous()
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_missing_user_in_matching_rejected(self):
        user = make_user("u0", gps=stationary_gps(0, 0, 0, 600), visits=[])
        dataset = make_dataset([user])
        matching = match_dataset(dataset)
        other = make_dataset([make_user("u1", visits=[])])
        with pytest.raises(ValueError, match="lacks user"):
            classify_dataset(other, matching)

    def test_of_type_returns_sorted(self, primary_report):
        remote = primary_report.classification.of_type(CheckinType.REMOTE)
        keys = [(c.user_id, c.t) for c in remote]
        assert keys == sorted(keys)


def test_config_defaults_match_paper():
    config = ClassifyConfig()
    assert config.remote_distance_m == 500.0
    assert config.driveby_speed_ms == pytest.approx(units.mph(4.0))
    assert config.beta_s == 1800.0


def test_batched_candidates_match_per_checkin_within():
    """``classify_user_extraneous`` settles every checkin's superfluous
    test with one same-user pair pass; the labels equal one ``within``
    query per checkin, user by user, on the golden fixture."""
    from pathlib import Path

    from repro.core import classify_user_extraneous, validate
    from repro.io import load_dataset

    golden = Path(__file__).resolve().parent / "data" / "golden_study"
    report = validate(load_dataset(golden))
    config = ClassifyConfig()
    seen = set()
    for user_id, data in report.dataset.users.items():
        extraneous = report.matching.per_user[user_id].extraneous
        grid = BucketGrid.from_points(
            [(v.x, v.y, v) for v in data.visits], cell_size=max(100.0, config.alpha_m)
        )
        locator = GpsLocator(data.gps)
        per_checkin = [
            classify_extraneous_checkin(
                c, locator, grid.within(c.x, c.y, config.alpha_m), config
            )
            for c in extraneous
        ]
        batched = classify_user_extraneous(data.gps, data.visits, extraneous, config)
        assert batched == per_checkin
        seen.update(per_checkin)
    assert CheckinType.SUPERFLUOUS in seen
