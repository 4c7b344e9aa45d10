"""Model record types."""

import pytest

from repro.model import EXTRANEOUS_TYPES, CheckinType, PoiCategory, UserProfile, Visit
from helpers import make_checkin, make_poi, make_profile, make_visit


class TestPoiCategory:
    def test_nine_categories(self):
        assert len(list(PoiCategory)) == 9

    def test_from_label(self):
        assert PoiCategory.from_label("Food") is PoiCategory.FOOD

    def test_from_label_unknown(self):
        with pytest.raises(ValueError):
            PoiCategory.from_label("Bowling")

    def test_from_label_unknown_message(self):
        with pytest.raises(ValueError) as err:
            PoiCategory.from_label("Bowling")
        assert str(err.value) == "unknown POI category label: 'Bowling'"

    def test_from_label_every_category(self):
        for category in PoiCategory:
            assert PoiCategory.from_label(category.value) is category


class TestCheckinType:
    def test_honest_not_extraneous(self):
        assert not CheckinType.HONEST.is_extraneous

    def test_all_others_extraneous(self):
        for kind in CheckinType:
            if kind is not CheckinType.HONEST:
                assert kind.is_extraneous

    def test_extraneous_tuple_excludes_honest(self):
        assert CheckinType.HONEST not in EXTRANEOUS_TYPES
        assert len(EXTRANEOUS_TYPES) == 4


class TestVisit:
    def test_duration(self):
        assert make_visit(t_start=100, t_end=700).duration == 600

    def test_rejects_reversed_times(self):
        with pytest.raises(ValueError):
            make_visit(t_start=700, t_end=100)

    def test_time_distance_inside_is_zero(self):
        visit = make_visit(t_start=100, t_end=700)
        assert visit.time_distance(100) == 0.0
        assert visit.time_distance(400) == 0.0
        assert visit.time_distance(700) == 0.0

    def test_time_distance_before(self):
        assert make_visit(t_start=100, t_end=700).time_distance(40) == 60.0

    def test_time_distance_after(self):
        assert make_visit(t_start=100, t_end=700).time_distance(1000) == 300.0

    def test_time_distance_uses_nearer_endpoint(self):
        visit = make_visit(t_start=100, t_end=700)
        # 90 is 10 from start and 610 from end.
        assert visit.time_distance(90) == 10.0


class TestUserProfile:
    def test_checkins_per_day(self):
        profile = make_profile(study_days=10.0)
        assert profile.checkins_per_day(25) == 2.5

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            UserProfile(user_id="u", friends=-1, badges=0, mayorships=0, study_days=1)

    def test_rejects_zero_study_days(self):
        with pytest.raises(ValueError):
            UserProfile(user_id="u", friends=0, badges=0, mayorships=0, study_days=0)


class TestCheckin:
    def test_intent_not_in_equality(self):
        a = make_checkin(intent=CheckinType.HONEST)
        b = make_checkin(intent=CheckinType.REMOTE)
        assert a == b

    def test_defaults(self):
        checkin = make_checkin()
        assert checkin.intent is None
        assert checkin.category is PoiCategory.FOOD


def test_poi_fields():
    poi = make_poi("p1", 10.0, 20.0, PoiCategory.SHOP)
    assert poi.poi_id == "p1"
    assert (poi.x, poi.y) == (10.0, 20.0)
    assert poi.category is PoiCategory.SHOP
