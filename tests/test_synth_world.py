"""Synthetic POI universe."""

import math

import numpy as np
import pytest

from oracles import BucketGrid
from repro.model import PoiCategory
from repro.synth import (
    CATEGORY_WEIGHTS,
    World,
    WorldConfig,
    generate_world,
    make_home_poi,
    pick_work_poi,
)


@pytest.fixture(scope="module")
def world():
    return generate_world(WorldConfig(n_pois=1500), np.random.default_rng(7))


def test_poi_count(world):
    assert len(world) == 1500


def test_pois_inside_arena(world):
    for poi in world.pois.values():
        assert 0 <= poi.x <= world.size_m
        assert 0 <= poi.y <= world.size_m


def test_all_categories_present(world):
    present = {poi.category for poi in world.pois.values()}
    assert present == set(PoiCategory)


def test_category_frequencies_follow_weights(world):
    counts = {}
    for poi in world.pois.values():
        counts[poi.category] = counts.get(poi.category, 0) + 1
    for category, weight in CATEGORY_WEIGHTS.items():
        observed = counts[category] / len(world)
        assert observed == pytest.approx(weight, abs=0.04)


def test_pois_within(world):
    poi = next(iter(world.pois.values()))
    found = world.pois_within(poi.x, poi.y, 500)
    assert any(p.poi_id == poi.poi_id for _, p in found)
    for dist, p in found:
        assert dist <= 500
        assert math.hypot(p.x - poi.x, p.y - poi.y) == pytest.approx(dist)


def test_pois_within_keeps_the_bucket_grid_order(world, rng):
    # Generation picks from this list by index: its order and distance
    # bits are those of the scalar bucket grid over the same POIs.
    grid = BucketGrid.from_points(
        [(poi.x, poi.y, poi) for poi in world.pois.values()], cell_size=500.0
    )
    for x, y in rng.uniform(0, world.size_m, size=(20, 2)).tolist():
        for radius in (0.0, 450.0, 1600.0):
            assert world.pois_within(x, y, radius) == grid.within(x, y, radius)


def test_random_poi_category(world, rng):
    poi = world.random_poi(rng, PoiCategory.FOOD)
    assert poi.category is PoiCategory.FOOD


def test_sample_poi_near_targets_annulus(world, rng):
    poi = next(iter(world.pois.values()))
    for _ in range(10):
        pick = world.sample_poi_near(poi.x, poi.y, 2000.0, rng)
        assert pick is not None
        d = math.hypot(pick.x - poi.x, pick.y - poi.y)
        # Either in the annulus or the fallback kicked in (rare with 1500 POIs).
        assert d <= world.size_m * math.sqrt(2)


def test_sample_poi_near_respects_category(world, rng):
    poi = next(iter(world.pois.values()))
    pick = world.sample_poi_near(
        poi.x, poi.y, 1000.0, rng, categories=[PoiCategory.NIGHTLIFE]
    )
    assert pick is not None
    assert pick.category is PoiCategory.NIGHTLIFE


def test_sample_poi_near_excludes(world, rng):
    poi = next(iter(world.pois.values()))
    for _ in range(20):
        pick = world.sample_poi_near(poi.x, poi.y, 100.0, rng, exclude=poi.poi_id)
        assert pick is None or pick.poi_id != poi.poi_id


def test_sample_poi_near_empty_category_returns_none(rng):
    lonely = generate_world(WorldConfig(n_pois=1), np.random.default_rng(1))
    only = next(iter(lonely.pois.values()))
    missing = next(c for c in PoiCategory if c is not only.category)
    assert lonely.sample_poi_near(0, 0, 100.0, rng, categories=[missing]) is None


def test_make_home_poi(world, rng):
    home = make_home_poi("u42", world, rng)
    assert home.category is PoiCategory.RESIDENCE
    assert home.poi_id == "home-u42"
    assert 0 <= home.x <= world.size_m


def test_pick_work_poi(world, rng):
    for _ in range(10):
        work = pick_work_poi(world, rng)
        assert work.category in (PoiCategory.PROFESSIONAL, PoiCategory.COLLEGE)


def test_generate_world_deterministic():
    a = generate_world(WorldConfig(n_pois=100), np.random.default_rng(3))
    b = generate_world(WorldConfig(n_pois=100), np.random.default_rng(3))
    assert a.pois == b.pois


def test_generate_world_rejects_zero_pois():
    with pytest.raises(ValueError):
        generate_world(WorldConfig(n_pois=0), np.random.default_rng(1))
