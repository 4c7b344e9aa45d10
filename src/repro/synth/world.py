"""Synthetic POI universe — the stand-in for Foursquare's venue database.

POIs carry the nine top-level Foursquare categories of Figure 4 and are
placed with a clustered spatial layout (downtown / campus / mall
districts plus a uniform background) so that "multiple POIs within
500 m" — the precondition for superfluous checkins — actually occurs, as
it does in a real city.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..model import Poi, PoiCategory
from .config import WorldConfig

#: Relative frequency of each category in the POI universe.  Food and
#: Shop dominate real venue databases; Residence covers apartment
#: complexes etc. (each user's own home is added on top of these).
CATEGORY_WEIGHTS: Dict[PoiCategory, float] = {
    PoiCategory.FOOD: 0.20,
    PoiCategory.SHOP: 0.18,
    PoiCategory.PROFESSIONAL: 0.16,
    PoiCategory.RESIDENCE: 0.10,
    PoiCategory.COLLEGE: 0.08,
    PoiCategory.NIGHTLIFE: 0.08,
    PoiCategory.OUTDOORS: 0.08,
    PoiCategory.ARTS: 0.06,
    PoiCategory.TRAVEL: 0.06,
}

#: Categories a user plausibly picks for an evening errand / leisure stop.
ERRAND_CATEGORIES: Tuple[PoiCategory, ...] = (
    PoiCategory.SHOP,
    PoiCategory.SHOP,
    PoiCategory.SHOP,
    PoiCategory.FOOD,
    PoiCategory.FOOD,
    PoiCategory.PROFESSIONAL,
    PoiCategory.OUTDOORS,
    PoiCategory.ARTS,
    PoiCategory.TRAVEL,
)

#: Categories considered "boring" — routine places users rarely check in
#: at (Section 4.2: home, office, gas stations, groceries).
BORING_CATEGORIES: frozenset = frozenset(
    {PoiCategory.RESIDENCE, PoiCategory.PROFESSIONAL, PoiCategory.COLLEGE}
)

#: Edge of the square cells the world buckets its POIs in, in metres.
_CELL_M = 500.0


@dataclass
class World:
    """POI universe with spatial query support."""

    size_m: float
    pois: Dict[str, Poi]
    _cells: Dict[Tuple[int, int], List[Poi]] = field(
        init=False, repr=False, default_factory=dict
    )
    _by_category: Dict[PoiCategory, List[Poi]] = field(repr=False, default_factory=dict)

    def __post_init__(self) -> None:
        for poi in self.pois.values():
            cell = (math.floor(poi.x / _CELL_M), math.floor(poi.y / _CELL_M))
            self._cells.setdefault(cell, []).append(poi)
        if not self._by_category:
            for poi in self.pois.values():
                self._by_category.setdefault(poi.category, []).append(poi)

    def __len__(self) -> int:
        return len(self.pois)

    def pois_within(self, x: float, y: float, radius: float) -> List[Tuple[float, Poi]]:
        """POIs within ``radius`` metres of (x, y), as (distance, poi).

        Generation picks from this list by index, so its order and
        arithmetic decide the generated bytes: cells column by column
        (x, then y), POIs of a cell in insertion order, squares taken
        with ``**``.
        """
        if radius < 0:
            raise ValueError(f"radius must be non-negative, got {radius!r}")
        reach = math.ceil(radius / _CELL_M)
        cx, cy = math.floor(x / _CELL_M), math.floor(y / _CELL_M)
        r2 = radius * radius
        found: List[Tuple[float, Poi]] = []
        for gx in range(cx - reach, cx + reach + 1):
            for gy in range(cy - reach, cy + reach + 1):
                for poi in self._cells.get((gx, gy), ()):
                    d2 = (poi.x - x) ** 2 + (poi.y - y) ** 2
                    if d2 <= r2:
                        found.append((math.sqrt(d2), poi))
        return found

    def random_poi(
        self, rng: np.random.Generator, category: Optional[PoiCategory] = None
    ) -> Poi:
        """Uniformly random POI, optionally restricted to one category."""
        pool = self._by_category[category] if category else list(self.pois.values())
        if not pool:
            raise ValueError(f"world has no POIs of category {category!r}")
        return pool[int(rng.integers(len(pool)))]

    def sample_poi_near(
        self,
        x: float,
        y: float,
        target_distance: float,
        rng: np.random.Generator,
        categories: Optional[Sequence[PoiCategory]] = None,
        exclude: Optional[str] = None,
    ) -> Optional[Poi]:
        """POI roughly ``target_distance`` metres from (x, y).

        Samples uniformly from POIs in the annulus [0.6d, 1.6d] of the
        requested categories, falling back to any distance if the
        annulus is empty.  Returns ``None`` only when the whole world
        lacks matching POIs.
        """
        wanted = None if categories is None else set(categories)

        def eligible(poi: Poi) -> bool:
            if poi.poi_id == exclude:
                return False
            return wanted is None or poi.category in wanted

        lo, hi = 0.6 * target_distance, 1.6 * target_distance
        ring = [
            poi
            for dist, poi in self.pois_within(x, y, hi)
            if dist >= lo and eligible(poi)
        ]
        if ring:
            return ring[int(rng.integers(len(ring)))]
        pool = [poi for poi in self.pois.values() if eligible(poi)]
        if not pool:
            return None
        return pool[int(rng.integers(len(pool)))]


def generate_world(config: WorldConfig, rng: np.random.Generator) -> World:
    """Generate the shared POI universe for a study."""
    if config.n_pois <= 0:
        raise ValueError(f"n_pois must be positive, got {config.n_pois!r}")
    categories = list(CATEGORY_WEIGHTS)
    weights = np.array([CATEGORY_WEIGHTS[c] for c in categories])
    weights = weights / weights.sum()

    margin = 0.05 * config.size_m
    centers = rng.uniform(margin, config.size_m - margin, size=(config.n_clusters, 2))

    pois: Dict[str, Poi] = {}
    for i in range(config.n_pois):
        if rng.random() < config.clustered_fraction:
            cx, cy = centers[int(rng.integers(config.n_clusters))]
            x = float(np.clip(rng.normal(cx, config.cluster_sigma_m), 0, config.size_m))
            y = float(np.clip(rng.normal(cy, config.cluster_sigma_m), 0, config.size_m))
        else:
            x = float(rng.uniform(0, config.size_m))
            y = float(rng.uniform(0, config.size_m))
        category = categories[int(rng.choice(len(categories), p=weights))]
        poi_id = f"poi-{i:05d}"
        pois[poi_id] = Poi(
            poi_id=poi_id,
            name=f"{category.value} #{i}",
            category=category,
            x=x,
            y=y,
        )
    return World(size_m=config.size_m, pois=pois)


def make_home_poi(user_id: str, world: World, rng: np.random.Generator) -> Poi:
    """Create the user's private home POI (category Residence).

    Homes sit away from the densest POI clusters (a plain uniform draw
    over the city with a margin), which keeps commutes non-trivial.
    """
    margin = 0.03 * world.size_m
    return Poi(
        poi_id=f"home-{user_id}",
        name=f"Home of {user_id}",
        category=PoiCategory.RESIDENCE,
        x=float(rng.uniform(margin, world.size_m - margin)),
        y=float(rng.uniform(margin, world.size_m - margin)),
    )


def pick_work_poi(world: World, rng: np.random.Generator) -> Poi:
    """Pick a workplace: a Professional POI usually, a College one sometimes."""
    category = PoiCategory.COLLEGE if rng.random() < 0.2 else PoiCategory.PROFESSIONAL
    return world.random_poi(rng, category)
