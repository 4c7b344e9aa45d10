"""Fast vectorized study generator for scale benchmarks.

The full persona/itinerary generator (:mod:`repro.synth.study`) spends
tens of milliseconds per user building realistic behaviour — perfect for
fidelity, hopeless for generating the 100k–1M user stores that
out-of-core runs are measured on.  This generator trades realism for throughput: each user's
trace is a handful of anchored dwell blocks (stationary Gaussian
clusters at real POIs, per-minute sampling) built with whole-array numpy
ops, plus a small honest/remote checkin mix.  The dwell blocks are long
and tight enough that stay-point extraction finds visits and matching
finds both honest and extraneous checkins, so a scale run exercises the
same code paths as a real study — just not the paper's distributions.

Never used for fidelity results; only ``perfbench/`` and tests that
need a many-segment store cheaply (``tests/test_store_scale.py``)
should import it.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterator, Union

import numpy as np

from ..model import Checkin, GpsTrace, Poi, PoiCategory, UserData, UserProfile
from ..store import DEFAULT_SEGMENT_USERS, StudyStore, StudyStoreWriter

#: Samples per dwell block (per-minute sampling → 36 minutes per stay,
#: comfortably past the 6-minute dwell threshold).
_BLOCK_SAMPLES = 36

#: GPS noise inside a dwell block, metres (well under the 80 m roam radius).
_NOISE_M = 15.0

#: World edge length, metres.
_WORLD_M = 20_000.0


def _make_pois(n_pois: int, rng: np.random.Generator) -> Dict[str, Poi]:
    categories = [c for c in PoiCategory if c is not PoiCategory.RESIDENCE]
    xy = rng.uniform(0.0, _WORLD_M, size=(n_pois, 2))
    pois: Dict[str, Poi] = {}
    for idx in range(n_pois):
        poi_id = f"sp{idx:05d}"
        pois[poi_id] = Poi(
            poi_id=poi_id,
            name=f"scale poi {idx}",
            category=categories[idx % len(categories)],
            x=float(xy[idx, 0]),
            y=float(xy[idx, 1]),
        )
    return pois


def iter_scale_users(
    n_users: int,
    pois: Dict[str, Poi],
    rng: np.random.Generator,
    points_per_user: int = 288,
    checkins_per_user: int = 8,
) -> Iterator[UserData]:
    """Stream synthetic users with anchored dwell-block traces."""
    poi_ids = list(pois)
    poi_xy = np.array([[p.x, p.y] for p in pois.values()])
    n_pois = len(poi_ids)
    n_blocks = max(1, points_per_user // _BLOCK_SAMPLES)
    study_days = max(points_per_user * 60.0 / 86_400.0, 0.1)
    for idx in range(n_users):
        user_id = f"s{idx:06d}"
        anchors = rng.integers(0, n_pois, size=n_blocks)
        centres = np.repeat(poi_xy[anchors], _BLOCK_SAMPLES, axis=0)[:points_per_user]
        if len(centres) < points_per_user:
            pad = np.repeat(centres[-1:], points_per_user - len(centres), axis=0)
            centres = np.concatenate([centres, pad])
        noise = rng.normal(0.0, _NOISE_M, size=(points_per_user, 2))
        xy = centres + noise
        t = np.arange(points_per_user, dtype=np.float64) * 60.0
        gps = GpsTrace(t, xy[:, 0], xy[:, 1])
        checkins = []
        for c in range(checkins_per_user):
            block = int(anchors[c % n_blocks])
            block_start = (c % n_blocks) * _BLOCK_SAMPLES * 60.0
            if c % 2 == 0:
                # Honest: at the anchor POI, mid-dwell.
                poi_idx = block
                ct = min(block_start + _BLOCK_SAMPLES * 30.0, float(t[-1]))
            else:
                # Remote: a random other POI while the user dwells elsewhere.
                poi_idx = int(rng.integers(0, n_pois))
                ct = min(block_start + _BLOCK_SAMPLES * 20.0, float(t[-1]))
            poi = pois[poi_ids[poi_idx]]
            checkins.append(
                Checkin(
                    checkin_id=f"{user_id}-c{c:03d}",
                    user_id=user_id,
                    poi_id=poi.poi_id,
                    x=poi.x,
                    y=poi.y,
                    t=ct,
                    category=poi.category,
                )
            )
        profile = UserProfile(
            user_id=user_id,
            friends=int(rng.integers(0, 200)),
            badges=int(rng.integers(0, 30)),
            mayorships=int(rng.integers(0, 10)),
            study_days=study_days,
        )
        yield UserData(profile=profile, gps=gps, checkins=checkins)


def generate_scale_store(
    directory: Union[str, Path],
    n_users: int,
    segment_users: int = DEFAULT_SEGMENT_USERS,
    points_per_user: int = 288,
    checkins_per_user: int = 8,
    n_pois: int = 400,
    seed: int = 20130001,
    name: str = "scalegen",
) -> StudyStore:
    """Generate an ``n_users`` study store at benchmark throughput.

    Deterministic given ``seed``; peak memory is one segment's users.
    """
    rng = np.random.default_rng(seed)
    pois = _make_pois(n_pois, rng)
    writer = StudyStoreWriter(directory, name, segment_users=segment_users)
    writer.write_pois(pois)
    writer.add_users(
        iter_scale_users(
            n_users,
            pois,
            rng,
            points_per_user=points_per_user,
            checkins_per_user=checkins_per_user,
        )
    )
    return writer.finalize()
