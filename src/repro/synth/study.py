"""Study assembly: generate complete Primary / Baseline datasets.

This is the top-level entry point of the synthetic user study.  It draws
a shared POI universe, then for each participant a persona, a routine
(home + workplace), a multi-day itinerary, GPS/checkin traces, and a
Foursquare profile — exactly the record types the paper's collection app
produced.

Generation is split into a cheap planning step (:func:`plan_study`:
seeds, world, homes) and a per-user stream (:func:`iter_study_users`),
so the same generator can either materialise one in-RAM
:class:`Dataset` (:func:`generate_dataset`) or spill users into a
shard-sized segment store (:func:`generate_study_store`) without ever
holding the whole study — both produce identical users, because the
split preserves the RNG call order exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from ..model import Dataset, Poi, UserData
from ..obs import current as obs_current
from ..runtime import (
    ParallelExecutor,
    available_workers,
    inflight_window,
    run_pipelined,
)
from ..runtime.executor import _Instrumented
from ..store import DEFAULT_SEGMENT_USERS, StudyStore, StudyStoreWriter
from .checkins import generate_checkins
from .config import StudyConfig, baseline_config, primary_config
from .itinerary import ItineraryBuilder
from .mobility import build_coverage, ground_truth_visits, sample_gps
from .persona import build_profile, sample_persona
from .world import World, generate_world, make_home_poi, pick_work_poi


def _draw_study_days(mean_days: float, rng: np.random.Generator) -> int:
    """Per-user study length: normal around the mean, at least 4 days."""
    days = rng.normal(mean_days, 0.25 * mean_days)
    return int(max(4, min(round(days), round(2 * mean_days))))


@dataclass
class StudyPlan:
    """The shared (per-study) part of generation: world, homes, seeds.

    Cheap to hold — O(POIs + users), no traces — and sufficient to
    stream users one at a time via :func:`iter_study_users`.
    """

    config: StudyConfig
    world: World
    homes: Dict[str, Poi]
    user_ids: List[str]
    user_seeds: List[np.random.SeedSequence]


def plan_study(config: StudyConfig) -> StudyPlan:
    """Draw the study-level randomness: POI universe, homes, user seeds.

    Deterministic given ``config.seed``, and consumes the world RNG in
    the exact order the original monolithic generator did (world first,
    then one home per user in user order), so datasets produced from a
    plan are identical to the pre-split generator's.
    """
    seed_seq = np.random.SeedSequence(config.seed)
    world_seed, *user_seeds = seed_seq.spawn(config.n_users + 1)
    world_rng = np.random.default_rng(world_seed)
    base_pois = generate_world(config.world, world_rng)
    # Homes must exist as POIs before itineraries are built so that home
    # visits are attributable to a (Residence) POI in the analyses.
    homes: Dict[str, Poi] = {}
    user_ids = [f"u{idx:04d}" for idx in range(config.n_users)]
    for user_id in user_ids:
        homes[user_id] = make_home_poi(user_id, base_pois, world_rng)
    pois: Dict[str, Poi] = dict(base_pois.pois)
    pois.update({p.poi_id: p for p in homes.values()})
    world = World(size_m=config.world.size_m, pois=pois)
    return StudyPlan(
        config=config,
        world=world,
        homes=homes,
        user_ids=user_ids,
        user_seeds=list(user_seeds),
    )


def iter_study_users(
    plan: StudyPlan, with_ground_truth_visits: bool = False
) -> Iterator[UserData]:
    """Stream the study's users one at a time, in user-id order.

    Each user's randomness comes from their own spawned seed, so the
    stream can be consumed lazily (e.g. spilled straight into a segment
    store) without changing a single sample.
    """
    obs = obs_current()
    config = plan.config
    for user_id, user_seed in zip(plan.user_ids, plan.user_seeds):
        rng = np.random.default_rng(user_seed)
        persona = sample_persona(user_id, config.behavior, rng)
        n_days = _draw_study_days(config.mean_study_days, rng)
        home = plan.homes[user_id]
        work = pick_work_poi(plan.world, rng)
        builder = ItineraryBuilder(
            plan.world,
            home,
            work,
            config.mobility,
            errands_mean_scale=persona.activity,
            employed=bool(rng.random() >= config.mobility.homebody_fraction),
        )
        itinerary = builder.build(n_days, rng)
        coverage = build_coverage(n_days, config.mobility, rng)
        gps = sample_gps(itinerary, coverage, config.mobility, rng)
        checkins = generate_checkins(
            itinerary, coverage, persona, plan.world, float(n_days), config.visit_dwell_s, rng
        )
        profile = build_profile(persona, float(n_days), rng)
        data = UserData(profile=profile, gps=gps, checkins=checkins)
        if with_ground_truth_visits:
            data.visits = ground_truth_visits(
                itinerary, coverage, user_id, config.visit_dwell_s
            )
        obs.count("synth.users_total", 1)
        obs.count("synth.checkins_total", len(checkins))
        obs.count("synth.gps_points_total", len(gps))
        yield data


def generate_dataset(config: StudyConfig, with_ground_truth_visits: bool = False) -> Dataset:
    """Generate a full study dataset from ``config``.

    Deterministic given ``config.seed``.  When
    ``with_ground_truth_visits`` is set, each user's ``visits`` field is
    pre-populated with the generator's ground truth; the normal pipeline
    leaves it unset and extracts visits from GPS itself
    (:func:`repro.core.visits.extract_dataset_visits`).
    """
    obs = obs_current()
    with obs.span(
        "synth.generate", dataset=config.name, users=config.n_users, seed=config.seed
    ):
        plan = plan_study(config)
        users = {
            data.user_id: data
            for data in iter_study_users(plan, with_ground_truth_visits)
        }
    return Dataset(name=config.name, pois=plan.world.pois, users=users)


def _generate_chunk(payload: Tuple) -> List[UserData]:
    """Process-pool work unit: generate one segment-sized chunk of users.

    The payload carries a subset :class:`StudyPlan` (full world, but only
    the chunk's homes/ids/seeds); per-user RNG comes entirely from the
    spawned seeds, so chunks generate identical users in any process.
    """
    config, world, homes, user_ids, user_seeds = payload
    plan = StudyPlan(
        config=config, world=world, homes=homes, user_ids=user_ids, user_seeds=user_seeds
    )
    return list(iter_study_users(plan))


def _generate_store_parallel(
    plan: StudyPlan,
    writer: StudyStoreWriter,
    segment_users: int,
    workers: int,
    inflight_segments: Optional[int],
    obs: "object",
    span: "object",
) -> None:
    """Fan segment-sized chunks over a process pool, write in plan order.

    Chunk size equals ``segment_users`` so segment boundaries — and the
    store fingerprint — match serial generation exactly.  The reducer
    runs on the calling thread in chunk order, so user records land in
    the writer and obs deltas are absorbed exactly as the serial stream
    would produce them.
    """
    step = segment_users
    chunks = [
        (
            plan.user_ids[start : start + step],
            plan.user_seeds[start : start + step],
        )
        for start in range(0, len(plan.user_ids), step)
    ]
    effective = workers if workers > 0 else available_workers()
    inflight = inflight_window(inflight_segments, workers, len(chunks))
    executor = ParallelExecutor(workers=workers if workers > 0 else None)
    # Warm the pool from this thread: lane threads may otherwise race
    # the lazy first-submit pool construction.
    executor._ensure_pool()
    observe = bool(getattr(obs, "enabled", False))
    task = _Instrumented(
        _generate_chunk,
        observe=observe,
        profile=bool(getattr(obs, "profile_enabled", False)),
    )

    def load(index: int, chunk: Tuple) -> Tuple:
        user_ids, user_seeds = chunk
        homes = {user_id: plan.homes[user_id] for user_id in user_ids}
        return (plan.config, plan.world, homes, user_ids, user_seeds)

    def compute(index: int, chunk: Tuple, payload: Tuple, lane_id: int) -> Tuple:
        base_s = obs.clock() if observe else 0.0
        wall_s, delta, users = executor.submit(task, payload).result()
        return base_s, delta, users

    def reduce(index: int, chunk: Tuple, outcome: Tuple) -> None:
        base_s, delta, users = outcome
        if delta is not None:
            obs.absorb(
                delta,
                parent_id=span.span_id,
                base_s=base_s,
                attrs={"chunk": index},
            )
        for data in users:
            writer.add_user(data)

    try:
        lanes = max(1, min(effective, inflight, len(chunks) or 1))
        run_pipelined(chunks, load, compute, reduce, inflight=inflight, lanes=lanes)
    finally:
        executor.close()


def generate_study_store(
    config: StudyConfig,
    directory: Union[str, Path],
    segment_users: int = DEFAULT_SEGMENT_USERS,
    workers: Optional[int] = None,
    inflight_segments: Optional[int] = None,
) -> StudyStore:
    """Generate a study straight into an on-disk segment store.

    Users stream from :func:`iter_study_users` into a
    :class:`repro.store.StudyStoreWriter`, so peak memory is one
    segment's worth of users regardless of ``config.n_users`` — and the
    stored study is record-identical to ``generate_dataset(config)``.

    ``workers`` > 1 (or 0 for all CPUs) generates segment-sized chunks
    of users on a process pool, pipelined up to ``inflight_segments``
    ahead of the in-order writer; because every user's randomness comes
    from their own spawned seed and chunks align with segment
    boundaries, the resulting store fingerprint is identical to serial
    generation.
    """
    obs = obs_current()
    with obs.span(
        "synth.generate_store",
        dataset=config.name,
        users=config.n_users,
        seed=config.seed,
        segment_users=segment_users,
    ) as span:
        plan = plan_study(config)
        writer = StudyStoreWriter(directory, config.name, segment_users=segment_users)
        writer.write_pois(plan.world.pois)
        if workers is None or workers == 1:
            writer.add_users(iter_study_users(plan))
        else:
            _generate_store_parallel(
                plan, writer, segment_users, workers, inflight_segments, obs, span
            )
        return writer.finalize()


def generate_primary(scale: float = 1.0, seed: int = 20131121) -> Dataset:
    """The Primary dataset (244 ordinary Foursquare users at scale 1.0)."""
    return generate_dataset(primary_config(seed).scaled(scale))


def generate_baseline(scale: float = 1.0, seed: int = 20131122) -> Dataset:
    """The Baseline dataset (47 undergraduate volunteers at scale 1.0)."""
    return generate_dataset(baseline_config(seed).scaled(scale))
