"""Visit (stay-point) extraction from per-minute GPS traces.

Section 3 of the paper: *"we process the GPS trace to detect 'visits' to
points of interest (POI), and define a visit as the user staying at one
location for longer than some period of time, e.g. 6 minutes."*

The extractor is the classic stay-point algorithm (Li et al. /
Hariharan & Toyama's Project Lachesis, cited by the paper): grow a
cluster of consecutive samples while each new sample stays within a
roaming radius of the cluster centroid and within a maximum time gap of
its predecessor; emit a visit when the cluster spans at least the dwell
threshold.  Extracted visits are annotated with the nearest known POI so
the missing-checkin analyses can reason about categories.

The kernel is columnar: the trace is split at ``max_gap_s`` boundaries
with one ``np.diff``, starts that cannot absorb even one neighbour
(every sample taken while moving) are skipped in bulk, and the
centroid-cluster scan runs on arrays with geometrically growing
windows.  The cluster centroid is the running ``sum / count`` with the
sums accumulated by ``np.cumsum`` — one point at a time, in time order —
so the output is bit-identical to a plain per-point loop (the parity
oracle in ``tests/oracles.py``): same visit ids, same centroids, same
timestamps, for any trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..geo import GridIndex, units
from ..model import Dataset, GpsPoint, GpsTrace, Poi, Visit, as_trace
from ..obs import current as obs_current
from ..runtime import (
    RuntimeTimings,
    merge_user_maps,
    resolve_executor,
    run_stage,
    shard_count,
    shard_dataset,
)

#: First vectorized scan window (candidates per cluster start); grown
#: geometrically when a cluster outlives it.  Covers a one-hour stay of
#: per-minute samples in a single pass.
_FIRST_WINDOW = 64


@dataclass(frozen=True)
class VisitConfig:
    """Parameters of stay-point extraction."""

    #: Minimum dwell for a visit, seconds (the paper's 6 minutes).
    dwell_s: float = units.minutes(6)
    #: A sample joins the current cluster while within this distance of
    #: its centroid, metres.  Must exceed GPS noise but stay below the
    #: per-minute displacement of a walking user.
    roam_radius_m: float = 80.0
    #: Samples further apart in time than this break the cluster
    #: (recording gaps must not be bridged), seconds.
    max_gap_s: float = units.minutes(10)
    #: Annotate a visit with the nearest POI within this radius, metres.
    annotate_radius_m: float = 150.0

    def __post_init__(self) -> None:
        if self.dwell_s <= 0 or self.roam_radius_m <= 0 or self.max_gap_s <= 0:
            raise ValueError("visit extraction thresholds must be positive")


def extract_visits(
    points: Sequence[GpsPoint] | GpsTrace,
    user_id: str,
    config: Optional[VisitConfig] = None,
    poi_index: Optional[GridIndex] = None,
    start_counter: int = 0,
) -> List[Visit]:
    """Extract visits from one user's GPS trace.

    ``points`` need not be sorted and may be a columnar
    :class:`GpsTrace` or any sequence of :class:`GpsPoint`.
    ``poi_index`` is a grid of ``Poi`` objects; when given, each visit's
    ``poi_id`` is the nearest POI within the annotation radius.

    ``start_counter`` offsets the per-user visit-id sequence; the
    streaming engine extracts one settled chunk at a time and continues
    the numbering, so a chunked extraction's ids match one batch pass
    over the concatenated trace.
    """
    config = config or VisitConfig()
    return _extract_visits_vectorized(
        as_trace(points).sorted(), user_id, config, poi_index, start_counter
    )


def _make_visit(
    user_id: str,
    counter: int,
    cx: float,
    cy: float,
    t_start: float,
    t_end: float,
    config: VisitConfig,
    poi_index: Optional[GridIndex],
) -> Visit:
    """Emit one visit, annotated with the nearest POI when an index is given."""
    poi_id = None
    if poi_index is not None:
        hit = poi_index.nearest(cx, cy, max_radius=config.annotate_radius_m)
        if hit is not None:
            poi_id = hit[1].poi_id
    return Visit(
        visit_id=f"{user_id}-v{counter:05d}",
        user_id=user_id,
        x=cx,
        y=cy,
        t_start=t_start,
        t_end=t_end,
        poi_id=poi_id,
    )


#: Cached 1..n counts vector shared by every window (grown on demand).
_COUNTS = np.arange(1.0, 1025.0)


def _counts(w: int) -> np.ndarray:
    global _COUNTS
    if w > _COUNTS.size:
        _COUNTS = np.arange(1.0, 2.0 * w + 1.0)
    return _COUNTS[:w]


def _grow_cluster(
    seg_xy: np.ndarray, i: int, m: int, r2: float
) -> Tuple[int, float, float]:
    """Scan one cluster start: the largest ``j`` keeping ``i..j`` coherent.

    ``seg_xy`` is the segment's stacked ``(2, m)`` coordinate array.
    Candidates are tested in geometrically growing windows.  Each window
    recomputes the cumulative sum from the cluster start, so the running
    sums repeat a per-point loop's additions exactly regardless of how
    many window growths a long stay needs.  Returns ``(j, centroid)``.
    """
    avail = m - 1 - i
    w = min(_FIRST_WINDOW, avail)
    while True:
        cs = seg_xy[:, i : i + w + 1].cumsum(axis=1)
        d = seg_xy[:, i + 1 : i + 1 + w] - cs[:, :w] / _counts(w)
        bad = d[0] * d[0] + d[1] * d[1] > r2
        q = int(bad.argmax())  # first True, or 0 when all False
        if bad[q]:
            return i + q, float(cs[0, q] / (q + 1)), float(cs[1, q] / (q + 1))
        if w == avail:
            return i + w, float(cs[0, w] / (w + 1)), float(cs[1, w] / (w + 1))
        w = min(avail, 4 * w)


def _extract_visits_vectorized(
    trace: GpsTrace,
    user_id: str,
    config: VisitConfig,
    poi_index: Optional[GridIndex],
    start_counter: int = 0,
) -> List[Visit]:
    """Columnar kernel: gap split + bulk mover skip + array cluster scans."""
    n = len(trace)
    visits: List[Visit] = []
    if n == 0:
        return visits
    t = trace.t
    xy = np.stack((trace.x, trace.y))
    r2 = config.roam_radius_m**2
    counter = start_counter
    # One diff splits the trace into gap-free segments; a cluster can
    # never bridge a boundary, so segments scan independently.
    breaks = np.flatnonzero(np.diff(t) > config.max_gap_s) + 1
    seg_bounds = zip(
        np.concatenate(([0], breaks)).tolist(),
        np.concatenate((breaks, [n])).tolist(),
    )
    for a0, b0 in seg_bounds:
        m = b0 - a0
        if m < 2:
            # A lone sample spans zero seconds: never a visit.
            continue
        seg_t = t[a0:b0]
        seg_xy = xy[:, a0:b0]
        # Starts whose immediate neighbour is already outside the roam
        # radius produce a singleton cluster and can never become a
        # visit (dwell > 0): skip them in bulk.
        # This is every sample recorded while the user was moving.
        step = np.diff(seg_xy, axis=1)
        ok_starts = np.flatnonzero(
            step[0] * step[0] + step[1] * step[1] <= r2
        ).tolist()
        n_ok = len(ok_starts)
        p = 0
        i = 0
        while True:
            while p < n_ok and ok_starts[p] < i:
                p += 1
            if p == n_ok:
                break
            i = ok_starts[p]
            j, cx, cy = _grow_cluster(seg_xy, i, m, r2)
            if seg_t[j] - seg_t[i] >= config.dwell_s:
                visits.append(
                    _make_visit(
                        user_id,
                        counter,
                        cx,
                        cy,
                        float(seg_t[i]),
                        float(seg_t[j]),
                        config,
                        poi_index,
                    )
                )
                counter += 1
                i = j + 1
            else:
                i += 1
    return visits


def build_poi_index(pois: Sequence[Poi] | dict) -> GridIndex:
    """Grid index over POIs for visit annotation and world queries."""
    values = pois.values() if isinstance(pois, dict) else pois
    index: GridIndex = GridIndex(cell_size=250.0)
    index.extend([(poi.x, poi.y, poi) for poi in values])
    return index


def _extract_shard(payload: Tuple) -> Dict[str, List[Visit]]:
    """Executor work unit: stay-point extraction for one shard of users.

    Top-level (picklable); the payload is
    ``(config, [poi, ...], [(user_id, gps trace), ...])`` — traces ship
    as columnar arrays, so unpickling cost is per-buffer, not per-point.
    The POI index is rebuilt per shard — a few thousand inserts,
    negligible next to scanning per-minute GPS traces.
    """
    config, pois, users = payload
    obs = obs_current()
    poi_index = build_poi_index(pois)
    out: Dict[str, List[Visit]] = {}
    for user_id, gps in users:
        visits = extract_visits(gps, user_id, config, poi_index)
        obs.count("extract.users_total", 1)
        obs.count("extract.visits_total", len(visits))
        obs.count("extract.gps_points_total", len(gps))
        obs.observe("extract.visits_per_user", len(visits))
        out[user_id] = visits
    return out


def extract_dataset_visits(
    dataset: Dataset,
    config: Optional[VisitConfig] = None,
    force: bool = False,
    executor=None,
    workers: Optional[int] = None,
    timings: Optional[RuntimeTimings] = None,
    resilience=None,
    fault_plan=None,
    health=None,
    shards=None,
) -> Dataset:
    """Populate ``visits`` for every user in ``dataset`` (in place).

    Users whose visits are already populated are left alone unless
    ``force`` is set.  ``executor``/``workers`` shard extraction across
    processes (per-user independent, so results are identical to the
    serial run); ``timings`` collects the stage's shard timings.
    ``resilience``/``fault_plan``/``health`` arm the shard-level
    fault-tolerance layer (see :func:`repro.runtime.run_stage`); under
    ``skip_and_report`` a skipped shard's users keep ``visits=None`` and
    are recorded on ``health``.  Returns the same dataset for chaining.

    ``shards`` overrides the default sharding with a precomputed list of
    :class:`repro.runtime.Shard` covering exactly the pending users —
    the streaming store path shards from manifest counts without loading
    segment data.  The merge still enforces exact coverage.
    """
    config = config or VisitConfig()
    pending = [
        user_id
        for user_id, data in dataset.users.items()
        if data.visits is None or force
    ]
    if not pending:
        return dataset
    pois = list(dataset.pois.values())
    exec_, owned = resolve_executor(executor, workers)
    try:
        subset = dataset.subset(pending, name=dataset.name)
        if shards is None:
            shards = shard_dataset(subset, shard_count(exec_, len(pending)))

        def payload_of(shard):
            return (
                config,
                pois,
                [(uid, as_trace(dataset.users[uid].gps)) for uid in shard.user_ids],
            )

        results, timing = run_stage(
            "extract", exec_, shards, _extract_shard, payload_of,
            resilience=resilience, fault_plan=fault_plan, health=health,
        )
    finally:
        if owned:
            exec_.close()
    if timings is not None:
        timings.stages.append(timing)
    skipped = {
        user_id
        for shard, result in zip(shards, results)
        if result is None
        for user_id in shard.user_ids
    }
    merged = merge_user_maps(
        subset, [r for r in results if r is not None], allow_missing=skipped
    )
    for user_id, visits in merged.items():
        dataset.users[user_id].visits = visits
    return dataset
