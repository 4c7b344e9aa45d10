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

The kernel is columnar and extracts a block of users at once: their
traces are concatenated and cut into *lanes* (gap-free runs of one
user's trace) with one ``np.diff``, starts that cannot absorb even one
neighbour (every sample taken while moving) are skipped in bulk, and
each *round* tests one cluster start per lane with one array window
step, grown geometrically for long stays.  The cluster centroid is the
running ``sum / count`` with the sums accumulated by ``np.cumsum`` — one
point at a time, in time order — so the output is bit-identical to a
plain per-point loop (the parity oracle in ``tests/oracles.py``): same
visit ids, same centroids, same timestamps, for any trace.  A block's
stays are annotated with one :meth:`GridIndex.nearest_many` query: the
nearest POI by ``math.hypot`` within the annotation radius, exact ties
to the POI a ring walk over cells meets first, as the oracle's scalar
per-visit lookup decides them.
"""

from __future__ import annotations

from bisect import bisect_left
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

#: Users extracted together as one block of lockstep lanes.  Bounds the
#: block's concatenated columns and its per-round window matrices, and
#: so the extract stage's share of peak memory.
_BLOCK_USERS = 32

#: Active lanes from which a round gathers one window matrix; a round
#: with fewer (every streaming chunk, the tail of a block) scans its
#: lanes one contiguous window at a time, which costs less below it.
_MATRIX_LANES = 4


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
    [visits] = _extract_block([(user_id, points)], config, poi_index, start_counter)
    return visits


def _extract_block(
    users: Sequence[Tuple[str, Sequence[GpsPoint] | GpsTrace]],
    config: VisitConfig,
    poi_index: Optional[GridIndex],
    start_counter: int = 0,
) -> List[List[Visit]]:
    """Extract visits for a block of users at once, one list per user.

    The users' time-sorted traces are concatenated and scanned as
    lockstep lanes (:func:`_lanes`, :func:`_lane_stays`); every stay of
    the block is then annotated with one batched POI query.  Each
    user's visit ids count up from ``start_counter``.
    """
    traces = [as_trace(gps).sorted() for _, gps in users]
    ends = np.cumsum([len(trace) for trace in traces])
    stays: List[Tuple[int, float, float, float, float]] = []
    if ends.size and ends[-1] > 1:
        t = np.concatenate([trace.t for trace in traces])
        xy = np.empty((2, t.size))
        np.concatenate([trace.x for trace in traces], out=xy[0])
        np.concatenate([trace.y for trace in traces], out=xy[1])
        stays = _lane_stays(t, xy, ends, config)
    poi_ids: List[Optional[str]] = [None] * len(stays)
    if poi_index is not None and stays:
        hits = poi_index.nearest_many(
            [stay[1] for stay in stays],
            [stay[2] for stay in stays],
            config.annotate_radius_m,
        )
        poi_ids = [None if hit is None else hit[1].poi_id for hit in hits]
    out: List[List[Visit]] = [[] for _ in users]
    for (u, cx, cy, t_start, t_end), poi_id in zip(stays, poi_ids):
        user_id = users[u][0]
        visits = out[u]
        visits.append(
            Visit(
                visit_id=f"{user_id}-v{start_counter + len(visits):05d}",
                user_id=user_id,
                x=cx,
                y=cy,
                t_start=t_start,
                t_end=t_end,
                poi_id=poi_id,
            )
        )
    return out


def _lanes(
    t: np.ndarray, xy: np.ndarray, ends: np.ndarray, config: VisitConfig
) -> Tuple[List[List[int]], np.ndarray, List[int]]:
    """Cut a block into lanes: ``(ok starts, last sample, user)`` per lane.

    ``t``/``xy`` are the block's concatenated time-sorted traces and
    ``ends`` each user's end offset.  A *lane* is one gap-free run of
    one user's trace.  Only lanes with a start that can grow at all are
    returned, each with its list of such starts.
    """
    n = t.size
    cut = np.diff(t) > config.max_gap_s
    inner = ends[(ends > 0) & (ends < n)]
    cut[inner - 1] = True
    # Starts whose immediate neighbour is already outside the roam
    # radius, or in another lane, produce a singleton cluster and can
    # never become a visit (dwell > 0): skip them in bulk.
    # This is every sample recorded while the user was moving.
    dx = np.diff(xy[0])
    dy = np.diff(xy[1])
    dx *= dx
    dy *= dy
    dx += dy
    ok = np.flatnonzero((dx <= config.roam_radius_m**2) & ~cut)
    bounds = np.concatenate(([0], np.flatnonzero(cut) + 1, [n]))
    at = np.searchsorted(ok, bounds)
    lanes = np.flatnonzero(at[1:] > at[:-1])
    ok_starts = [ok[at[k] : at[k + 1]].tolist() for k in lanes.tolist()]
    lane_user = np.searchsorted(ends, bounds[lanes], side="right").tolist()
    return ok_starts, bounds[lanes + 1] - 1, lane_user


def _lane_stays(
    t: np.ndarray, xy: np.ndarray, ends: np.ndarray, config: VisitConfig
) -> List[Tuple[int, float, float, float, float]]:
    """Every stay in a block, as ``(user, cx, cy, t_start, t_end)``.

    A cluster never crosses a lane boundary, so lanes scan
    independently.  Each round tests the current cluster start of every
    active lane with one array window step (:func:`_grow_clusters`, or
    :func:`_grow_cluster` per lane below :data:`_MATRIX_LANES`), then
    advances each lane greedily in plain Python: past the cluster after
    a visit, else to the next sample, then on to the next start that
    can grow at all.  Stays come back grouped by user, in time order.
    """
    ok_starts, lane_last, lane_user = _lanes(t, xy, ends, config)
    r2 = config.roam_radius_m**2
    t_at = t.item
    found: List[List[Tuple[float, float, float, float]]] = [[] for _ in ok_starts]
    pos = [0] * len(ok_starts)
    active = list(range(len(ok_starts)))
    starts = [first[0] for first in ok_starts]
    last = lane_last.tolist()
    while active:
        if len(active) < _MATRIX_LANES:
            steps = [
                (k, i, *_grow_cluster(xy, i, last[k], r2))
                for k, i in zip(active, starts)
            ]
        else:
            i_arr = np.array(starts)
            js, cxs, cys = _grow_clusters(xy, i_arr, lane_last[active] - i_arr, r2)
            steps = zip(active, starts, js.tolist(), cxs.tolist(), cys.tolist())
        next_active: List[int] = []
        next_starts: List[int] = []
        for k, i, j, cx, cy in steps:
            t_start = t_at(i)
            t_end = t_at(j)
            if t_end - t_start >= config.dwell_s:
                found[k].append((cx, cy, t_start, t_end))
                i = j + 1
            else:
                i += 1
            lane_ok = ok_starts[k]
            p = bisect_left(lane_ok, i, pos[k])
            if p < len(lane_ok):
                pos[k] = p
                next_active.append(k)
                next_starts.append(lane_ok[p])
        active, starts = next_active, next_starts
    return [
        (u, cx, cy, t_start, t_end)
        for u, lane_found in zip(lane_user, found)
        for cx, cy, t_start, t_end in lane_found
    ]


#: Cached window tables, grown on demand: column offsets ``0..w`` and
#: the ``1..w`` point counts of the running centroid.
_OFFSETS = np.arange(1025)
_COUNTS = np.arange(1.0, 1025.0)


def _window(w: int) -> Tuple[np.ndarray, np.ndarray]:
    global _OFFSETS, _COUNTS
    if w >= _OFFSETS.size:
        _OFFSETS = np.arange(2 * w + 1)
        _COUNTS = np.arange(1.0, 2.0 * w + 1.0)
    return _OFFSETS[: w + 1], _COUNTS[:w]


def _grow_cluster(
    xy: np.ndarray, i: int, last: int, r2: float
) -> Tuple[int, float, float]:
    """The window step of one lane in a round of few lanes.

    :func:`_grow_clusters` for a single cluster start ``i`` whose lane
    ends at sample ``last``, on contiguous slices and Python scalars, so
    it pays for one array window scan and none of the matrix gather and
    per-lane bookkeeping.  Returns ``(j, cx, cy)``.
    """
    avail = last - i
    w = min(_FIRST_WINDOW, avail)
    while True:
        counts = _window(w)[1]
        cs = xy[:, i : i + w + 1].cumsum(axis=1)
        d = xy[:, i + 1 : i + 1 + w] - cs[:, :w] / counts
        bad = d[0] * d[0] + d[1] * d[1] > r2
        q = int(bad.argmax())  # first True, or 0 when all False
        if not bad[q]:
            if w < avail:
                w = min(avail, 4 * w)
                continue
            q = w  # the lane ends unbroken
        return i + q, float(cs[0, q] / (q + 1)), float(cs[1, q] / (q + 1))


def _grow_clusters(
    xy: np.ndarray,
    starts: np.ndarray,
    avail: np.ndarray,
    r2: float,
    w: int = _FIRST_WINDOW,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One round's window step: scan one cluster start per lane.

    ``starts[k]`` is lane ``k``'s cluster start, a column of the block's
    stacked ``(2, n)`` coordinate array, and ``avail[k]`` the number of
    lane samples after it.  Returns, per lane, the largest ``j`` keeping
    ``start..j`` coherent and that cluster's centroid.

    The lanes' windows of ``w`` candidates are gathered into one
    ``(lanes x window)`` matrix.  Candidates past a lane's last sample
    count as breaks, so a lane that reaches its end unbroken ends there;
    lanes whose cluster outlives the window re-scan with a 4x window.
    Every scan recomputes the cumulative sum from the cluster start, so
    the running sums repeat a per-point loop's additions exactly however
    many growths a long stay needs.
    """
    longest = int(avail.max())
    w = min(w, longest)
    offsets, counts = _window(w)
    idx = starts[:, None] + offsets
    np.minimum(idx, xy.shape[1] - 1, out=idx)  # past the block: masked below
    win = xy[:, idx]
    cs = win.cumsum(axis=2)
    d = win[:, :, 1:] - cs[:, :, :w] / counts
    d *= d
    # One extra always-true column: argmax then finds the first break,
    # or column w when the window holds none.
    bad = np.ones((starts.size, w + 1), dtype=bool)
    np.greater(d[0] + d[1], r2, out=bad[:, :w])
    if w > avail.min():
        bad[:, :w] |= offsets[:w] >= avail[:, None]
    q = bad.argmax(axis=1)
    rows = np.arange(starts.size)
    j = starts + q
    cx = cs[0, rows, q] / (q + 1)
    cy = cs[1, rows, q] / (q + 1)
    if w < longest:
        grow = np.flatnonzero((q == w) & (avail > w))
        if grow.size:
            j[grow], cx[grow], cy[grow] = _grow_clusters(
                xy, starts[grow], avail[grow], r2, 4 * w
            )
    return j, cx, cy


def build_poi_index(pois: Sequence[Poi] | dict) -> GridIndex:
    """Grid index over POIs for visit annotation."""
    values = list(pois.values() if isinstance(pois, dict) else pois)
    return GridIndex.from_columns(
        [poi.x for poi in values], [poi.y for poi in values], values, cell_size=250.0
    )


def _extract_shard(payload: Tuple) -> Dict[str, List[Visit]]:
    """Executor work unit: stay-point extraction for one shard of users.

    Top-level (picklable); the payload is
    ``(config, [poi, ...], [(user_id, gps trace), ...])`` — traces ship
    as columnar arrays, so unpickling cost is per-buffer, not per-point.
    Users are extracted :data:`_BLOCK_USERS` at a time.  The POI index
    is rebuilt per shard — one bulk load, negligible next to scanning
    per-minute GPS traces.
    """
    config, pois, users = payload
    obs = obs_current()
    poi_index = build_poi_index(pois)
    out: Dict[str, List[Visit]] = {}
    for lo in range(0, len(users), _BLOCK_USERS):
        block = users[lo : lo + _BLOCK_USERS]
        for (user_id, gps), visits in zip(
            block, _extract_block(block, config, poi_index)
        ):
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
