"""Extraneous checkin classification (Section 5.1).

The paper manually inspected its 10,772 extraneous checkins and sorted
90% of them into three behaviours; this module automates that taxonomy
using the GPS trace as ground truth for where the user really was:

* **remote** — the checkin's POI lies more than 500 m from the user's
  physical position at checkin time ("beyond any reasonable GPS or POI
  location errors, the user is clearly falsifying her location");
* **driveby** — the POI is nearby but the user was moving faster than
  4 mph;
* **superfluous** — the user was stationary at a real visit within the
  matching thresholds, but this checkin did not win the match (extra
  checkins fired from one physical location);
* **other** — the residual: stationary, nearby, but no qualifying visit
  (e.g. stops shorter than the 6-minute dwell), or no usable GPS fix.
"""

from __future__ import annotations

import bisect
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..geo import units
from ..model import (
    EXTRANEOUS_TYPES,
    Checkin,
    CheckinType,
    Dataset,
    GpsPoint,
    GpsTrace,
    Visit,
)
from ..obs import current as obs_current
from ..runtime import (
    RuntimeTimings,
    merge_user_maps,
    resolve_executor,
    run_stage,
    shard_count,
    shard_dataset,
)
from .matching import MatchingResult, candidate_pairs


@dataclass(frozen=True)
class ClassifyConfig:
    """Thresholds of the extraneous taxonomy."""

    #: Remote threshold, metres (the paper's 500 m).
    remote_distance_m: float = 500.0
    #: Driveby speed threshold, m/s (the paper's 4 mph).
    driveby_speed_ms: float = units.mph(4.0)
    #: Spatial threshold for the superfluous test, metres (matching α).
    alpha_m: float = 500.0
    #: Temporal threshold for the superfluous test, seconds (matching β).
    beta_s: float = units.minutes(30)
    #: A GPS fix further than this from the checkin time is unusable.
    max_fix_age_s: float = units.minutes(5)
    #: Half-width of the speed estimation window, seconds.
    speed_window_s: float = 90.0


class GpsLocator:
    """Physical position/speed lookup from one user's GPS trace."""

    def __init__(self, points: Sequence[GpsPoint] | GpsTrace) -> None:
        if isinstance(points, GpsTrace):
            # Columnar fast path: bisect works directly on the sorted
            # arrays, no per-point objects are ever built.
            trace = points.sorted()
            self._t = trace.t
            self._x = trace.x
            self._y = trace.y
        else:
            pts = sorted(points, key=lambda p: p.t)
            self._t = [p.t for p in pts]
            self._x = [p.x for p in pts]
            self._y = [p.y for p in pts]

    def __len__(self) -> int:
        return len(self._t)

    def locate(self, t: float, max_fix_age_s: float) -> Optional[Tuple[float, float]]:
        """Interpolated position at time ``t``, or None without a fresh fix.

        Interpolates linearly between the bracketing samples when both
        are within the fix-age bound; otherwise snaps to the nearest
        sample if *it* is fresh enough.
        """
        if len(self._t) == 0:
            return None
        idx = bisect.bisect_left(self._t, t)
        lo = idx - 1
        hi = idx
        if lo >= 0 and hi < len(self._t):
            gap_lo = t - self._t[lo]
            gap_hi = self._t[hi] - t
            if gap_lo <= max_fix_age_s and gap_hi <= max_fix_age_s:
                span = self._t[hi] - self._t[lo]
                frac = 0.0 if span == 0 else (t - self._t[lo]) / span
                return (
                    self._x[lo] + frac * (self._x[hi] - self._x[lo]),
                    self._y[lo] + frac * (self._y[hi] - self._y[lo]),
                )
        # Fall back to the nearest single sample.
        best = None
        for i in (lo, hi):
            if 0 <= i < len(self._t):
                age = abs(self._t[i] - t)
                if best is None or age < best[0]:
                    best = (age, i)
        if best is None or best[0] > max_fix_age_s:
            return None
        i = best[1]
        return self._x[i], self._y[i]

    def speed(self, t: float, window_s: float) -> Optional[float]:
        """Mean speed (m/s) over the samples bracketing ``t ± window``.

        Uses the widest pair of samples inside the window; None when the
        trace has no two samples there.
        """
        if len(self._t) < 2:
            return None
        lo_idx = bisect.bisect_left(self._t, t - window_s)
        hi_idx = bisect.bisect_right(self._t, t + window_s) - 1
        if hi_idx <= lo_idx:
            # Fewer than two samples inside the window; widen to the
            # nearest neighbours if they are close enough to be meaningful.
            idx = bisect.bisect_left(self._t, t)
            lo_idx, hi_idx = max(0, idx - 1), min(len(self._t) - 1, idx)
            if hi_idx <= lo_idx:
                return None
            if self._t[hi_idx] - self._t[lo_idx] > 4 * window_s:
                return None
        dt = self._t[hi_idx] - self._t[lo_idx]
        if dt <= 0:
            return None
        dist = math.hypot(
            self._x[hi_idx] - self._x[lo_idx], self._y[hi_idx] - self._y[lo_idx]
        )
        return dist / dt


@dataclass
class ClassificationResult:
    """Labels for every checkin in a dataset (honest + extraneous taxonomy)."""

    config: ClassifyConfig
    labels: Dict[str, CheckinType] = field(default_factory=dict)
    checkins: Dict[str, Checkin] = field(default_factory=dict)

    def of_type(self, kind: CheckinType) -> List[Checkin]:
        """All checkins labelled ``kind``, in time order."""
        out = [
            self.checkins[cid] for cid, label in self.labels.items() if label is kind
        ]
        return sorted(out, key=lambda c: (c.user_id, c.t))

    def counts(self) -> Dict[CheckinType, int]:
        """Checkin count per label."""
        out = {kind: 0 for kind in CheckinType}
        for label in self.labels.values():
            out[label] += 1
        return out

    @property
    def n_extraneous(self) -> int:
        """Total checkins in any extraneous class."""
        return sum(1 for label in self.labels.values() if label.is_extraneous)

    def fractions_of_extraneous(self) -> Dict[CheckinType, float]:
        """Each extraneous class's share of all extraneous checkins."""
        total = self.n_extraneous
        counts = self.counts()
        return {
            kind: (counts[kind] / total if total else 0.0) for kind in EXTRANEOUS_TYPES
        }

    def user_labels(self, user_id: str) -> Dict[str, CheckinType]:
        """Labels restricted to one user's checkins."""
        return {
            cid: label
            for cid, label in self.labels.items()
            if self.checkins[cid].user_id == user_id
        }


def classify_extraneous_checkin(
    checkin: Checkin,
    locator: GpsLocator,
    candidates: Sequence[Tuple[float, Visit]],
    config: ClassifyConfig,
) -> CheckinType:
    """Assign one extraneous checkin to the Section 5.1 taxonomy.

    ``candidates`` are the user's visits within ``alpha_m`` of the
    checkin, as ``(distance, visit)`` pairs in any order (for instance
    one row of :meth:`GridIndex.within_many`).  The shard path
    (:func:`classify_user_extraneous`, :func:`_classify_shard`) builds no
    candidate lists: one :func:`repro.core.matching.candidate_pairs`
    pass settles the superfluous test of every checkin at once.
    """
    superfluous = any(
        visit.time_distance(checkin.t) <= config.beta_s for _, visit in candidates
    )
    return _taxonomy(checkin, locator, superfluous, config)


def _taxonomy(
    checkin: Checkin, locator: GpsLocator, superfluous: bool, config: ClassifyConfig
) -> CheckinType:
    """The Section 5.1 decision for one checkin, given whether any of
    the user's visits lies within α metres and β seconds of it."""
    fix = locator.locate(checkin.t, config.max_fix_age_s)
    if fix is None:
        return CheckinType.OTHER
    distance = math.hypot(checkin.x - fix[0], checkin.y - fix[1])
    if distance > config.remote_distance_m:
        return CheckinType.REMOTE
    speed = locator.speed(checkin.t, config.speed_window_s)
    if speed is not None and speed > config.driveby_speed_ms:
        return CheckinType.DRIVEBY
    return CheckinType.SUPERFLUOUS if superfluous else CheckinType.OTHER


def _classify_users(
    users: Sequence[Tuple[Sequence[GpsPoint] | GpsTrace, Sequence[Visit], list]],
    config: ClassifyConfig,
) -> List[List[CheckinType]]:
    """Label several users' extraneous checkins at once.

    ``users`` holds ``(gps, visits, extraneous checkins)`` per user.  One
    :func:`candidate_pairs` pass over every user's checkins and visits
    settles the superfluous test ("some visit within α and β") for all
    of them; the GPS position and speed lookups and the remote test
    stay scalar, per checkin, on a locator built once per user.
    """
    checkins = [c for _, _, extraneous in users for c in extraneous]
    if not checkins:
        return [[] for _ in users]
    n_checkins = [len(extraneous) for _, _, extraneous in users]
    rows, _, _, _ = candidate_pairs(
        checkins,
        [v for _, visits, _ in users for v in visits],
        n_checkins,
        [len(visits) for _, visits, _ in users],
        config.alpha_m,
        config.beta_s,
    )
    superfluous = np.zeros(len(checkins), dtype=bool)
    superfluous[rows] = True
    flags = superfluous.tolist()
    out: List[List[CheckinType]] = []
    c0 = 0
    for (gps, _, extraneous), n in zip(users, n_checkins):
        if not n:
            out.append([])
            continue
        locator = GpsLocator(gps)
        out.append(
            [
                _taxonomy(checkin, locator, flag, config)
                for checkin, flag in zip(extraneous, flags[c0 : c0 + n])
            ]
        )
        c0 += n
    return out


def classify_user_extraneous(
    gps: Sequence[GpsPoint] | GpsTrace,
    visits: Sequence[Visit],
    extraneous: Sequence[Checkin],
    config: ClassifyConfig,
) -> List[CheckinType]:
    """Label one user's extraneous checkins, in their given order.

    The one-user case of the shard path (:func:`_classify_users`), and
    the routine the streaming engine calls per chunk.  Pure — no
    observation, no shared state — so it is safe from any thread.
    """
    return _classify_users([(gps, visits, extraneous)], config)[0]


def _classify_shard(payload: Tuple) -> Dict[str, List[CheckinType]]:
    """Executor work unit: label one shard's extraneous checkins.

    Top-level (picklable); the payload is
    ``(config, [(user_id, gps, visits, extraneous checkins), ...])``.
    Honest labels are implied by the matching result, so only the
    extraneous taxonomy crosses the process boundary: one label per
    extraneous checkin, in the checkins' given order.  The whole shard
    is labelled by one :func:`_classify_users` call and counted once.
    """
    config, users = payload
    if not users:
        return {}
    labels = _classify_users([user[1:] for user in users], config)
    obs = obs_current()
    every = [label for user_labels in labels for label in user_labels]
    for label, n in Counter(every).items():
        obs.count(f"classify.{label.value}_total", n)
    obs.count("classify.users_total", len(users))
    obs.count("classify.extraneous_total", len(every))
    return {user[0]: user_labels for user, user_labels in zip(users, labels)}


def classify_dataset(
    dataset: Dataset,
    matching: MatchingResult,
    config: Optional[ClassifyConfig] = None,
    executor=None,
    workers: Optional[int] = None,
    timings: Optional[RuntimeTimings] = None,
    resilience=None,
    fault_plan=None,
    health=None,
) -> ClassificationResult:
    """Label every checkin: HONEST for matches, taxonomy for the rest.

    ``executor``/``workers`` shard the (per-user independent) taxonomy
    across processes with results identical to the serial run;
    ``timings`` collects the stage's shard timings.
    ``resilience``/``fault_plan``/``health`` arm the shard-level
    fault-tolerance layer.  Users absent from ``matching.per_user`` are
    tolerated only when ``health`` records them as skipped upstream —
    a degraded run surfaces them instead of silently dropping labels.
    """
    config = config or ClassifyConfig()
    unmatched = [u for u in dataset.users if u not in matching.per_user]
    if unmatched:
        known_skips = set(health.skipped_user_ids()) if health is not None else set()
        unexplained = [u for u in unmatched if u not in known_skips]
        if unexplained:
            raise ValueError(f"matching result lacks user {unexplained[0]!r}")
    work = (
        dataset
        if not unmatched
        else dataset.subset(
            [u for u in dataset.users if u in matching.per_user], name=dataset.name
        )
    )
    exec_, owned = resolve_executor(executor, workers)
    try:
        shards = shard_dataset(work, shard_count(exec_, len(work.users)))

        def payload_of(shard):
            users = []
            for uid in shard.user_ids:
                data = work.users[uid]
                users.append(
                    (uid, data.gps, data.require_visits(), matching.per_user[uid].extraneous)
                )
            return (config, users)

        results, timing = run_stage(
            "classify", exec_, shards, _classify_shard, payload_of,
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
    extraneous_labels = merge_user_maps(
        work, [r for r in results if r is not None], allow_missing=skipped
    )
    result = ClassificationResult(config=config)
    for user_id in extraneous_labels:
        user_match = matching.per_user[user_id]
        for checkin, _ in user_match.matches:
            result.labels[checkin.checkin_id] = CheckinType.HONEST
            result.checkins[checkin.checkin_id] = checkin
        labels = extraneous_labels[user_id]
        if len(labels) != len(user_match.extraneous):
            raise ValueError(
                f"user {user_id!r}: shard returned {len(labels)} labels for "
                f"{len(user_match.extraneous)} extraneous checkins"
            )
        for checkin, label in zip(user_match.extraneous, labels):
            result.labels[checkin.checkin_id] = label
            result.checkins[checkin.checkin_id] = checkin
    return result
