"""Scalar reference implementations: the parity oracles.

Production has one implementation per stage — the lockstep-lane
stay-point kernel in :mod:`repro.core.visits`, with its batched POI
annotation, the shard-at-once matcher and classifier in
:mod:`repro.core.matching` and :mod:`repro.core.classify`, and the
batched MANET tick loop in :mod:`repro.manet.engine`.  The plain
per-point / per-user / per-node loops they were derived from live here,
where the parity suites compare production against them byte for byte
(``test_visits_kernels.py``, ``test_core_block_kernels.py``,
``test_manet_engines.py``).  The
MANET oracle also runs its own node hot paths
(:class:`ReferenceAodvNode`), so the shortcuts production takes inside
:class:`repro.manet.AodvNode` are checked too.  Each oracle is the most
direct reading of the algorithm; none of it is tuned.

:class:`BucketGrid` is the scalar spatial index production's columnar
:class:`repro.geo.GridIndex` replaced: per-cell Python buckets, one
radius or nearest query at a time.  It annotates the extraction
oracle's visits, finds the scalar MANET loop's neighbours, and is the
reference of the grid tests.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from typing import Dict, Generic, Iterable, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from repro.core.classify import (
    ClassifyConfig,
    GpsLocator,
    classify_extraneous_checkin,
)
from repro.core.matching import MatchConfig, MatchStats, UserMatching
from repro.core.visits import VisitConfig
from repro.geo import GridIndex, euclidean
from repro.manet import AodvNode, Simulator
from repro.manet.aodv import Payload
from repro.manet.packets import DataPacket, Rerr, Rrep, Rreq
from repro.model import Checkin, CheckinType, GpsPoint, GpsTrace, Visit
from repro.obs import current as obs_current

T = TypeVar("T")


class BucketGrid(Generic[T]):
    """Oracle for :class:`repro.geo.GridIndex`: a uniform grid of
    mutable per-cell buckets, queried one point at a time.

    ``within`` tests every point of the cells within reach of the
    radius; ``nearest`` walks rings of cells outward from the query's
    cell and breaks exact ties by the order it meets points in (ring,
    then cell, then insertion order), the rule
    :meth:`GridIndex.nearest_many` reproduces.
    """

    def __init__(self, cell_size: float) -> None:
        self.cell_size = float(cell_size)
        self._cells: Dict[Tuple[int, int], List[Tuple[float, float, T]]] = (
            defaultdict(list)
        )
        self._count = 0
        # Occupied-cell bounding box: bounds the ring walk of `nearest`.
        self._gx_min = self._gy_min = math.inf
        self._gx_max = self._gy_max = -math.inf

    def __len__(self) -> int:
        return self._count

    @classmethod
    def from_points(
        cls, points: Iterable[Tuple[float, float, T]], cell_size: float
    ) -> "BucketGrid[T]":
        """A grid of ``(x, y, item)`` triples, inserted in order."""
        grid: BucketGrid[T] = cls(cell_size)
        for x, y, item in points:
            grid.insert(x, y, item)
        return grid

    @classmethod
    def of_index(cls, index: GridIndex) -> "BucketGrid":
        """The points of ``index``, inserted in row order, so exact ties
        resolve as the index resolves them."""
        return cls.from_points(
            zip(index.x.tolist(), index.y.tolist(), index.items), index.cell_size
        )

    def _cell_of(self, x: float, y: float) -> Tuple[int, int]:
        return (math.floor(x / self.cell_size), math.floor(y / self.cell_size))

    def insert(self, x: float, y: float, item: T) -> None:
        """Insert ``item`` at planar position (x, y) metres."""
        gx, gy = self._cell_of(x, y)
        self._cells[(gx, gy)].append((x, y, item))
        self._count += 1
        self._gx_min = min(self._gx_min, gx)
        self._gx_max = max(self._gx_max, gx)
        self._gy_min = min(self._gy_min, gy)
        self._gy_max = max(self._gy_max, gy)

    def within(self, x: float, y: float, radius: float) -> List[Tuple[float, T]]:
        """All items within ``radius`` metres of (x, y), as (distance,
        item), unordered."""
        if radius < 0:
            raise ValueError(f"radius must be non-negative, got {radius!r}")
        reach = math.ceil(radius / self.cell_size)
        cx, cy = self._cell_of(x, y)
        r2 = radius * radius
        found: List[Tuple[float, T]] = []
        for gx in range(cx - reach, cx + reach + 1):
            for gy in range(cy - reach, cy + reach + 1):
                for px, py, item in self._cells.get((gx, gy), ()):
                    d2 = (px - x) ** 2 + (py - y) ** 2
                    if d2 <= r2:
                        found.append((math.sqrt(d2), item))
        return found

    def nearest(self, x: float, y: float, max_radius: float = math.inf):
        """Nearest item to (x, y) within ``max_radius``, as (distance,
        item), or ``None``.

        Searches expanding rings of cells, stopping as soon as the best
        candidate provably beats anything in unexplored rings.
        """
        if self._count == 0:
            return None
        cx, cy = self._cell_of(x, y)
        best: Optional[Tuple[float, T]] = None
        # Beyond the occupied-cell bounding box every cell is empty.
        max_ring = int(
            max(
                cx - self._gx_min,
                self._gx_max - cx,
                cy - self._gy_min,
                self._gy_max - cy,
                0,
            )
        )
        ring = 0
        while ring <= max_ring:
            for gx in range(cx - ring, cx + ring + 1):
                for gy in range(cy - ring, cy + ring + 1):
                    if max(abs(gx - cx), abs(gy - cy)) != ring:
                        continue
                    for px, py, item in self._cells.get((gx, gy), ()):
                        d = math.hypot(px - x, py - y)
                        if d <= max_radius and (best is None or d < best[0]):
                            best = (d, item)
            if best is not None and best[0] <= ring * self.cell_size:
                # No unexplored cell can hold a closer point.
                break
            ring += 1
        return best


def extract_visits_scalar(
    points: Sequence[GpsPoint] | GpsTrace,
    user_id: str,
    config: Optional[VisitConfig] = None,
    poi_index: Optional[GridIndex] = None,
    start_counter: int = 0,
) -> List[Visit]:
    """Oracle for :func:`repro.core.extract_visits` (same signature)."""
    pts = sorted(points, key=lambda p: p.t)
    poi_grid = None if poi_index is None else BucketGrid.of_index(poi_index)
    return _extract_visits_scalar(
        pts, user_id, config or VisitConfig(), poi_grid, start_counter
    )


def _make_visit(
    user_id: str,
    counter: int,
    cx: float,
    cy: float,
    t_start: float,
    t_end: float,
    config: VisitConfig,
    poi_grid: Optional[BucketGrid],
) -> Visit:
    """Emit one visit, annotated through one :meth:`BucketGrid.nearest` call."""
    poi_id = None
    if poi_grid is not None:
        hit = poi_grid.nearest(cx, cy, max_radius=config.annotate_radius_m)
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


def _extract_visits_scalar(
    pts: List[GpsPoint],
    user_id: str,
    config: VisitConfig,
    poi_grid: Optional[BucketGrid],
    start_counter: int = 0,
) -> List[Visit]:
    """Reference kernel: sequential scan over time-sorted points.

    The centroid is the running mean ``sum / count``; the sum
    accumulates one point at a time, which is exactly the order
    ``np.cumsum`` adds in — the parity contract with the production
    kernel.
    """
    visits: List[Visit] = []
    n = len(pts)
    r2 = config.roam_radius_m**2
    i = 0
    counter = start_counter
    while i < n:
        sx, sy = pts[i].x, pts[i].y
        cx, cy = sx, sy
        count = 1
        j = i
        while j + 1 < n:
            nxt = pts[j + 1]
            if nxt.t - pts[j].t > config.max_gap_s:
                break
            if (nxt.x - cx) ** 2 + (nxt.y - cy) ** 2 > r2:
                break
            count += 1
            sx += nxt.x
            sy += nxt.y
            cx = sx / count
            cy = sy / count
            j += 1
        if pts[j].t - pts[i].t >= config.dwell_s:
            visits.append(
                _make_visit(
                    user_id, counter, cx, cy, pts[i].t, pts[j].t, config, poi_grid
                )
            )
            counter += 1
            i = j + 1
        else:
            i += 1
    return visits


def _best_from_candidates(
    checkin: Checkin,
    candidates: Sequence[Tuple[float, Visit]],
    config: MatchConfig,
    exclude: Optional[set] = None,
) -> Optional[Tuple[Visit, float]]:
    """Step 2 for one checkin given its Step-1 candidate set.

    Picks the temporally closest candidate within β (ties broken by
    earlier ``t_start``).
    """
    best: Optional[Tuple[Visit, float]] = None
    for _, visit in candidates:
        if exclude and visit.visit_id in exclude:
            continue
        dt = visit.time_distance(checkin.t)
        if dt > config.beta_s:
            continue
        if best is None or dt < best[1] or (
            dt == best[1] and visit.t_start < best[0].t_start
        ):
            best = (visit, dt)
    return best


def match_user_reference(
    checkins: Sequence[Checkin],
    visits: Sequence[Visit],
    config: Optional[MatchConfig] = None,
    user_id: Optional[str] = None,
    obs=None,
    stats: Optional[MatchStats] = None,
) -> UserMatching:
    """Oracle for :func:`repro.core.match_user` (same signature).

    One user at a time: a grid index over the user's visits, one radius
    query per round for the pending checkins, then a scan of each
    checkin's candidates for the temporally closest within β, with every
    counter bumped per user and per round.
    """
    config = config or MatchConfig()
    if user_id is None:
        if checkins:
            user_id = checkins[0].user_id
        elif visits:
            user_id = visits[0].user_id
        else:
            user_id = "unknown"
    index: GridIndex = GridIndex.from_columns(
        [visit.x for visit in visits],
        [visit.y for visit in visits],
        visits,
        cell_size=max(100.0, config.alpha_m),
    )
    if obs is None:
        obs = obs_current()
    assigned: Dict[str, Tuple[Checkin, Visit]] = {}
    losers: List[Checkin] = []
    pending = list(checkins)
    rounds = 0
    while pending:
        rounds += 1
        candidate_lists = index.within_many(
            [c.x for c in pending], [c.y for c in pending], config.alpha_m
        )
        exclude = set(assigned) if config.rematch_losers else None
        claims: Dict[str, List[Tuple[float, Checkin, Visit]]] = {}
        unmatched: List[Checkin] = []
        for checkin, candidates in zip(pending, candidate_lists):
            if config.rematch_losers:
                best = _best_from_candidates(checkin, candidates, config, exclude)
            else:
                best = _best_from_candidates(checkin, candidates, config)
                if best is not None and best[0].visit_id in assigned:
                    best = None
            if best is None:
                unmatched.append(checkin)
                continue
            visit = best[0]
            geo = euclidean(checkin.x, checkin.y, visit.x, visit.y)
            claims.setdefault(visit.visit_id, []).append((geo, checkin, visit))
        round_losers: List[Checkin] = []
        for contenders in claims.values():
            contenders.sort(key=lambda item: (item[0], item[1].checkin_id))
            _, winner, visit = contenders[0]
            assigned[visit.visit_id] = (winner, visit)
            round_losers.extend(c for _, c, _ in contenders[1:])
        obs.count("matching.tie_losers_total", len(round_losers))
        if stats is not None:
            stats.tie_losers_per_round.append(len(round_losers))
        losers.extend(unmatched)
        if (
            not config.rematch_losers
            or not claims
            or rounds >= config.max_rematch_rounds
        ):
            losers.extend(round_losers)
            break
        pending = round_losers

    if stats is not None:
        stats.rounds = rounds
    obs.count("matching.users_total", 1)
    obs.count("matching.rounds_total", rounds)
    obs.count("matching.rematch_rounds", max(0, rounds - 1))
    obs.observe("matching.rounds_per_user", rounds)
    obs.count("matching.honest_total", len(assigned))
    obs.count("matching.extraneous_total", len(losers))
    matched_visit_ids = set(assigned)
    matches = sorted(assigned.values(), key=lambda pair: pair[0].t)
    missing = [v for v in visits if v.visit_id not in matched_visit_ids]
    obs.count("matching.missing_total", len(missing))
    return UserMatching(
        user_id=user_id,
        matches=matches,
        extraneous=sorted(losers, key=lambda c: c.t),
        missing=sorted(missing, key=lambda v: v.t_start),
    )


def classify_user_extraneous_reference(
    gps: Sequence[GpsPoint] | GpsTrace,
    visits: Sequence[Visit],
    extraneous: Sequence[Checkin],
    config: ClassifyConfig,
) -> List[CheckinType]:
    """Oracle for :func:`repro.core.classify_user_extraneous`.

    One user at a time: a grid index over the user's visits and one
    batched radius query, then :func:`classify_extraneous_checkin` per
    checkin on its candidate list.
    """
    if not extraneous:
        return []
    locator = GpsLocator(gps)
    visit_index: GridIndex = GridIndex.from_columns(
        [visit.x for visit in visits],
        [visit.y for visit in visits],
        visits,
        cell_size=max(100.0, config.alpha_m),
    )
    candidate_lists = visit_index.within_many(
        [c.x for c in extraneous], [c.y for c in extraneous], config.alpha_m
    )
    return [
        classify_extraneous_checkin(checkin, locator, candidates, config)
        for checkin, candidates in zip(extraneous, candidate_lists)
    ]


def match_shard_reference(payload: Tuple) -> Dict[str, UserMatching]:
    """Oracle for the match stage's shard work unit: one user at a time."""
    config, users = payload
    return {
        user_id: match_user_reference(checkins, visits, config, user_id=user_id)
        for user_id, checkins, visits in users
    }


def classify_shard_reference(payload: Tuple) -> Dict[str, List[CheckinType]]:
    """Oracle for the classify stage's shard work unit: one user at a
    time, its counters bumped per user."""
    config, users = payload
    obs = obs_current()
    out: Dict[str, List[CheckinType]] = {}
    for user_id, gps, visits, extraneous in users:
        labels = classify_user_extraneous_reference(gps, visits, extraneous, config)
        for label, n in Counter(labels).items():
            obs.count(f"classify.{label.value}_total", n)
        obs.count("classify.users_total", 1)
        obs.count("classify.extraneous_total", len(labels))
        out[user_id] = labels
    return out


class ReferenceAodvNode(AodvNode):
    """Oracle for the :class:`repro.manet.AodvNode` hot paths.

    Every reception refreshes the 1-hop route to the sender through
    ``RoutingTable.update``, dispatch tests the payload types in
    protocol order, and housekeeping scans the whole duplicate-RREQ
    memory for expired keys.  The protocol handlers are inherited.
    """

    def _note_neighbor(self, neighbor: int, now: float) -> None:
        entry = self.table.get(neighbor)
        seq = entry.dest_seq if entry is not None else 0
        self.table.update(neighbor, neighbor, 1, seq, now)

    def receive(self, payload: Payload, sender: int, now: float) -> None:
        self._note_neighbor(sender, now)
        if isinstance(payload, Rreq):
            self._on_rreq(payload, sender, now)
        elif isinstance(payload, Rrep):
            self._on_rrep(payload, sender, now)
        elif isinstance(payload, Rerr):
            self._on_rerr(payload, sender, now)
        elif isinstance(payload, DataPacket):
            self._on_data(payload, sender, now)
        else:
            raise TypeError(f"unknown payload type: {type(payload)!r}")

    def tick(self, now: float) -> None:
        expired = [
            key for key, seen_at in self._seen_rreqs.items()
            if now - seen_at > self.config.rreq_seen_ttl_s
        ]
        for key in expired:
            del self._seen_rreqs[key]
        for dest in list(self._pending):
            pending = self._pending[dest]
            if self.table.usable(dest, now) is not None:
                self._flush_pending(dest, now)
                continue
            if pending.expires_at > now:
                continue
            if pending.retries < self.config.rreq_retries:
                pending.retries += 1
                pending.expires_at = now + self.config.discovery_timeout_s * (
                    2**pending.retries
                )
                pending.last_ttl = self._next_ttl(pending.last_ttl)
                self._send_rreq(dest, pending.pair_id, pending.last_ttl, now)
            else:
                for packet in pending.packets:
                    self.metrics.data_dropped(packet.flow_id)
                del self._pending[dest]


class ScalarSimulator(Simulator):
    """Oracle for :class:`repro.manet.Simulator`: the reference tick loop.

    Per-node ``position_at`` calls and a freshly filled grid index every
    tick, one ``BucketGrid.within`` query per broadcast, one range check
    per unicast, every reception through ``receive``, and every node's
    housekeeping, outbox and route state scanned every tick, over
    :class:`ReferenceAodvNode` nodes.  Only the nodes and the loop
    differ; construction, traffic origination and the result assembly
    of :meth:`run` are inherited.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.nodes = [
            ReferenceAodvNode(i, self.config, self.metrics)
            for i in range(self.config.n_nodes)
        ]

    def _update_positions(self, now: float) -> BucketGrid:
        index: BucketGrid = BucketGrid(cell_size=self.config.radio_range_m)
        for i, trace in enumerate(self.traces):
            x, y = trace.position_at(now)
            self._positions[i, 0] = x
            self._positions[i, 1] = y
            index.insert(x, y, i)
        return index

    def _in_range(self, a: int, b: int) -> bool:
        dx = self._positions[a, 0] - self._positions[b, 0]
        dy = self._positions[a, 1] - self._positions[b, 1]
        return dx * dx + dy * dy <= self.config.radio_range_m**2

    def _deliver(self, index: BucketGrid, now: float) -> None:
        air, self._air = self._air, []
        for message in air:
            sender = message.sender
            if message.is_broadcast:
                neighbors = index.within(
                    self._positions[sender, 0],
                    self._positions[sender, 1],
                    self.config.radio_range_m,
                )
                for _, node_id in neighbors:
                    if node_id != sender:
                        self.nodes[node_id].receive(message.payload, sender, now)
            else:
                target = message.to
                assert target is not None
                if self._in_range(sender, target):
                    self.nodes[target].receive(message.payload, sender, now)
                else:
                    self.nodes[sender].on_unicast_failed(message.payload, target, now)

    def _emit_traffic(self, tick: int, now: float) -> None:
        period_ticks = max(1, int(round(self.config.cbr_interval_s / self.config.dt_s)))
        for flow_id, (src, dst) in self.pairs.items():
            # Stagger flows so discoveries do not synchronise artificially.
            if (tick + flow_id) % period_ticks != 0:
                continue
            self._emit_packet(flow_id, src, dst, tick, now)

    def _drain_outboxes(self) -> None:
        for node in self.nodes:
            if not node.outbox:
                continue
            for message in node.drain_outbox():
                if isinstance(message.payload, (Rreq, Rrep, Rerr)):
                    self.metrics.count_control(message.payload.pair_id)
                self._air.append(message)

    def _sample_routes(self, now: float) -> None:
        for flow_id, (src, dst) in self.pairs.items():
            route = self.nodes[src].has_route(dst, now)
            previous = self._last_route[flow_id]
            changed = route != previous
            self._last_route[flow_id] = route
            self.metrics.sample_route(flow_id, available=route is not None, changed=changed)

    def _run_scalar(self) -> None:
        config = self.config
        self._positions = np.zeros((config.n_nodes, 2))
        for tick in range(config.n_ticks):
            now = tick * config.dt_s
            index = self._update_positions(now)
            self._deliver(index, now)
            for node in self.nodes:
                node.tick(now)
            self._emit_traffic(tick, now)
            self._drain_outboxes()
            self._sample_routes(now)

    #: The one loop :meth:`Simulator.run` calls.
    _run_ticks = _run_scalar
