"""Discrete-time MANET simulation engine.

Each tick the engine (1) moves nodes along their mobility traces,
(2) delivers the previous tick's transmissions — broadcasts reach all
current neighbours, unicasts fail (with sender feedback) when the target
moved out of range, (3) runs per-node housekeeping, (4) lets CBR flows
emit packets, (5) drains node outboxes into the next tick's air, and
(6) samples every flow's route state for the availability and
route-change metrics.

The tick is columnar.  Node positions are interpolated in blocks of
ticks (one ``positions_at`` call per node per block); all of a tick's
broadcast neighbourhoods come from one (broadcasts x nodes) distance
pass, in row blocks so memory stays bounded at any node count
(:func:`repro.geo.grid.pairs_within`), and all unicast range checks
from one NumPy distance pass; and housekeeping/outbox draining only
touch nodes with protocol state.

Most receptions in a flood-heavy network are duplicate RREQs: a node
that already holds the flood key ``(origin, rreq_id)`` drops the
request after refreshing its 1-hop route to the sender, and usually
that route is already fresh.  Delivery tests the key against the
receiver's live duplicate memory before dispatch and, for a duplicate,
applies only the route refresh (skipping it when the receiver already
holds a usable 1-hop route) instead of calling ``receive``.

Per-message delivery still walks the air in order, so per-node receive
sequences — and therefore results — are byte-identical to a plain
per-node, per-message loop (the parity oracle in ``tests/oracles.py``,
which also keeps its own reference node hot paths).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..geo.grid import pairs_within, split_rows
from ..levy import NodeTrace
from ..obs import current as obs_current
from .aodv import AodvNode, Outgoing
from .config import ManetConfig
from .metrics import ManetResults, MetricsCollector
from .packets import DataPacket, Rerr, Rrep, Rreq

#: Ticks of node positions interpolated per block.  Bounds the position
#: buffer at ``2 * 8 * n_nodes * _POSITION_BLOCK_TICKS`` bytes (8 MB at
#: 1000 nodes) while amortising interpolation overhead.
_POSITION_BLOCK_TICKS = 512


def make_cbr_pairs(
    n_nodes: int, n_pairs: int, rng: np.random.Generator
) -> Dict[int, Tuple[int, int]]:
    """Random distinct (src, dst) pairs, keyed by flow id.

    Raises ``ValueError`` when more pairs are requested than distinct
    ordered (src, dst) combinations exist — the rejection-sampling loop
    below could never terminate otherwise.
    """
    if n_nodes < 2:
        raise ValueError(f"need at least 2 nodes to form pairs, got {n_nodes}")
    if n_pairs > n_nodes * (n_nodes - 1):
        raise ValueError(
            f"{n_pairs} pairs requested but only {n_nodes * (n_nodes - 1)} "
            f"distinct (src, dst) combinations exist for {n_nodes} nodes"
        )
    pairs: Dict[int, Tuple[int, int]] = {}
    used = set()
    flow_id = 0
    while len(pairs) < n_pairs:
        src = int(rng.integers(n_nodes))
        dst = int(rng.integers(n_nodes))
        if src == dst or (src, dst) in used:
            continue
        used.add((src, dst))
        pairs[flow_id] = (src, dst)
        flow_id += 1
    return pairs


class Simulator:
    """One MANET simulation run over fixed node mobility traces."""

    def __init__(
        self,
        config: ManetConfig,
        traces: Sequence[NodeTrace],
        name: str = "manet",
        pairs: Optional[Dict[int, Tuple[int, int]]] = None,
    ) -> None:
        if len(traces) != config.n_nodes:
            raise ValueError(
                f"expected {config.n_nodes} node traces, got {len(traces)}"
            )
        self.config = config
        self.traces = list(traces)
        self.name = name
        rng = np.random.default_rng(config.seed)
        self.pairs = pairs if pairs is not None else make_cbr_pairs(
            config.n_nodes, config.n_pairs, rng
        )
        self.metrics = MetricsCollector(self.pairs)
        self.nodes: List[AodvNode] = [
            AodvNode(i, config, self.metrics) for i in range(config.n_nodes)
        ]
        self._air: List[Outgoing] = []
        self._last_route: Dict[int, Optional[tuple]] = {f: None for f in self.pairs}
        self._data_seq: Dict[int, int] = {f: 0 for f in self.pairs}

    def _emit_packet(self, flow_id: int, src: int, dst: int, tick: int, now: float) -> None:
        self._data_seq[flow_id] += 1
        packet = DataPacket(
            flow_id=flow_id,
            src=src,
            dst=dst,
            seq=self._data_seq[flow_id],
            created_tick=tick,
        )
        self.metrics.data_sent(flow_id)
        self.nodes[src].originate_data(packet, now)

    # -- per-tick phases ------------------------------------------------------

    def _neighborhoods(
        self, xs: np.ndarray, ys: np.ndarray, senders: List[int]
    ) -> List[List[int]]:
        """Receivers of each broadcast, in node-id order, sender excluded.

        One (broadcasts x nodes) distance pass for the whole tick, with
        the arithmetic of a per-sender radius query, so the hit sets are
        bit-identical to querying each broadcast on its own.
        """
        sidx = np.fromiter(senders, dtype=np.intp, count=len(senders))
        rows, hit, _ = pairs_within(
            xs, ys, xs[sidx], ys[sidx], self.config.radio_range_m
        )
        keep = hit != sidx[rows]
        return split_rows(hit[keep].tolist(), rows[keep], sidx.size)

    def _deliver_vectorized(
        self, xs: np.ndarray, ys: np.ndarray, now: float, touched: Set[int]
    ) -> None:
        """Batched delivery: precompute all neighbourhoods and range
        checks for the tick's air, then dispatch in air order.

        The in-order dispatch is what preserves parity: a node receiving
        from message *k* and then message *k + 1* sees the same sequence
        as under a per-message loop, so its outbox (and the next tick's
        air) is identical.  The duplicate-RREQ test reads the receiver's
        live ``_seen_rreqs`` at dispatch time, so a key first heard
        earlier in the same tick, or dropped by expiry, is judged exactly
        as ``receive`` would judge it.
        """
        air, self._air = self._air, []
        if not air:
            return
        nodes = self.nodes
        senders = [m.sender for m in air if m.to is None]
        hoods = iter(self._neighborhoods(xs, ys, senders) if senders else ())
        unicast = [m for m in air if m.to is not None]
        in_range = iter(())
        if unicast:
            n = len(unicast)
            sidx = np.fromiter((m.sender for m in unicast), dtype=np.intp, count=n)
            tidx = np.fromiter((m.to for m in unicast), dtype=np.intp, count=n)
            dx = xs[sidx] - xs[tidx]
            dy = ys[sidx] - ys[tidx]
            ok = (dx * dx + dy * dy) <= self.config.radio_range_m**2
            in_range = iter(ok.tolist())
        for message in air:
            sender = message.sender
            payload = message.payload
            to = message.to
            if to is not None:
                if next(in_range):
                    nodes[to].receive(payload, sender, now)
                    touched.add(to)
                else:
                    nodes[sender].on_unicast_failed(payload, to, now)
                    touched.add(sender)
                continue
            receivers = next(hoods)
            if isinstance(payload, Rreq):
                key = payload.key()
                for node_id in receivers:
                    node = nodes[node_id]
                    if key in node._seen_rreqs:
                        # A duplicate: receive would only note the
                        # sender.  No outbox change, and a node holding
                        # flood keys is already in the busy set.
                        if not node.table.has_link(sender, now):
                            node._note_neighbor(sender, now)
                    else:
                        node.receive(payload, sender, now)
                        touched.add(node_id)
            else:
                for node_id in receivers:
                    nodes[node_id].receive(payload, sender, now)
                    touched.add(node_id)

    def _drain_touched(self, touched: Set[int]) -> None:
        """Drain outboxes of the tick's active nodes, in node-id order.

        Every outbox-filling path (delivery, failed-unicast feedback,
        housekeeping retries, traffic origination) records the node in
        ``touched``, and the previous tick left all outboxes empty — so
        the sorted walk visits exactly the nodes a full scan of all nodes
        would find non-empty, in the same order.
        """
        metrics = self.metrics
        air = self._air
        for node_id in sorted(touched):
            node = self.nodes[node_id]
            if not node.outbox:
                continue
            for message in node.drain_outbox():
                if isinstance(message.payload, (Rreq, Rrep, Rerr)):
                    metrics.count_control(message.payload.pair_id)
                air.append(message)

    def _run_ticks(self) -> None:
        """The simulation's tick loop, every phase for every tick."""
        config = self.config
        n_nodes = config.n_nodes
        dt = config.dt_s
        nodes = self.nodes
        period_ticks = max(1, int(round(config.cbr_interval_s / dt)))
        # Flows bucketed by firing phase: tick t emits exactly the flows
        # with (t + flow_id) % period == 0 — i.e. those whose phase
        # (-flow_id) % period equals t % period — in pairs order.
        schedule: List[List[Tuple[int, int, int]]] = [[] for _ in range(period_ticks)]
        for flow_id, (src, dst) in self.pairs.items():
            schedule[(-flow_id) % period_ticks].append((flow_id, src, dst))
        flow_items = [(f, s, d) for f, (s, d) in self.pairs.items()]
        last_route = self._last_route
        sample_route = self.metrics.sample_route
        # Nodes that may have housekeeping state (pending discoveries or
        # duplicate-RREQ memory).  Protocol state only appears through
        # engine-visible events — a receive, a failed unicast, or a
        # traffic origination — so the set grows exactly at those points
        # and a node drops out once its state drains.  Everyone else's
        # tick() is a no-op that a full scan would perform and this skips.
        busy: Set[int] = set()
        block_x = block_y = None
        block_start = block_end = 0
        for tick in range(config.n_ticks):
            now = tick * dt
            # (1) Columnar position update: one positions_at call per
            # node per block of ticks, sliced per tick.
            if tick >= block_end:
                block_start = tick
                block_end = min(tick + _POSITION_BLOCK_TICKS, config.n_ticks)
                ts = np.arange(block_start, block_end, dtype=np.float64) * dt
                block_x = np.empty((block_end - block_start, n_nodes))
                block_y = np.empty_like(block_x)
                for i, trace in enumerate(self.traces):
                    block_x[:, i], block_y[:, i] = trace.positions_at(ts)
            row = tick - block_start
            xs = block_x[row]
            ys = block_y[row]
            touched: Set[int] = set()
            # (2)+(3) Batched delivery over the tick's air.
            self._deliver_vectorized(xs, ys, now, touched)
            # Housekeeping over nodes that may hold protocol state, in
            # node-id order like a full scan.
            busy |= touched
            for node_id in sorted(busy):
                node = nodes[node_id]
                if node.has_work:
                    node.tick(now)
                    touched.add(node_id)
                else:
                    busy.discard(node_id)
            # (4) Traffic emission straight from the phase schedule.
            for flow_id, src, dst in schedule[tick % period_ticks]:
                self._emit_packet(flow_id, src, dst, tick, now)
                touched.add(src)
                busy.add(src)
            self._drain_touched(touched)
            # (5) Route sampling: one pass over the prebuilt flow list.
            for flow_id, src, dst in flow_items:
                route = nodes[src].has_route(dst, now)
                changed = route != last_route[flow_id]
                last_route[flow_id] = route
                sample_route(flow_id, available=route is not None, changed=changed)

    # -- main loop ------------------------------------------------------------

    def run(self) -> ManetResults:
        """Run the simulation to completion and return per-flow metrics."""
        config = self.config
        obs = obs_current()
        with obs.span(
            "manet.run",
            sim=self.name,
            nodes=config.n_nodes,
            pairs=len(self.pairs),
            ticks=config.n_ticks,
        ):
            self._run_ticks()
        obs.count("manet.runs_total", 1)
        obs.count("manet.ticks_total", config.n_ticks)
        obs.count("manet.control_packets_total", self.metrics.total_control)
        self.metrics.duration_s = config.duration_s
        return ManetResults(
            name=self.name,
            flows=list(self.metrics.flows.values()),
            duration_s=config.duration_s,
            total_control=self.metrics.total_control,
            unattributed_control=self.metrics.unattributed_control,
        )
