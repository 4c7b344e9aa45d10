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

Delivery dispatches the two common receptions without ``receive``.
Most receptions in a flood-heavy network are RREQs: the engine applies
the neighbour note (skipped when the receiver already holds a usable
1-hop route to the sender), then drops a duplicate — a flood key in the
receiver's live duplicate memory — on the spot and hands a first copy
straight to ``_on_rreq``.  A data packet unicast in range is delivered
or relayed in the loop itself: precursor add, hop count, both route
lifetime refreshes and the outgoing unicast.  Only a packet with no
usable onward route falls back to ``_on_data``, which keeps the drop
and RERR logic.  The protocol's own receive chain stays on
:class:`~repro.manet.aodv.AodvNode` for every other payload.

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
from .packets import DataPacket, Rreq

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
        air) is identical.  Every fast path below reads the receiver's
        live state at dispatch time — its routing table, its
        ``_seen_rreqs`` — so a route or flood key changed earlier in the
        same tick is judged exactly as ``receive`` would judge it.
        """
        air, self._air = self._air, []
        if not air:
            return
        nodes = self.nodes
        entries_of = self._entries_of
        seen_of = self._seen_of
        lifetime = now + self.config.active_route_timeout_s
        data_delivered = self.metrics.data_delivered
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
                if not next(in_range):
                    nodes[sender].on_unicast_failed(payload, to, now)
                    touched.add(sender)
                    continue
                touched.add(to)
                if type(payload) is not DataPacket:
                    nodes[to].receive(payload, sender, now)
                    continue
                # receive -> _on_data -> _forward_data, inlined for the
                # common outcomes: the 1-hop route to the sender is
                # already fresh, and the packet is delivered or relayed
                # over a usable route.
                entries = entries_of[to]
                link = entries.get(sender)
                if (
                    link is None
                    or link.hop_count > 1
                    or not link.valid
                    or link.expires_at <= now
                ):
                    nodes[to]._note_neighbor(sender, now)
                dst = payload.dst
                if dst == to:
                    data_delivered(payload.flow_id, payload.hop_count)
                    continue
                route = entries.get(dst)
                if route is None or not route.valid or route.expires_at <= now:
                    # Drop + RERR (and the precursor add on an unusable
                    # entry) stay in the handler.
                    nodes[to]._on_data(payload, sender, now)
                    continue
                route.precursors.add(sender)
                payload.hop_count += 1
                if lifetime > route.expires_at:
                    route.expires_at = lifetime
                next_hop = route.next_hop
                hop = entries.get(next_hop)
                if hop is not None and hop.valid and lifetime > hop.expires_at:
                    hop.expires_at = lifetime
                nodes[to].outbox.append(Outgoing(to, next_hop, payload))
                continue
            receivers = next(hoods)
            if type(payload) is Rreq:
                # receive -> _on_rreq with the neighbour note inlined; a
                # duplicate stops after the note, with no outbox change,
                # and a node holding flood keys is already in the busy set.
                key = payload.key()
                for node_id in receivers:
                    link = entries_of[node_id].get(sender)
                    if (
                        link is None
                        or link.hop_count > 1
                        or not link.valid
                        or link.expires_at <= now
                    ):
                        nodes[node_id]._note_neighbor(sender, now)
                    if key not in seen_of[node_id]:
                        nodes[node_id]._on_rreq(payload, sender, now)
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
        count_control = self.metrics.count_control
        air = self._air
        nodes = self.nodes
        for node_id in sorted(touched):
            node = nodes[node_id]
            if not node.outbox:
                continue
            out = node.drain_outbox()
            for message in out:
                payload = message.payload
                if type(payload) is not DataPacket:
                    count_control(payload.pair_id)
            air += out

    def _run_ticks(self) -> None:
        """The simulation's tick loop, every phase for every tick."""
        config = self.config
        n_nodes = config.n_nodes
        dt = config.dt_s
        nodes = self.nodes
        # Per-node protocol state the delivery fast paths and the
        # housekeeping test read directly.  Built here rather than in
        # __init__ because a subclass may replace ``self.nodes``; none of
        # these containers is ever rebound by a node.
        self._entries_of = [node.table._entries for node in nodes]
        self._seen_of = seen_of = [node._seen_rreqs for node in nodes]
        pending_of = [node._pending for node in nodes]
        period_ticks = max(1, int(round(config.cbr_interval_s / dt)))
        # Flows bucketed by firing phase: tick t emits exactly the flows
        # with (t + flow_id) % period == 0 — i.e. those whose phase
        # (-flow_id) % period equals t % period — in pairs order.
        schedule: List[List[Tuple[int, int, int]]] = [[] for _ in range(period_ticks)]
        for flow_id, (src, dst) in self.pairs.items():
            schedule[(-flow_id) % period_ticks].append((flow_id, src, dst))
        flows = self.metrics.flows
        flow_items = [(f, s, d, flows[f]) for f, (s, d) in self.pairs.items()]
        last_route = self._last_route
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
            # node-id order like a full scan (the test is ``has_work``).
            busy |= touched
            for node_id in sorted(busy):
                if seen_of[node_id] or pending_of[node_id]:
                    nodes[node_id].tick(now)
                    touched.add(node_id)
                else:
                    busy.discard(node_id)
            # (4) Traffic emission straight from the phase schedule.
            for flow_id, src, dst in schedule[tick % period_ticks]:
                self._emit_packet(flow_id, src, dst, tick, now)
                touched.add(src)
                busy.add(src)
            self._drain_touched(touched)
            # (5) Route sampling: one pass over the prebuilt flow list,
            # counting what ``MetricsCollector.sample_route`` counts.
            for flow_id, src, dst, stats in flow_items:
                route = nodes[src].has_route(dst, now)
                if route != last_route[flow_id]:
                    stats.route_changes += 1
                last_route[flow_id] = route
                stats.availability_samples += 1
                if route is not None:
                    stats.availability_hits += 1

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
