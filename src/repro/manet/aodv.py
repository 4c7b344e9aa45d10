"""AODV routing protocol logic (RFC 3561, simplified but faithful).

Each :class:`AodvNode` implements on-demand route discovery (RREQ
flooding with duplicate suppression and TTL), reverse-path RREP
unicasting with intermediate-node replies, precursor-based RERR
propagation on link breaks, per-destination packet buffering with
discovery retries, and sequence-number freshness rules.

Nodes communicate only through an outbox of :class:`Outgoing` messages;
the engine delivers them one hop per tick and reports unicast failures
back via :meth:`AodvNode.on_unicast_failed` (the missing-MAC-ACK signal
AODV uses for link-break detection).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from .config import ManetConfig
from .metrics import MetricsCollector
from .packets import DataPacket, Rerr, Rrep, Rreq
from .routing import RoutingTable

Payload = Union[Rreq, Rrep, Rerr, DataPacket]


class Outgoing:
    """One queued transmission: broadcast (to is None) or unicast.

    A plain slotted record: one is built per transmission, so it skips
    the dataclass ``__init__``/``__setattr__`` machinery.
    """

    __slots__ = ("sender", "to", "payload")

    def __init__(self, sender: int, to: Optional[int], payload: Payload) -> None:
        self.sender = sender
        self.to = to
        self.payload = payload

    @property
    def is_broadcast(self) -> bool:
        """True for broadcasts."""
        return self.to is None


@dataclass
class _PendingDiscovery:
    """State of an in-flight route discovery at the originator."""

    dest: int
    pair_id: Optional[int]
    retries: int
    expires_at: float
    #: TTL of the most recent RREQ (escalated by expanding-ring search).
    last_ttl: int = 0
    packets: List[DataPacket] = field(default_factory=list)


class AodvNode:
    """One mobile node running AODV."""

    def __init__(self, node_id: int, config: ManetConfig, metrics: MetricsCollector) -> None:
        self.node_id = node_id
        self.config = config
        self.metrics = metrics
        self.table = RoutingTable(node_id, config.active_route_timeout_s)
        self.seq = 0
        self._rreq_id = 0
        self._seen_rreqs: Dict[tuple, float] = {}
        self._pending: Dict[int, _PendingDiscovery] = {}
        self.outbox: List[Outgoing] = []

    # -- engine interface ------------------------------------------------------

    @property
    def has_work(self) -> bool:
        """True when :meth:`tick` housekeeping has any state to examine.

        With no duplicate-RREQ memory and no pending discoveries a tick
        is a no-op; the engine uses this to skip the call.
        """
        return bool(self._seen_rreqs or self._pending)

    def drain_outbox(self) -> List[Outgoing]:
        """Hand the queued transmissions to the engine and reset the box.

        The engine drains every node once per tick; swapping the list
        out (instead of copying and clearing) keeps the batch path
        allocation-light.
        """
        out, self.outbox = self.outbox, []
        return out

    # -- helpers -------------------------------------------------------------

    def _note_neighbor(self, neighbor: int, now: float) -> None:
        """Install/refresh the trivial 1-hop route to a heard neighbor."""
        table = self.table
        if table.has_link(neighbor, now):
            return  # the update rules would reject the advert
        entry = table.get(neighbor)
        seq = entry.dest_seq if entry is not None else 0
        table.update(neighbor, neighbor, 1, seq, now)

    def _unicast(self, to: int, payload: Payload) -> None:
        self.outbox.append(Outgoing(sender=self.node_id, to=to, payload=payload))

    def _broadcast(self, payload: Payload) -> None:
        self.outbox.append(Outgoing(sender=self.node_id, to=None, payload=payload))

    def has_route(self, dest: int, now: float) -> Optional[tuple]:
        """(next_hop, hop_count) of a usable route to ``dest``, or None."""
        entry = self.table.usable(dest, now)
        if entry is None:
            return None
        return entry.next_hop, entry.hop_count

    # -- data plane ----------------------------------------------------------

    def originate_data(self, packet: DataPacket, now: float) -> None:
        """Source-side entry point for a CBR packet."""
        entry = self.table.usable(packet.dst, now)
        if entry is not None:
            self._forward_data(packet, entry.next_hop, now)
            return
        self._buffer_and_discover(packet, now)

    def _buffer_and_discover(self, packet: DataPacket, now: float) -> None:
        pending = self._pending.get(packet.dst)
        if pending is None:
            pending = _PendingDiscovery(
                dest=packet.dst,
                pair_id=packet.flow_id,
                retries=0,
                expires_at=now + self.config.discovery_timeout_s,
            )
            self._pending[packet.dst] = pending
            pending.last_ttl = self._initial_ttl()
            self._send_rreq(packet.dst, pending.pair_id, pending.last_ttl, now)
        if len(pending.packets) >= self.config.buffer_limit:
            self.metrics.data_dropped(packet.flow_id)
            return
        pending.packets.append(packet)

    def _forward_data(self, packet: DataPacket, next_hop: int, now: float) -> None:
        packet.hop_count += 1
        self.table.refresh(packet.dst, now)
        self.table.refresh(next_hop, now)
        self._unicast(next_hop, packet)

    # -- control plane -------------------------------------------------------

    def _initial_ttl(self) -> int:
        """First-flood TTL: small ring when expanding-ring search is on."""
        if self.config.expanding_ring:
            return min(self.config.ring_start_ttl, self.config.rreq_ttl)
        return self.config.rreq_ttl

    def _next_ttl(self, last_ttl: int) -> int:
        """Escalated TTL for a retry flood."""
        if self.config.expanding_ring:
            return min(self.config.rreq_ttl, max(last_ttl * 2, last_ttl + 2))
        return self.config.rreq_ttl

    def _send_rreq(
        self, dest: int, pair_id: Optional[int], ttl: Optional[int], now: float
    ) -> None:
        self.seq += 1
        self._rreq_id += 1
        known = self.table.get(dest)
        rreq = Rreq(
            origin=self.node_id,
            origin_seq=self.seq,
            rreq_id=self._rreq_id,
            dest=dest,
            dest_seq=known.dest_seq if known is not None else 0,
            hop_count=0,
            ttl=self.config.rreq_ttl if ttl is None else ttl,
            pair_id=pair_id,
        )
        # Suppress our own flood echo.  Recorded at the real send time:
        # a timestamp of 0.0 would be purged once now > rreq_seen_ttl_s,
        # after which the originator would re-process its own returning
        # RREQ — rebroadcasting it and installing a bogus reverse route
        # to itself.
        self._seen_rreqs[rreq.key()] = now
        self._broadcast(rreq)

    def tick(self, now: float) -> None:
        """Per-tick housekeeping: discovery timeouts and cache expiry."""
        # Keys are only ever inserted (never re-stamped) at the current
        # time, so the dict is ordered by non-decreasing timestamp and
        # the expired keys are a prefix of it.
        seen = self._seen_rreqs
        ttl = self.config.rreq_seen_ttl_s
        expired = []
        for key, seen_at in seen.items():
            if now - seen_at <= ttl:
                break
            expired.append(key)
        for key in expired:
            del seen[key]
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

    def _flush_pending(self, dest: int, now: float) -> None:
        pending = self._pending.pop(dest, None)
        if pending is None:
            return
        entry = self.table.usable(dest, now)
        for packet in pending.packets:
            if entry is None:
                self.metrics.data_dropped(packet.flow_id)
            else:
                self._forward_data(packet, entry.next_hop, now)

    # -- receive handlers ------------------------------------------------------

    def receive(self, payload: Payload, sender: int, now: float) -> None:
        """Dispatch one received message."""
        self._note_neighbor(sender, now)
        # Most frequent first: data packets, then (non-duplicate) floods.
        if isinstance(payload, DataPacket):
            self._on_data(payload, sender, now)
        elif isinstance(payload, Rreq):
            self._on_rreq(payload, sender, now)
        elif isinstance(payload, Rrep):
            self._on_rrep(payload, sender, now)
        elif isinstance(payload, Rerr):
            self._on_rerr(payload, sender, now)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown payload type: {type(payload)!r}")

    def _on_rreq(self, rreq: Rreq, sender: int, now: float) -> None:
        if rreq.key() in self._seen_rreqs:
            return
        self._seen_rreqs[rreq.key()] = now
        # Reverse route to the originator.
        self.table.update(rreq.origin, sender, rreq.hop_count + 1, rreq.origin_seq, now)
        if rreq.dest == self.node_id:
            self.seq = max(self.seq, rreq.dest_seq) + 1
            self._unicast(
                sender,
                Rrep(
                    dest=self.node_id,
                    dest_seq=self.seq,
                    origin=rreq.origin,
                    hop_count=0,
                    pair_id=rreq.pair_id,
                ),
            )
            return
        entry = self.table.usable(rreq.dest, now)
        if entry is not None and entry.dest_seq >= rreq.dest_seq and entry.dest_seq > 0:
            # Intermediate reply from a fresh cached route.
            self.table.add_precursor(rreq.dest, sender)
            self._unicast(
                sender,
                Rrep(
                    dest=rreq.dest,
                    dest_seq=entry.dest_seq,
                    origin=rreq.origin,
                    hop_count=entry.hop_count,
                    pair_id=rreq.pair_id,
                ),
            )
            return
        if rreq.ttl > 0:
            self._broadcast(rreq.forwarded())

    def _on_rrep(self, rrep: Rrep, sender: int, now: float) -> None:
        # Forward route to the replied destination.
        self.table.update(rrep.dest, sender, rrep.hop_count + 1, rrep.dest_seq, now)
        if rrep.origin == self.node_id:
            self._flush_pending(rrep.dest, now)
            return
        back = self.table.usable(rrep.origin, now)
        if back is None:
            return  # reverse path evaporated; originator will retry
        self.table.add_precursor(rrep.dest, back.next_hop)
        self.table.add_precursor(rrep.origin, sender)
        self._unicast(back.next_hop, rrep.forwarded())

    def _on_rerr(self, rerr: Rerr, sender: int, now: float) -> None:
        invalidated: Dict[int, int] = {}
        precursors: set = set()
        for dest, seq in rerr.unreachable.items():
            entry = self.table.get(dest)
            if entry is not None and entry.valid and entry.next_hop == sender:
                entry.valid = False
                entry.dest_seq = max(entry.dest_seq, seq)
                invalidated[dest] = entry.dest_seq
                precursors |= entry.precursors
        if invalidated and precursors:
            self._broadcast(Rerr(unreachable=invalidated, pair_id=rerr.pair_id))

    def _on_data(self, packet: DataPacket, sender: int, now: float) -> None:
        if packet.dst == self.node_id:
            self.metrics.data_delivered(packet.flow_id, packet.hop_count)
            return
        self.table.add_precursor(packet.dst, sender)
        entry = self.table.usable(packet.dst, now)
        if entry is None:
            self.metrics.data_dropped(packet.flow_id)
            broken = self.table.invalidate(packet.dst)
            seq = broken.dest_seq if broken is not None else 0
            self._unicast(
                sender, Rerr(unreachable={packet.dst: seq}, pair_id=packet.flow_id)
            )
            return
        self._forward_data(packet, entry.next_hop, now)

    # -- link-layer feedback ----------------------------------------------------

    def on_unicast_failed(self, payload: Payload, next_hop: int, now: float) -> None:
        """The engine could not deliver a unicast: the link broke."""
        pair_id = getattr(payload, "pair_id", None)
        if isinstance(payload, DataPacket):
            pair_id = payload.flow_id
        broken = self.table.invalidate_via(next_hop)
        if broken:
            self._broadcast(Rerr(unreachable=broken, pair_id=pair_id))
        if isinstance(payload, DataPacket):
            if payload.src == self.node_id:
                # Sources re-buffer and rediscover; relays drop.
                self._buffer_and_discover(payload, now)
            else:
                self.metrics.data_dropped(payload.flow_id)
