"""AODV control and data packet types.

Field names follow RFC 3561 vocabulary.  Every control packet carries an
optional ``pair_id`` tying it to the traffic flow whose route need
created it, so the routing-overhead metric (Figure 8c: route packets per
data packet, per flow) can attribute flooding cost to flows.

``Rreq`` and ``Rrep`` are immutable named tuples: a flood builds one
forwarded copy per rebroadcast, and a tuple is several times cheaper to
build than a frozen dataclass.  ``DataPacket`` stays mutable (relays
bump its hop count in place) and ``Rerr`` is rare.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, NamedTuple, Optional


class Rreq(NamedTuple):
    """Route request, flooded hop by hop."""

    origin: int
    origin_seq: int
    rreq_id: int
    dest: int
    dest_seq: int
    hop_count: int
    ttl: int
    pair_id: Optional[int] = None

    def key(self) -> tuple:
        """Duplicate-suppression key (origin, rreq_id)."""
        return (self.origin, self.rreq_id)

    def forwarded(self) -> "Rreq":
        """Copy for rebroadcast: one more hop, one less TTL."""
        origin, origin_seq, rreq_id, dest, dest_seq, hop_count, ttl, pair_id = self
        return Rreq(
            origin, origin_seq, rreq_id, dest, dest_seq, hop_count + 1, ttl - 1, pair_id
        )


class Rrep(NamedTuple):
    """Route reply, unicast back along the reverse path."""

    #: The destination the route leads to.
    dest: int
    dest_seq: int
    #: The node that originated the RREQ (where this RREP is heading).
    origin: int
    hop_count: int
    pair_id: Optional[int] = None

    def forwarded(self) -> "Rrep":
        """Copy for the next reverse-path hop."""
        dest, dest_seq, origin, hop_count, pair_id = self
        return Rrep(dest, dest_seq, origin, hop_count + 1, pair_id)


@dataclass(frozen=True)
class Rerr:
    """Route error: destinations now unreachable via the sender."""

    #: Unreachable destination -> last known sequence number.
    unreachable: Dict[int, int] = field(default_factory=dict)
    pair_id: Optional[int] = None


@dataclass
class DataPacket:
    """One CBR payload packet."""

    flow_id: int
    src: int
    dst: int
    seq: int
    created_tick: int
    hop_count: int = 0
