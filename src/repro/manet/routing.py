"""AODV routing table with sequence numbers, lifetimes and precursors."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Set


@dataclass
class RouteEntry:
    """One routing-table row (RFC 3561 §2)."""

    dest: int
    next_hop: int
    hop_count: int
    dest_seq: int
    expires_at: float
    valid: bool = True
    #: Upstream nodes using this route; notified via RERR on breakage.
    precursors: Set[int] = field(default_factory=set)

    def is_usable(self, now: float) -> bool:
        """Valid and not expired."""
        return self.valid and self.expires_at > now


class RoutingTable:
    """Per-node collection of route entries."""

    def __init__(self, owner: int, active_route_timeout: float) -> None:
        if active_route_timeout <= 0:
            raise ValueError("active_route_timeout must be positive")
        self.owner = owner
        self.active_route_timeout = active_route_timeout
        self._entries: Dict[int, RouteEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[RouteEntry]:
        return iter(self._entries.values())

    def get(self, dest: int) -> Optional[RouteEntry]:
        """The entry for ``dest`` regardless of validity, or None."""
        return self._entries.get(dest)

    def usable(self, dest: int, now: float) -> Optional[RouteEntry]:
        """The entry for ``dest`` if currently usable, else None."""
        entry = self._entries.get(dest)
        if entry is not None and entry.is_usable(now):
            return entry
        return None

    def has_link(self, neighbor: int, now: float) -> bool:
        """True when a usable route of at most one hop to ``neighbor``
        exists: hearing the neighbour again would change nothing, since
        its trivial 1-hop advert is neither fresher nor shorter.  Run on
        every reception's neighbour note, so ``is_usable`` is inlined;
        the engine's delivery fast paths inline this same test."""
        entry = self._entries.get(neighbor)
        return (
            entry is not None
            and entry.hop_count <= 1
            and entry.valid
            and entry.expires_at > now
        )

    def refresh(self, dest: int, now: float) -> None:
        """Extend the lifetime of an active route that just carried traffic."""
        entry = self._entries.get(dest)
        if entry is not None and entry.valid:
            entry.expires_at = max(entry.expires_at, now + self.active_route_timeout)

    def update(
        self,
        dest: int,
        next_hop: int,
        hop_count: int,
        dest_seq: int,
        now: float,
    ) -> bool:
        """Install or improve a route (RFC 3561 §6.2 update rules).

        A new route wins when its sequence number is fresher, or equal
        with a shorter hop count, or when the existing entry is unusable
        and the advert is at least as fresh as the entry's (possibly
        invalidation-bumped) sequence number.  An advert *older* than an
        invalidated entry's sequence must not resurrect it: the bump
        exists precisely to fence off pre-breakage state, and accepting
        the stale next hop under the newer number enables routing loops.
        Accepted adverts are recorded under their own sequence number —
        never a higher one the route was not learned under.
        Returns True when the table changed.
        """
        entry = self._entries.get(dest)
        expires = now + self.active_route_timeout
        if entry is None:
            self._entries[dest] = RouteEntry(
                dest=dest,
                next_hop=next_hop,
                hop_count=hop_count,
                dest_seq=dest_seq,
                expires_at=expires,
            )
            return True
        better = (
            dest_seq > entry.dest_seq
            or (dest_seq == entry.dest_seq and hop_count < entry.hop_count)
            or (not entry.is_usable(now) and dest_seq >= entry.dest_seq)
        )
        if not better:
            return False
        entry.next_hop = next_hop
        entry.hop_count = hop_count
        entry.dest_seq = dest_seq
        entry.expires_at = expires
        entry.valid = True
        return True

    def invalidate(self, dest: int) -> Optional[RouteEntry]:
        """Mark a route invalid, bump its sequence number; return the entry."""
        entry = self._entries.get(dest)
        if entry is None or not entry.valid:
            return None
        entry.valid = False
        entry.dest_seq += 1
        return entry

    def invalidate_via(self, next_hop: int) -> Dict[int, int]:
        """Invalidate every route using ``next_hop``; return {dest: new seq}."""
        broken: Dict[int, int] = {}
        for entry in self._entries.values():
            if entry.valid and entry.next_hop == next_hop:
                entry.valid = False
                entry.dest_seq += 1
                broken[entry.dest] = entry.dest_seq
        return broken

    def add_precursor(self, dest: int, node: int) -> None:
        """Record that ``node`` routes through us towards ``dest``."""
        entry = self._entries.get(dest)
        if entry is not None:
            entry.precursors.add(node)
