"""MANET simulation parameters.

Defaults follow the paper's Section 6.2 setup: 200 mobile nodes in a
100 km × 100 km area, 1 km communication range, 100 random CBR pairs.
That arena is extremely sparse (mean node degree ≈ 0.06), which is part
of why the paper's availability numbers are low; the benches use a
denser scaled configuration (see ``bench_config``) so multi-hop routing
actually exercises, while the full-scale runner keeps the paper's
numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from ..geo import units


@dataclass(frozen=True)
class ManetConfig:
    """All simulator knobs."""

    #: Number of mobile nodes.
    n_nodes: int = 200
    #: Square arena edge, metres.
    arena_m: float = units.km(100)
    #: Radio range, metres.
    radio_range_m: float = units.km(1)
    #: Number of random CBR source/destination pairs.
    n_pairs: int = 100
    #: Simulated duration, seconds.
    duration_s: float = units.hours(1)
    #: Simulation tick, seconds.
    dt_s: float = 1.0
    #: CBR packet period per flow, seconds.
    cbr_interval_s: float = 5.0
    #: AODV active route timeout, seconds.
    active_route_timeout_s: float = 100.0
    #: RREQ flood TTL (hops).
    rreq_ttl: int = 30
    #: Route discovery retries before buffered packets are dropped.
    rreq_retries: int = 2
    #: Timeout waiting for an RREP, seconds.
    discovery_timeout_s: float = 6.0
    #: Duplicate-RREQ memory, seconds.
    rreq_seen_ttl_s: float = 30.0
    #: Max data packets buffered per destination awaiting a route.
    buffer_limit: int = 32
    #: Use expanding-ring search: start RREQ floods with a small TTL and
    #: escalate on retry (RFC 3561 §6.4) instead of network-wide floods.
    expanding_ring: bool = False
    #: Initial RREQ TTL when expanding-ring search is enabled.
    ring_start_ttl: int = 2
    #: RNG seed for node placement and pair selection.
    seed: int = 1

    def __post_init__(self) -> None:
        if self.n_nodes < 2:
            raise ValueError("need at least 2 nodes")
        if self.n_pairs < 1:
            raise ValueError("need at least 1 CBR pair")
        if self.n_pairs > self.n_nodes * (self.n_nodes - 1):
            raise ValueError("more pairs than distinct (src, dst) combinations")
        if self.dt_s <= 0 or self.duration_s <= 0:
            raise ValueError("time parameters must be positive")
        if self.radio_range_m <= 0 or self.arena_m <= 0:
            raise ValueError("geometry parameters must be positive")

    @property
    def n_ticks(self) -> int:
        """Total simulation ticks."""
        return int(round(self.duration_s / self.dt_s))


def paper_config(seed: int = 1) -> ManetConfig:
    """The paper's full-scale setup (expensive; used by the CLI runner)."""
    return ManetConfig(seed=seed)


def bench_config(seed: int = 1) -> ManetConfig:
    """Scaled setup for tests and benches: denser, shorter, still multi-hop."""
    return ManetConfig(
        n_nodes=70,
        arena_m=units.km(8),
        radio_range_m=units.km(1.5),
        n_pairs=30,
        duration_s=units.minutes(30),
        dt_s=1.0,
        cbr_interval_s=5.0,
        seed=seed,
    )


def scaled_config(n_nodes: int, seed: int = 1) -> ManetConfig:
    """Bench-density configuration scaled to ``n_nodes``.

    The arena edge grows as sqrt(n) (constant node density, so hop
    counts and contention stay comparable) and the CBR pair count grows
    linearly (constant per-node traffic load).  Used by the large-N
    Figure 8 bench variants.
    """
    base = bench_config(seed)
    factor = n_nodes / base.n_nodes
    return replace(
        base,
        n_nodes=n_nodes,
        arena_m=base.arena_m * math.sqrt(factor),
        n_pairs=max(1, round(base.n_pairs * factor)),
    )
