"""Production MANET engine vs the scalar oracle: byte-level parity.

:class:`repro.manet.Simulator` must reproduce the reference tick loop
(``oracles.ScalarSimulator``) *exactly* — same per-flow counters, same
summary strings, same control totals — for any configuration and seed.
Mirrors ``test_visits_kernels.py``.

Dense and sparse arenas exercise different code paths (broadcast-heavy
floods vs mostly-empty air with the per-tick index build skipped), so
both are covered.  Paper-scale parity lives in the slow tier.
"""

from __future__ import annotations

from dataclasses import asdict, replace

import numpy as np
import pytest

from repro.geo import units
from repro.levy import LevyWalkModel, generate_fleet
from oracles import ScalarSimulator
from repro.manet import (
    AodvNode,
    DataPacket,
    ManetConfig,
    Simulator,
    bench_config,
    make_cbr_pairs,
    paper_config,
    scaled_config,
)
from repro.stats import ParetoFit


def toy_model(name: str = "toy") -> LevyWalkModel:
    return LevyWalkModel(
        name=name,
        flight=ParetoFit(xm=300.0, alpha=1.3, n=50),
        pause=ParetoFit(xm=120.0, alpha=0.9, n=50),
        k=2.0,
        rho=0.4,
        n_flights=50,
    )


def run_engine(config: ManetConfig, simulator: type):
    """One full simulation; returns the finished simulator and results."""
    rng = np.random.default_rng(config.seed)
    traces = generate_fleet(
        toy_model(), config.n_nodes, config.arena_m, config.duration_s, rng
    )
    pairs = make_cbr_pairs(
        config.n_nodes, config.n_pairs, np.random.default_rng(config.seed)
    )
    sim = simulator(config, traces, pairs=pairs)
    return sim, sim.run()


def node_state(node) -> tuple:
    """Everything a node's future behaviour depends on, in a comparable
    form: every routing-table row (precursors sorted), the duplicate-RREQ
    memory with its stamps, the pending discoveries with their buffered
    packets, and the node's sequence counters."""
    rows = [
        (e.dest, e.next_hop, e.hop_count, e.dest_seq, e.expires_at, e.valid,
         sorted(e.precursors))
        for e in node.table
    ]
    pending = [
        (dest, p.pair_id, p.retries, p.expires_at, p.last_ttl,
         [(pk.flow_id, pk.seq, pk.hop_count) for pk in p.packets])
        for dest, p in node._pending.items()
    ]
    return rows, list(node._seen_rreqs.items()), pending, node.seq, node._rreq_id


def assert_engines_identical(config: ManetConfig) -> None:
    scalar_sim, scalar = run_engine(config, ScalarSimulator)
    vector_sim, vector = run_engine(config, Simulator)
    # Dataclass dict equality compares every counter exactly.
    assert [asdict(f) for f in vector.flows] == [asdict(f) for f in scalar.flows]
    assert vector.summary() == scalar.summary()
    assert vector.total_control == scalar.total_control
    assert vector.unattributed_control == scalar.unattributed_control
    # Final protocol state of every node: a wrong refresh or precursor
    # add can leave the flow counters of a short run untouched.
    for v_node, s_node in zip(vector_sim.nodes, scalar_sim.nodes, strict=True):
        assert node_state(v_node) == node_state(s_node), v_node.node_id


def test_scaled_config_preserves_density():
    base = bench_config()
    big = scaled_config(1000)
    assert big.n_nodes == 1000
    base_density = base.n_nodes / base.arena_m**2
    big_density = big.n_nodes / big.arena_m**2
    assert big_density == pytest.approx(base_density, rel=1e-9)
    assert big.n_pairs == round(base.n_pairs * 1000 / base.n_nodes)
    # Still a valid config (pair bound, geometry).
    assert scaled_config(10).n_nodes == 10


@pytest.mark.parametrize("seed", [1, 7, 23])
def test_parity_dense_bench(seed):
    """Dense arena: flood-heavy air, the within_many broadcast path."""
    config = replace(bench_config(seed=seed), duration_s=300.0)
    assert_engines_identical(config)


@pytest.mark.parametrize("seed", [1, 5])
def test_parity_sparse_arena(seed):
    """Sparse arena: mostly-empty air, index builds skipped, unicast
    failures and RERR feedback exercised by nodes drifting apart."""
    config = ManetConfig(
        n_nodes=40,
        arena_m=units.km(30),
        radio_range_m=units.km(1.5),
        n_pairs=20,
        duration_s=600.0,
        seed=seed,
    )
    assert_engines_identical(config)


def test_parity_tiny_arena():
    """Tiny fully-connected arena: every broadcast reaches everyone."""
    config = ManetConfig(
        n_nodes=12,
        arena_m=units.km(3),
        radio_range_m=units.km(1.2),
        n_pairs=6,
        duration_s=240.0,
        seed=3,
    )
    assert_engines_identical(config)


def test_parity_expanding_ring():
    """Expanding-ring search changes flood TTL handling; parity holds."""
    config = replace(
        bench_config(seed=11), duration_s=300.0, expanding_ring=True
    )
    assert_engines_identical(config)


@pytest.mark.parametrize("seed", [1, 4])
def test_parity_short_rreq_memory(seed):
    """A 3 s duplicate-RREQ memory: flood keys expire and are heard
    afresh while the flood is still in flight, so the engine's duplicate
    filter and the node's expiry both run against keys that come and
    go."""
    config = replace(bench_config(seed=seed), duration_s=300.0, rreq_seen_ttl_s=3.0)
    assert_engines_identical(config)


def test_parity_tiny_arena_expanding_ring():
    """Fully connected and expanding-ring: every small-TTL flood reaches
    every node, so nearly every reception after the first is a
    duplicate."""
    config = ManetConfig(
        n_nodes=12,
        arena_m=units.km(1),
        radio_range_m=units.km(1.5),
        n_pairs=6,
        duration_s=240.0,
        expanding_ring=True,
        seed=3,
    )
    assert_engines_identical(config)


@pytest.mark.slow
def test_parity_paper_scale():
    """The paper's 200-node, 100 km arena, full hour."""
    assert_engines_identical(paper_config())


@pytest.mark.slow
def test_parity_large_n():
    """1000-node bench-density arena (shortened)."""
    config = replace(scaled_config(1000), duration_s=300.0)
    assert_engines_identical(config)


def test_parity_exercises_the_fast_path_exits(monkeypatch):
    """Nodes in the dense arena drift out of range under live flows, so
    the production engine takes both exits of its data fast path while
    parity holds: a relay with no usable onward route (``_on_data``'s
    drop + RERR) and a data unicast whose next hop moved out of range.
    (The sparse arena's 600 s runs at seeds 1 and 5 take neither.)"""
    calls = {"relay_drop": 0, "relay_other": 0, "data_unicast_failed": 0}
    on_data = AodvNode._on_data
    on_unicast_failed = AodvNode.on_unicast_failed

    def spy_on_data(self, packet, sender, now):
        if type(self) is AodvNode:
            dropped = (
                packet.dst != self.node_id
                and self.table.usable(packet.dst, now) is None
            )
            calls["relay_drop" if dropped else "relay_other"] += 1
        return on_data(self, packet, sender, now)

    def spy_on_unicast_failed(self, payload, next_hop, now):
        if type(self) is AodvNode and isinstance(payload, DataPacket):
            calls["data_unicast_failed"] += 1
        return on_unicast_failed(self, payload, next_hop, now)

    monkeypatch.setattr(AodvNode, "_on_data", spy_on_data)
    monkeypatch.setattr(AodvNode, "on_unicast_failed", spy_on_unicast_failed)
    assert_engines_identical(replace(bench_config(seed=1), duration_s=300.0))
    assert calls["relay_drop"] >= 1
    assert calls["data_unicast_failed"] >= 1
    # Delivery and relays over a usable route never leave the fast path.
    assert calls["relay_other"] == 0
