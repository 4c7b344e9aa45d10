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
    """One full simulation; returns everything results depend on."""
    rng = np.random.default_rng(config.seed)
    traces = generate_fleet(
        toy_model(), config.n_nodes, config.arena_m, config.duration_s, rng
    )
    pairs = make_cbr_pairs(
        config.n_nodes, config.n_pairs, np.random.default_rng(config.seed)
    )
    sim = simulator(config, traces, pairs=pairs)
    results = sim.run()
    return results, sim.metrics.total_control, sim.metrics.unattributed_control


def assert_engines_identical(config: ManetConfig) -> None:
    scalar, s_control, s_unattr = run_engine(config, ScalarSimulator)
    vector, v_control, v_unattr = run_engine(config, Simulator)
    # Dataclass dict equality compares every counter exactly.
    assert [asdict(f) for f in vector.flows] == [asdict(f) for f in scalar.flows]
    assert vector.summary() == scalar.summary()
    assert v_control == s_control
    assert v_unattr == s_unattr


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
