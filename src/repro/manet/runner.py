"""High-level MANET experiment runner (Section 6.2).

Given a fitted Levy-walk model, generate node mobility and run the AODV
simulation; :func:`run_three_models` reproduces Figure 8's comparison of
GPS-, honest-checkin- and all-checkin-trained mobility.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..levy import LevyWalkModel, generate_fleet
from .config import ManetConfig
from .engine import Simulator, make_cbr_pairs
from .metrics import ManetResults


def run_model(
    model: LevyWalkModel,
    config: ManetConfig,
    seed: Optional[int] = None,
    pairs: Optional[Dict[int, Tuple[int, int]]] = None,
) -> ManetResults:
    """Generate mobility from ``model`` and simulate AODV over it."""
    rng = np.random.default_rng(config.seed if seed is None else seed)
    traces = generate_fleet(
        model, config.n_nodes, config.arena_m, config.duration_s, rng
    )
    simulator = Simulator(config, traces, name=model.name, pairs=pairs)
    return simulator.run()


def run_three_models(
    models: Sequence[LevyWalkModel],
    config: ManetConfig,
    seed: Optional[int] = None,
) -> List[ManetResults]:
    """Simulate several mobility models under identical traffic.

    The same CBR pairs are used across runs so differences come from
    mobility alone — the paper's controlled comparison.
    """
    rng = np.random.default_rng(config.seed if seed is None else seed)
    pairs = make_cbr_pairs(config.n_nodes, config.n_pairs, rng)
    return [
        run_model(
            model,
            config,
            seed=(config.seed if seed is None else seed) + i,
            pairs=pairs,
        )
        for i, model in enumerate(models)
    ]
