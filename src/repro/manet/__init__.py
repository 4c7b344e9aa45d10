"""Mobile ad hoc network simulator with AODV routing."""

from .aodv import AodvNode, Outgoing
from .config import ManetConfig, bench_config, paper_config, scaled_config
from .engine import Simulator, make_cbr_pairs
from .metrics import FlowStats, ManetResults, MetricsCollector
from .packets import DataPacket, Rerr, Rrep, Rreq
from .routing import RouteEntry, RoutingTable
from .runner import run_model, run_three_models

__all__ = [
    "AodvNode",
    "DataPacket",
    "FlowStats",
    "ManetConfig",
    "ManetResults",
    "MetricsCollector",
    "Outgoing",
    "Rerr",
    "Rrep",
    "Rreq",
    "RouteEntry",
    "RoutingTable",
    "Simulator",
    "bench_config",
    "make_cbr_pairs",
    "paper_config",
    "run_model",
    "run_three_models",
    "scaled_config",
]
