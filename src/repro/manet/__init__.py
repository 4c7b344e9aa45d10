"""Mobile ad hoc network simulator with AODV routing."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "aodv": ("AodvNode", "Outgoing"),
    "config": ("ManetConfig", "bench_config", "paper_config", "scaled_config"),
    "engine": ("Simulator", "make_cbr_pairs"),
    "metrics": ("FlowStats", "ManetResults", "MetricsCollector"),
    "packets": ("DataPacket", "Rerr", "Rrep", "Rreq"),
    "routing": ("RouteEntry", "RoutingTable"),
    "runner": ("run_model", "run_three_models"),
})
