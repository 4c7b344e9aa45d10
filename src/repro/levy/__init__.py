"""Levy-walk mobility model: trace fitting and synthetic generation."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "fit": (
        "FlightSample", "LevyWalkModel", "fit_from_checkins", "fit_from_dataset_visits",
        "fit_levy_model", "fit_three_models", "flights_from_checkins",
        "flights_from_visits",
    ),
    "baselines": ("RandomWaypointConfig", "generate_rwp_fleet", "generate_rwp_trace"),
    "generate": ("NodeTrace", "Waypoint", "generate_fleet", "generate_node_trace"),
})
