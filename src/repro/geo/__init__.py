"""Geodesy primitives: distances, local projection, spatial index, units."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "distance": (
        "EARTH_RADIUS_M", "bearing", "destination", "euclidean", "euclidean_many",
        "haversine", "haversine_many",
    ),
    "grid": ("GridIndex",),
    "projection": ("LocalProjection",),
}, modules=("units",))
