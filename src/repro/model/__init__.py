"""Data model: records for POIs, GPS points, visits, checkins, datasets."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "dataset": ("Dataset", "DatasetStats", "UserData", "rename", "study_duration_days"),
    "trace": ("GpsLike", "GpsTrace", "as_trace"),
    "types": (
        "EXTRANEOUS_TYPES", "Checkin", "CheckinType", "GpsPoint", "Poi", "PoiCategory",
        "UserProfile", "Visit",
    ),
})
