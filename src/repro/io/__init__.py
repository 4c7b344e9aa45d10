"""Dataset persistence: JSON-lines directories and GeoJSON export."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "geojson": ("dataset_to_geojson", "save_geojson"),
    "snap": ("load_snap_checkins",),
    "jsonl": (
        "decode_checkin", "decode_poi", "decode_profile", "decode_visit",
        "encode_checkin", "encode_poi", "encode_profile", "encode_visit",
        "iter_user_data", "load_dataset", "load_dataset_into_store", "save_dataset",
    ),
})
