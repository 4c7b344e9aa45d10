"""Synthetic geosocial user study (substitute for the paper's private data)."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "checkins": ("generate_checkins",),
    "config": (
        "BehaviorConfig", "MobilityConfig", "StudyConfig", "WorldConfig",
        "baseline_config", "primary_config",
    ),
    "itinerary": ("Itinerary", "ItineraryBuilder", "Leg", "Stay"),
    "mobility": (
        "Coverage", "CoverageWindow", "build_coverage", "ground_truth_visits",
        "sample_gps",
    ),
    "replay": ("replay_events", "replay_fraction"),
    "persona": ("Persona", "build_profile", "sample_persona"),
    "scalegen": ("generate_scale_store", "iter_scale_users"),
    "study": (
        "StudyPlan", "generate_baseline", "generate_dataset", "generate_primary",
        "generate_study_store", "iter_study_users", "plan_study",
    ),
    "world": (
        "BORING_CATEGORIES", "CATEGORY_WEIGHTS", "ERRAND_CATEGORIES", "World",
        "generate_world", "make_home_poi", "pick_work_poi",
    ),
})
