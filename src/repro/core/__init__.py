"""The paper's core contribution: checkin validity analysis."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "burstiness": (
        "FilterTradeoff", "PrevalenceCdfs", "filter_tradeoff", "interarrival_by_type",
        "interarrival_times", "prevalence_cdfs", "user_type_ratios",
    ),
    "classify": (
        "ClassificationResult", "ClassifyConfig", "GpsLocator", "classify_dataset",
        "classify_extraneous_checkin", "classify_user_extraneous",
    ),
    "detection": (
        "BurstinessDetector", "CheckinFeatures", "DetectionMetrics",
        "GaussianNBDetector", "evaluate_detector", "extract_features", "split_users",
        "truth_labels",
    ),
    "incentives": (
        "TABLE2_FEATURES", "TABLE2_TYPES", "IncentiveCorrelations", "UserFeatureRow",
        "incentive_correlations", "user_feature_rows",
    ),
    "matching": (
        "MatchConfig", "MatchStats", "MatchingResult", "UserMatching", "match_dataset",
        "match_user",
    ),
    "missing": (
        "TopPoiMissingRatios", "missing_category_breakdown", "missing_fraction_by_user",
        "top_poi_missing_ratios",
    ),
    "pipeline": (
        "HeadlineCounts", "ValidationReport", "ValidationSummary", "format_summary",
        "set_headline_gauges", "validate", "validate_store",
    ),
    "recovery": (
        "CategoryRateModel", "RecoveryConfig", "RecoveryGain", "infer_home",
        "infer_work", "category_correction_error", "recover_dataset_events",
        "recover_user_events", "recovery_gain",
    ),
    "validation": (
        "MobilityMetrics", "checkin_metrics", "events_from_checkins",
        "events_from_visits", "gps_speed_sample", "visit_metrics",
    ),
    "visits": (
        "VisitConfig", "build_poi_index", "extract_dataset_visits", "extract_visits",
    ),
})
