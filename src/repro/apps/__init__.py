"""Downstream applications the paper warns about (§1, §6)."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "friendship": (
        "ColocationComparison", "ColocationConfig", "colocated_pairs",
        "compare_colocation", "evaluate_friendship_inference",
    ),
    "prediction": (
        "MarkovPredictor", "PredictionScore", "checkin_sequences",
        "evaluate_training_traces", "next_place_accuracy", "visit_sequences",
    ),
})
