"""Statistics toolkit: ECDFs, fits, correlation, entropy."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "correlation": ("pearson",),
    "ecdf": ("Ecdf", "category_pdf", "ks_distance", "log_binned_pdf"),
    "entropy": ("entropy_from_counts", "entropy_of_labels", "normalized_entropy"),
    "fits": (
        "ParetoFit", "PowerLawFit", "fit_movement_time_law", "fit_pareto",
        "fit_power_law",
    ),
})
