"""One driver per table/figure of the paper's evaluation."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "common": ("StudyArtifacts", "build_study", "cached_study"),
    "headline": ("collect_headline",),
}, modules=(
    "export", "figure1", "figure2", "figure3", "figure4", "figure5", "figure6",
    "figure7", "figure8", "table1", "table2",
))
