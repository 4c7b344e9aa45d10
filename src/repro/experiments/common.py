"""Shared experiment context: build both datasets and run the pipeline once.

Every table/figure driver takes a :class:`StudyArtifacts`; benches share
one cached build per scale so the (comparatively expensive) generation
and matching run only once per session.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from ..core import ValidationReport, validate
from ..model import Dataset
from ..obs import activate
from ..obs import current as obs_current
from ..runtime import resolve_executor
from ..synth import baseline_config, generate_dataset, primary_config


@dataclass
class StudyArtifacts:
    """Both datasets with their full validation reports."""

    primary: Dataset
    baseline: Dataset
    primary_report: ValidationReport
    baseline_report: ValidationReport
    scale: float


def build_study(
    scale: float = 1.0,
    primary_seed: int = 20131121,
    baseline_seed: int = 20131122,
    workers: Optional[int] = None,
    executor=None,
    obs=None,
    resilience=None,
    fault_plan=None,
) -> StudyArtifacts:
    """Generate Primary + Baseline and run the validation pipeline on both.

    ``workers``/``executor`` select the validation runtime (see
    :func:`repro.core.validate`); one executor — and thus one process
    pool — is shared across both datasets.  Results are identical for
    any worker count.  ``resilience``/``fault_plan`` arm the shard
    fault-tolerance layer for both validation runs; each report carries
    its own ``health``.  ``obs`` (an :class:`repro.obs.ObsContext`)
    captures spans and metrics for generation and both validation runs;
    it never changes results.
    """
    ctx = obs if obs is not None else obs_current()
    exec_, owned = resolve_executor(executor, workers)
    try:
        with activate(ctx), ctx.span("study.build", scale=scale):
            primary = generate_dataset(primary_config(primary_seed).scaled(scale))
            baseline = generate_dataset(baseline_config(baseline_seed).scaled(scale))
            primary_report = validate(
                primary, executor=exec_,
                resilience=resilience, fault_plan=fault_plan,
            )
            baseline_report = validate(
                baseline, executor=exec_,
                resilience=resilience, fault_plan=fault_plan,
            )
    finally:
        if owned:
            exec_.close()
    return StudyArtifacts(
        primary=primary,
        baseline=baseline,
        primary_report=primary_report,
        baseline_report=baseline_report,
        scale=scale,
    )


@lru_cache(maxsize=4)
def cached_study(scale: float = 0.15) -> StudyArtifacts:
    """Memoised :func:`build_study` for benches and examples."""
    return build_study(scale=scale)
