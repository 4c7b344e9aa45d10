"""Parallel sharded execution runtime for the validation pipeline.

The paper's pipeline (visit extraction → α/β matching → extraneous
classification) is independent per user, so this package shards a
dataset into load-balanced work units, fans them out over an executor,
and merges results back deterministically:

* :mod:`repro.runtime.sharding` — weight-balanced, deterministic shards;
* :mod:`repro.runtime.executor` — serial reference executor and a
  process-pool executor behind one interface;
* :mod:`repro.runtime.merge` — dataset-order merge (the determinism
  guarantee: any worker count, byte-identical results);
* :mod:`repro.runtime.resilience` — shard-level fault tolerance: retry
  with deterministic backoff, per-shard timeouts, crash recovery with
  pool rebuild, poison-shard isolation via serial fallback, and the
  degraded-run policies (``fail_fast`` / ``retry_then_serial`` /
  ``skip_and_report``);
* :mod:`repro.runtime.faults` — deterministic fault injection
  (:class:`FaultPlan`) keyed by ``(stage, shard_id, attempt)``, used by
  the test suite and ``repro-study validate --inject-faults``;
* :mod:`repro.runtime.timing` — per-shard/stage timings surfaced as
  ``ValidationReport.timings`` and in run manifests;
* :mod:`repro.runtime.errors` — shard-scoped failure reporting.

Quickstart::

    from repro import validate
    from repro.runtime import ResilienceConfig

    report = validate(dataset, workers=4)     # identical to workers=1
    report = validate(                        # survive worker crashes
        dataset, workers=4,
        resilience=ResilienceConfig(max_retries=2, shard_timeout_s=300),
    )
    print(report.timings.format_report())
    print(report.health.format_report())
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "errors": ("RuntimeConfigError", "ShardError", "WorkUnitError"),
    "executor": (
        "OVERSUBSCRIBE", "ParallelExecutor", "SerialExecutor", "available_workers",
        "resolve_executor", "run_stage", "shard_count",
    ),
    "faults": (
        "CRASH_EXIT_CODE", "FAULT_KINDS", "FaultPlan", "FaultSpec", "InjectedCrash",
        "InjectedFault",
    ),
    "merge": ("StreamMerger", "merge_user_maps"),
    "resilience": (
        "POLICIES", "DegradedResult", "ResilienceConfig", "RunHealth",
        "run_shards_resilient",
    ),
    "sharding": (
        "GPS_SAMPLES_PER_VISIT", "Shard", "pre_extraction_weight", "shard_dataset",
        "shard_segment", "shard_user_table", "user_weight",
    ),
    "timing": ("RuntimeTimings", "ShardTiming", "StageTiming"),
})
