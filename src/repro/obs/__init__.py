"""Observability layer: tracing spans, metrics, manifests, and audits.

Seven pieces, all process-local and dependency-free:

* :mod:`repro.obs.context` — hierarchical spans with monotonic timings,
  point events, and the ambient-context machinery (:func:`current` /
  :class:`activate`).  Disabled observability is the :data:`NULL_OBS`
  singleton: every call a no-op, pipeline output byte-identical.
* :mod:`repro.obs.metrics` — a registry of counters, gauges and
  histograms with deterministic merge semantics, so worker-side deltas
  aggregate to the same totals for any worker count.
* :mod:`repro.obs.manifest` / :mod:`repro.obs.export` — the per-run
  manifest (config hash, dataset fingerprint, seeds, timings, metric
  snapshot, fidelity scorecard) and the JSONL span/event/metric stream
  behind the CLI's ``--trace`` flag and ``repro-study inspect``.
* :mod:`repro.obs.fidelity` — the declarative paper-reference registry
  and the scorecard it evaluates against a run's reproduced statistics
  (``repro-study audit``).
* :mod:`repro.obs.diff` — structural comparison of two manifests or
  trace files, classifying drift as regression vs. expected variation
  (``repro-study diff``).
* :mod:`repro.obs.profile` — opt-in cProfile/tracemalloc hooks per
  shard (the CLI's ``--profile`` flag), shipped worker→parent with the
  metric deltas.
* :mod:`repro.obs.telemetry` — the *live* surface: a background
  :class:`TelemetrySampler` snapshotting metrics + process stats into a
  ring buffer, an atomically-rewritten ``live.json`` status file, and
  an opt-in OpenMetrics HTTP endpoint; tailed by ``repro-study
  monitor``.  Strictly no-op unless armed.

Quickstart::

    from repro import validate
    from repro.obs import ObsContext, write_trace, build_manifest
    from repro.obs import report_statistics, evaluate

    obs = ObsContext()
    report = validate(dataset, workers=4, obs=obs)
    write_trace("run.jsonl", obs)
    build_manifest("validate", dataset=dataset, workers=4,
                   timings=report.timings.as_dict(),
                   metrics=obs.metrics.snapshot()).write("run.manifest.json")
    print(evaluate(report_statistics(report)).format_report())

See DESIGN.md §7 for the span taxonomy, metric name tables, scorecard
schema and diff exit codes.
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "context": (
        "NULL_OBS", "EventRecord", "NullObs", "ObsContext", "SpanRecord", "activate",
        "current",
    ),
    "diff": ("DiffEntry", "ManifestDiff", "diff_manifests", "diff_traces"),
    "export": ("read_trace", "trace_records", "write_trace"),
    "fidelity": (
        "DEFAULT_REGISTRY", "ReferenceCheck", "Scorecard", "ScorecardEntry", "evaluate",
        "manifest_statistics", "report_statistics", "scorecard_for_manifest",
    ),
    "manifest": (
        "SCHEMA_VERSION", "RunManifest", "build_manifest", "config_hash",
        "dataset_fingerprint", "fingerprint_from_counts",
    ),
    "metrics": ("Counter", "Gauge", "Histogram", "MetricsRegistry"),
    "profile": ("profile_call", "profile_summary", "top_functions"),
    "telemetry": (
        "LiveMetrics", "ProgressLine", "TelemetrySampler", "format_dashboard",
        "parse_openmetrics", "process_stats", "read_status", "registry_collector",
        "render_openmetrics",
    ),
})
