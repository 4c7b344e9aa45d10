"""repro — reproduction of "On the Validity of Geosocial Mobility Traces".

Zhang et al., HotNets 2013.  The package provides:

* :mod:`repro.synth` — a synthetic geosocial user study (GPS + checkin
  traces for the paper's Primary and Baseline populations);
* :mod:`repro.core` — the paper's analysis pipeline: visit extraction,
  checkin-to-visit matching, extraneous checkin classification,
  missing-checkin / incentive / burstiness analyses, and detection;
* :mod:`repro.levy` — Levy-walk mobility model fitting and generation;
* :mod:`repro.manet` — a mobile ad hoc network simulator with AODV
  routing for the application-impact experiments;
* :mod:`repro.experiments` — one driver per table/figure of the paper;
* :mod:`repro.runtime` — sharded parallel execution of the pipeline;
* :mod:`repro.obs` — tracing spans, a metrics registry, JSONL trace
  export and per-run manifests (``repro-study inspect``);
* :mod:`repro.store` — out-of-core segment store for studies larger
  than RAM (``repro-study validate --store disk``);
* :mod:`repro.serve` — incremental streaming validation with
  byte-for-byte batch parity (``repro-study serve``).

Quickstart::

    from repro import generate_primary, validate

    dataset = generate_primary(scale=0.1)
    report = validate(dataset, workers=4)   # identical to workers=1
    print(report.summary())
    print(report.timings.format_report())
"""

from ._exports import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "core": ("ValidationReport", "validate"),
    "model": (
        "Checkin", "CheckinType", "Dataset", "GpsPoint", "GpsTrace", "Poi",
        "PoiCategory", "UserProfile", "Visit",
    ),
    "obs": ("ObsContext", "RunManifest"),
    "runtime": ("ParallelExecutor", "RuntimeTimings", "SerialExecutor"),
    "serve": ("ServeConfig", "ValidationService"),
    "synth": (
        "generate_baseline", "generate_dataset", "generate_primary", "replay_events",
    ),
})
__all__ = sorted([*__all__, "__version__"])
