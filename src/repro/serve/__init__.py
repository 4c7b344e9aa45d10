"""Streaming validation: the batch pipeline served one event at a time.

The batch pipeline answers "which checkins were honest?" after reading
a user's whole trace; this package answers the same question *online*,
as GPS fixes and checkins arrive — and guarantees the answers are
byte-identical to a batch run over the same data:

* :mod:`repro.serve.events` — the wire types: :class:`StreamEvent` in,
  :class:`Verdict` out, both JSONL round-trippable;
* :mod:`repro.serve.engine` — the settlement-horizon chunking engine
  that runs the unchanged batch kernels incrementally;
* :mod:`repro.serve.snapshot` — crash-consistent two-slot state
  snapshots on the checkpoint machinery;
* :mod:`repro.serve.service` — the service: single-threaded inline
  ingest, verdict sink, snapshots/restore, batch-identical summary and
  metrics.

Quickstart::

    from repro.serve import ValidationService
    from repro.synth import replay_events

    service = ValidationService(dataset.pois, name=dataset.name)
    for event in replay_events(dataset):     # or a live feed
        service.ingest(event)
    summary = service.finish()
    print(summary.summary())                 # identical to validate()

CLI: ``repro-study serve`` (see ``--help``); benchmark: the
``serve_replay`` workload of ``perfbench/run.py``.
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "engine": ("SERVE_STATE_FORMAT", "ServeConfig", "StreamEngine", "UserStreamState"),
    "events": (
        "EVENT_KINDS", "StreamEvent", "Verdict", "checkin_event", "event_from_dict",
        "gps_event", "missing_visit_ids", "read_events", "register_event",
        "verdict_labels", "write_events",
    ),
    "service": ("ServeSummary", "ServeTelemetry", "ValidationService"),
    "snapshot": ("SERVE_SNAPSHOT_FORMAT", "ServeStateStore"),
})
