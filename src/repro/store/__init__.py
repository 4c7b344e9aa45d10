"""Out-of-core study storage: segment files, study stores, checkpoints.

This package lets the pipeline run studies that do not fit in RAM:

* :mod:`repro.store.segment` — the mmap-able columnar GPS segment file
  (the three-buffer :class:`~repro.model.GpsTrace` layout on disk,
  written atomically, content-fingerprinted);
* :mod:`repro.store.study` — a chunked study store: shard-sized
  segments plus a JSON manifest carrying user ids, per-user counts and
  segment fingerprints, so sharding and auditing never open the data;
* :mod:`repro.store.checkpoint` — atomic per-segment result
  checkpoints that make streaming runs resumable with byte-identical
  output.

Quickstart::

    from repro.store import StudyStore
    from repro.synth import generate_study_store, primary_config
    from repro.core import validate_store

    store = generate_study_store(primary_config(), "data/primary-store")
    summary = validate_store(store, workers=4, keep_results=False)
    print(summary.summary())          # identical to the in-memory path
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "checkpoint": (
        "CHECKPOINT_FORMAT", "CheckpointStore", "atomic_pickle_dump",
        "load_pickle_record",
    ),
    "segment": (
        "MAGIC", "SEGMENT_FORMAT", "SegmentFormatError", "SegmentInfo", "SegmentReader",
        "write_segment",
    ),
    "study": (
        "DEFAULT_SEGMENT_USERS", "MANIFEST_NAME", "STORE_FORMAT", "SegmentEntry",
        "StoreFormatError", "StudyStore", "StudyStoreWriter",
    ),
})
