"""Per-segment result checkpoints for resumable streaming runs.

A streaming validation (:func:`repro.core.pipeline.validate_store`)
processes a store one segment at a time.  With a checkpoint directory
armed, each finished segment's results are pickled atomically; when the
run is killed and restarted, finished segments replay from disk and only
the unfinished ones recompute — and because per-user computation is
deterministic, the resumed run's output is byte-identical to an
uninterrupted one.

A checkpoint is only ever reused for the exact work that produced it:
its key is the pipeline config hash, and the payload records the
segment's content fingerprint, so changing any threshold or regenerating
the study invalidates every stale checkpoint.  Unreadable or torn
checkpoint files are treated as absent, never trusted.
"""

from __future__ import annotations

import itertools
import os
import pickle
import threading
from pathlib import Path
from typing import Any, Dict, Optional, Union

from .study import SegmentEntry

#: Checkpoint payload format version.
CHECKPOINT_FORMAT = 1

#: Process-wide counter making concurrent tmp names collision-free.
_TMP_COUNTER = itertools.count()


def atomic_pickle_dump(path: Path, record: Any) -> Path:
    """Write ``record`` as a pickle that is either fully there or absent.

    tmp file + flush + fsync + ``os.replace``: a crash mid-write leaves
    the destination untouched (or holding its previous complete
    contents), never a torn file.  The tmp name embeds the pid, thread
    id, and a process-wide counter so concurrent writers (threads,
    overlapping runs) never tread on each other's staging file —
    while still matching the ``*.tmp`` glob that crash drills use to
    assert no staging debris survives.  Shared by the per-segment
    checkpoint store and the serving state snapshots
    (:mod:`repro.serve.snapshot`).
    """
    tag = f"{os.getpid()}-{threading.get_ident()}-{next(_TMP_COUNTER)}"
    tmp = path.with_name(f"{path.name}.{tag}.tmp")
    try:
        with tmp.open("wb") as handle:
            pickle.dump(record, handle, protocol=pickle.HIGHEST_PROTOCOL)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise
    return path


def load_pickle_record(path: Path) -> Optional[Dict[str, Any]]:
    """Read one pickled record dict; ``None`` when missing or unusable.

    Anything short of a cleanly parsing dict — missing file, torn write,
    truncation, an unpicklable payload from another version — reads as
    absent; callers recompute rather than trust it.
    """
    try:
        with path.open("rb") as handle:
            record = pickle.load(handle)
    except (
        OSError,
        pickle.UnpicklingError,
        EOFError,
        AttributeError,
        ImportError,
        IndexError,
        ValueError,
    ):
        # MemoryError is deliberately NOT swallowed: running out of
        # memory while reading a snapshot is a resource problem, not a
        # torn file, and silently recomputing from scratch would mask it.
        return None
    if not isinstance(record, dict):
        return None
    return record


class CheckpointStore:
    """Atomic per-segment checkpoint files in one directory."""

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, entry: SegmentEntry, key: str) -> Path:
        return self.directory / f"ckpt-{entry.segment_id:05d}-{key[:16]}.pkl"

    def load(self, entry: SegmentEntry, key: str) -> Optional[Dict[str, Any]]:
        """The segment's checkpointed payload, or None when unusable.

        A checkpoint is usable only when it parses, carries the current
        format, and matches both the config key and the segment's
        content fingerprints — anything else (missing file, torn write,
        stale configs, regenerated study) recomputes.
        """
        path = self._path(entry, key)
        record = load_pickle_record(path)
        if record is None:
            return None
        if record.get("format") != CHECKPOINT_FORMAT:
            return None
        if record.get("key") != key:
            return None
        if record.get("segment_sha256") != entry.sha256:
            return None
        if record.get("users_sha256") != entry.users_sha256:
            return None
        return record.get("payload")

    def save(self, entry: SegmentEntry, key: str, payload: Dict[str, Any]) -> Path:
        """Write the segment's checkpoint atomically; returns its path."""
        path = self._path(entry, key)
        record = {
            "format": CHECKPOINT_FORMAT,
            "key": key,
            "segment_id": entry.segment_id,
            "segment_sha256": entry.sha256,
            "users_sha256": entry.users_sha256,
            "payload": payload,
        }
        return atomic_pickle_dump(path, record)
