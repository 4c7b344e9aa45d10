"""Chunked, spill-to-disk study store: segments + a JSON manifest.

A **study store** is a directory holding one study's data as a sequence
of fixed-size user segments instead of one in-RAM :class:`Dataset`::

    store.json                   manifest (name, totals, per-segment entries)
    pois.jsonl                   shared POI universe (one POI per line)
    segments/seg-00000.gps       columnar GPS segment (repro.store.segment)
    segments/seg-00000.users.jsonl   profiles + checkins sidecar
    segments/seg-00001.gps
    ...

The manifest records, per segment, the user ids and per-user GPS/checkin
counts plus the content fingerprints of both files — enough to shard
work (:func:`repro.runtime.sharding.shard_segment`), compute the dataset
fingerprint (:meth:`StudyStore.fingerprint`), and detect torn or stale
files (:meth:`StudyStore.verify`) without opening a single segment.

Every file is written atomically (temp sibling + rename), ``store.json``
last, so a crashed writer leaves either a complete store or no manifest
— never a manifest pointing at half-written segments.

The pipeline streams a store one segment at a time
(:func:`repro.core.pipeline.validate_store`): peak memory is bounded by
the largest segment, not the study, which is what makes million-user
runs possible on a workstation.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple, Union

from ..io.jsonl import (
    decode_checkin,
    decode_poi,
    decode_profile,
    encode_checkin,
    encode_poi,
    encode_profile,
)
from ..model import Dataset, Poi, UserData
from ..obs.manifest import fingerprint_from_counts
from .segment import SegmentReader, write_segment

#: Store manifest format version.
STORE_FORMAT = 1

#: Default users per segment: ~a few hundred MB of traces at the paper's
#: per-minute sampling — large enough to amortise per-segment overhead,
#: small enough to bound worker memory.
DEFAULT_SEGMENT_USERS = 1000

#: Manifest file name inside a store directory.
MANIFEST_NAME = "store.json"


class StoreFormatError(ValueError):
    """A study store is missing, incomplete, or structurally invalid."""


def _atomic_write_text(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


@dataclass(frozen=True)
class SegmentEntry:
    """One segment's manifest record."""

    segment_id: int
    #: Store-relative path of the columnar GPS file.
    gps_file: str
    #: Store-relative path of the profiles/checkins sidecar.
    users_file: str
    user_ids: Tuple[str, ...]
    gps_counts: Tuple[int, ...]
    checkin_counts: Tuple[int, ...]
    #: sha256 content fingerprint of the GPS segment file.
    sha256: str
    #: sha256 content fingerprint of the users sidecar.
    users_sha256: str

    @property
    def n_users(self) -> int:
        return len(self.user_ids)

    @property
    def n_gps_points(self) -> int:
        return sum(self.gps_counts)

    @property
    def n_checkins(self) -> int:
        return sum(self.checkin_counts)

    @property
    def nbytes(self) -> int:
        """Size of the segment's three GPS columns in bytes."""
        return 3 * 8 * self.n_gps_points

    def as_dict(self) -> Dict[str, Any]:
        return {
            "segment_id": self.segment_id,
            "gps_file": self.gps_file,
            "users_file": self.users_file,
            "user_ids": list(self.user_ids),
            "gps_counts": list(self.gps_counts),
            "checkin_counts": list(self.checkin_counts),
            "sha256": self.sha256,
            "users_sha256": self.users_sha256,
        }

    @classmethod
    def from_dict(cls, record: Mapping[str, Any]) -> "SegmentEntry":
        try:
            return cls(
                segment_id=int(record["segment_id"]),
                gps_file=str(record["gps_file"]),
                users_file=str(record["users_file"]),
                user_ids=tuple(record["user_ids"]),
                gps_counts=tuple(int(n) for n in record["gps_counts"]),
                checkin_counts=tuple(int(n) for n in record["checkin_counts"]),
                sha256=str(record["sha256"]),
                users_sha256=str(record["users_sha256"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise StoreFormatError(f"invalid segment entry: {exc}") from exc


class StudyStoreWriter:
    """Builds a study store incrementally, one user at a time.

    Users buffer in memory until a segment fills, then spill to disk —
    the writer never holds more than ``segment_users`` users.  Call
    :meth:`write_pois` once and :meth:`finalize` last; the manifest is
    written only when everything else is safely on disk.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        name: str,
        segment_users: int = DEFAULT_SEGMENT_USERS,
    ) -> None:
        if segment_users < 1:
            raise ValueError(f"segment_users must be >= 1, got {segment_users}")
        self.directory = Path(directory)
        self.name = name
        self.segment_users = segment_users
        (self.directory / "segments").mkdir(parents=True, exist_ok=True)
        self._buffer: List[UserData] = []
        self._entries: List[SegmentEntry] = []
        self._seen: set = set()
        self._n_pois: Optional[int] = None
        self._finalized = False

    def write_pois(self, pois: Union[Mapping[str, Poi], Iterable[Poi]]) -> None:
        """Write the shared POI universe (exactly once, before finalize)."""
        if self._n_pois is not None:
            raise ValueError("write_pois called twice")
        values = pois.values() if isinstance(pois, Mapping) else pois
        count = 0
        path = self.directory / "pois.jsonl"
        tmp = path.with_name(path.name + ".tmp")
        with tmp.open("w", encoding="utf-8") as handle:
            for poi in values:
                handle.write(json.dumps(encode_poi(poi), separators=(",", ":")))
                handle.write("\n")
                count += 1
        os.replace(tmp, path)
        self._n_pois = count

    def add_user(self, data: UserData) -> None:
        """Append one user; spills a segment when the buffer fills."""
        if self._finalized:
            raise ValueError("store already finalized")
        if data.visits is not None:
            raise ValueError(
                f"user {data.user_id}: study stores persist raw studies; "
                "extracted visits would be silently lost"
            )
        if data.user_id in self._seen:
            raise ValueError(f"duplicate user {data.user_id!r}")
        self._seen.add(data.user_id)
        self._buffer.append(data)
        if len(self._buffer) >= self.segment_users:
            self._flush()

    def add_users(self, users: Iterable[UserData]) -> None:
        """Append a stream of users."""
        for data in users:
            self.add_user(data)

    def _flush(self) -> None:
        if not self._buffer:
            return
        segment_id = len(self._entries)
        stem = f"seg-{segment_id:05d}"
        gps_rel = f"segments/{stem}.gps"
        users_rel = f"segments/{stem}.users.jsonl"
        info = write_segment(
            self.directory / gps_rel,
            [(data.user_id, data.gps) for data in self._buffer],
        )
        digest = hashlib.sha256()
        users_path = self.directory / users_rel
        tmp = users_path.with_name(users_path.name + ".tmp")
        with tmp.open("wb") as handle:
            for data in self._buffer:
                line = json.dumps(
                    {
                        "profile": encode_profile(data.profile),
                        "checkins": [encode_checkin(c) for c in data.checkins],
                    },
                    separators=(",", ":"),
                ).encode("utf-8") + b"\n"
                handle.write(line)
                digest.update(line)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, users_path)
        self._entries.append(
            SegmentEntry(
                segment_id=segment_id,
                gps_file=gps_rel,
                users_file=users_rel,
                user_ids=info.user_ids,
                gps_counts=info.counts,
                checkin_counts=tuple(len(d.checkins) for d in self._buffer),
                sha256=info.sha256,
                users_sha256=digest.hexdigest(),
            )
        )
        self._buffer = []

    def finalize(self) -> "StudyStore":
        """Flush the tail segment and write the manifest; returns the store."""
        if self._finalized:
            raise ValueError("store already finalized")
        if self._n_pois is None:
            raise ValueError("write_pois must run before finalize")
        self._flush()
        self._finalized = True
        manifest = {
            "format": STORE_FORMAT,
            "name": self.name,
            "segment_users": self.segment_users,
            "n_pois": self._n_pois,
            "n_users": sum(e.n_users for e in self._entries),
            "n_gps_points": sum(e.n_gps_points for e in self._entries),
            "n_checkins": sum(e.n_checkins for e in self._entries),
            "segments": [entry.as_dict() for entry in self._entries],
        }
        _atomic_write_text(
            self.directory / MANIFEST_NAME,
            json.dumps(manifest, separators=(",", ":")) + "\n",
        )
        return StudyStore.open(self.directory)


class StudyStore:
    """Read side of a study store: manifest metadata + segment loading."""

    def __init__(
        self,
        directory: Path,
        name: str,
        segment_users: int,
        n_pois: int,
        segments: List[SegmentEntry],
    ) -> None:
        self.directory = directory
        self.name = name
        self.segment_users = segment_users
        self.n_pois = n_pois
        self.segments = segments
        self._pois: Optional[Dict[str, Poi]] = None
        self._pois_lock = threading.Lock()

    @classmethod
    def open(cls, directory: Union[str, Path]) -> "StudyStore":
        """Open an existing store (raises :class:`StoreFormatError` otherwise)."""
        directory = Path(directory)
        manifest_path = directory / MANIFEST_NAME
        if not manifest_path.exists():
            raise StoreFormatError(f"{directory} has no {MANIFEST_NAME}")
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except ValueError as exc:
            raise StoreFormatError(f"{manifest_path}: invalid JSON") from exc
        if manifest.get("format") != STORE_FORMAT:
            raise StoreFormatError(
                f"{manifest_path}: unsupported store format "
                f"{manifest.get('format')!r}"
            )
        try:
            segments = [SegmentEntry.from_dict(r) for r in manifest["segments"]]
            store = cls(
                directory=directory,
                name=str(manifest["name"]),
                segment_users=int(manifest["segment_users"]),
                n_pois=int(manifest["n_pois"]),
                segments=segments,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise StoreFormatError(f"{manifest_path}: {exc}") from exc
        return store

    @staticmethod
    def is_store(directory: Union[str, Path]) -> bool:
        """True when ``directory`` holds a store manifest."""
        return (Path(directory) / MANIFEST_NAME).exists()

    # -- manifest-level metadata (no segment I/O) --------------------------

    @property
    def n_users(self) -> int:
        return sum(entry.n_users for entry in self.segments)

    @property
    def n_gps_points(self) -> int:
        return sum(entry.n_gps_points for entry in self.segments)

    @property
    def n_checkins(self) -> int:
        return sum(entry.n_checkins for entry in self.segments)

    def user_ids(self) -> Iterator[str]:
        """All user ids, in store (= dataset) order."""
        for entry in self.segments:
            yield from entry.user_ids

    def fingerprint(
        self, visit_counts: Optional[Mapping[str, int]] = None
    ) -> Dict[str, Any]:
        """The store's dataset fingerprint, computed from the manifest alone.

        Byte-identical to
        :func:`repro.obs.manifest.dataset_fingerprint` on the
        materialised dataset.  ``visit_counts`` supplies per-user
        extracted-visit counts (missing/None = not extracted) so a
        post-pipeline fingerprint matches the in-memory path, where
        extraction mutates the dataset before the manifest is written.
        """
        counts = visit_counts or {}

        def entries() -> Iterator[Tuple[str, int, int, int]]:
            for segment in self.segments:
                for user_id, n_gps, n_checkins in zip(
                    segment.user_ids, segment.gps_counts, segment.checkin_counts
                ):
                    n_visits = counts.get(user_id)
                    yield user_id, n_gps, n_checkins, (
                        -1 if n_visits is None else n_visits
                    )

        return fingerprint_from_counts(self.name, self.n_pois, entries())

    def segment_summary(self) -> Dict[str, Any]:
        """Content rollup of all segments (for run manifests / audits)."""
        digest = hashlib.sha256()
        for entry in self.segments:
            digest.update(entry.sha256.encode("ascii"))
            digest.update(entry.users_sha256.encode("ascii"))
        return {
            "count": len(self.segments),
            "segment_users": self.segment_users,
            "sha256": digest.hexdigest(),
        }

    # -- data loading ------------------------------------------------------

    def max_segment_nbytes(self) -> int:
        """The largest segment's GPS column payload, bytes.

        The store walk's memory bound is ``baseline + k ×
        max_segment_nbytes()`` for a small constant ``k``: one segment
        is mapped at a time, plus its per-segment working state.
        """
        return max((entry.nbytes for entry in self.segments), default=0)

    def load_pois(self) -> Dict[str, Poi]:
        """The shared POI universe (cached after the first call).

        Thread-safe: when callers on several threads race here, the lock
        makes one of them load and the rest reuse the cache.
        """
        with self._pois_lock:
            if self._pois is None:
                path = self.directory / "pois.jsonl"
                pois: Dict[str, Poi] = {}
                with path.open("r", encoding="utf-8") as handle:
                    for line in handle:
                        line = line.strip()
                        if line:
                            poi = decode_poi(json.loads(line))
                            pois[poi.poi_id] = poi
                if len(pois) != self.n_pois:
                    raise StoreFormatError(
                        f"{path}: {len(pois)} POIs, manifest says {self.n_pois}"
                    )
                self._pois = pois
            return self._pois

    def load_segment(
        self, entry: Union[SegmentEntry, int], pois: Optional[Dict[str, Poi]] = None
    ) -> Dataset:
        """One segment as a :class:`Dataset` (traces are mmap-backed views).

        The returned dataset shares the store's POI dict; its users are
        exactly the segment's, in segment order, with ``visits`` unset.

        Each call builds its own :class:`SegmentReader`, and the mmap
        pages are released as soon as the last trace view is dropped —
        consumers should release the dataset eagerly once results are
        extracted, so memory stays bounded by one segment, not the run
        length.
        """
        if isinstance(entry, int):
            entry = self.segments[entry]
        reader = SegmentReader(self.directory / entry.gps_file)
        users: Dict[str, UserData] = {}
        users_path = self.directory / entry.users_file
        try:
            with users_path.open("r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    record = json.loads(line)
                    try:
                        profile = decode_profile(record["profile"])
                        checkins = [decode_checkin(c) for c in record["checkins"]]
                    except ValueError as exc:
                        owner = record["profile"].get("user_id")
                        raise StoreFormatError(
                            f"{users_path}: record for user {owner!r}: {exc}"
                        ) from None
                    users[profile.user_id] = UserData(
                        profile=profile,
                        gps=reader.trace(profile.user_id),
                        checkins=checkins,
                    )
        finally:
            reader.close()
        if tuple(users) != entry.user_ids:
            raise StoreFormatError(
                f"segment {entry.segment_id}: sidecar users disagree with manifest"
            )
        return Dataset(
            name=self.name,
            pois=pois if pois is not None else self.load_pois(),
            users=users,
        )

    def load_dataset(self) -> Dataset:
        """Materialise the whole store as one in-memory :class:`Dataset`.

        Defeats the point of the store at scale — intended for parity
        tests and small studies.
        """
        pois = self.load_pois()
        users: Dict[str, UserData] = {}
        for entry in self.segments:
            users.update(self.load_segment(entry, pois=pois).users)
        return Dataset(name=self.name, pois=pois, users=users)

    def iter_segments(self) -> Iterator[Tuple[SegmentEntry, Dataset]]:
        """Stream ``(entry, segment dataset)`` pairs in store order."""
        pois = self.load_pois()
        for entry in self.segments:
            yield entry, self.load_segment(entry, pois=pois)

    def verify(self) -> None:
        """Re-hash every segment against the manifest; raises on mismatch.

        Catches torn writes, truncation, and bit rot — a crashed writer
        cannot produce a store that passes (segments are renamed into
        place only when complete, and the manifest is written last).
        """
        for entry in self.segments:
            reader = SegmentReader(self.directory / entry.gps_file)
            actual = reader.fingerprint()
            reader.close()
            if actual != entry.sha256:
                raise StoreFormatError(
                    f"segment {entry.segment_id}: GPS content fingerprint mismatch"
                )
            digest = hashlib.sha256()
            digest.update((self.directory / entry.users_file).read_bytes())
            if digest.hexdigest() != entry.users_sha256:
                raise StoreFormatError(
                    f"segment {entry.segment_id}: users sidecar fingerprint mismatch"
                )
