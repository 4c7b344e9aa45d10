"""JSON-lines persistence for study datasets.

A dataset is stored as a directory of newline-delimited JSON files, one
per record kind — the layout a real deployment of the paper's collection
app would export, and friendly to streaming tools:

``meta.json``      dataset name
``pois.jsonl``     one POI per line
``profiles.jsonl`` one user profile per line
``gps.jsonl``      one GPS sample per line
``checkins.jsonl`` one checkin per line
``visits.jsonl``   one visit per line (only when extraction has run)

Round-tripping is exact for every field, including the synthetic
ground-truth ``intent`` label on checkins.  Both loaders reject a
non-finite coordinate or timestamp (``NaN``/``Infinity`` tokens) and a
coordinate or timestamp that is not a JSON number (a string such as
``"60"``, ``true``, ``null``) with a ``ValueError`` naming the file and
the user or POI, before it can reach a kernel.  JSON integers are taken
as numbers.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional

import numpy as np

from ..model import (
    Checkin,
    CheckinType,
    Dataset,
    GpsTrace,
    Poi,
    PoiCategory,
    UserData,
    UserProfile,
    Visit,
    as_trace,
)

_FILES = ("meta.json", "pois.jsonl", "profiles.jsonl", "gps.jsonl", "checkins.jsonl")


def _write_jsonl(path: Path, records: Iterable[Dict[str, Any]]) -> None:
    with path.open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, separators=(",", ":")))
            handle.write("\n")


def _read_jsonl(path: Path) -> Iterator[Dict[str, Any]]:
    with path.open("r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: invalid JSON: {exc}") from exc


def json_number(value: Any, name: str) -> float:
    """A numeric field that did not decode as a float, as a float.

    A JSON integer converts; anything else — a string that spells a
    number, ``true``/``false``, ``null`` — raises ``ValueError`` naming
    the field.  Callers test ``type(v) is not float`` first, so a float
    field costs no call: ``if type(v) is not float: v = json_number(v, name)``.
    """
    if type(value) is int:
        try:
            return float(value)
        except OverflowError:
            raise ValueError(f"field {name!r} is not a finite number") from None
    raise ValueError(f"field {name!r} must be a number, got {value!r}")


def _decode(path: Path, kind: str, decode, record: Dict[str, Any]):
    """``decode(record)``; a decode error names the file and the owner."""
    try:
        return decode(record)
    except ValueError as exc:
        owner = (
            f"POI {record.get('poi_id')!r}" if kind == "poi"
            else f"user {record.get('user_id')!r}"
        )
        raise ValueError(f"{path}: {kind} record for {owner}: {exc}") from None


def _numbers(record: Dict[str, Any], *names: str) -> List[float]:
    """The named numeric fields of ``record``, checked by :func:`json_number`."""
    return [
        v if type(v) is float else json_number(v, name)
        for name in names
        for v in (record[name],)
    ]


def _non_finite(path: Path, kind: str, owner: str) -> ValueError:
    return ValueError(
        f"{path}: {kind} record for {owner} has a non-finite coordinate or time"
    )


def _require_finite(path: Path, kind: str, owner: str, *values: float) -> None:
    if not all(map(math.isfinite, values)):
        raise _non_finite(path, kind, owner)


def _gps_block(path: Path, user_id: str, t: list, x: list, y: list) -> np.ndarray:
    """Freeze one user's run of GPS columns into a ``(3, n)`` float64 block.

    The loaders collect the records' raw JSON values, so the type check
    runs here, a column at a time: integers convert, anything else is
    refused naming the file and the user.
    """
    if not {*map(type, t), *map(type, x), *map(type, y)} <= {float}:
        try:
            t, x, y = (
                [v if type(v) is float else json_number(v, name) for v in column]
                for name, column in (("t", t), ("x", x), ("y", y))
            )
        except ValueError as exc:
            raise ValueError(f"{path}: gps record for user {user_id!r}: {exc}") from None
    block = np.array([t, x, y], dtype=np.float64)
    if not np.isfinite(block).all():
        raise _non_finite(path, "gps", f"user {user_id!r}")
    return block


def _read_pois(path: Path) -> Dict[str, Poi]:
    pois: Dict[str, Poi] = {}
    for record in _read_jsonl(path):
        poi = _decode(path, "poi", decode_poi, record)
        _require_finite(path, "poi", f"POI {poi.poi_id!r}", poi.x, poi.y)
        pois[poi.poi_id] = poi
    return pois


def _read_checkin(path: Path, record: Dict[str, Any]) -> Checkin:
    checkin = _decode(path, "checkin", decode_checkin, record)
    _require_finite(
        path, "checkin", f"user {checkin.user_id!r}", checkin.x, checkin.y, checkin.t
    )
    return checkin


def encode_poi(poi: Poi) -> Dict[str, Any]:
    """POI record → JSON-safe dict."""
    return {
        "poi_id": poi.poi_id,
        "name": poi.name,
        "category": poi.category.value,
        "x": poi.x,
        "y": poi.y,
    }


def decode_poi(record: Dict[str, Any]) -> Poi:
    """JSON dict → POI record."""
    x, y = _numbers(record, "x", "y")
    return Poi(
        poi_id=record["poi_id"],
        name=record["name"],
        category=PoiCategory.from_label(record["category"]),
        x=x,
        y=y,
    )


def encode_profile(profile: UserProfile) -> Dict[str, Any]:
    """User profile → JSON-safe dict."""
    return {
        "user_id": profile.user_id,
        "friends": profile.friends,
        "badges": profile.badges,
        "mayorships": profile.mayorships,
        "study_days": profile.study_days,
    }


def _json_count(record: Dict[str, Any], name: str) -> int:
    """A count field: a JSON integer, and not ``true``/``false``."""
    value = record[name]
    if type(value) is not int:
        raise ValueError(f"field {name!r} must be an integer, got {value!r}")
    return value


def decode_profile(record: Dict[str, Any]) -> UserProfile:
    """JSON dict → user profile.

    ``friends``, ``badges`` and ``mayorships`` must be JSON integers and
    ``study_days`` a finite JSON number; anything else raises
    ``ValueError`` naming the field.
    """
    (study_days,) = _numbers(record, "study_days")
    if not math.isfinite(study_days):
        raise ValueError("field 'study_days' is not a finite number")
    return UserProfile(
        user_id=record["user_id"],
        friends=_json_count(record, "friends"),
        badges=_json_count(record, "badges"),
        mayorships=_json_count(record, "mayorships"),
        study_days=study_days,
    )


def encode_checkin(checkin: Checkin) -> Dict[str, Any]:
    """Checkin → JSON-safe dict (ground-truth intent preserved when present)."""
    record = {
        "checkin_id": checkin.checkin_id,
        "user_id": checkin.user_id,
        "poi_id": checkin.poi_id,
        "x": checkin.x,
        "y": checkin.y,
        "t": checkin.t,
        "category": checkin.category.value,
    }
    if checkin.intent is not None:
        record["intent"] = checkin.intent.value
    return record


def decode_checkin(record: Dict[str, Any]) -> Checkin:
    """JSON dict → checkin."""
    intent = record.get("intent")
    x, y, t = _numbers(record, "x", "y", "t")
    return Checkin(
        checkin_id=record["checkin_id"],
        user_id=record["user_id"],
        poi_id=record["poi_id"],
        x=x,
        y=y,
        t=t,
        category=PoiCategory.from_label(record["category"]),
        intent=None if intent is None else CheckinType(intent),
    )


def encode_visit(visit: Visit) -> Dict[str, Any]:
    """Visit → JSON-safe dict."""
    return {
        "visit_id": visit.visit_id,
        "user_id": visit.user_id,
        "x": visit.x,
        "y": visit.y,
        "t_start": visit.t_start,
        "t_end": visit.t_end,
        "poi_id": visit.poi_id,
    }


def decode_visit(record: Dict[str, Any]) -> Visit:
    """JSON dict → visit."""
    x, y, t_start, t_end = _numbers(record, "x", "y", "t_start", "t_end")
    return Visit(
        visit_id=record["visit_id"],
        user_id=record["user_id"],
        x=x,
        y=y,
        t_start=t_start,
        t_end=t_end,
        poi_id=record.get("poi_id"),
    )


def save_dataset(dataset: Dataset, directory: Path | str) -> None:
    """Write ``dataset`` to ``directory`` (created if absent)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "meta.json").write_text(
        json.dumps({"name": dataset.name, "format": 1}), encoding="utf-8"
    )
    _write_jsonl(directory / "pois.jsonl", (encode_poi(p) for p in dataset.pois.values()))
    _write_jsonl(
        directory / "profiles.jsonl",
        (encode_profile(d.profile) for d in dataset.users.values()),
    )
    _write_jsonl(
        directory / "gps.jsonl",
        (
            {"user_id": d.user_id, "t": t, "x": x, "y": y}
            for d in dataset.users.values()
            for t, x, y in as_trace(d.gps).rows()
        ),
    )
    _write_jsonl(
        directory / "checkins.jsonl",
        (encode_checkin(c) for d in dataset.users.values() for c in d.checkins),
    )
    if dataset.has_visits():
        _write_jsonl(
            directory / "visits.jsonl",
            (encode_visit(v) for d in dataset.users.values() for v in d.visits or []),
        )


def load_dataset(directory: Path | str) -> Dataset:
    """Read a dataset previously written by :func:`save_dataset`."""
    directory = Path(directory)
    for name in _FILES:
        if not (directory / name).exists():
            raise FileNotFoundError(f"dataset directory {directory} is missing {name}")
    meta = json.loads((directory / "meta.json").read_text(encoding="utf-8"))
    pois = _read_pois(directory / "pois.jsonl")
    users: Dict[str, UserData] = {}
    profiles = directory / "profiles.jsonl"
    for record in _read_jsonl(profiles):
        profile = _decode(profiles, "profile", decode_profile, record)
        users[profile.user_id] = UserData(profile=profile)

    def user_of(record: Dict[str, Any], kind: str) -> UserData:
        user_id = record["user_id"]
        if user_id not in users:
            raise ValueError(f"{kind} record references unknown user {user_id!r}")
        return users[user_id]

    # GPS is by far the largest file; materialising it as Python float
    # lists costs ~10x the final array size.  Records are grouped by
    # user on write, so accumulate floats only for the current run and
    # freeze each run into a compact (3, n) float64 block at the user
    # change — peak list overhead is one user's trace, not the study's.
    gps_path = directory / "gps.jsonl"
    gps_runs: Dict[str, List[np.ndarray]] = {}
    run_user: Optional[str] = None
    run_t: List[float] = []
    run_x: List[float] = []
    run_y: List[float] = []
    for record in _read_jsonl(gps_path):
        user_of(record, "gps")
        user_id = record["user_id"]
        if user_id != run_user:
            if run_user is not None:
                gps_runs.setdefault(run_user, []).append(
                    _gps_block(gps_path, run_user, run_t, run_x, run_y)
                )
            run_user = user_id
            run_t, run_x, run_y = [], [], []
        run_t.append(record["t"])
        run_x.append(record["x"])
        run_y.append(record["y"])
    if run_user is not None:
        gps_runs.setdefault(run_user, []).append(
            _gps_block(gps_path, run_user, run_t, run_x, run_y)
        )
    for user_id, data in users.items():
        runs = gps_runs.pop(user_id, None)
        if not runs:
            data.gps = GpsTrace.empty()
        else:
            cols = runs[0] if len(runs) == 1 else np.concatenate(runs, axis=1)
            data.gps = GpsTrace(cols[0], cols[1], cols[2])
    checkins_path = directory / "checkins.jsonl"
    for record in _read_jsonl(checkins_path):
        checkin = _read_checkin(checkins_path, record)
        user_of(record, "checkin").checkins.append(checkin)
    visits_path = directory / "visits.jsonl"
    if visits_path.exists():
        per_user: Dict[str, List[Visit]] = {user_id: [] for user_id in users}
        for record in _read_jsonl(visits_path):
            visit = _decode(visits_path, "visit", decode_visit, record)
            user_of(record, "visit")
            _require_finite(
                visits_path, "visit", f"user {visit.user_id!r}",
                visit.x, visit.y, visit.t_start, visit.t_end,
            )
            per_user[visit.user_id].append(visit)
        for user_id, visits in per_user.items():
            users[user_id].visits = visits
    return Dataset(name=meta["name"], pois=pois, users=users)


class _GroupedReader:
    """Cursor over a user-grouped JSONL file with one-record pushback.

    ``take(user_id)`` yields that user's contiguous records; the first
    foreign record is pushed back for the next user.  ``finish`` raises
    if anything is left — which catches both unknown users and files
    that are not actually grouped in profile order.
    """

    def __init__(self, path: Path, kind: str) -> None:
        self.path = path
        self.kind = kind
        self._iter = _read_jsonl(path)
        self._pushback: Optional[Dict[str, Any]] = None

    def take(self, user_id: str) -> Iterator[Dict[str, Any]]:
        while True:
            if self._pushback is not None:
                record, self._pushback = self._pushback, None
            else:
                record = next(self._iter, None)
            if record is None:
                return
            if record["user_id"] != user_id:
                self._pushback = record
                return
            yield record

    def finish(self) -> None:
        leftover = self._pushback or next(self._iter, None)
        if leftover is not None:
            raise ValueError(
                f"{self.path}: {self.kind} record for user "
                f"{leftover.get('user_id')!r} not reachable in profile order "
                "(unknown user, or file is not grouped by user)"
            )


def iter_user_data(directory: Path | str) -> Iterator[UserData]:
    """Stream users from a JSONL dataset directory, one at a time.

    Peak memory is one user's records, not the study's — the entry
    point for spilling a large JSONL export into a segment store.
    Requires the grouped-by-user layout :func:`save_dataset` writes
    (profiles in canonical order; gps/checkins grouped per user);
    anything else raises.  Extracted visits are refused: streaming
    consumers persist raw studies.
    """
    directory = Path(directory)
    for name in _FILES:
        if not (directory / name).exists():
            raise FileNotFoundError(f"dataset directory {directory} is missing {name}")
    if (directory / "visits.jsonl").exists():
        raise ValueError(
            f"{directory}: has extracted visits; the streaming loader only "
            "handles raw studies (load_dataset materialises them instead)"
        )
    gps = _GroupedReader(directory / "gps.jsonl", "gps")
    checkins = _GroupedReader(directory / "checkins.jsonl", "checkin")
    profiles = directory / "profiles.jsonl"
    for record in _read_jsonl(profiles):
        profile = _decode(profiles, "profile", decode_profile, record)
        t: List[float] = []
        x: List[float] = []
        y: List[float] = []
        for sample in gps.take(profile.user_id):
            t.append(sample["t"])
            x.append(sample["x"])
            y.append(sample["y"])
        yield UserData(
            profile=profile,
            gps=(
                GpsTrace(*_gps_block(gps.path, profile.user_id, t, x, y))
                if t else GpsTrace.empty()
            ),
            checkins=[
                _read_checkin(checkins.path, c)
                for c in checkins.take(profile.user_id)
            ],
        )
    gps.finish()
    checkins.finish()


def load_dataset_into_store(
    directory: Path | str,
    store_dir: Path | str,
    segment_users: Optional[int] = None,
):
    """Spill a JSONL dataset directory into a study store, streaming.

    Returns the opened :class:`repro.store.StudyStore`.  Never holds
    more than one segment's users in memory.
    """
    from ..store import DEFAULT_SEGMENT_USERS, StudyStoreWriter

    directory = Path(directory)
    meta = json.loads((directory / "meta.json").read_text(encoding="utf-8"))
    writer = StudyStoreWriter(
        store_dir,
        meta["name"],
        segment_users=segment_users or DEFAULT_SEGMENT_USERS,
    )
    writer.write_pois(_read_pois(directory / "pois.jsonl"))
    writer.add_users(iter_user_data(directory))
    return writer.finalize()
