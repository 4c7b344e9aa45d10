"""Wire types of the streaming validation service.

A serving session is a stream of :class:`StreamEvent` records — user
registrations, GPS fixes, checkins — and produces a stream of
:class:`Verdict` records, one per checkin (honest or the extraneous
taxonomy) plus one per missing visit.  Both round-trip through JSON
lines so a stream can be captured, replayed and diffed.

Verdicts carry a per-user sequence number assigned at emission.  The
engine is deterministic, so a crashed-and-resumed server re-emits any
in-flight verdicts with identical ``(seq, payload)`` — consumers
deduplicate by ``(user_id, seq)`` and the crash drill asserts the
overlap is byte-identical (see ``tests/test_runtime_faults.py``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import isfinite
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, NamedTuple, Optional, Union

from ..io.jsonl import json_number
from ..model import Checkin, CheckinType, PoiCategory

#: Recognised stream event kinds.
EVENT_KINDS = ("register", "gps", "checkin")


class _EventFields(NamedTuple):
    kind: str
    user_id: str
    t: Optional[float]
    x: float
    y: float
    checkin: Optional[Checkin]


class StreamEvent(_EventFields):
    """One input record of the serving session.

    ``register`` announces a user (must precede their first trace
    event); ``gps`` carries one fix at ``(x, y)``; ``checkin`` carries a
    full :class:`repro.model.Checkin`.  ``t`` is the *event* time (the
    fix or checkin timestamp), ``None`` for registrations.  A trace
    event whose time or position is NaN or infinite is rejected.

    An immutable named tuple: a stream is mostly GPS fixes, and a tuple
    is several times cheaper to build than a frozen dataclass.
    """

    __slots__ = ()

    def __new__(
        cls,
        kind: str,
        user_id: str,
        t: Optional[float] = None,
        x: float = 0.0,
        y: float = 0.0,
        checkin: Optional[Checkin] = None,
    ) -> "StreamEvent":
        if kind not in EVENT_KINDS:
            raise ValueError(
                f"unknown event kind {kind!r}; expected one of {EVENT_KINDS}"
            )
        if kind != "register":
            if t is None:
                raise ValueError(f"{kind} event needs a timestamp")
            if kind == "gps":
                _check_finite(kind, user_id, t, x, y)
            elif checkin is None:
                raise ValueError("checkin event needs a checkin record")
            else:
                _check_finite(kind, user_id, t, checkin.x, checkin.y)
        return _new_event(cls, (kind, user_id, t, x, y, checkin))

    @classmethod
    def _make(cls, iterable: Iterable[Any]) -> "StreamEvent":
        # Route ``_make``/``_replace`` through the checks above.
        return cls(*iterable)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-safe record (inverse of :func:`event_from_dict`)."""
        out: Dict[str, Any] = {"kind": self.kind, "user_id": self.user_id}
        if self.kind == "gps":
            out.update(t=self.t, x=self.x, y=self.y)
        elif self.kind == "checkin":
            c = self.checkin
            out["checkin"] = {
                "checkin_id": c.checkin_id,
                "poi_id": c.poi_id,
                "x": c.x,
                "y": c.y,
                "t": c.t,
                "category": c.category.value,
            }
            if c.intent is not None:
                out["checkin"]["intent"] = c.intent.value
        return out


#: Builds an event from its six fields without re-running the checks.
_new_event = tuple.__new__


def _check_finite(kind: str, user_id: str, t: float, x: float, y: float) -> None:
    """The one finite-value check of every trace event, whichever way it
    is built."""
    if not (isfinite(t) and isfinite(x) and isfinite(y)):
        raise ValueError(
            f"{kind} event for user {user_id!r} has a non-finite field "
            f"(t={t!r}, x={x!r}, y={y!r})"
        )


def register_event(user_id: str) -> StreamEvent:
    """A registration event for ``user_id``."""
    return StreamEvent(kind="register", user_id=user_id)


def gps_event(user_id: str, t: float, x: float, y: float) -> StreamEvent:
    """One GPS fix event."""
    return StreamEvent(kind="gps", user_id=user_id, t=t, x=x, y=y)


def checkin_event(checkin: Checkin) -> StreamEvent:
    """One checkin event (time taken from the checkin itself)."""
    return StreamEvent(
        kind="checkin", user_id=checkin.user_id, t=checkin.t, checkin=checkin
    )


def event_from_dict(data: Dict[str, Any]) -> StreamEvent:
    """Parse one :meth:`StreamEvent.as_dict` record.

    A record that lacks a field, or holds a coordinate or timestamp
    that is not a JSON number (a JSON integer counts), raises
    :class:`ValueError`; a GPS fix without ``t`` gets the constructor's
    own error.
    """
    try:
        kind = data["kind"]
        user_id = data["user_id"]
        if kind == "gps":
            # The hot path: most of a stream is fixes.  The constructor's
            # gps checks, without its per-kind dispatch.
            t = data["t"]
            x = data["x"]
            y = data["y"]
            if type(t) is not float:
                t = json_number(t, "t")
            if type(x) is not float:
                x = json_number(x, "x")
            if type(y) is not float:
                y = json_number(y, "y")
            _check_finite(kind, user_id, t, x, y)
            return _new_event(StreamEvent, (kind, user_id, t, x, y, None))
        if kind != "checkin":
            # A registration, or the constructor's unknown-kind error.
            return StreamEvent(kind, user_id)
        raw = data["checkin"]
        intent = raw.get("intent")
        t = raw["t"]
        x = raw["x"]
        y = raw["y"]
        if type(t) is not float:
            t = json_number(t, "t")
        if type(x) is not float:
            x = json_number(x, "x")
        if type(y) is not float:
            y = json_number(y, "y")
        checkin = Checkin(
            checkin_id=raw["checkin_id"],
            user_id=user_id,
            poi_id=raw["poi_id"],
            x=x,
            y=y,
            t=t,
            category=PoiCategory(raw["category"]),
            intent=None if intent is None else CheckinType(intent),
        )
    except KeyError as exc:
        if exc.args[0] == "t" and data.get("kind") == "gps":
            return StreamEvent("gps", data["user_id"])
        raise ValueError(f"event record has no {exc.args[0]!r} field") from None
    return checkin_event(checkin)


def write_events(path: Union[str, Path], events: Iterable[StreamEvent]) -> Path:
    """Write an event stream as JSON lines; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(event.as_dict(), sort_keys=True) + "\n")
    return path


#: The parse ``json.loads`` runs, without its argument checks and its two
#: whitespace scans: together a third of decoding one fix's line.
_raw_decode = json.JSONDecoder().raw_decode


def read_events(path: Union[str, Path]) -> Iterator[StreamEvent]:
    """Iterate a JSONL event stream written by :func:`write_events`.

    Lazy: every good event is yielded before a bad line raises a
    :class:`ValueError` that names ``path:lineno``.  Blank lines are
    skipped, and each other line must hold one JSON value, whitespace
    around it allowed.
    """
    with Path(path).open("r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            try:
                try:
                    data, end = _raw_decode(line)
                except json.JSONDecodeError:
                    end = 0
                if line[end:].strip():
                    # Not one JSON value from the first character to the
                    # line end: ``loads`` gives its value or its error.
                    data = json.loads(line.strip())
                elif not end:
                    continue
                event = event_from_dict(data)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            except (AttributeError, TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            yield event


@dataclass(frozen=True)
class Verdict:
    """One output record of the serving session.

    ``kind`` is ``"checkin"`` (``label`` is honest or an extraneous
    class) or ``"missing"`` (an unmatched visit; ``label`` is
    ``"missing"``).  ``seq`` is the user's 0-based emission index;
    ``visit_id`` names the matched visit for honest checkins and the
    unmatched visit for missing verdicts.
    """

    user_id: str
    seq: int
    kind: str
    subject_id: str
    label: str
    t: float
    visit_id: Optional[str] = None

    def as_dict(self) -> Dict[str, Any]:
        """JSON-safe record."""
        return {
            "user_id": self.user_id,
            "seq": self.seq,
            "kind": self.kind,
            "subject_id": self.subject_id,
            "label": self.label,
            "t": self.t,
            "visit_id": self.visit_id,
        }


def verdict_labels(verdicts: Iterable[Verdict]) -> Dict[str, str]:
    """Checkin-id → label map from a verdict stream (checkin verdicts only)."""
    out: Dict[str, str] = {}
    for verdict in verdicts:
        if verdict.kind == "checkin":
            out[verdict.subject_id] = verdict.label
    return out


def missing_visit_ids(verdicts: Iterable[Verdict]) -> List[str]:
    """Visit ids reported missing, in emission order."""
    return [v.subject_id for v in verdicts if v.kind == "missing"]
