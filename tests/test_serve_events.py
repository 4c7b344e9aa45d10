"""Property tests: the JSONL event codec of the serving session.

* ``read_events(write_events(events)) == events`` for registrations,
  GPS fixes and checkins (with and without ``intent``), integer-valued
  floats included;
* the GPS fast path of :func:`event_from_dict` and the public
  ``StreamEvent(...)`` build equal events and raise the same
  ``ValueError`` text for non-finite or missing fields;
* events stay hashable and immutable, and every way of building one
  runs the same checks;
* ``read_events`` takes or refuses each line as ``json.loads`` of the
  stripped line does.
"""

from __future__ import annotations

import json
import math
import pickle

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.model import Checkin, CheckinType, PoiCategory  # noqa: E402
from repro.serve import (  # noqa: E402
    StreamEvent,
    checkin_event,
    event_from_dict,
    gps_event,
    read_events,
    register_event,
    write_events,
)

FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(min_value=-(10**9), max_value=10**9).map(float),
)
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
IDS = st.text(min_size=1, max_size=8)

CHECKINS = st.builds(
    Checkin,
    checkin_id=IDS,
    user_id=IDS,
    poi_id=IDS,
    x=FINITE,
    y=FINITE,
    t=FINITE,
    category=st.sampled_from(PoiCategory),
    intent=st.none() | st.sampled_from(CheckinType),
)

EVENTS = st.lists(
    st.one_of(
        st.builds(register_event, IDS),
        st.builds(gps_event, IDS, FINITE, FINITE, FINITE),
        st.builds(checkin_event, CHECKINS),
    ),
    max_size=12,
)


def outcome(build):
    """``("ok", event)`` or ``("error", message)`` of one build."""
    try:
        return "ok", build()
    except ValueError as exc:
        return "error", str(exc)


@settings(max_examples=60, deadline=None)
@given(events=EVENTS)
def test_jsonl_round_trip(tmp_path_factory, events):
    path = tmp_path_factory.mktemp("stream") / "events.jsonl"
    back = list(read_events(write_events(path, events)))
    assert back == events
    # Checkin equality ignores ``intent``; the records do not.
    assert [e.as_dict() for e in back] == [e.as_dict() for e in events]
    assert all(type(e) is StreamEvent for e in back)


@settings(max_examples=200, deadline=None)
@given(
    user=IDS,
    t=FINITE | NON_FINITE,
    x=FINITE | NON_FINITE,
    y=FINITE | NON_FINITE,
    drop_t=st.booleans(),
)
def test_gps_fast_path_matches_constructor(user, t, x, y, drop_t):
    record = {"kind": "gps", "user_id": user, "t": t, "x": x, "y": y}
    if drop_t:
        del record["t"]
        t = None
    fast = outcome(lambda: event_from_dict(record))
    assert fast == outcome(lambda: StreamEvent("gps", user, t, x, y))
    if fast[0] == "ok":
        assert repr(fast[1]) == repr(gps_event(user, t, x, y))


@pytest.mark.parametrize("fields, message", [
    ({"t": "60", "x": " 1e3 ", "y": 1.0}, "field 't' must be a number, got '60'"),
    ({"t": 60.0, "x": " 1e3 ", "y": 1.0}, "field 'x' must be a number, got ' 1e3 '"),
    ({"t": 60.0, "x": True, "y": 1.0}, "field 'x' must be a number, got True"),
    ({"t": 60.0, "x": 1.0, "y": None}, "field 'y' must be a number, got None"),
    ({"t": 10**400, "x": 1.0, "y": 2.0}, "field 't' is not a finite number"),
], ids=["numeric-string-fix", "numeric-string-x", "true-x", "null-y", "huge-int-t"])
def test_not_a_number_refused(tmp_path, fields, message):
    """Only a JSON number is a coordinate or a time: ``read_events`` names
    the line and the field of anything else."""
    fix = dict({"kind": "gps", "user_id": "u0"}, **fields)
    checkin = {"kind": "checkin", "user_id": "u0", "checkin": dict(
        {"checkin_id": "c0", "poi_id": "p0", "category": "Food"}, **fields)}
    for record in (fix, checkin):
        path = tmp_path / "events.jsonl"
        path.write_text(
            '{"kind": "register", "user_id": "u0"}\n' + json.dumps(record) + "\n"
        )
        events = read_events(path)
        assert next(events).kind == "register"
        with pytest.raises(ValueError) as excinfo:
            next(events)
        assert str(excinfo.value) == f"{path}:2: {message}"


def test_integer_time_through_read_events(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_text(
        '{"kind": "gps", "user_id": "u0", "t": 60, "x": 1.5, "y": -2}\n'
        '{"kind": "checkin", "user_id": "u0", "checkin": {"checkin_id": "c0", '
        '"poi_id": "p0", "x": 0, "y": 0.5, "t": 120, "category": "Food"}}\n'
    )
    fix, checkin = read_events(path)
    assert fix == gps_event("u0", 60.0, 1.5, -2.0)
    assert [type(v) for v in (fix.t, fix.x, fix.y)] == [float] * 3
    assert (checkin.t, checkin.checkin.x, checkin.checkin.t) == (120.0, 0.0, 120.0)
    assert type(checkin.checkin.x) is float and type(checkin.t) is float


def test_integer_fields_decode_as_floats():
    event = event_from_dict({"kind": "gps", "user_id": "u0", "t": 60, "x": 1, "y": -2})
    assert event == gps_event("u0", 60.0, 1.0, -2.0)
    assert [type(v) for v in (event.t, event.x, event.y)] == [float] * 3


@settings(max_examples=40, deadline=None)
@given(events=EVENTS)
def test_events_hashable_immutable_and_checked(events):
    copies = [pickle.loads(pickle.dumps(e)) for e in events]
    assert copies == events
    assert set(copies) == set(events)
    for event in events:
        with pytest.raises(AttributeError):
            event.t = 0.0
        if event.kind != "register":
            # ``_replace`` goes through the constructor's checks.
            with pytest.raises(ValueError, match="non-finite"):
                event._replace(t=math.nan)


def test_repr_names_every_field():
    assert repr(gps_event("u0", 1.0, 2.0, 3.0)) == (
        "StreamEvent(kind='gps', user_id='u0', t=1.0, x=2.0, y=3.0, "
        "checkin=None)"
    )


@pytest.mark.parametrize("record, message", [
    ({"kind": "gps", "user_id": "u0", "t": 1.0, "y": 2.0},
     "event record has no 'x' field"),
    ({"kind": "gps", "user_id": "u0", "x": 1.0, "y": 2.0},
     "gps event needs a timestamp"),
    ({"kind": "checkin", "user_id": "u0"}, "event record has no 'checkin' field"),
    ({"kind": "teleport", "user_id": "u0"}, "unknown event kind 'teleport'"),
    ({"user_id": "u0"}, "event record has no 'kind' field"),
], ids=["gps-no-x", "gps-no-t", "checkin-no-record", "unknown-kind", "no-kind"])
def test_bad_line_named_after_good_events(tmp_path, record, message):
    path = tmp_path / "events.jsonl"
    path.write_text(
        '{"kind": "register", "user_id": "u0"}\n'
        "\n"
        '{"kind": "gps", "user_id": "u0", "t": 0.0, "x": 1.0, "y": 2.0}\n'
        + json.dumps(record) + "\n"
    )
    events = read_events(path)
    assert [next(events).kind, next(events).kind] == ["register", "gps"]
    with pytest.raises(ValueError) as excinfo:
        next(events)
    assert str(excinfo.value).startswith(f"{path}:4: {message}")


#: Line bodies around which ``read_events``'s first parse and
#: ``json.loads`` could disagree: several values, trailing text, a
#: truncated record, non-object values, a byte-order mark.
BODIES = st.sampled_from([
    '{"kind": "register", "user_id": "u0"}',
    '{"kind": "gps", "user_id": "u0", "t": 1, "x": 2.5, "y": -3}',
    '{"kind": "register", "user_id": "u0"} {"kind": "register", "user_id": "u1"}',
    '{"kind": "register", "user_id": "u0"}x',
    '{"kind": "register", "user_id": "u0"',
    "null",
    "[]",
    "7",
    "",
    '\ufeff{"kind": "register", "user_id": "u0"}',
])
#: Whitespace ``str.strip`` removes; ``\r`` or ``\n`` would end the line.
PADDING = st.text(alphabet=" \t\x0b\x0c\u3000", max_size=2)


def loads_stripped(path, line):
    """The reference reading of one line: ``json.loads(line.strip())``."""
    if not line.strip():
        return "ok", []
    try:
        return "ok", [event_from_dict(json.loads(line.strip()))]
    except json.JSONDecodeError as exc:
        return "error", f"{path}:1: invalid JSON: {exc}"
    except (AttributeError, TypeError, ValueError) as exc:
        return "error", f"{path}:1: {exc}"


@settings(max_examples=150, deadline=None)
@given(body=BODIES, before=PADDING, after=PADDING, newline=st.booleans())
def test_lines_decode_as_json_loads(tmp_path_factory, body, before, after, newline):
    line = before + body + after + ("\n" if newline else "")
    path = tmp_path_factory.mktemp("line") / "events.jsonl"
    path.write_text(line, encoding="utf-8")
    assert outcome(lambda: list(read_events(path))) == loads_stripped(path, line)
