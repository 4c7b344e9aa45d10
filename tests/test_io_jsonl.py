"""JSON-lines dataset persistence."""

import json

import numpy as np
import pytest

from repro.io import load_dataset, save_dataset
from repro.model import CheckinType, PoiCategory, as_trace
from helpers import (
    make_checkin,
    make_dataset,
    make_poi,
    make_user,
    make_visit,
    stationary_gps,
)


@pytest.fixture
def dataset():
    pois = [
        make_poi("p0", 0, 0, PoiCategory.FOOD),
        make_poi("p1", 100, 200, PoiCategory.SHOP),
    ]
    users = [
        make_user(
            "u0",
            gps=stationary_gps(0, 0, 0, 300),
            checkins=[
                make_checkin("c0", "u0", "p0", t=60, intent=CheckinType.HONEST),
                make_checkin("c1", "u0", "p1", x=100, y=200, t=120,
                             category=PoiCategory.SHOP),
            ],
            visits=[make_visit("v0", "u0", poi_id="p0")],
        ),
        make_user("u1", gps=[], checkins=[], visits=[]),
    ]
    return make_dataset(users, pois=pois, name="roundtrip")


def test_roundtrip_exact(tmp_path, dataset):
    save_dataset(dataset, tmp_path / "ds")
    loaded = load_dataset(tmp_path / "ds")
    assert loaded.name == "roundtrip"
    assert set(loaded.pois) == {"p0", "p1"}
    assert set(loaded.users) == {"u0", "u1"}
    original = dataset.users["u0"]
    restored = loaded.users["u0"]
    assert restored.profile == original.profile
    assert restored.gps == original.gps
    assert restored.checkins == original.checkins
    assert restored.visits == original.visits
    # Intent labels survive the round trip (compare= is False on intent).
    assert restored.checkins[0].intent is CheckinType.HONEST
    assert restored.checkins[1].intent is None


def test_roundtrip_without_visits(tmp_path, dataset):
    for user in dataset.users.values():
        user.visits = None
    save_dataset(dataset, tmp_path / "ds")
    loaded = load_dataset(tmp_path / "ds")
    assert not (tmp_path / "ds" / "visits.jsonl").exists()
    assert all(u.visits is None for u in loaded.users.values())


def test_missing_file_raises(tmp_path, dataset):
    save_dataset(dataset, tmp_path / "ds")
    (tmp_path / "ds" / "checkins.jsonl").unlink()
    with pytest.raises(FileNotFoundError, match="checkins.jsonl"):
        load_dataset(tmp_path / "ds")


def test_corrupt_json_reports_line(tmp_path, dataset):
    save_dataset(dataset, tmp_path / "ds")
    path = tmp_path / "ds" / "pois.jsonl"
    path.write_text(path.read_text() + "{not json\n")
    with pytest.raises(ValueError, match="invalid JSON"):
        load_dataset(tmp_path / "ds")


def test_unknown_user_reference_rejected(tmp_path, dataset):
    save_dataset(dataset, tmp_path / "ds")
    path = tmp_path / "ds" / "gps.jsonl"
    with path.open("a") as handle:
        handle.write(json.dumps({"user_id": "ghost", "t": 0, "x": 0, "y": 0}) + "\n")
    with pytest.raises(ValueError, match="unknown user"):
        load_dataset(tmp_path / "ds")


def test_blank_lines_tolerated(tmp_path, dataset):
    save_dataset(dataset, tmp_path / "ds")
    path = tmp_path / "ds" / "profiles.jsonl"
    path.write_text(path.read_text() + "\n\n")
    loaded = load_dataset(tmp_path / "ds")
    assert len(loaded.users) == 2


def test_save_creates_directory(tmp_path, dataset):
    target = tmp_path / "deep" / "nested" / "ds"
    save_dataset(dataset, target)
    assert (target / "meta.json").exists()


def test_synthetic_roundtrip(tmp_path, primary):
    """The generated study survives persistence byte-for-value."""
    save_dataset(primary, tmp_path / "primary")
    loaded = load_dataset(tmp_path / "primary")
    assert loaded.stats() == primary.stats()
    user_id = next(iter(primary.users))
    assert loaded.users[user_id].checkins == primary.users[user_id].checkins


# ---------------------------------------------------------------------------
# Streaming loaders (out-of-core path)
# ---------------------------------------------------------------------------


def raw_dataset(dataset):
    """The fixture dataset without extracted visits (a raw study)."""
    for user in dataset.users.values():
        user.visits = None
    return dataset


def test_iter_user_data_round_trip(tmp_path, dataset):
    from repro.io import iter_user_data

    save_dataset(raw_dataset(dataset), tmp_path / "ds")
    streamed = list(iter_user_data(tmp_path / "ds"))
    assert [u.user_id for u in streamed] == list(dataset.users)
    for user in streamed:
        original = dataset.users[user.user_id]
        assert user.profile == original.profile
        assert user.gps == as_trace(original.gps)
        assert user.checkins == original.checkins
        assert user.visits is None


def test_iter_user_data_refuses_extracted_visits(tmp_path, dataset):
    from repro.io import iter_user_data

    save_dataset(dataset, tmp_path / "ds")  # fixture has visits
    with pytest.raises(ValueError, match="visits"):
        next(iter_user_data(tmp_path / "ds"))


def test_iter_user_data_rejects_ungrouped_files(tmp_path):
    from repro.io import iter_user_data

    users = [
        make_user("u0", gps=stationary_gps(0, 0, 0, 120)),
        make_user("u1", gps=stationary_gps(5, 5, 0, 120)),
    ]
    save_dataset(make_dataset(users, name="g"), tmp_path / "ds")
    gps_path = tmp_path / "ds" / "gps.jsonl"
    lines = gps_path.read_text().splitlines(keepends=True)
    # Move u0's first sample behind u1's block: still valid records, no
    # longer grouped in profile order.
    gps_path.write_text("".join(lines[1:] + lines[:1]))
    with pytest.raises(ValueError, match="grouped"):
        list(iter_user_data(tmp_path / "ds"))


def test_iter_user_data_rejects_unknown_user(tmp_path, dataset):
    from repro.io import iter_user_data

    save_dataset(raw_dataset(dataset), tmp_path / "ds")
    with (tmp_path / "ds" / "checkins.jsonl").open("a") as handle:
        record = {"checkin_id": "cx", "user_id": "ghost", "poi_id": "p0",
                  "x": 0, "y": 0, "t": 0, "category": "food"}
        handle.write(json.dumps(record) + "\n")
    with pytest.raises(ValueError, match="ghost"):
        list(iter_user_data(tmp_path / "ds"))


def test_load_dataset_into_store_round_trip(tmp_path, dataset):
    from repro.io import load_dataset_into_store

    save_dataset(raw_dataset(dataset), tmp_path / "ds")
    store = load_dataset_into_store(tmp_path / "ds", tmp_path / "store",
                                    segment_users=1)
    assert store.name == "roundtrip"
    assert len(store.segments) == len(dataset.users)
    loaded = store.load_dataset()
    assert set(loaded.pois) == set(dataset.pois)
    for user_id, original in dataset.users.items():
        assert loaded.users[user_id].gps == as_trace(original.gps)
        assert loaded.users[user_id].checkins == original.checkins


def test_load_dataset_bounds_gps_list_overhead(tmp_path):
    """Loading GPS must not materialise the whole column as Python lists.

    The regression: ``load_dataset`` once accumulated every sample of
    every user in flat Python float lists (~an order of magnitude larger
    than the final arrays).  The streaming rewrite keeps only the
    current user's run as lists, so peak allocation during the GPS pass
    stays within a small multiple of the final array payload.
    """
    import tracemalloc

    from repro.model import GpsTrace
    from helpers import make_user

    n_users, n_samples = 20, 2_000
    users = []
    for i in range(n_users):
        t = np.arange(n_samples) * 60.0
        users.append(make_user(f"u{i:03d}",
                               gps=GpsTrace(t, t + 0.25, t - 0.25)))
    save_dataset(make_dataset(users, name="big"), tmp_path / "big")

    tracemalloc.start()
    loaded = load_dataset(tmp_path / "big")
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    payload = 3 * 8 * n_users * n_samples  # the loaded float64 columns
    # One user's run as Python lists costs ~32x its array form; the
    # whole-study-as-lists bug cost ~11x payload overall.  4x payload
    # gives the streaming loader headroom without readmitting the bug.
    assert peak < 4 * payload, f"peak {peak} vs payload {payload}"
    assert all(len(u.gps) == n_samples for u in loaded.users.values())


#: Non-finite values as JSONL exports carry them: quoted strings that
#: ``float()`` would parse, and the bare tokens Python's ``json`` accepts.
#: The loaders refuse a string as not a number before any finite check.
NON_FINITE = ['"nan"', '"inf"', "NaN", "Infinity", "-Infinity"]


def refusal(token):
    """The text a loader's error gives for ``token``."""
    return "must be a number" if token.startswith('"') else "non-finite"


def poison(path, field, token):
    """Rewrite the first record of a JSONL file with ``field`` set to the
    raw JSON text ``token``."""
    lines = path.read_text().splitlines()
    record = json.loads(lines[0])
    record[field] = "@"
    lines[0] = json.dumps(record).replace('"@"', token)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("token", NON_FINITE)
@pytest.mark.parametrize("filename, field", [
    ("gps.jsonl", "t"), ("gps.jsonl", "x"),
    ("checkins.jsonl", "y"), ("checkins.jsonl", "t"),
])
@pytest.mark.parametrize("loader", ["load_dataset", "iter_user_data"])
def test_non_finite_values_rejected(tmp_path, dataset, loader, filename, field, token):
    from repro.io import iter_user_data

    save_dataset(raw_dataset(dataset), tmp_path / "ds")
    poison(tmp_path / "ds" / filename, field, token)
    with pytest.raises(
        ValueError, match=rf"{filename}: .*user 'u0'.*{refusal(token)}"
    ):
        if loader == "load_dataset":
            load_dataset(tmp_path / "ds")
        else:
            list(iter_user_data(tmp_path / "ds"))


@pytest.mark.parametrize("token", NON_FINITE)
def test_non_finite_poi_and_visit_rejected(tmp_path, dataset, token):
    from repro.io import load_dataset_into_store

    save_dataset(dataset, tmp_path / "ds")
    poison(tmp_path / "ds" / "visits.jsonl", "x", token)
    with pytest.raises(ValueError, match=r"visits\.jsonl: .*user 'u0'"):
        load_dataset(tmp_path / "ds")

    save_dataset(raw_dataset(dataset), tmp_path / "raw")
    poison(tmp_path / "raw" / "pois.jsonl", "y", token)
    with pytest.raises(ValueError, match=r"pois\.jsonl: .*POI 'p0'"):
        load_dataset(tmp_path / "raw")
    with pytest.raises(ValueError, match=r"pois\.jsonl: .*POI 'p0'"):
        load_dataset_into_store(tmp_path / "raw", tmp_path / "store")


#: One GPS fix as a JSON value of each wrong type, and of the integer
#: type the loaders take as a number.
NOT_NUMBERS = [
    ("x", '" 1e3 "', "field 'x' must be a number, got ' 1e3 '"),
    ("t", '"60"', "field 't' must be a number, got '60'"),
    ("y", "true", "field 'y' must be a number, got True"),
    ("x", "null", "field 'x' must be a number, got None"),
]


@pytest.mark.parametrize("field, token, message", NOT_NUMBERS,
                         ids=["numeric-string-x", "numeric-string-t",
                              "true-y", "null-x"])
@pytest.mark.parametrize("loader", ["load_dataset", "iter_user_data"])
def test_not_a_number_rejected(tmp_path, dataset, loader, field, token, message):
    from repro.io import iter_user_data

    save_dataset(raw_dataset(dataset), tmp_path / "ds")
    poison(tmp_path / "ds" / "gps.jsonl", field, token)
    with pytest.raises(ValueError) as excinfo:
        if loader == "load_dataset":
            load_dataset(tmp_path / "ds")
        else:
            list(iter_user_data(tmp_path / "ds"))
    text = str(excinfo.value)
    assert text.startswith(f"{tmp_path / 'ds' / 'gps.jsonl'}: gps record for user 'u0'")
    assert text.endswith(message)


@pytest.mark.parametrize("filename, field, owner", [
    ("pois.jsonl", "x", "POI 'p0'"),
    ("checkins.jsonl", "t", "user 'u0'"),
    ("visits.jsonl", "t_end", "user 'u0'"),
])
def test_numeric_string_rejected_in_every_file(tmp_path, dataset, filename, field, owner):
    save_dataset(dataset, tmp_path / "ds")
    poison(tmp_path / "ds" / filename, field, '"60"')
    with pytest.raises(ValueError) as excinfo:
        load_dataset(tmp_path / "ds")
    assert str(excinfo.value) == (
        f"{tmp_path / 'ds' / filename}: {filename.split('s.')[0]} record for "
        f"{owner}: field {field!r} must be a number, got '60'"
    )


def test_integer_fields_load_as_floats(tmp_path, dataset):
    """A JSON integer is a number: ``"t": 60`` loads as ``60.0``."""
    save_dataset(dataset, tmp_path / "ds")
    for filename, fields in [
        ("gps.jsonl", ("t", "x")),
        ("checkins.jsonl", ("t", "y")),
        ("pois.jsonl", ("x",)),
        ("visits.jsonl", ("t_start",)),
    ]:
        path = tmp_path / "ds" / filename
        lines = path.read_text().splitlines()
        record = json.loads(lines[0])
        for name in fields:
            record[name] = 60
        lines[0] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
    loaded = load_dataset(tmp_path / "ds")
    user = loaded.users["u0"]
    assert user.gps.t[0] == 60.0 and user.gps.x[0] == 60.0
    assert (user.checkins[0].t, user.checkins[0].y) == (60.0, 60.0)
    assert type(user.checkins[0].t) is float
    assert loaded.pois["p0"].x == 60.0 and type(loaded.pois["p0"].x) is float
    assert user.visits[0].t_start == 60.0
