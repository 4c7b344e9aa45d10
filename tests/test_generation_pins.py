"""Seeded generation reproduces committed bytes.

The generator draws POIs from candidate lists by index
(``World.pois_within``, ``World.sample_poi_near``), so a change to a
list's order or to the rounding of one distance changes the generated
study without failing any semantic test.  These pins catch it: the
golden fixture regenerates byte for byte, and a small Primary study
keeps its dataset fingerprint and content digest.
"""

from __future__ import annotations

import hashlib
import importlib.util
from pathlib import Path

from repro.io import save_dataset
from repro.obs.manifest import dataset_fingerprint
from repro.synth import generate_dataset
from repro.synth.config import primary_config

DATA_DIR = Path(__file__).resolve().parent / "data"
SAVED_FILES = ("checkins.jsonl", "gps.jsonl", "meta.json", "pois.jsonl", "profiles.jsonl")


def _golden_config():
    spec = importlib.util.spec_from_file_location(
        "regenerate_golden", DATA_DIR / "regenerate_golden.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.golden_config()


def test_golden_fixture_regenerates_byte_for_byte(tmp_path):
    save_dataset(generate_dataset(_golden_config()), tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(SAVED_FILES)
    for name in SAVED_FILES:
        assert (tmp_path / name).read_bytes() == (
            DATA_DIR / "golden_study" / name
        ).read_bytes(), f"{name} differs from the committed golden fixture"


def test_primary_generation_is_pinned(tmp_path):
    dataset = generate_dataset(primary_config(seed=5).scaled(0.02))
    assert dataset_fingerprint(dataset) == {
        "name": "Primary",
        "n_users": 5,
        "n_pois": 605,
        "n_checkins": 285,
        "n_gps_points": 69780,
        "sha256": "6fba2abc4ba2f7a482b33927e63aebb6ad250e88064779b6e25bd88b8dcc3a9b",
    }
    # The fingerprint hashes record counts only; the digest of the saved
    # files also pins every coordinate, time and chosen POI.
    save_dataset(dataset, tmp_path)
    digest = hashlib.sha256()
    for name in SAVED_FILES:
        digest.update(name.encode())
        digest.update((tmp_path / name).read_bytes())
    assert digest.hexdigest() == (
        "c5c29472b90516f0d5aeb5046f1e8e5095785dedb9b6e38c634cfae2728ff37c"
    )
