"""Input generation, reference digests and the per-pass digest check."""

import hashlib
import json
import time
from pathlib import Path

import pytest

import inputs
import passes
from run import END_TO_END, PER_LAYER, PROBE_REF_S, calibrated, tally
from tracing import Tracer

TINY = inputs.Sizes(
    batch_users=40, segment_users=20, serve_scale=0.01, fit_scale=0.05,
    manet_minutes=1,
)


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    return tmp_path_factory.mktemp("cache")


def _reference(directory):
    return inputs.load_reference(directory)


def _input_bytes(directory):
    """Hash of every generated input file, by relative path."""
    return {
        str(path.relative_to(directory)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(Path(directory).rglob("*"))
        if path.is_file() and path.name != "reference.json"
    }


def _pass(workload, directory, scratch, tracer=None):
    p = passes.Pass(time.monotonic(), tracer)
    try:
        units, output = passes.PASSES[workload](directory, p, scratch)
    finally:
        if tracer is not None:
            tracer.restore()
    return p, {"units": units, "digest": inputs.digest(output), "output": output}


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_one_seed_generates_identical_digests(workload, tmp_path):
    first = inputs.ensure(tmp_path / "a", workload, 7, TINY)
    second = inputs.ensure(tmp_path / "b", workload, 7, TINY)
    assert _reference(first) == _reference(second)
    assert _input_bytes(first) == _input_bytes(second)
    assert not list(first.parent.glob("*.tmp-*"))


def test_seed_changes_the_inputs(tmp_path):
    a = inputs.ensure(tmp_path, "batch_store", 1, TINY)
    b = inputs.ensure(tmp_path, "batch_store", 2, TINY)
    assert _input_bytes(a) != _input_bytes(b)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_measured_pass_reproduces_reference(workload, cache, tmp_path):
    directory = inputs.ensure(cache, workload, 3, TINY)
    p, result = _pass(workload, directory, tmp_path)
    assert result["digest"] == _reference(directory)["digest"]
    assert result["units"] > 0
    assert p.wall_s > 0 and p.setup_s > 0


def test_corrupted_summary_is_caught(cache, tmp_path):
    directory = inputs.ensure(cache, "batch_store", 3, TINY)
    reference = _reference(directory)
    _, good = _pass("batch_store", directory, tmp_path)
    output = dict(good["output"])
    output["summary"] = output["summary"].replace("honest checkins:", "honest checkins: 1")
    bad = {"units": good["units"], "digest": inputs.digest(output)}
    assert bad["digest"] != reference["digest"]
    assert tally([good, bad], reference["digest"]) == (2 * good["units"], good["units"])
    assert tally([good], reference["digest"]) == (good["units"], 0)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_traced_layers_add_up_to_traced_wall(workload, cache, tmp_path):
    directory = inputs.ensure(cache, workload, 3, TINY)
    tracer = Tracer()
    p, result = _pass(workload, directory, tmp_path, tracer)
    assert result["digest"] == _reference(directory)["digest"]
    layers = tracer.layer_self_times()
    measured = sum(s for name, s in layers.items() if name not in passes.SETUP_LAYERS)
    assert measured == pytest.approx(p.wall_s, abs=1e-3)
    assert all(s >= 0 for s in layers.values())
    assert len(layers) > 2


def test_metric_tables_match_benchmark_json():
    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


def test_calibration_scales_by_host_probe():
    base = {"units": 1000, "wall_s": 2.0, "setup_s": 0.5, "probe_s": PROBE_REF_S}
    assert calibrated(base) == pytest.approx({"setup_s": 0.5, "ops_per_s": 500.0})
    # The same pass during a phase where the host ran 1.5x slower.
    slow = {"units": 1000, "wall_s": 3.0, "setup_s": 0.75, "probe_s": 1.5 * PROBE_REF_S}
    assert calibrated(slow) == pytest.approx(calibrated(base))
