"""The names the benchmark's tracer patches stay defined where it looks.

``perfbench/passes.py`` times each layer by replacing ``vars(owner)[attr]``
with a timed wrapper (``perfbench/tracing.py::Tracer.patch``), so a
refactor that moves or drops one of these names makes ``--trace 1`` fail
with a ``KeyError``.  This test fails first, in tier-1.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro.core.pipeline as pipeline
from repro.geo import GridIndex
from repro.levy import NodeTrace
from repro.manet import AodvNode, Simulator, runner
from repro.serve import engine, service
from repro.store import StudyStore

PATCH_POINTS = [
    # batch_store
    (StudyStore, "load_segment"),
    (pipeline, "extract_dataset_visits"),
    (pipeline, "match_dataset"),
    (pipeline, "classify_dataset"),
    # serve_replay
    (service.ValidationService, "ingest"),
    (service.ValidationService, "finish"),
    (engine.StreamEngine, "ingest"),
    (engine.StreamEngine, "finalize"),
    (engine, "extract_visits"),
    (engine, "match_user"),
    (engine, "classify_user_extraneous"),
    # manet_fig8
    (runner, "generate_fleet"),
    (NodeTrace, "positions_at"),
    (GridIndex, "from_columns"),
    (GridIndex, "within_many"),
    (AodvNode, "receive"),
    (AodvNode, "tick"),
    (AodvNode, "on_unicast_failed"),
    (AodvNode, "drain_outbox"),
    (AodvNode, "has_route"),
    (Simulator, "run"),
]


@pytest.mark.parametrize(
    "owner, attr",
    PATCH_POINTS,
    ids=[f"{getattr(o, '__name__', o)}.{a}" for o, a in PATCH_POINTS],
)
def test_patch_point_defined_on_its_owner(owner, attr):
    assert attr in vars(owner)


def test_list_covers_every_literal_patch():
    """Every ``tracer.patch(owner, "attr", ...)`` in passes.py is listed
    here (patches in a loop over names are listed by hand above)."""
    source = Path(__file__).resolve().parents[1] / "perfbench" / "passes.py"
    patched = {
        call.args[1].value
        for call in ast.walk(ast.parse(source.read_text(encoding="utf-8")))
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and call.func.attr == "patch"
        and len(call.args) > 1
        and isinstance(call.args[1], ast.Constant)
    }
    assert patched
    assert patched <= {attr for _, attr in PATCH_POINTS}
