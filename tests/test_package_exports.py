"""Lazy package exports and the import graph they allow.

Every package ``__init__`` under ``repro`` declares its exports as one
table passed to :func:`repro._exports.lazy_exports`; a name's submodule
is imported the first time the name is looked up.  These tests read the
tables straight from the source, check each name against the submodule
that defines it, and pin which modules an entry point loads (module
names only: timings vary with the host).
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent
PACKAGES = sorted(
    ".".join(path.parent.relative_to(SRC).parts)
    for path in (SRC / "repro").rglob("__init__.py")
)


def export_table(package: str):
    """``(table, modules)`` as written in the package's ``__init__``."""
    path = SRC.joinpath(*package.split("."), "__init__.py")
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "lazy_exports":
            table = ast.literal_eval(node.args[1])
            modules = ast.literal_eval(node.keywords[0].value) if node.keywords else ()
            return table, modules
    raise AssertionError(f"{path} has no lazy_exports table")


def test_every_package_is_covered():
    assert "repro" in PACKAGES and "repro.core" in PACKAGES


@pytest.mark.parametrize("package", PACKAGES)
def test_names_resolve_to_their_submodule_objects(package):
    pkg = importlib.import_module(package)
    table, modules = export_table(package)
    for module, names in table.items():
        sub = importlib.import_module(f"{package}.{module}")
        for name in names:
            assert getattr(pkg, name) is getattr(sub, name), f"{package}.{name}"
            assert vars(pkg)[name] is getattr(sub, name)  # cached after first use
    for module in modules:
        assert getattr(pkg, module) is importlib.import_module(f"{package}.{module}")
    declared = sorted([*(n for names in table.values() for n in names), *modules])
    extra = ["__version__"] if package == "repro" else []
    assert sorted(pkg.__all__) == sorted([*declared, *extra])
    assert len(set(pkg.__all__)) == len(pkg.__all__)


@pytest.mark.parametrize("package", PACKAGES)
def test_dir_lists_every_export(package):
    pkg = importlib.import_module(package)
    assert set(pkg.__all__) <= set(dir(pkg))


@pytest.mark.parametrize("package", PACKAGES)
def test_unknown_name_raises_attribute_error(package):
    pkg = importlib.import_module(package)
    with pytest.raises(AttributeError, match="no_such_name"):
        pkg.no_such_name
    assert not hasattr(pkg, "no_such_name")
    assert not hasattr(pkg, "__no_such_dunder__")
    with pytest.raises(ImportError):
        exec(f"from {package} import no_such_name", {})


def test_submodules_resolve_as_attributes():
    assert repro.core.validate is importlib.import_module("repro.core.pipeline").validate
    assert repro.levy.fit is importlib.import_module("repro.levy.fit")
    assert repro.__version__ == "1.0.0"


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from repro import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(repro.__all__)
    assert namespace["validate"] is repro.validate


def loaded_modules(statement: str):
    """Modules in ``sys.modules`` after ``statement`` runs in a fresh
    interpreter."""
    code = f"{statement}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        check=True,
    )
    return set(json.loads(proc.stdout.splitlines()[-1]))


def assert_none_loaded(loaded, prefixes):
    hits = sorted(
        m for m in loaded for p in prefixes if m == p or m.startswith(p + ".")
    )
    assert not hits


class TestImportGraph:
    def test_manet_loads_no_pipeline_stack(self):
        loaded = loaded_modules("from repro.manet import run_three_models")
        assert "repro.manet.runner" in loaded
        assert_none_loaded(loaded, [
            "repro.core", "repro.store", "repro.serve", "repro.synth",
            "repro.runtime", "multiprocessing",
        ])

    def test_validate_store_loads_no_study_analyses(self):
        loaded = loaded_modules("from repro.core import validate_store")
        assert "repro.core.pipeline" in loaded
        assert_none_loaded(loaded, [
            "repro.synth", "repro.experiments", "repro.core.burstiness",
            "repro.core.detection", "repro.core.recovery",
        ])

    def test_cli_loads_commands_lazily(self):
        loaded = loaded_modules("import repro.cli")
        assert "repro.manet.config" in loaded
        assert_none_loaded(loaded, [
            "repro.experiments", "repro.synth", "repro.serve", "repro.levy",
            "repro.manet.engine",
        ])
