"""Lazy package exports (PEP 562).

A package ``__init__`` declares which names each submodule exports::

    __getattr__, __dir__, __all__ = lazy_exports(globals(), {
        "matching": ("MatchConfig", "match_user"),
        "pipeline": ("validate",),
    })

``repro.core.validate`` then imports ``repro.core.pipeline`` the first
time it is looked up, and caches the object in the package globals so
later lookups are plain attribute hits.  Importing a package or one of
its submodules no longer imports the package's other submodules, so a
command pays only for the modules it runs.  Any other name that is a
submodule or subpackage (``repro.core.matching``, ``repro.levy``)
imports that module; an unknown name raises :class:`AttributeError`.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, Iterable, List, Mapping, Tuple


def lazy_exports(
    namespace: Dict[str, Any],
    table: Mapping[str, Iterable[str]],
    modules: Iterable[str] = (),
) -> Tuple[Callable[[str], Any], Callable[[], List[str]], List[str]]:
    """The ``__getattr__``, ``__dir__`` and ``__all__`` of a package.

    ``namespace`` is the package's ``globals()``; ``table`` maps each
    submodule to the names it exports; ``modules`` lists submodules that
    are exported as modules.  ``__all__`` holds every exported name, in
    sorted order.
    """
    package = namespace["__name__"]
    origin = {name: module for module, names in table.items() for name in names}
    exported = sorted([*origin, *modules])

    def __getattr__(name: str) -> Any:
        module = origin.get(name)
        if module is not None:
            value = getattr(importlib.import_module(f"{package}.{module}"), name)
            namespace[name] = value
            return value
        if not name.startswith("__"):
            try:
                return importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> List[str]:
        return sorted({*namespace, *exported})

    return __getattr__, __dir__, exported
