"""Package exports that import their defining module on first access.

A package ``__init__`` that re-exports names from its submodules would
import every one of them with the package.  ``pqs sqlite`` imports
packages whose other halves it never runs (MiniDB, the status server,
other dialects' semantics), so those packages export lazily instead::

    __getattr__, __dir__ = lazy_exports(globals(), {
        "repro.minidb.engine": ("Engine", "ResultSet"),
    })

The first ``pkg.Engine`` (or ``from pkg import Engine``) imports
``repro.minidb.engine`` and caches the value in the package, so later
lookups are plain attribute reads.  ``dir(pkg)`` and ``from pkg import
*`` see every export before it is first used.

A name exported this way must not also be the name of a submodule of
the package: importing that submodule sets the package attribute to the
module, which would then shadow the export.  ``repro.guidance`` exports
``fingerprint`` from ``repro.guidance.fingerprint`` and stays eager for
this reason.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable


def lazy_exports(namespace: dict, homes: dict[str, tuple[str, ...]]
                 ) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The module ``__getattr__`` and ``__dir__`` of the package whose
    ``globals()`` is *namespace*; *homes* maps each defining module to
    the names it exports."""
    home_of = {name: module for module, names in homes.items()
               for name in names}
    package = namespace["__name__"]

    def __getattr__(name: str) -> Any:
        home = home_of.get(name)
        if home is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(home), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(home_of))

    return __getattr__, __dir__
