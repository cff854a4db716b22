"""The lazy public surface of the ``repro`` packages (PEP 562).

A package ``__init__`` names the module that defines each of its
exports, and :func:`lazy_exports` builds the module-level
``__getattr__`` / ``__dir__`` that import that module on first access to
one of its names.  Importing a package therefore runs its ``__init__``
alone: a batch repair does not load the HTTP server, the process pool or
the evaluation harness it never runs, and every module it does run is
imported where it was before, by the module that uses it.
"""

from __future__ import annotations

import importlib
import sys


def lazy_exports(package: str, exports: dict[str, tuple[str, ...]]) -> tuple:
    """``(__getattr__, __dir__)`` for ``package``, whose ``exports`` map
    each defining module to the names it provides.

    A name resolved once is bound on the package, so later lookups never
    reach ``__getattr__``.  A name equal to the last component of its
    module (``{"repro.core.rules": ("rules",)}``) resolves to the module
    itself.
    """
    where = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        module = where.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        defining = importlib.import_module(module)
        value = defining if module == f"{package}.{name}" else getattr(defining, name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted({*vars(sys.modules[package]), *where})

    return __getattr__, __dir__
