"""Package namespaces that import a public name's module on first use.

Each package ``__init__`` holds a ``_LAZY`` table from every name it
exports to the module that defines it, and takes its PEP 562
``__getattr__`` and ``__dir__`` from :func:`lazy_exports`.  So
``import repro.graph`` runs none of its submodules, and reading
``repro.graph.list_schedule`` imports :mod:`repro.graph.scheduler`.

Nothing is stored in the package namespace: every read returns the
defining module's current attribute, so a function patched onto that
module is what the next reader gets.
"""

import importlib
import sys


def lazy_exports(package: str, table: dict[str, str]):
    """The ``__getattr__`` and ``__dir__`` of ``package``, whose names
    ``table`` maps to their defining modules.  A name that maps to
    ``f"{package}.{name}"`` is that submodule itself."""

    def __getattr__(name: str):
        module_name = table.get(name)
        if module_name is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(module_name)
        if module_name == f"{package}.{name}":
            return module
        return getattr(module, name)

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(table))

    return __getattr__, __dir__
