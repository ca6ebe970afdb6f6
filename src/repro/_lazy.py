"""Package exports that load on first access (PEP 562).

A package ``__init__`` declares which submodule provides each public name;
importing the package imports none of them.  The first read of a name
imports its submodule and keeps the value in the package namespace, so
later reads are plain attribute lookups, and ``dir()`` lists every exported
name whether or not it has been loaded yet.
"""

from __future__ import annotations

import importlib


def exports(namespace: dict, providers: dict[str, tuple[str, ...]]):
    """``(__getattr__, __dir__)`` for the package whose globals are
    ``namespace``; ``providers`` maps each submodule to the names it provides."""
    package = namespace["__name__"]
    owner = {name: module for module, names in providers.items() for name in names}

    def __getattr__(name: str):
        module = owner.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(importlib.import_module(module), name)
        return value

    def __dir__():
        return sorted(namespace.keys() | owner.keys())

    return __getattr__, __dir__
