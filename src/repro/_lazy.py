"""Package exports that load on first access (PEP 562).

A package ``__init__`` declares which submodule provides each public name;
importing the package imports none of them.  The first read of a name
imports its submodule and keeps the value in the package namespace, so
later reads are plain attribute lookups, and ``dir()`` lists every exported
name whether or not it has been loaded yet.

An exported name may share its submodule's name (``repro.data.inflate`` is
the function of module ``repro/data/inflate.py``).  Importing such a
submodule directly would bind the module over the name, so the package
keeps the import system from binding it: the name still resolves to the
exported value.
"""

from __future__ import annotations

import importlib
import sys
import types


class _ExportsWin(types.ModuleType):
    """A package whose exported names are not replaced by same-named
    submodules when those are imported."""

    def __setattr__(self, name, value):
        if not (isinstance(value, types.ModuleType)
                and value.__name__ == f"{self.__name__}.{name}"
                and name in self._shadowed):
            super().__setattr__(name, value)


def exports(namespace: dict, providers: dict[str, tuple[str, ...]]):
    """``(__getattr__, __dir__)`` for the package whose globals are
    ``namespace``; ``providers`` maps each submodule to the names it provides."""
    package = namespace["__name__"]
    owner = {name: module for module, names in providers.items() for name in names}
    shadowed = frozenset(name for name, module in owner.items()
                         if module == f"{package}.{name}")
    if shadowed:
        namespace["_shadowed"] = shadowed
        sys.modules[package].__class__ = _ExportsWin

    def __getattr__(name: str):
        module = owner.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(importlib.import_module(module), name)
        return value

    def __dir__():
        return sorted(namespace.keys() | owner.keys())

    return __getattr__, __dir__
