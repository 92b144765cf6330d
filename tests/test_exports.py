"""Each public name is declared once, in its module's ``__all__``.

Every name an ``__all__`` lists exists, so a deleted function or class cannot
linger as an export that ``from affectfuse... import *`` or any tool walking
``__all__`` would fail on. The package re-exports exactly its library modules'
``__all__`` lists, and each of those names every public function and class
its module defines.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
from collections import Counter

import pytest

import affectfuse

SUBMODULES = [m.name for m in pkgutil.iter_modules(affectfuse.__path__)]
MODULES = ["affectfuse", *(f"affectfuse.{m}" for m in SUBMODULES)]
# The command-line layer and its entry point are not library API.
LIBRARY = [m for m in SUBMODULES if m not in ("cli", "__main__")]


def _library_module(name):
    return importlib.import_module(f"affectfuse.{name}")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists {missing}, which {name} does not define"


def test_package_exports_the_concatenated_module_lists():
    expected = ["__version__", *(n for m in LIBRARY for n in _library_module(m).__all__)]
    assert sorted(affectfuse.__all__) == sorted(expected)
    for m in LIBRARY:
        module = _library_module(m)
        for n in module.__all__:
            assert getattr(affectfuse, n) is getattr(module, n), f"affectfuse.{n} is not {m}.{n}"


def test_package_exports_have_no_duplicates():
    duplicates = [n for n, count in Counter(affectfuse.__all__).items() if count > 1]
    assert not duplicates, f"exported more than once: {duplicates}"


def test_no_export_shadows_a_submodule():
    assert not set(affectfuse.__all__) & set(SUBMODULES)
    for m in LIBRARY:
        assert getattr(affectfuse, m) is _library_module(m)


@pytest.mark.parametrize("name", LIBRARY)
def test_every_public_definition_is_exported(name):
    module = _library_module(name)
    defined = [
        n
        for n, value in vars(module).items()
        if not n.startswith("_")
        and (inspect.isfunction(value) or inspect.isclass(value))
        and value.__module__ == module.__name__
    ]
    unlisted = [n for n in defined if n not in getattr(module, "__all__", ())]
    assert not unlisted, f"affectfuse.{name} defines {unlisted} but its __all__ omits them"
