"""Every name an ``__all__`` lists exists, so a deleted function or class cannot
linger as an export that ``from affectfuse... import *`` or any tool walking
``__all__`` would fail on."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import affectfuse

MODULES = ["affectfuse", *(f"affectfuse.{m.name}" for m in pkgutil.iter_modules(affectfuse.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists {missing}, which {name} does not define"
