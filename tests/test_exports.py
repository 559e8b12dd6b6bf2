"""Every name a linfrec module lists in ``__all__`` resolves, so a deleted function cannot stay exported."""

import importlib
import pkgutil

import pytest

import linfrec

MODULES = ["linfrec", *(f"linfrec.{info.name}" for info in pkgutil.iter_modules(linfrec.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    assert [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)] == []
