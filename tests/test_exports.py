"""Every name a linfrec module lists in ``__all__`` resolves, so a deleted function cannot stay exported;
no module but ``core`` repeats the scalar rule."""

import importlib
import pkgutil
from pathlib import Path

import pytest

import linfrec

MODULES = ["linfrec", *(f"linfrec.{info.name}" for info in pkgutil.iter_modules(linfrec.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    assert [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)] == []


def test_only_core_catches_overflow_error():
    # the scalar rule (core.check) is the one place that maps an integer beyond
    # the float range to "not finite"; another such catch is a copy of it
    source = Path(linfrec.__file__).parent
    copies = [path.name for path in sorted(source.glob("*.py")) if "except OverflowError" in path.read_text()]
    assert copies == ["core.py"]
