"""Every name a linfrec module lists in ``__all__`` resolves, so a deleted function cannot stay exported;
no module but ``core`` repeats the scalar rule or the array rule."""

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


@pytest.mark.parametrize(
    "message", ["has non-finite entries", "has a non-finite entry", "must be strictly increasing integers"]
)
def test_only_core_words_the_array_rule(message):
    # the array rule (core.check_vector, check_support, check_design) is the one
    # place these messages are raised; another module holding one holds a copy
    source = Path(linfrec.__file__).parent
    copies = [path.name for path in sorted(source.glob("*.py")) if message in path.read_text()]
    assert copies == ["core.py"]
