"""Every name a toda2 module exports in `__all__` resolves."""

import importlib
import pkgutil

import pytest

import toda2

MODULES = [toda2] + [
    importlib.import_module(f"toda2.{info.name}")
    for info in pkgutil.iter_modules(toda2.__path__)
]


@pytest.mark.parametrize(
    "module", [m for m in MODULES if hasattr(m, "__all__")], ids=lambda m: m.__name__
)
def test_all_names_resolve(module):
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)
