"""Package hygiene: every public name a module exports exists."""
import importlib
import pkgutil

import pytest

import pdegame

MODULES = sorted(m.name for m in pkgutil.iter_modules(pdegame.__path__, "pdegame."))


def test_modules_are_discovered():
    assert {"pdegame.cli", "pdegame.fields", "pdegame.game_elliptic"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(name)
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert missing == []
