"""Layout rules of the engine's source: exports that resolve, and lines of
at most 110 columns."""

import importlib
import pkgutil
from pathlib import Path

import pytest

import entwine

SOURCES = sorted(Path(entwine.__file__).parent.glob("*.py"))
# every module but __main__, which runs the CLI on import
MODULES = sorted(f"entwine.{m.name}" for m in pkgutil.iter_modules(entwine.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    # a deleted symbol left in __all__ would break `from ... import *` only
    module = importlib.import_module(name)
    missing = [symbol for symbol in getattr(module, "__all__", ()) if not hasattr(module, symbol)]
    assert not missing, missing


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_lines_fit_in_110_columns(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    long = [n for n, line in enumerate(lines, 1) if len(line) > 110]
    assert not long, long
