"""Stale-export guard: deleting a function must also delete its exports."""

import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import greenbound

MODULES = sorted(m.name for m in pkgutil.iter_modules(greenbound.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"greenbound.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"greenbound.{name}.__all__ lists missing names {missing}"


def test_package_imports_exist():
    tree = ast.parse(Path(greenbound.__file__).read_text())
    imports = [(node.module, alias.name) for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level == 1
               for alias in node.names]
    assert imports
    for module, name in imports:
        assert hasattr(importlib.import_module(f"greenbound.{module}"), name), (module, name)


def test_benchmark_wraps_resolve(monkeypatch):
    """Every name the benchmark tracer wraps (``perfbench/instrument.py``)
    still exists: instrumenting the package installs all its wraps, and
    uninstalling puts every original back."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # import perfbench/ read-only
    instrument, spans = importlib.import_module("instrument"), importlib.import_module("spans")
    tracer = spans.Tracer()
    try:
        instrument.instrument(tracer, greenbound)
        wrapped = list(tracer._restore)
    finally:
        tracer.uninstall()
    assert wrapped
    for owner, attr, original in wrapped:
        now = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert now is original, (owner, attr)
