"""Stale-export guard: deleting a function must also delete its exports."""

import ast
import importlib
import pkgutil
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
