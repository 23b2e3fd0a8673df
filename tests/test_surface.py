"""The public surface: each module's ``__all__`` and the package exports
agree, so a deleted name leaves no stale row behind."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import tbcurv

MODULES = sorted(info.name for info in pkgutil.iter_modules(tbcurv.__path__))


def _package_imports() -> list:
    """(module, name) for each name that ``tbcurv/__init__.py`` imports
    from one of its modules."""
    tree = ast.parse(Path(tbcurv.__file__).read_text())
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


@pytest.mark.parametrize("name", MODULES)
def test_every_all_row_names_an_attribute(name):
    module = importlib.import_module(f"tbcurv.{name}")
    missing = [row for row in getattr(module, "__all__", ()) if not hasattr(module, row)]
    assert missing == []


def test_every_export_is_in_its_modules_all():
    # a module without an __all__ (errors) has no rows to keep in step
    stray = []
    for module, name in _package_imports():
        rows = getattr(importlib.import_module(f"tbcurv.{module}"), "__all__", None)
        if rows is not None and name not in rows:
            stray.append((module, name))
    assert stray == []
