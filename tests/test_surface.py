"""The public surface: each module's ``__all__`` and the package exports
agree, so a deleted name leaves no stale row behind; every export has a
caller among the programs, so the surface is what they call; and the
records are tuples and small classes, which importing the package builds
without generated code."""

import ast
import dataclasses
import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tbcurv
from tbcurv import (
    OracleConfig,
    adapted_frame,
    base_invariants,
    euclidean,
    frame_curvature,
    preset,
    tm_sectional,
)
from tbcurv.numdiff import ORACLE, Stencil
from tbcurv.scalarfun import Binary, Const, Pow, Unary, Var, _Token, compile_jet

MODULES = sorted(info.name for info in pkgutil.iter_modules(tbcurv.__path__))
PACKAGE = Path(tbcurv.__file__).parent
ROOT = Path(__file__).resolve().parent.parent


def _package_imports() -> list:
    """(module, name) for each name that ``tbcurv/__init__.py`` imports
    from one of its modules."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
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


def _program_files() -> list:
    """The package's modules and the scripts that call it: demos, tools
    and the benchmark, which this test only reads."""
    files = [path for path in PACKAGE.glob("*.py") if path.name != "__init__.py"]
    for folder in ("demos", "tools", "perfbench"):
        files += (ROOT / folder).glob("*.py")
    return sorted(files)


def test_every_export_has_a_program_caller():
    # a reference is a Name or an Attribute in the syntax tree; a string,
    # an __all__ row or a docstring that spells the name is not one
    files = _program_files()
    assert {path.parent.name for path in files} == {"tbcurv", "demos", "tools", "perfbench"}
    referenced = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    assert [name for _, name in _package_imports() if name not in referenced] == []


# --------------------------------------------------------------------------
# Records: tuples and small classes, so that importing the package runs no
# generated code.
# --------------------------------------------------------------------------


def _frozen_records() -> list:
    """One instance of each immutable record of the package."""
    M, fam = euclidean(2), preset("exp+")
    fp = adapted_frame(M, np.array([0.1, 0.2]), np.array([0.3, 0.0]))
    return [
        ORACLE, fp, frame_curvature(M, fp), base_invariants(M, fp),
        Const(1.0), Var(), Unary("neg", Var()), Binary("+", Var(), Var()), Pow(Var(), 2.0),
        _Token("end", "", 0), compile_jet(Var())(0.5),
        fam.jets(0.5), fam.validate(),
        tm_sectional(M, fam, fp), OracleConfig(),
    ]


@pytest.mark.parametrize("name", MODULES)
def test_no_class_is_a_dataclass(name):
    module = importlib.import_module(f"tbcurv.{name}")
    assert [key for key, value in vars(module).items()
            if isinstance(value, type) and dataclasses.is_dataclass(value)] == []


def test_import_loads_no_dataclasses():
    src = str(Path(tbcurv.__file__).parents[1])
    code = ("import sys; import numpy; before = 'dataclasses' in sys.modules; "
            f"sys.path.insert(0, {src!r}); import tbcurv, tbcurv.cli; "
            "print(before, 'dataclasses' in sys.modules)")
    out = subprocess.run([sys.executable, "-E", "-c", code], capture_output=True, text=True,
                         check=True).stdout.split()
    if out[0] == "True":
        pytest.skip("import numpy alone loads dataclasses")
    assert out == ["False", "False"]


@pytest.mark.parametrize("record", _frozen_records(), ids=lambda r: type(r).__name__)
def test_a_record_field_cannot_be_set(record):
    for name in (*record._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def test_const_zeros_are_equal_but_told_apart_by_repr():
    # metricfamily._same_expr relies on this: equal trees, then equal reprs
    assert Const(0.0) == Const(-0.0)
    assert repr(Const(0.0)) != repr(Const(-0.0))


def test_stencil_units_are_cached_per_stencil():
    stencil = Stencil(1e-3, richardson=True)
    assert stencil.units(3) is stencil.units(3)
    assert Stencil(1e-3, richardson=False).units(3).shape != stencil.units(3).shape
