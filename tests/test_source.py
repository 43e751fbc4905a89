"""Rules about the library's source text, checked mechanically."""

import ast
from pathlib import Path

import pytest

import polyaut

SOURCES = sorted(Path(polyaut.__file__).resolve().parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_in_the_library(path):
    # python -O strips asserts, so no check in the library may rest on one
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} has assert statements at lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_record_guards_and_rebuilds_values(path):
    # immutability and copying through the constructor live in poly.Record
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [f"{cls.name}.{node.name}" for cls in ast.walk(tree)
             if isinstance(cls, ast.ClassDef) and cls.name != "Record"
             for node in cls.body
             if isinstance(node, ast.FunctionDef)
             and node.name in ("__setattr__", "__reduce__")]
    assert found == [], f"{path.name} defines {found}"


PACKING = {"_pack", "_unpack", "_shifts", "_convolve", "_divide_packed"}


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "poly.py"],
                         ids=lambda p: p.name)
def test_only_poly_uses_the_packing(path):
    # the packed integer form is poly's own: every kernel that reads it,
    # the determinant included, lives there
    tree = ast.parse(path.read_text(), filename=str(path))
    found = sorted(alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom)
                   for alias in node.names if alias.name in PACKING)
    assert found == [], f"{path.name} imports {found}"
