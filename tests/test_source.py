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
