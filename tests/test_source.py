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
