"""The library's soundness checks must also run under `python -O`, which
strips `assert` statements, so no module of the package may contain one."""

import ast
from pathlib import Path

import pytest

import delpezzo

SOURCES = sorted(Path(delpezzo.__file__).parent.glob("*.py"))


def test_package_has_no_assert_statements():
    # pytest.fail rather than assert, so that this test also runs under -O
    if not SOURCES:
        pytest.fail("no package sources found")
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    if found:
        pytest.fail(f"assert statements in the package: {found}")
