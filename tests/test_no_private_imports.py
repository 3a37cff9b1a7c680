"""A module of the package owns its underscore names: no other `delpezzo`
module may import one, so what one module shares with another is public
and documented where it is defined."""

import ast
from pathlib import Path

import pytest

import delpezzo

SOURCES = sorted(Path(delpezzo.__file__).parent.glob("*.py"))


def private_imports(tree: ast.AST) -> list:
    """(line, module, name) of each underscore name imported from the
    package, relatively or as delpezzo.<module>."""
    return [
        (node.lineno, node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "delpezzo")
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_lint_sees_private_imports():
    # pytest.fail rather than assert, so that these tests also run under -O
    tree = ast.parse(
        "from .exactalg import _kernel, poly\n"
        "from delpezzo.quiver import _private\n"
        "from fractions import _public_elsewhere\n"
        "def f():\n    from . import _late\n"
    )
    if [name for _, _, name in private_imports(tree)] != ["_kernel", "_private", "_late"]:
        pytest.fail(f"lint misreads imports: {private_imports(tree)}")


def test_package_imports_no_private_names():
    if not SOURCES:
        pytest.fail("no package sources found")
    found = [
        f"{path.name}:{line} imports {name} from {module or '.'}"
        for path in SOURCES
        for line, module, name in private_imports(ast.parse(path.read_text(), filename=str(path)))
    ]
    if found:
        pytest.fail(f"private names imported across modules: {found}")
