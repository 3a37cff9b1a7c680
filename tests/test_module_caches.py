"""Every functools cache in the package is a module attribute: it decorates
a top-level function or is the value of a module-level assignment.  A cache
anywhere else (on a method, inside a function) is one that no caller can
reach by module attribute, so a cold-cache run, which clears the caches it
finds on the package's modules, would silently keep it warm."""

import ast
from pathlib import Path

import pytest

import delpezzo

SOURCES = sorted(Path(delpezzo.__file__).parent.glob("*.py"))
CACHES = {"lru_cache", "cache"}


def misplaced_caches(tree: ast.Module) -> list:
    """Lines of each reference to functools.lru_cache or functools.cache,
    under any import alias, that is neither a decorator of a top-level
    function nor the cache of a module-level `name = cache(...)(f)`."""
    names, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            names |= {a.asname or a.name for a in node.names if a.name in CACHES}
        elif isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "functools"}
    refs = {
        id(node): node
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id in names
        or isinstance(node, ast.Attribute) and node.attr in CACHES
        and isinstance(node.value, ast.Name) and node.value.id in modules
    }
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            heads = stmt.decorator_list
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)) and isinstance(stmt.value, ast.Call):
            heads = [stmt.value.func]
        else:
            continue
        for head in heads:  # cache, cache(f) or cache(maxsize=None)(f)
            refs.pop(id(head.func if isinstance(head, ast.Call) else head), None)
    return sorted(node.lineno for node in refs.values())


def test_lint_sees_misplaced_caches():
    # pytest.fail rather than assert, so that these tests also run under -O
    tree = ast.parse(
        "import functools\n"
        "from functools import lru_cache, cache as memo\n"
        "@lru_cache(maxsize=None)\n"
        "def kept(): pass\n"
        "@functools.cache\n"
        "def kept_too(): pass\n"
        "table = lru_cache(maxsize=None)(dict)\n"
        "class C:\n"
        "    @lru_cache(maxsize=None)\n"
        "    def method(self): pass\n"
        "def outer():\n"
        "    @memo\n"
        "    def inner(): pass\n"
        "    return functools.lru_cache(inner)\n"
    )
    if misplaced_caches(tree) != [9, 12, 14]:
        pytest.fail(f"lint misreads caches: {misplaced_caches(tree)}")


def test_package_caches_are_module_attributes():
    if not SOURCES:
        pytest.fail("no package sources found")
    found = [
        f"{path.name}:{line}"
        for path in SOURCES
        for line in misplaced_caches(ast.parse(path.read_text(), filename=str(path)))
    ]
    if found:
        pytest.fail(f"caches that are not module attributes: {found}")
