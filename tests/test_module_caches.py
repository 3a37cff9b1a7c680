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


# Every cache in the package, as <module>.<attribute>.  A new cache has to
# be added here, and CHANGES.md has to say which repeated calls it serves.
INVENTORY = [
    "cli.build_parser",
    "exactalg.cyclotomic",
    "hilbert._frame",
    "hilbert.dedekind_sum",
    "hilbert.degree_contribution",
    "hilbert.orbifold_contribution",
    "quiver.residual_quiver",
    "reconstruct._classes",
    "reconstruct._index_context",
]


def cache_refs(tree: ast.Module) -> dict:
    """Each reference to functools.lru_cache or functools.cache, under any
    import alias, by node id."""
    names, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            names |= {a.asname or a.name for a in node.names if a.name in CACHES}
        elif isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "functools"}
    return {
        id(node): node
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id in names
        or isinstance(node, ast.Attribute) and node.attr in CACHES
        and isinstance(node.value, ast.Name) and node.value.id in modules
    }


def module_heads(tree: ast.Module):
    """(name, callee) of each decorator of a top-level function and of each
    module-level `name = callee(...)`: the places a module cache sits."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            pairs = [(stmt.name, head) for head in stmt.decorator_list]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)) and isinstance(stmt.value, ast.Call):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            pairs = [(ast.unparse(t), stmt.value.func) for t in targets]
        else:
            continue
        for name, head in pairs:  # cache, cache(f) or cache(maxsize=None)(f)
            yield name, head.func if isinstance(head, ast.Call) else head


def misplaced_caches(tree: ast.Module) -> list:
    """Lines of each reference to functools.lru_cache or functools.cache,
    under any import alias, that is neither a decorator of a top-level
    function nor the cache of a module-level `name = cache(...)(f)`."""
    refs = cache_refs(tree)
    for _, head in module_heads(tree):
        refs.pop(id(head), None)
    return sorted(node.lineno for node in refs.values())


def module_caches(tree: ast.Module) -> list:
    """Names of the module attributes that are functools caches."""
    refs = cache_refs(tree)
    return [name for name, head in module_heads(tree) if id(head) in refs]


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


def test_package_caches_are_the_inventory():
    found = sorted(
        f"{path.stem}.{name}"
        for path in SOURCES
        for name in module_caches(ast.parse(path.read_text(), filename=str(path)))
    )
    if found != INVENTORY:
        pytest.fail(f"caches {found} differ from the inventory {INVENTORY}")
