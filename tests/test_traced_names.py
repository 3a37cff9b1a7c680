"""perfbench/tracing.py looks up the library functions it traces by name.
A name that no longer resolves fails only the benchmark's own tests,
which this suite does not collect, so the names are checked here."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module in tracing.MODULES:
        importlib.import_module(module if module == "delpezzo" else f"delpezzo.{module}")
    missing = []
    for name, _ in tracing.TRACED:
        owner, *path = name.split(".")
        value = importlib.import_module(f"delpezzo.{owner}")
        for attr in path:
            # a method is patched on its class, so it must be defined there
            value = vars(value).get(attr) if isinstance(value, type) else getattr(value, attr, None)
        if value is None:
            missing.append(name)
    # pytest.fail rather than assert, so that this test also runs under -O
    if missing:
        pytest.fail(f"traced names missing from the library: {missing}")
