"""The examples in README.md run as doctests."""

import doctest
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_examples():
    result = doctest.testfile(str(README), module_relative=False)
    # pytest.fail rather than assert, so that this test also runs under -O
    if result.attempted == 0 or result.failed:
        pytest.fail(f"README.md doctests: {result.failed} of {result.attempted} failed")
