"""The package's public surface and its declared test dependencies."""

import re
import types
from pathlib import Path

import pytest

import consistentwalks as cw

ROOT = Path(__file__).resolve().parent.parent


def test_all_exports_no_module():
    modules = [name for name in cw.__all__ if isinstance(getattr(cw, name), types.ModuleType)]
    assert modules == []


def test_test_extra_matches_ci_install_line():
    # the packages CI installs before running the suite are the ones the
    # `test` extra declares, so `pip install -e ".[test]"` runs it too
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as f:
        extra = tomllib.load(f)["project"]["optional-dependencies"]["test"]
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    (line,) = re.findall(r"pip install (.*)", workflow)
    assert sorted(line.split()) == sorted(extra)
