"""The package's public surface and its declared test dependencies."""

import ast
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


def test_library_modules_use_every_import():
    # an import left behind when its last use is removed; __init__ imports
    # only to re-export
    unused = []
    for path in sorted((ROOT / "src" / "consistentwalks").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert unused == []
