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


def test_library_functions_read_every_parameter():
    # a parameter the body never reads is an input every caller supplies for
    # nothing; the CLI's _payload_* dispatchers share one (graph, group,
    # args) signature, which is their interface
    unread = []
    for path in sorted((ROOT / "src" / "consistentwalks").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            name = getattr(node, "name", "<lambda>")
            if path.name == "cli.py" and name.startswith("_payload_"):
                continue
            args = node.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            unread += [f"{path.name}:{node.lineno} {name}({p})" for p in params
                       if p not in read and p not in ("self", "cls")]
    assert unread == []
