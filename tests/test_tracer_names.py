"""The benchmark tracer wraps library functions by name when it installs, so
a rename or deletion in the library breaks every traced benchmark run.
These checks load its name lists without installing it."""

import importlib
import importlib.util
from pathlib import Path

from consistentwalks.perms import PermutationGroup

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist():
    tracer = load_tracer()
    missing = [f"{module}.{name}" for module, names in tracer.FUNCTIONS.items()
               for name in names
               if not hasattr(importlib.import_module(f"consistentwalks.{module}"), name)]
    assert missing == []


def test_traced_group_methods_exist():
    missing = [m for m in load_tracer().PERM_METHODS if m not in PermutationGroup.__dict__]
    assert missing == []
