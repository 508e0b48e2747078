"""The traced benchmark (perfbench/tracing.py) patches tspdual functions
by name, so a rename or deletion in the package must fail here, not first
in a traced benchmark run."""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def traced_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(module_name, function) for _, module_name, function, _ in module.TARGETS]


@pytest.mark.parametrize("module_name, function", traced_targets())
def test_traced_function_exists(module_name, function):
    assert module_name.startswith("tspdual.")
    assert callable(getattr(importlib.import_module(module_name), function, None))
