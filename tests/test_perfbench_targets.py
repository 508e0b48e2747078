"""The traced benchmark (perfbench/tracing.py) patches tspdual functions
by name, and reads a note from the result of some of them, so a rename,
deletion, signature or record change in the package must fail here, not
first in a traced benchmark run."""
import importlib
import importlib.util
from pathlib import Path

import pytest

from tspdual.dual import default_start
from tspdual.formulation import build_formulation
from tspdual.reduction import reduce_formulation

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def traced_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


# per noted target: a call on the reduced problem r, as the package makes it
NOTED_CALLS = {
    "dual_ascent": lambda fn, r: fn(r),
    "dual_feasible": lambda fn, r: fn(r, *default_start(r)),
}


@pytest.mark.parametrize(
    "module_name, function", [(m, f) for _, m, f, _ in traced_targets()]
)
def test_traced_function_exists(module_name, function):
    assert module_name.startswith("tspdual.")
    assert callable(getattr(importlib.import_module(module_name), function, None))


NOTED = [(m, f, note) for _, m, f, note in traced_targets() if note is not None]


@pytest.mark.parametrize(
    "module_name, function, note", NOTED, ids=[f for _, f, _ in NOTED]
)
def test_note_applies_to_result(module_name, function, note, unit_square):
    assert function in NOTED_CALLS, f"no call for the noted target {function}"
    r = reduce_formulation(build_formulation(unit_square))
    fn = getattr(importlib.import_module(module_name), function)
    assert note(NOTED_CALLS[function](fn, r)) is not None
