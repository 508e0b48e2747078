"""The traced benchmark (perfbench/tracing.py) patches tspdual functions
by name, and reads a note from the result of some of them, so a rename,
deletion, signature or record change in the package must fail here, not
first in a traced benchmark run."""
import importlib
import importlib.util
from pathlib import Path

import pytest

from tspdual import inverse
from tspdual.cli import _run_dual
from tspdual.dual import default_start
from tspdual.formulation import build_formulation
from tspdual.instance import random_euclidean_instance
from tspdual.reduction import reduce_formulation

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_targets():
    return load_tracing().TARGETS


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


def traced_parents(run) -> dict[str, list]:
    """Per span name, the name of each call's parent span (None at the top)
    while run() runs under the tracer, which rebinds every target in each
    tspdual module that holds it."""
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        run()
    finally:
        tracer.uninstall()
    parents: dict[str, list] = {}
    for name, _, _, parent, _ in tracer.spans:
        parents.setdefault(name, []).append(tracer.spans[parent][0] if parent >= 0 else None)
    return parents


def test_dual_command_calls_dual_value_per_solve():
    # one dual_value for the start and one per stage end of the barrier
    # path, and no dual_feasible: a trial point pays only a Cholesky factor
    parents = traced_parents(lambda: _run_dual(random_euclidean_instance(10, 0)[0]))
    assert parents["dual.value"] == ["dual.ascent"] * 9
    assert "dual.feasible" not in parents


def test_inverse_search_calls_dual_feasible_once_from_the_replay():
    # through the module attribute, as the CLI calls it, so that the
    # search's own span is traced too
    cfg = inverse.SearchConfig(n=5, restarts=2, local_iters=30, seed=3)
    parents = traced_parents(lambda: inverse.inverse_search(cfg=cfg))
    assert parents["dual.feasible"] == ["inverse.score"]
    assert parents["inverse.score"] == ["inverse.search"]
