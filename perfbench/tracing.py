"""In-memory span tracer patched around the public functions of each
tspdual layer from outside the package.

A span is [name, start, end, parent index, note]; the note is a small
value taken from the call's result (for example whether a dual point was
accepted).  Self time is a span's duration minus the durations of its
direct children: calls are single-threaded and strictly nested, so the
children never overlap.
"""
from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter

# (span name, defining module, function, note taken from the result)
TARGETS = [
    ("instance.validate", "tspdual.instance", "validate_distance_matrix", None),
    ("instance.oracle", "tspdual.instance", "brute_force_optimum", None),
    ("instance.generate", "tspdual.instance", "random_euclidean_instance", None),
    ("formulation.build", "tspdual.formulation", "build_formulation", None),
    ("reduction.reduce", "tspdual.reduction", "reduce_formulation", None),
    ("dual.ascent", "tspdual.dual", "dual_ascent", lambda res: res.iterations),
    ("dual.feasible", "tspdual.dual", "dual_feasible", lambda res: bool(res[0])),
    ("dual.value", "tspdual.dual", "dual_value", None),
    ("dual.verify", "tspdual.dual", "verify_global", None),
    ("inverse.search", "tspdual.inverse", "inverse_search", None),
    ("inverse.score", "tspdual.inverse", "feasibility_score", None),
    ("inverse.margins", "tspdual.inverse", "optimality_margins", None),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, note=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if note is not None:
                span[4] = note(result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every target in each tspdual module that holds it.

        `cli` and `inverse` import functions such as build_formulation by
        name, so patching only the defining module would miss their calls.
        """
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "tspdual" or k.startswith("tspdual."))]
        for name, module_name, attr, note in TARGETS:
            original = getattr(importlib.import_module(module_name), attr)
            traced = self.wrap(name, original, note)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, traced)

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches.clear()

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, busy (total duration), self time, the
        direct children's busy time, and the notes of every call."""
        out: dict[str, dict] = {}
        child_busy = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_busy[parent] += end - start
        for i, (name, start, end, _, note) in enumerate(self.spans):
            s = out.setdefault(
                name, {"calls": 0, "busy": 0.0, "self": 0.0, "children": 0.0, "notes": []}
            )
            s["calls"] += 1
            s["busy"] += end - start
            s["self"] += end - start - child_busy[i]
            s["children"] += child_busy[i]
            if note is not None:
                s["notes"].append(note)
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, note in self.spans:
                fh.write(json.dumps(
                    {"name": name, "start": start, "end": end, "parent": parent, "note": note}
                ) + "\n")
