"""In-memory span recorder that wraps gft's public functions from outside.

Each wrapped call records (name, start, end, parent) where parent is the
index of the enclosing recorded span, or -1.  Work counts are computed from
call arguments inside the wrappers, so they repeat exactly for equal inputs.
Wrappers replace every module attribute that is the original function,
which also covers the names other modules re-bind through ``from .x import y``.
Nothing under ``src/`` is modified.
"""

from __future__ import annotations

import functools
import importlib
import time

import numpy as np


def _grid_terms(args, kwargs):
    """(order + 1) * points for evaluate_grid(s, points)."""
    points = args[1] if len(args) > 1 else kwargs["points"]
    return int(args[0].coeffs.size * np.size(points))


def _row_elements(args, kwargs):
    """kmax for multiplier_row(sigma, n, kmax)."""
    return int(args[2] if len(args) > 2 else kwargs["kmax"])


# (module, function, optional count name and how to compute it); spans are
# named module.function, except run_suite, which is verify.suite.<id>.
TRACED = (
    ("series", "evaluate_grid", ("terms", _grid_terms)),
    ("series", "evaluate", None),
    ("series", "herglotz_expand", None),
    ("kernels", "multiplier_row", ("elements", _row_elements)),
    ("kernels", "multiplier", None),
    ("operators", "iterate_closed", None),
    ("operators", "deiterate", None),
    ("operators", "iterate_step_closed", None),
    ("operators", "iterate_quadrature_step", None),
    ("classes", "covering_constant", None),
    ("classes", "real_part_test", None),
    ("classes", "random_member_B", None),
    ("classes", "circle_points", None),
    ("classes", "growth_bounds", None),
    ("classes", "distortion_bounds", None),
    ("classes", "extremal_B_lower", None),
    ("verify", "run_suite", None),
    ("cli", "main", None),
)

MODULES = ("series", "kernels", "operators", "classes", "verify", "cli")


class Recorder:
    """Spans and counts of one traced invocation, kept in memory until it ends."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: dict = {}
        self._stack: list = []

    def wrap(self, name: str, fn, count):
        spans, counts, stack = self.spans, self.counts, self._stack
        clock = time.perf_counter
        suite = name == "verify.run_suite"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = f"verify.suite.{args[0] if args else kwargs['theorem']}" if suite else name
            counts[label + ".calls"] = counts.get(label + ".calls", 0) + 1
            if count is not None:
                key = f"{label}.{count[0]}"
                counts[key] = counts.get(key, 0) + count[1](args, kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index] = (label, start, clock(), parent)
                stack.pop()

        return wrapper

    def install(self) -> None:
        """Replace each traced function, wherever a gft module binds it."""
        modules = [importlib.import_module("gft")]
        modules += [importlib.import_module(f"gft.{m}") for m in MODULES]
        for module_name, attr, count in TRACED:
            original = getattr(importlib.import_module(f"gft.{module_name}"), attr)
            wrapper = self.wrap(f"{module_name}.{attr}", original, count)
            for module in modules:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapper)


def self_times(spans) -> dict:
    """Total self time per span name: duration minus the time direct children cover."""
    child_time = [0.0] * len(spans)
    for label, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict = {}
    for i, (label, start, end, _) in enumerate(spans):
        totals[label] = totals.get(label, 0.0) + (end - start) - child_time[i]
    return totals
