"""Spans around longeq's public functions, installed from outside the program.

``Tracer.install`` replaces each function in ``TARGETS`` by a wrapper in
every loaded ``longeq`` module namespace that binds it (``cli`` imports
``build_LR`` by name, ``tensor_ops`` reaches ``linalg.mat_mul`` through
the module, and so on). For a class target the wrapper goes on its
``__init__``. ``Tracer.remove`` puts every original back and reports any
binding it could not restore.

A span records its name, start, end, parent span and operation id. The
self time of a span is its duration minus the durations of its direct
children; spans nest because the program is single-threaded.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

TARGETS = {
    "cli": ["main"],
    "jsonio": ["operator_from_json", "presentation_to_json", "holonomy_to_json",
               "bialgebra_from_json"],
    "linalg": ["mat_mul", "rref", "mat_inv", "kron", "solve_affine"],
    "tensor_ops": ["check_laws", "lift", "long_witness"],
    "frt": ["obstructions", "QuotientCoalgebra", "SigmaForm", "LongPresentation",
            "check_L1_on_generators", "round_trip", "presentation_text", "build_LR"],
    "kz": ["KZSystem.from_op", "connection_matrix", "integrate_holonomy",
           "flatness_residuals", "lift_exact"],
    "bialgebra": ["FinDimBialgebra", "check_axioms", "l1_solution_space",
                  "sigma_feasibility"],
}

# Spans whose call count is a per-layer metric; every span reports self time.
COUNTED = {"linalg.mat_mul", "linalg.rref", "linalg.mat_inv", "linalg.kron",
           "linalg.solve_affine", "tensor_ops.check_laws", "tensor_ops.lift",
           "tensor_ops.long_witness", "frt.round_trip", "kz.connection_matrix"}

# Calls whose arguments or results feed the exact counts; kept by reference
# and evaluated after the traced pass so that no span pays for them.
CAPTURE = {"frt.build_LR", "tensor_ops.long_witness", "kz.integrate_holonomy",
           "kz.connection_matrix"}


def longeq_modules():
    """The loaded modules of the longeq package, the package itself included."""
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "longeq" or name.startswith("longeq."))]


class Tracer:
    def __init__(self):
        self.spans = []
        self.captured = {name: [] for name in CAPTURE}
        self.op_id = None
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        captured = self.captured.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op_id)
            if captured is not None:
                captured.append((args, result))
            return result

        return wrapper

    def install(self):
        mods = {m.__name__: m for m in longeq_modules()}
        for short, names in TARGETS.items():
            module = mods[f"longeq.{short}"]
            for name in names:
                span = f"{short}.{name}"
                owner_name, _, attr = name.rpartition(".")
                if owner_name:  # a classmethod such as KZSystem.from_op
                    owner = getattr(module, owner_name)
                    orig = owner.__dict__[attr]
                    self._patch(owner, attr, orig,
                                classmethod(self._wrap(span, orig.__func__)))
                    continue
                obj = getattr(module, name)
                if isinstance(obj, type):
                    orig = obj.__dict__["__init__"]
                    self._patch(obj, "__init__", orig, self._wrap(span, orig))
                    continue
                wrapped = self._wrap(span, obj)
                for ns in mods.values():
                    for key, value in list(vars(ns).items()):
                        if value is obj:
                            self._patch(ns, key, obj, wrapped)

    def _patch(self, owner, attr, orig, replacement):
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, orig))

    def remove(self):
        """Restore every original; returns the bindings that are still wrong."""
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        left = [f"{getattr(o, '__name__', o)}.{a}" for o, a, orig in self._patches
                if (o.__dict__[a] if isinstance(o, type) else getattr(o, a)) is not orig]
        self._patches = []
        return left

    def layer_totals(self):
        """{span name: (calls, self seconds)} over all recorded spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {}
        for (name, start, end, _, _), covered in zip(self.spans, child):
            calls, self_s = totals.get(name, (0, 0.0))
            totals[name] = (calls + 1, self_s + (end - start) - covered)
        return totals
