"""Span recorder for the traced benchmark run.

The recorder wraps functions and methods of the comodule_splitter package
from outside: the package itself carries no instrumentation.  Each call of a
wrapped function records one span (name, operation id, parent span, start,
end, size attributes).  Spans stay in memory until the run writes them out.

Layers are the package's modules.  Every public module-level function of a
layer is wrapped, plus the private helpers the per-layer metrics name, plus
the class methods listed in METHODS.  Cheap accessors (``row``, ``col``,
``matvec``, ``reduce``, ``contains``, ...) are deliberately left unwrapped:
they run inside the loops of the operations that call them, so their time
belongs to the caller's self time, and wrapping them would multiply the
tracing overhead.
"""

from __future__ import annotations

import functools
import inspect
import json
from time import perf_counter

LAYERS = ("cli", "definitions", "generators", "splitting", "comodule", "coalgebra", "field_linalg")

# Private helpers that a per-layer metric names.
EXTRA_FUNCTIONS = {
    "definitions": ("_load_json",),
    "splitting": ("_assemble_h", "_unit_primitives"),
    "comodule": ("_sigma_graded_left_primitives",),
}

METHODS = {
    "field_linalg": {
        "FieldMatrix": (
            "from_cols", "kron", "rref", "rank", "row_space", "column_space",
            "kernel", "solve", "inverse", "transpose", "__matmul__",
        ),
        "Subspace": (
            "from_vectors", "add", "intersect", "tensor", "contains_subspace",
            "quotient_matrix",
        ),
    },
    "coalgebra": {"Coalgebra": ("delta_matrix", "core_equal")},
    "comodule": {
        "Comodule": ("psi_matrix", "regular", "same_structure"),
        "ComoduleMap": ("residual", "is_comodule_map"),
        "ComoduleAlgebra": ("unit_grouplike_index",),
    },
    "splitting": {"SplittingCertificate": ("to_json_dict", "from_json_dict")},
}


def _subspace_sizes(s) -> dict:
    return {"ambient_dim": s.ambient_dim, "target_dim": s.dim}


# Size attributes recorded on a span, computed from the call's arguments.
ATTRS = {
    "field_linalg.preimage": lambda m, s: _subspace_sizes(s),
    "field_linalg.Subspace.add": lambda a, b: _subspace_sizes(b if b.dim >= a.dim else a),
    "field_linalg.Subspace.tensor": lambda a, b: {
        "ambient_dim": a.ambient_dim * b.ambient_dim,
        "target_dim": a.dim * b.dim,
    },
    "comodule.graded_left_primitives": lambda ma, k, *rest: {"level": k},
    "comodule._sigma_graded_left_primitives": lambda sigma, w, k, *rest: {"level": k},
}


class Tracer:
    """Records nested spans of wrapped calls; one instance per traced run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, op, parent, start, end, attrs]
        self.op: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        sizes = ATTRS.get(name)

        def traced(*args, **kwargs):
            attrs = None
            if sizes is not None:
                try:
                    attrs = sizes(*args, **kwargs)
                except (AttributeError, TypeError):
                    attrs = None
            rec = [name, self.op, stack[-1] if stack else -1, 0.0, 0.0, attrs]
            stack.append(len(spans))
            spans.append(rec)
            rec[3] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[4] = perf_counter()
                stack.pop()

        return functools.update_wrapper(traced, fn)

    def install(self, modules: dict) -> None:
        """Wrap every traced name of ``modules`` (layer -> module object).

        A function imported by name into another module is replaced there
        too, because callers resolve the name in their own namespace.
        """
        namespaces = list(modules.values())
        for layer, module in modules.items():
            names = [
                n for n, v in vars(module).items()
                if inspect.isfunction(v) and v.__module__ == module.__name__ and not n.startswith("_")
            ]
            names += [n for n in EXTRA_FUNCTIONS.get(layer, ()) if hasattr(module, n)]
            for n in names:
                orig = getattr(module, n)
                wrapped = self._wrap(f"{layer}.{n}", orig)
                for ns in namespaces:
                    for attr, val in list(vars(ns).items()):
                        if val is orig:
                            self._patch(ns, attr, orig, wrapped)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name, None)
                for meth in methods:
                    raw = vars(cls).get(meth) if cls is not None else None
                    span = f"{layer}.{cls_name}.{meth}"
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(span, raw.__func__))
                    elif isinstance(raw, staticmethod):
                        new = staticmethod(self._wrap(span, raw.__func__))
                    elif inspect.isfunction(raw):
                        new = self._wrap(span, raw)
                    else:
                        continue
                    self._patch(cls, meth, raw, new)

    def _patch(self, target, attr: str, orig, new) -> None:
        setattr(target, attr, new)
        self._patches.append((target, attr, orig))

    def uninstall(self) -> None:
        while self._patches:
            target, attr, orig = self._patches.pop()
            setattr(target, attr, orig)

    def self_times(self) -> list[float]:
        """Span duration minus the durations of its direct children."""
        out = [rec[4] - rec[3] for rec in self.spans]
        for rec in self.spans:
            if rec[2] >= 0:
                out[rec[2]] -= rec[4] - rec[3]
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, op, parent, start, end, attrs in self.spans:
                rec = {"name": name, "op": op, "parent": parent, "start": start, "end": end}
                if attrs:
                    rec["attrs"] = attrs
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
