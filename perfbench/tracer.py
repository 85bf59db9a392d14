"""In-memory span tracer that wraps the public functions of the qspace
modules from outside the package.

Every call of a wrapped function records one span: a name id, start and end
(``time.perf_counter``), the index of the enclosing span (-1 at the top) and
the run id.  Spans are kept in flat ``array`` columns while tracing and are
only aggregated or written out after the traced region ends.

The layer of a span is the qspace module that defines the wrapped function.
A span's self time is its duration minus the durations of its direct child
spans, so time spent in unwrapped helpers (``fractions``, private functions)
is charged to the nearest wrapped caller.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import sys
import time
from array import array

# The layers the benchmark reports on, in the package's dependency order.
LAYERS = (
    "scalars",
    "cfunc",
    "ncalgebra",
    "qfunc",
    "starcalc",
    "pairexp",
    "hopf",
    "evolution",
    "rmatrix",
    "grassmann",
    "expressions",
)

# Dunder methods that carry the algebra's work, with the short span names
# the per-layer metrics use (``scalars.mul``, ``ncalgebra.mul``, ...).
_DUNDERS = {
    "__init__": "new",
    "__add__": "add",
    "__radd__": "add",
    "__sub__": "sub",
    "__mul__": "mul",
    "__rmul__": "mul",
    "__truediv__": "div",
    "__neg__": "neg",
    "__eq__": "eq",
}

# Classes whose methods are not wrapped: GaussianRational is the coefficient
# type inside every Laurent-polynomial loop, and a span per coefficient
# operation would multiply the traced run time many times over.  Its cost is
# charged to the enclosing QScalar span, i.e. still to the scalars layer.
_SKIP_CLASSES = {("scalars", "GaussianRational")}

# Functions whose call result is tested for zero; the share of zero results
# is reported as ``<span>.zero_frac`` (an act that yields 0 is wasted work).
ZERO_TRACKED = ("ncalgebra.act",)


class Tracer:
    """Wraps the public API of the qspace layers and records spans."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self.parent_col = array("i")
        self.zero_counts: dict[str, int] = {}
        self._current = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = len(self.names)
            self.names.append(name)
            self._name_ids[name] = nid
        return nid

    def _wrap(self, fn, span_name):
        nid = self._name_id(span_name)
        names, starts, ends, parents = (
            self.name_col, self.start_col, self.end_col, self.parent_col
        )
        clock = time.perf_counter
        tracer = self
        track_zero = span_name in ZERO_TRACKED
        if track_zero:
            self.zero_counts[span_name] = 0

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(tracer._current)
            ends.append(0.0)
            tracer._current = idx
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                tracer._current = parents[idx]
            if track_zero and not out:
                tracer.zero_counts[span_name] += 1
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", span_name)
        traced.__qualname__ = getattr(fn, "__qualname__", span_name)
        return traced

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, package, extra_modules=()):
        """Wrap every public function and public class method defined in the
        layer modules of ``package``, then repoint every module-level alias
        (``from .x import f``) in the package and in ``extra_modules``."""
        replaced = {}  # id(original function) -> wrapper
        for layer in LAYERS:
            mod = importlib.import_module(f"{package}.{layer}")
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self._wrap(obj, f"{layer}.{name}")
                elif inspect.isclass(obj) and (layer, name) not in _SKIP_CLASSES:
                    self._install_class(layer, obj, replaced)
        modules = [m for n, m in sys.modules.items()
                   if n == package or n.startswith(package + ".")]
        for mod in list(modules) + list(extra_modules):
            for name, obj in list(vars(mod).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None and inspect.isfunction(obj):
                    self._set(mod, name, wrapper)

    def _install_class(self, layer, cls, replaced):
        for attr, raw in list(cls.__dict__.items()):
            short = _DUNDERS.get(attr)
            if short is None:
                if attr.startswith("_"):
                    continue
                short = attr
            static = isinstance(raw, staticmethod)
            fn = raw.__func__ if static else raw
            if not inspect.isfunction(fn):
                continue
            wrapper = replaced.get(id(fn))
            if wrapper is None:
                wrapper = self._wrap(fn, f"{layer}.{short}")
                replaced[id(fn)] = wrapper
            self._set(cls, attr, staticmethod(wrapper) if static else wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------------

    @property
    def span_count(self):
        return len(self.name_col)

    def summarize(self):
        """Per span name: calls, total and self seconds; per layer: self
        seconds.  Spans left open (an interrupted call) count with the time
        they had when they were closed by the ``finally`` clause."""
        n = len(self.name_col)
        child = [0.0] * n
        durs = [e - s for s, e in zip(self.start_col, self.end_col)]
        for i, p in enumerate(self.parent_col):
            if p >= 0:
                child[p] += durs[i]
        k = len(self.names)
        calls = [0] * k
        total = [0.0] * k
        self_s = [0.0] * k
        for i, nid in enumerate(self.name_col):
            calls[nid] += 1
            total[nid] += durs[i]
            self_s[nid] += durs[i] - child[i]
        spans = {
            name: {"calls": calls[j], "total_s": total[j], "self_s": self_s[j]}
            for j, name in enumerate(self.names)
        }
        layers = {layer: 0.0 for layer in LAYERS}
        for name, rec in spans.items():
            layers[name.split(".", 1)[0]] += rec["self_s"]
        return {"spans": spans, "layers": layers, "zero_counts": dict(self.zero_counts)}

    def write(self, directory):
        """Write the spans as a JSON header and one native-endian binary
        file per column.  The run id is the same for every span of a traced
        run, so its column is filled here rather than on every call."""
        os.makedirs(directory, exist_ok=True)
        stem = f"spans-run{self.run_id}"
        columns = {
            "name": self.name_col,
            "start": self.start_col,
            "end": self.end_col,
            "parent": self.parent_col,
            "run": array("i", [self.run_id]) * self.span_count,
        }
        files = {}
        for key, col in columns.items():
            files[key] = f"{stem}.{key}.{col.typecode}"
            with open(os.path.join(directory, files[key]), "wb") as fh:
                col.tofile(fh)
        header = {
            "run_id": self.run_id,
            "names": self.names,
            "count": self.span_count,
            "columns": files,
            "clock": "time.perf_counter, seconds",
        }
        path = os.path.join(directory, f"{stem}.json")
        with open(path, "w") as fh:
            json.dump(header, fh, indent=1)
        return path
