"""Per-layer spans for the traced run.

``Tracer.install`` wraps, in memory, every public function of the library's
layer modules, and ``CoherentConfig.__init__``.  A name bound into another
module by ``from ... import`` is a separate reference, so each binding in
every ``circulantwl`` module is replaced, or calls through it would be
missed.  Each call made while the tracer is enabled records a span (name,
start, end, parent) in flat arrays kept in memory; counters that need the
arguments or the result are updated by hooks.  ``totals`` sums the spans
per name and ``write`` stores them at the end of the run.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict

LAYERS = ["refine", "core", "wl", "algebra", "circulant", "dimension"]

# Spans named per arity, so each m-ary table size gets its own line.
_PER_M = {"wl.wl_m_equivalent"}


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _add(counters, key, amount):
    counters[key] += amount


# name -> hook(counters, args, kwargs, result, error)
HOOKS = {
    "wl.wl_closure": lambda c, a, k, r, e: _add(
        c, "wl.wl_closure.cells", len(_arg(a, k, 0, "arc_colors")) ** 2
    ),
    "wl.wl_m_equivalent": lambda c, a, k, r, e: _add(
        c, "wl.wl_m_equivalent.cells", _arg(a, k, 0, "cc_a").n ** _arg(a, k, 3, "m")
    ),
    "algebra.automorphism_group": lambda c, a, k, r, e: _add(
        c,
        "algebra.automorphism_group.cap_exceeded" if e else "algebra.automorphism_group.elements",
        1 if e else len(r),
    ),
    "algebra.tuple_extension": lambda c, a, k, r, e: _add(
        c, "algebra.tuple_extension.none", r is None and not e
    ),
    "algebra.enumerate_algebraic_isos": lambda c, a, k, r, e: _add(
        c, "algebra.enumerate_algebraic_isos.maps", 0 if e else len(r)
    ),
    "algebra.find_isomorphism": lambda c, a, k, r, e: _add(
        c, "algebra.find_isomorphism.found", r is not None and not e
    ),
    "circulant.from_connection_partition": lambda c, a, k, r, e: _add(
        c, "circulant.from_connection_partition.closed", not e and not r[1]
    ),
    "dimension.estimate_dimension": lambda c, a, k, r, e: _add(
        c, "dimension.estimate_dimension.witnesses", 0 if e else len(r.witnesses)
    ),
    "dimension.verify_reduction": lambda c, a, k, r, e: _add(
        c, "dimension.verify_reduction.checked", 0 if e else r.checked
    ),
}


class Tracer:
    def __init__(self):
        self.enabled = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.outer = array("b")  # no enclosing span of the same name
        self.phase = array("b")  # 1 while the benchmark marks a warm phase
        self._stack: list[int] = []
        self._depth: dict[int, int] = defaultdict(int)
        self.warm = False
        self.counters: dict[str, float] = defaultdict(float)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        fixed = self._id(name) if name not in _PER_M else None
        hook = HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            nid = fixed
            if nid is None:
                nid = tracer._id(f"{name}.m{_arg(args, kwargs, 3, 'm')}")
            idx = len(tracer.start)
            tracer.name.append(nid)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.outer.append(tracer._depth[nid] == 0)
            tracer.phase.append(tracer.warm)
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            tracer._depth[nid] += 1
            result, error = None, None
            tracer.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                tracer.end[idx] = time.perf_counter()
                tracer._stack.pop()
                tracer._depth[nid] -= 1
                if hook is not None:
                    hook(tracer.counters, args, kwargs, result, error)

        return traced

    def install(self) -> None:
        """Wrap the layers' public functions at every module binding."""
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"circulantwl.{layer}")
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ == mod.__name__:
                    wrapped[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "circulantwl" and not modname.startswith("circulantwl."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, attr, wrapped[id(obj)])
        core = importlib.import_module("circulantwl.core")
        core.CoherentConfig.__init__ = self.wrap("core.CoherentConfig", core.CoherentConfig.__init__)

    def totals(self, factor_at) -> dict[str, float]:
        """Calls, inclusive seconds and self seconds per span name, plus the
        hook counters.  Inclusive time counts only the outermost span of a
        name, so recursion is not counted twice; a span starting at time t
        has its seconds multiplied by ``factor_at(t)``."""
        child = [0.0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, float] = defaultdict(float)
        for i, nid in enumerate(self.name):
            key = self.names[nid]
            factor = factor_at(self.start[i])
            dur = (self.end[i] - self.start[i]) * factor
            out[f"{key}.calls"] += 1
            out[f"{key}.self_s"] += dur - child[i] * factor
            if self.outer[i]:
                out[f"{key}.s"] += dur
                if self.phase[i]:
                    out[f"{key}.warm_s"] += dur
        for key, value in self.counters.items():
            out[key] += value
        return out

    def write(self, path) -> None:
        data = {
            "names": self.names,
            "fields": ["name", "start", "end", "parent"],
            "spans": [
                [self.name[i], self.start[i], self.end[i], self.parent[i]]
                for i in range(len(self.start))
            ],
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(data, fh)
