"""Span tracing of the library's public functions, from outside the library.

``Tracer.install`` wraps every public module-level function of each layer
module, the public methods of the classes defined there, and the
``GroupMatrix`` dunders the group layer runs on each product.  A module that
did ``from .matgroup import associated_borel`` holds its own reference, so
each name is replaced in every ``tnncompact`` module namespace bound to the
original object.  ``uninstall`` puts every original back.

Spans are aggregated in memory per (function, parent function): call count,
total time, and self time, which is the span minus the time covered by its
direct child spans.  Time spent in private helpers lands in the nearest
traced caller.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from functools import wraps

LAYERS = (
    "linalg",
    "matgroup",
    "weyl",
    "tnn",
    "exterior",
    "laurent",
    "dual",
    "strata",
    "cells",
    "serialize",
)
TRACED_DUNDERS = {"GroupMatrix": ("__post_init__", "__matmul__")}


class Tracer:
    def __init__(self):
        # (name, parent name or None) -> [calls, total_ns, self_ns]
        self.spans: dict[tuple[str, str | None], list[int]] = {}
        self._stack: list[list] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                if parent is not None:
                    parent[1] += dur
                key = (name, parent[0] if parent is not None else None)
                agg = spans.get(key)
                if agg is None:
                    spans[key] = [1, dur, dur - frame[1]]
                else:
                    agg[0] += 1
                    agg[1] += dur
                    agg[2] += dur - frame[1]

        return span

    def _targets(self):
        """(span name, owner, attribute, original) for every traced callable."""
        for layer in LAYERS:
            mod = importlib.import_module(f"tnncompact.{layer}")
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    yield f"{layer}.{attr}", mod, attr, obj
                elif inspect.isclass(obj):
                    dunders = TRACED_DUNDERS.get(attr, ())
                    for meth, raw in vars(obj).items():
                        if meth.startswith("_") and meth not in dunders:
                            continue
                        if isinstance(raw, staticmethod) or inspect.isfunction(raw):
                            yield f"{layer}.{attr}.{meth}", obj, meth, raw

    def install(self) -> None:
        targets = list(self._targets())
        namespaces = [
            m for k, m in list(sys.modules.items())
            if k == "tnncompact" or k.startswith("tnncompact.")
        ]
        for name, owner, attr, original in targets:
            if isinstance(original, staticmethod):
                self._replace(owner, attr, original, staticmethod(self._wrap(name, original.__func__)))
                continue
            wrapper = self._wrap(name, original)
            if inspect.isclass(owner):
                self._replace(owner, attr, original, wrapper)
                continue
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._replace(ns, key, original, wrapper)

    def _replace(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def by_function(self) -> dict[str, tuple[int, int]]:
        """Function name -> (calls, self_ns), summed over parents."""
        out: dict[str, tuple[int, int]] = {}
        for (name, _), (calls, _, self_ns) in self.spans.items():
            c, s = out.get(name, (0, 0))
            out[name] = (c + calls, s + self_ns)
        return out

    def by_layer(self) -> dict[str, int]:
        """Layer -> self_ns, summed over the layer's functions."""
        out = dict.fromkeys(LAYERS, 0)
        for name, (_, self_ns) in self.by_function().items():
            out[name.split(".", 1)[0]] += self_ns
        return out
