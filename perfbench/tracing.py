"""Spans around calls into the package, recorded from outside it.

Each traced function is replaced, at every ``superselect`` module that
binds it, by a wrapper that appends one span ``[function, start, end,
parent span, item id, raised]`` to an in-memory list.  Self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

LAYERS_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "layers.json")


def traced_functions() -> list[str]:
    """``module.function`` names in layer order, from layers.json."""
    with open(LAYERS_FILE, encoding="utf-8") as fh:
        layers = json.load(fh)["layers"]
    return [f"{mod}.{fn}" for mod, spec in layers.items() for fn in spec["functions"]]


class Tracer:
    def __init__(self, names: list[str]):
        self.names = names
        self.spans: list[list] = []
        self.item = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, index: int, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [index, clock(), 0.0, stack[-1] if stack else -1, self.item, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()
        return traced

    def install(self) -> None:
        """Bind a wrapper in place of each function wherever a module holds it."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "superselect" or name.startswith("superselect."))]
        for index, qualname in enumerate(self.names):
            modname, fname = qualname.rsplit(".", 1)
            original = getattr(importlib.import_module(f"superselect.{modname}"), fname)
            wrapper = self._wrap(index, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def totals(self) -> dict[str, dict]:
        """Per function: calls, self seconds and raising calls over all spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: {"calls": 0, "self_s": 0.0, "errors": 0} for name in self.names}
        for (index, start, end, _, _, raised), covered in zip(self.spans, child):
            row = out[self.names[index]]
            row["calls"] += 1
            row["self_s"] += (end - start) - covered
            row["errors"] += int(raised)
        return out
