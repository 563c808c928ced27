"""Spans timed from outside tanglecert: wrappers over each layer's public functions.

install() replaces every public function of the layer modules, and a few
named methods, with a wrapper that records a span while the tracer is
active. The wrapper goes into every tanglecert.* namespace that holds the
function, so calls between modules nest as child spans. Spans stay in
memory (four ints each) until the run ends; self time is a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from collections import defaultdict
from time import perf_counter_ns

LAYERS = ("diagram", "colorings", "linalg", "moves", "tangle", "persistence", "cli")

# span names that differ from "<layer>.<function>"
RENAMED = {
    "diagram.parse_diagram": "diagram.parse",
    "tangle.numerator_closure": "tangle.closure",
    "tangle.denominator_closure": "tangle.closure",
    "tangle.close_one_tangle": "tangle.closure",
}

# (module, class, method, span name): methods worth a span of their own
METHODS = (
    ("colorings", "FoxSolutionSpace", "forced_equal_pair", "colorings.forced_equal_pair"),
    ("colorings", "FoxSolutionSpace", "first_nonconstant", "colorings.enumerate"),
    ("colorings", "FoxSolutionSpace", "colorings", "colorings.enumerate"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans = array("q")  # name id, parent span index, start ns, end ns
        self._stack: list[int] = []
        self.active = False
        self.observed: dict[str, list] = defaultdict(list)
        self._undo: list[tuple] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def enter(self, nid: int) -> None:
        index = len(self.spans) // 4
        parent = self._stack[-1] if self._stack else -1
        self.spans.extend((nid, parent, perf_counter_ns(), 0))
        self._stack.append(index)

    def exit(self) -> None:
        self.spans[4 * self._stack.pop() + 3] = perf_counter_ns()

    def close_all(self) -> None:
        """Close spans left open when a deadline interrupt landed inside enter/exit."""
        while self._stack:
            self.exit()

    def _wrap(self, fn, name, observe):
        nid = self.name_id(name)
        tracer = self
        if inspect.isgeneratorfunction(fn):
            end = object()

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    if not tracer.active:
                        yield from it
                        return
                    tracer.enter(nid)
                    try:
                        item = next(it, end)
                    finally:
                        tracer.exit()
                    if item is end:
                        return
                    yield item

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if observe is not None:
                observe(tracer, args, result)
            return result

        return traced

    def install(self, observers: dict | None = None) -> None:
        """Wrap the public functions of every layer in all tanglecert namespaces."""
        observers = observers or {}
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules.get(f"tanglecert.{layer}")
            if module is None:
                continue
            for attr, fn in vars(module).items():
                if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not attr.startswith("_"):
                    name = RENAMED.get(f"{layer}.{attr}", f"{layer}.{attr}")
                    wrappers[fn] = self._wrap(fn, name, observers.get(name))
        for mod_name, cls_name, meth, name in METHODS:
            cls = getattr(sys.modules[f"tanglecert.{mod_name}"], cls_name)
            self._undo.append((cls, meth, cls.__dict__[meth]))
            setattr(cls, meth, self._wrap(cls.__dict__[meth], name, observers.get(name)))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "tanglecert" and not mod_name.startswith("tanglecert."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def totals(self) -> dict[str, tuple[int, int, int]]:
        """Per span name: (calls, total ns, self ns)."""
        spans = self.spans
        n = len(spans) // 4
        child_ns = [0] * n
        closed = [spans[4 * i + 3] != 0 for i in range(n)]
        for i in range(n):
            parent = spans[4 * i + 1]
            if parent >= 0 and closed[i]:
                child_ns[parent] += spans[4 * i + 3] - spans[4 * i + 2]
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, int] = defaultdict(int)
        own: dict[str, int] = defaultdict(int)
        for i in range(n):
            if not closed[i]:
                continue
            name = self.names[spans[4 * i]]
            duration = spans[4 * i + 3] - spans[4 * i + 2]
            calls[name] += 1
            total[name] += duration
            own[name] += duration - child_ns[i]
        return {name: (calls[name], total[name], own[name]) for name in calls}
