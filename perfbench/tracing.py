"""Spans and counters around the public functions of each sequiv module.

The tracer wraps functions from outside the package: it replaces every
binding of a public function (the module attribute, each name another
module imported, and the function tables the package keeps in module
tuples) with a wrapper, and puts the originals back on uninstall.
Nested calls therefore become child spans.  Methods that run once per
search state or per polynomial product would drown the run in spans, so
they, and the two small index helpers of stringlink, only count calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import defaultdict
from time import perf_counter

MODULES = ("cli", "intlin", "laurent", "seifert", "braidclosure", "purebraid",
           "stringlink", "standardform")

COUNTED_FUNCTIONS = ("stringlink.position_of", "stringlink.strand_label")
COUNTED_METHODS = (
    ("seifert", "CongruenceMove", "apply_rows", ("apply_rows",)),
    ("laurent", "LaurentPoly", "__mul__", ("__mul__", "__rmul__")),
)


def public_functions(module):
    names = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        fn = getattr(module, name)
        if inspect.isfunction(fn) and fn.__module__ == module.__name__:
            yield name, fn


class Tracer:
    """Holds every span in memory: [name, start, end, parent index, op id]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[tuple[str, int], int] = defaultdict(int)
        self.op = -1
        self._stack: list[int] = []
        self._plan = self._bindings()
        self._saved: list[object] = []

    def _span(self, fn, name):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = perf_counter()

        return wrapper

    def _counter(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name, self.op] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _bindings(self) -> list[tuple[object, str, object]]:
        """(owner, attribute, wrapped value) for every binding to replace."""
        modules = {m: importlib.import_module(f"sequiv.{m}") for m in MODULES}
        wrappers = {}
        for short, module in modules.items():
            for name, fn in public_functions(module):
                qual = f"{short}.{name}"
                make = self._counter if qual in COUNTED_FUNCTIONS else self._span
                wrappers[fn] = make(fn, qual)
        plan = []
        for module in [importlib.import_module("sequiv"), *modules.values()]:
            for attr, value in vars(module).items():
                if inspect.isfunction(value) and value in wrappers:
                    plan.append((module, attr, wrappers[value]))
                elif isinstance(value, tuple) and _rebind(value, wrappers) != value:
                    plan.append((module, attr, _rebind(value, wrappers)))
        for short, cls_name, method, attrs in COUNTED_METHODS:
            cls = getattr(modules[short], cls_name)
            counted = self._counter(getattr(cls, method), f"{short}.{cls_name}.{method}")
            plan += [(cls, attr, counted) for attr in attrs]
        return plan

    def install(self) -> None:
        self._saved = [getattr(owner, attr) for owner, attr, _ in self._plan]
        for owner, attr, value in self._plan:
            setattr(owner, attr, value)

    def uninstall(self) -> None:
        for (owner, attr, _), value in zip(self._plan, self._saved):
            setattr(owner, attr, value)
        self._saved = []

    def count(self, name: str, op: int | None = None) -> int:
        """Calls of a counted method or function, in one op or in all."""
        if op is None:
            return sum(v for (n, _), v in self.counts.items() if n == name)
        return self.counts.get((name, op), 0)

    def counted(self) -> dict[str, int]:
        totals: dict[str, int] = defaultdict(int)
        for (name, _), calls in self.counts.items():
            totals[name] += calls
        return dict(sorted(totals.items()))

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def by_function(self) -> dict[str, tuple[int, float]]:
        """{qualified name: (calls, self seconds)} over all spans."""
        table: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for span, own in zip(self.spans, self.self_times()):
            row = table[span[0]]
            row[0] += 1
            row[1] += own
        return {name: (calls, own) for name, (calls, own) in table.items()}


def _rebind(value, wrappers):
    return tuple(
        _rebind(v, wrappers) if isinstance(v, tuple)
        else wrappers.get(v, v) if inspect.isfunction(v)
        else v
        for v in value
    )
