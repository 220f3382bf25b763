"""Spans around dratkit's layers, recorded from outside the program.

install() wraps the public functions of dratkit.formats, dratkit.checkers,
dratkit.pipeline and dratkit.testkit, and the public methods of
dratkit.propagate.Engine, wherever a module holds a reference to them, so
calls between layers (pipeline.to_er calling emit_trimmed and check_er) are
caught too.  Engine.lit_value is left out: it is a leaf read called millions
of times per check, and a span around each call would cost more than the
work it measures.

A span is (name, start, end, parent): CPU times of the process in
nanoseconds, and the index of the enclosing span or -1.  A span's self time
is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import inspect
import sys
import time
from collections import defaultdict

from dratkit import checkers, formats, pipeline, propagate, testkit

LAYERS = (formats, checkers, pipeline, testkit)
UNTRACED_METHODS = {"lit_value"}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._undo = []

    def wrap(self, name, fn):
        """fn under a span; apart from span() because it runs on every call."""
        spans, stack, clock = self.spans, self._stack, time.process_time_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, clock(), parent)
                stack.pop()

        return traced

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around the benchmark's own steps."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = time.process_time_ns()
        try:
            yield
        finally:
            self.spans[idx] = (name, start, time.process_time_ns(), parent)
            self._stack.pop()

    def install(self, extra_modules=()):
        """Wrap every layer entry point; uninstall() restores them."""
        targets = {}
        for mod in LAYERS:
            layer = mod.__name__.rsplit(".", 1)[1]
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    targets[id(obj)] = self.wrap("%s.%s" % (layer, name), obj)
        holders = [m for n, m in sys.modules.items()
                   if n == "dratkit" or n.startswith("dratkit.")]
        holders.extend(extra_modules)
        for mod in holders:
            for name, obj in list(vars(mod).items()):
                if id(obj) in targets:
                    self._undo.append((mod, name, obj))
                    setattr(mod, name, targets[id(obj)])
        engine = propagate.Engine
        for name, obj in list(vars(engine).items()):
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and name not in UNTRACED_METHODS):
                self._undo.append((engine, name, obj))
                setattr(engine, name, self.wrap("Engine." + name, obj))

    def uninstall(self):
        while self._undo:
            holder, name, obj = self._undo.pop()
            setattr(holder, name, obj)


class Profile:
    """Per-name totals over the descendants of one span."""

    def __init__(self, spans, root: int):
        children = defaultdict(list)
        for i, (_, _, _, parent) in enumerate(spans):
            children[parent].append(i)
        self.total = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.under = defaultdict(int)   # (parent name, name) -> total
        todo = list(children[root])
        while todo:
            i = todo.pop()
            name, start, end, parent = spans[i]
            dur = end - start
            kids = children[i]
            self.total[name] += dur
            self.calls[name] += 1
            self.self_ns[name] += dur - sum(spans[k][2] - spans[k][1] for k in kids)
            self.under[(spans[parent][0], name)] += dur
            todo.extend(kids)

    def seconds(self, name, kind="total"):
        table = self.total if kind == "total" else self.self_ns
        return table.get(name, 0) / 1e9

    def under_s(self, parent_name, name):
        return self.under.get((parent_name, name), 0) / 1e9


def command_spans(spans):
    """{command name: span index} for the benchmark's top-level spans."""
    return {s[0]: i for i, s in enumerate(spans) if s[3] == -1}
