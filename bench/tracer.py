"""Span tracer that wraps a package's public functions and methods from outside.

Every public function of a package module, and every public method (plus
``__call__``) of its classes, is replaced by a wrapper at every place it is
bound: the defining module, any module that did ``from .x import f``, and the
package namespace.  Each call records a span (name, layer, start, end,
parent, operation id); the layer is the name of the defining module.  Spans
stay in memory until ``write_spans``.  ``uninstall`` restores the originals.

The tracer is single-threaded: callers must not run traced code from worker
threads, because the span stack is shared.
"""

from __future__ import annotations

import inspect
import os
import sys
import time
from collections import Counter

NAME, LAYER, START, END, PARENT, OP, OK = range(7)


def _public(name: str) -> bool:
    return not name.startswith("_") or name == "__call__"


class Tracer:
    """Records spans and size counters for one package while installed."""

    def __init__(self, package: str, hooks=None, watch=()):
        self.package = package
        # hooks: span name -> callable(tracer, args, kwargs, result) run after a
        # successful call, used for size counters (points, bytes, faces, ...)
        self.hooks = dict(hooks or {})
        # open[name] counts the open spans of each watched name, so a hook can
        # attribute work to an enclosing span (e.g. series points inside a scan)
        self.watch = frozenset(watch)
        self.open: Counter = Counter()
        self.spans: list = []
        self.ops: list[str] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._op = -1
        self._patches: list = []

    # -- installation -------------------------------------------------------

    def _modules(self):
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == self.package or n.startswith(self.package + "."))]

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        wrapped = {}  # id(original) -> wrapper
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for name, obj in list(vars(mod).items()):
                if not _public(name) or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    if issubclass(obj, BaseException):
                        continue
                    for meth, fn in list(vars(obj).items()):
                        if _public(meth) and inspect.isfunction(fn):
                            span = "%s.%s.%s" % (layer, name, meth)
                            self._patch(obj, meth, fn, self._wrap(fn, span, layer))
                elif callable(obj):
                    wrapped[id(obj)] = (obj, self._wrap(obj, "%s.%s" % (layer, name), layer))
        # rebind every alias of a wrapped function, in every package module
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, name, obj, hit[1])

    def _patch(self, owner, attr, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _wrap(self, fn, span_name: str, layer: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = self.hooks.get(span_name)
        opened = self.open if span_name in self.watch else None
        tracer = self

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            if opened is not None:
                opened[span_name] += 1
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = clock()
                stack.pop()
                if opened is not None:
                    opened[span_name] -= 1
                spans[idx] = (span_name, layer, start, end, parent, tracer._op, ok)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        traced.__name__ = getattr(fn, "__name__", span_name)
        traced.__qualname__ = getattr(fn, "__qualname__", span_name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    # -- recording ----------------------------------------------------------

    def begin_op(self, label: str) -> None:
        """Tag the spans recorded from now on with a new operation id."""
        self.ops.append(label)
        self._op = len(self.ops) - 1

    # -- analysis -----------------------------------------------------------

    def self_times(self, first: int = 0) -> dict:
        """Per-layer self time over spans[first:]: duration minus children."""
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        for s in spans:
            p = s[PARENT] - first
            if p >= 0:
                child[p] += s[END] - s[START]
        out: Counter = Counter()
        for s, c in zip(spans, child):
            out[s[LAYER]] += (s[END] - s[START]) - c
        return dict(out)

    def inclusive_time(self, span_name: str, first: int = 0) -> float:
        """Summed duration of the spans of one name (they must not nest)."""
        return sum(s[END] - s[START] for s in self.spans[first:] if s[NAME] == span_name)

    def write_spans(self, path: str) -> None:
        """Tab-separated spans, one per line, times relative to the first span."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("name\tlayer\tstart_s\tend_s\tparent\top\tok\n")
            for s in self.spans:
                op = self.ops[s[OP]] if s[OP] >= 0 else ""
                fh.write("%s\t%s\t%.9f\t%.9f\t%d\t%d:%s\t%d\n" % (
                    s[NAME], s[LAYER], s[START] - t0, s[END] - t0, s[PARENT], s[OP], op,
                    int(s[OK])))
