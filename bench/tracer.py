"""Outside-in tracing of the program's layers.

The tracer times calls into public functions of the program without
changing its source: each traced function is rebound, in every
``bruckloops`` module that holds it, to a wrapper that records a span
(id, parent id, function, start, end).  Modules import these functions by
value (``from .linalg import spectral_map``), so rebinding only the
defining module would miss most calls.  Methods are wrapped on their class,
before any instance binds them.  A few numpy.linalg functions are only
counted, and only while a traced span is open.

Spans stay in memory until ``take()``; ``restore()`` puts every rebound
name back.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import time
from dataclasses import dataclass, field

import numpy as np

PACKAGE = "bruckloops"


@dataclass
class LayerTotals:
    """Aggregate of one batch of spans, keyed by traced name."""

    calls: dict = field(default_factory=dict)
    self_s: dict = field(default_factory=dict)
    errors: dict = field(default_factory=dict)
    counted: dict = field(default_factory=dict)
    nested: dict = field(default_factory=dict)


class Tracer:
    """Rebinds ``targets`` (``"module.function"`` or ``"module.Class.method"``,
    relative to the package) to span-recording wrappers, and ``counted``
    (``"module.attr"`` of numpy.linalg) to call counters."""

    def __init__(self, targets, counted=()):
        self.targets = list(targets)
        self.counted = list(counted)
        self.spans = []
        self._stack = []
        self._ids = itertools.count()
        self._counts = {name: 0 for name in self.counted}
        self._errors = {}
        self._last_error = None
        self._rebound = []
        # targets the program no longer defines; their metrics read 0
        self.missing = []

    # -- installation ------------------------------------------------------

    def _package_modules(self):
        return [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def install(self) -> None:
        self.missing = []
        if self._rebound:
            raise RuntimeError("tracer already installed")
        try:
            self._install()
        except BaseException:
            self.restore()
            raise

    def _install(self) -> None:
        modules = self._package_modules()
        for name in self.targets:
            mod_name, _, attr_path = name.partition(".")
            owner = importlib.import_module(f"{PACKAGE}.{mod_name}")
            if "." in attr_path:
                cls_name, meth = attr_path.split(".")
                cls = getattr(owner, cls_name, None)
                original = vars(cls).get(meth) if cls is not None else None
                if original is None:
                    self.missing.append(name)
                    continue
                self._rebind(cls, meth, original, self._span_wrapper(name, original))
                continue
            original = getattr(owner, attr_path, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._span_wrapper(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, original, wrapper)
        for name in self.counted:
            attr = name.rsplit(".", 1)[1]
            original = getattr(np.linalg, attr)
            self._rebind(np.linalg, attr, original, self._count_wrapper(name, original))

    def _rebind(self, container, key, original, wrapper) -> None:
        setattr(container, key, wrapper)
        self._rebound.append((container, key, original))

    def restore(self) -> None:
        while self._rebound:
            container, key, original = self._rebound.pop()
            setattr(container, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, name, fn):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                self._note_error(name, exc)
                raise
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, name, t0, t1))

        return traced

    def _count_wrapper(self, name, fn):
        counts, stack = self._counts, self._stack

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if stack:
                counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _note_error(self, name, exc) -> None:
        # An exception is counted once, at the innermost traced call it
        # escapes; the enclosing spans it unwinds through see the same object.
        if exc is not self._last_error:
            self._last_error = exc
            self._errors[name] = self._errors.get(name, 0) + 1

    # -- results -----------------------------------------------------------

    def take(self, nested=()) -> LayerTotals:
        """Fold the recorded spans into per-name totals and clear them.

        ``nested`` lists ``(inner, outer_prefix)`` pairs: the result's
        ``nested[(inner, outer_prefix)]`` counts spans named ``inner`` that
        ran under any span whose name starts with ``outer_prefix``.
        """
        totals = LayerTotals(errors=dict(self._errors), counted=dict(self._counts))
        by_id = {sid: (parent, name) for sid, parent, name, _, _ in self.spans}
        child_time = {}
        for sid, parent, name, t0, t1 in self.spans:
            dur = t1 - t0
            totals.calls[name] = totals.calls.get(name, 0) + 1
            totals.self_s[name] = totals.self_s.get(name, 0.0) + dur
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + dur
        for sid, dur in child_time.items():
            name = by_id[sid][1]
            totals.self_s[name] -= dur
        for inner, outer in nested:
            hits = 0
            for sid, parent, name, _, _ in self.spans:
                if name != inner:
                    continue
                while parent >= 0:
                    parent, pname = by_id[parent]
                    if pname.startswith(outer):
                        hits += 1
                        break
            totals.nested[(inner, outer)] = hits
        self.spans.clear()
        self._errors.clear()
        self._last_error = None
        for name in self._counts:
            self._counts[name] = 0
        return totals
