"""Spans and counters recorded from outside the library, at call boundaries.

A ``Tracer`` replaces a function where its caller looks it up (a module
attribute, a class attribute, or a name another module imported) with a
wrapper that records a span: name, phase, start, end and the index of the
enclosing span.  Spans stay in memory; ``summary`` reduces them once the run
is over.  ``install``/``uninstall`` swap the originals in and out, so a run can
alternate traced and untraced units of work and measure what tracing costs.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.spans = []          # (name, phase, start, end, parent index)
        self.amounts = Counter()  # (name.key, phase) -> summed per-call amount
        self.counts = Counter()   # (name, phase) -> plain counter
        self.phase = "setup"
        self._open = []           # indices of the spans on the call stack
        self._open_names = Counter()  # span name -> how many are open
        self._patches = []        # (owner, attribute, original, wrapper)

    # -- patching ----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, amount=None) -> None:
        """Record a span ``name`` around every call of ``owner.attr``.

        ``amount(args, kwargs, result)`` returns per-call quantities such as
        ``{"bytes": n}``, summed under ``f"{name}.bytes"``.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind else raw
        tracer = self

        def traced(*args, **kwargs):
            spans, stack = tracer.spans, tracer._open
            index = len(spans)
            spans.append(None)
            stack.append(index)
            tracer._open_names[name] += 1
            parent = stack[-2] if len(stack) > 1 else -1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer._open_names[name] -= 1
                spans[index] = (name, tracer.phase, start, end, parent)
            if amount is not None:
                for key, value in amount(args, kwargs, result).items():
                    tracer.amounts[f"{name}.{key}", tracer.phase] += value
            return result

        self._patches.append((owner, attr, raw, kind(traced) if kind else traced))

    def count_calls(self, owner, attr: str, name: str, scopes=()) -> None:
        """Count calls of ``owner.attr`` without a span (for very hot calls),
        also under ``f"{name}@{scope}"`` while a span named ``scope`` is open."""
        raw = owner.__dict__[attr]
        counts, open_names = self.counts, self._open_names

        def counted(*args, **kwargs):
            counts[name, self.phase] += 1
            for scope in scopes:
                if open_names[scope]:
                    counts[f"{name}@{scope}", self.phase] += 1
            return raw(*args, **kwargs)

        self._patches.append((owner, attr, raw, counted))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # -- reduction ---------------------------------------------------------

    def summary(self) -> dict:
        """Per (name, phase): calls, total seconds, self seconds, and the
        names of every enclosing span (for attributing calls to a caller)."""
        child = defaultdict(float)
        for name, phase, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                   "within": Counter()})
        for i, (name, phase, start, end, parent) in enumerate(self.spans):
            rec = out[name, phase]
            rec["calls"] += 1
            rec["total_s"] += end - start
            rec["self_s"] += end - start - child[i]
            while parent >= 0:
                rec["within"][self.spans[parent][0]] += 1
                parent = self.spans[parent][4]
        return out
