"""Span tracer that instruments sirdelay's layers from outside the package.

For each traced public function the tracer swaps the function object for a
timing wrapper in every ``sirdelay`` module namespace that binds it, so a
call is seen whichever module makes it (``analytics.sweep`` calling
``integrate``, ``report`` calling ``max_real_part``, ``charroots`` calling
``char_roots_scan`` ...).  Methods are swapped on their class.  Spans are kept
in memory; ``restore`` puts every original object back.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span, None at top level
    op: int             # operation id: spans of one closed-loop call share it
    summary: object = None  # what ``summary(result)`` made of the return value
    failed: bool = False

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.op = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _span_wrapper(self, name, fn, summary=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else None, self.op)
            spans.append(span)
            stack.append(idx)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
            if summary is not None:
                span.summary = summary(result)
            return result

        return traced

    def _count_wrapper(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installing ------------------------------------------------------
    def _replace_everywhere(self, original, replacement):
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "sirdelay" or modname.startswith("sirdelay.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def span(self, name, original, summary=None):
        """Record a span around every call of the module-level ``original``.

        ``summary`` maps the return value to the small record kept in the
        span (a step or root count), so results are not held in memory.
        """
        self._replace_everywhere(original, self._span_wrapper(name, original, summary))

    def count(self, name, original):
        """Count calls of ``original`` without timing them (for hot helpers)."""
        self._replace_everywhere(original, self._count_wrapper(name, original))

    def span_method(self, name, cls, method):
        original = cls.__dict__[method]
        self._undo.append((cls, method, original))
        setattr(cls, method, self._span_wrapper(name, original))

    def restore(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- analysis --------------------------------------------------------
    def named(self, name):
        return [s for s in self.spans if s.name == name]

    def self_seconds_of(self, name):
        """Self time of each span called ``name``: its duration minus its
        direct children's.  Calls are nested and single-threaded, so
        children never overlap."""
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + s.seconds
        return [s.seconds - child_time.get(i, 0.0)
                for i, s in enumerate(self.spans) if s.name == name]

    def dump(self, path):
        """Write every span as one JSON line (name, start, end, parent, op)."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "op": s.op,
                                     "failed": s.failed}) + "\n")
