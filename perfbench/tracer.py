"""In-memory span tracer that times calls by patching module and class attributes.

The benchmark cannot edit the program, so it traces from outside: for each
target ``(owner, attribute)`` it swaps the attribute for a timing wrapper and
puts the original back when the :meth:`Tracer.patched` block ends, also when
the block raises. Calls made through the owner (``module.func(...)``,
``obj.method(...)`` or a module-global lookup inside the owner's module) all
go through the wrapper.

A span records its name, start, end, parent span and request id. The self
time of a span is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable

#: Optional per-call counter hook: ``count(args, kwargs, result)`` returns
#: ``{counter_name: increment}``.
CountHook = Callable[[tuple, dict, Any], dict]


@dataclass(frozen=True)
class Target:
    """One traced function: span ``name`` for ``owner.attr``."""

    name: str
    owner: Any  # module or class whose attribute is replaced
    attr: str
    count: CountHook | None = None


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    request: str
    child_s: float = 0.0  # time covered by direct children

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counters: Counter = field(default_factory=Counter)
    request: str = ""
    _stack: list[int] = field(default_factory=list)

    def wrap(self, name: str, fn: Callable, count: CountHook | None = None) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = Span(name, time.perf_counter(), 0.0, parent, tracer.request)
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
                if parent >= 0:
                    tracer.spans[parent].child_s += span.duration
            if count is not None:
                for key, inc in count(args, kwargs, result).items():
                    tracer.counters[key] += inc
            return result

        return functools.wraps(fn)(traced)

    @contextlib.contextmanager
    def patched(self, targets):
        """Replace every target with a timing wrapper for the block's duration."""
        saved = []  # (owner, attr, original)
        try:
            for t in targets:
                # only attributes the owner defines itself: restoring an
                # inherited one would shadow the base class for good
                original = vars(t.owner).get(t.attr)
                if not callable(original) or isinstance(original, (staticmethod, classmethod)):
                    raise TypeError(f"{t.name}: {t.attr} is not a function defined on its owner")
                saved.append((t.owner, t.attr, original))
                setattr(t.owner, t.attr, self.wrap(t.name, original, t.count))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``self_s`` and ``total_s``."""
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0}
        )
        for span in self.spans:
            entry = out[span.name]
            entry["calls"] += 1
            entry["self_s"] += span.self_s
            entry["total_s"] += span.duration
        return dict(out)

    def records(self) -> list[list]:
        """Spans as ``[name, start, end, parent, request]`` rows for writing out."""
        return [[s.name, s.start, s.end, s.parent, s.request] for s in self.spans]
