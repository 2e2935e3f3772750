"""Spans around calls into a package, recorded from outside it.

A Tracer holds a list of wrap targets: an owner (module or class), the
attribute the call site looks up there, and a span name. While
`installed()` is active each target is replaced by a wrapper that records
one Span per call; on exit every original is put back, so untraced code
runs exactly as it would without the benchmark. Spans stay in memory and
are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import types
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, NamedTuple

SETUP_OP = -1  # op id of spans recorded while the workload sets up

Hook = Callable[..., None]


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Tracer.spans, -1 at top level
    op: int      # op id, SETUP_OP during set-up


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.site_calls: Counter[str] = Counter()  # calls per wrapped attribute
        self.op = SETUP_OP
        self._stack: list[int] = []
        self._targets: list[tuple[Any, str, str, str, Hook | None, Hook | None]] = []

    def wrap(self, owner: Any, attr: str, name: str,
             before: Hook | None = None, after: Hook | None = None) -> None:
        """Trace calls to `owner.attr` as spans called `name`.

        `before(tracer, args, kwargs)` and `after(tracer, result, args, kwargs)`
        run outside the span and may add to `tracer.counts`. A missing
        attribute raises at once: a renamed or moved function must show as
        a missing layer, never as a layer with no calls.
        """
        if attr not in vars(owner):
            raise LookupError(
                f"{getattr(owner, '__name__', owner)} has no attribute {attr!r}; "
                f"cannot trace layer {name}")
        where = owner.__name__ if isinstance(owner, types.ModuleType) \
            else f"{owner.__module__}.{owner.__qualname__}"
        self._targets.append((owner, attr, f"{where}.{attr}", name, before, after))

    @property
    def sites(self) -> list[tuple[str, str]]:
        """(wrapped attribute, span name) of every target."""
        return [(site, name) for _, _, site, name, _, _ in self._targets]

    @contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, site, name, before, after in self._targets:
                raw = vars(owner)[attr]
                saved.append((owner, attr, raw))
                setattr(owner, attr, self._traced(raw, site, name, before, after))
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def _traced(self, raw: Any, site: str, name: str,
                before: Hook | None, after: Hook | None) -> Any:
        if isinstance(raw, (classmethod, staticmethod)):
            return type(raw)(self._traced(raw.__func__, site, name, before, after))
        tracer = self

        @functools.wraps(raw)
        def traced(*args, **kwargs):
            tracer.site_calls[site] += 1
            if before is not None:
                before(tracer, args, kwargs)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)  # filled in when the call returns
            tracer._stack.append(index)
            start = perf_counter()
            try:
                result = raw(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = Span(name, start, end, parent, tracer.op)
            if after is not None:
                after(tracer, result, args, kwargs)
            return result

        return traced

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": list(Span._fields), "spans": [list(s) for s in self.spans],
                       "counts": dict(self.counts)}, fh)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append(span)
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for child in sorted(children[index], key=lambda c: c.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span.end - span.start - covered)
    return out
