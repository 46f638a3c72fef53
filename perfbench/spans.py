"""In-memory spans and counters for the traced run, and the arithmetic on them.

A span is one timed call: name, start, end, the index of the span that was
open when it started (its parent) and the id of the operation it belongs to.
Spans are kept in a list and written out once, when the traced process ends.
"""
from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: str


class Recorder:
    """Collects spans and named counters for one traced process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.run = ""
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, self.clock(), float("nan"), parent, self.run))
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx].end = self.clock()

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] += n

    def dump(self) -> dict:
        return {"spans": [asdict(s) for s in self.spans], "counters": dict(self.counters)}


def load_spans(rows: list[dict]) -> list[Span]:
    return [Span(**r) for r in rows]


def duration(s: Span) -> float:
    return s.end - s.start


def self_time(spans: list[Span], i: int) -> float:
    """A span's duration minus that of its child spans.  The spans come from
    one stack in one thread, so children of one span never overlap."""
    return duration(spans[i]) - sum(duration(s) for s in spans if s.parent == i)


def inclusive(spans: list[Span], name: str) -> float:
    """Total time inside spans called `name`.  No traced stage calls itself,
    so no such span nests in another of its name."""
    return sum(duration(s) for s in spans if s.name == name)


def _inside(spans: list[Span], i: int, name: str) -> bool:
    p = spans[i].parent
    while p is not None:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def exclusive_of(spans: list[Span], name: str, minus: str) -> float:
    """Time inside `name` spans not spent in `minus` spans nested in them."""
    nested = sum(duration(s) for i, s in enumerate(spans) if s.name == minus and _inside(spans, i, name))
    return inclusive(spans, name) - nested


def call_count(spans: list[Span], name: str) -> int:
    return sum(1 for s in spans if s.name == name)


def roots(spans: list[Span]) -> list[int]:
    return [i for i, s in enumerate(spans) if s.parent is None]
