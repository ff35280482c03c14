"""Span tracing from outside the program: self times and exact counts.

The traced pass wraps public callables of the simulator at the name each
caller binds (a module attribute such as ``repro.bgp.node.select_best``,
or a method on its class) and restores them afterwards.  Nothing inside
the program changes; a wrapper only observes.

Spans are aggregated as they close, never stored: a run makes millions
of them.  A span's *self time* is its duration minus the part of its
interval that its child spans cover.  Children arrive in start order
(single thread), so the covered length is an incremental interval union.
"""

from __future__ import annotations

import contextlib
import time
from typing import Callable, Dict, Iterable, Iterator, List, Tuple


class Span:
    """An open span: its start and the union length of its children."""

    __slots__ = ("start", "covered", "covered_end")

    def __init__(self, start: float) -> None:
        self.start = start
        self.covered = 0.0
        self.covered_end = start

    def cover(self, start: float, end: float) -> None:
        """Add a child interval; children must arrive sorted by start."""
        start = max(start, self.covered_end)
        if end > start:
            self.covered += end - start
            self.covered_end = end


def self_time(
    start: float, end: float, children: Iterable[Tuple[float, float]]
) -> float:
    """Duration of ``[start, end]`` not covered by any child interval.

    Children may nest or overlap each other and may stick out of the
    parent; only their union inside the parent is subtracted.
    """
    span = Span(start)
    for child_start, child_end in sorted(children):
        span.cover(child_start, min(child_end, end))
    return (end - start) - span.covered


class Tracer:
    """Per-name self time and call counts, plus plain event counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._stack: List[Span] = [Span(clock())]
        self.self_seconds: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.counts: Dict[str, int] = {}

    def timed(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped in a span called ``name``."""
        clock = self._clock
        stack = self._stack
        totals = self.self_seconds
        calls = self.calls
        totals.setdefault(name, 0.0)
        calls.setdefault(name, 0)

        def traced(*args, **kwargs):
            start = clock()
            span = Span(start)
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                stack[-1].cover(start, end)
                totals[name] += end - start - span.covered
                calls[name] += 1

        return traced

    def counted(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped so that each call adds one to ``counts[name]``."""
        counts = self.counts
        counts.setdefault(name, 0)

        def tallied(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return tallied


@contextlib.contextmanager
def patched(replacements: Iterable[Tuple[object, str, Callable]]) -> Iterator[None]:
    """Install ``(owner, attribute, make_wrapper)`` patches, then restore.

    ``make_wrapper`` receives the current attribute value and returns its
    replacement.  Originals are taken from the owner's own ``__dict__``
    so a restored class is exactly as it was.
    """
    undo: List[Tuple[object, str, object]] = []
    try:
        for owner, attribute, make_wrapper in replacements:
            original = vars(owner)[attribute]
            setattr(owner, attribute, make_wrapper(getattr(owner, attribute)))
            undo.append((owner, attribute, original))
        yield
    finally:
        for owner, attribute, original in reversed(undo):
            setattr(owner, attribute, original)
