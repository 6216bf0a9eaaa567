"""In-memory span recorder for the traced benchmark run.

The program under test is not instrumented.  Instead, a traced run
replaces a few public entry points (module functions and class
methods) with thin wrappers that record a span around each call:
name, start, end and parent.  Spans stay in memory; the benchmark
aggregates them per operation once the operation has ended.

Untraced runs install no span wrapper, so their timings carry no
tracing cost.  Benchmark work done inside an open span (calibration
readings) is excluded from it through :meth:`Tracer.pause`.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple


class Span:
    __slots__ = ("name", "start", "end", "parent")

    def __init__(self, name: str, start: float, parent: Optional["Span"]):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent


class Tracer:
    """Records nested spans and counts while ``active`` is true."""

    def __init__(self) -> None:
        self.active = False
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[Span] = []
        self._restore: List[Tuple[Any, str, Any]] = []
        #: (start, end) of benchmark work (calibration readings) done
        #: during the operation; excluded from every span it overlaps.
        self.pauses: List[Tuple[float, float]] = []
        #: Called at the start of every operation (per-op wrapper state).
        self.reset_hooks: List[Callable[[], None]] = []

    # -- recording -----------------------------------------------------
    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), parent)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        assert popped is span, "spans must close in LIFO order"
        self.spans.append(span)

    def pause(self, start: float, end: float) -> None:
        """Exclude benchmark work done from ``start`` to ``end`` from
        every span that overlaps it.

        Intervals rather than a running total, so a reading taken by a
        timer signal in the middle of :meth:`open` or :meth:`close` is
        still charged to exactly the spans it falls into.
        """
        self.pauses.append((start, end))

    def duration(self, span: Span) -> float:
        paused = sum(max(0.0, min(span.end, end) - max(span.start, start))
                     for start, end in self.pauses)
        return span.end - span.start - paused

    def count(self, name: str, value: float = 1.0) -> None:
        if self.active:
            self.counts[name] += value

    def begin_op(self, active: bool) -> None:
        self.active = active
        self.spans = []
        self.counts = defaultdict(float)
        self.pauses = []
        for hook in self.reset_hooks:
            hook()

    def end_op(self, op_s: float) -> Dict[str, float]:
        """Self time per span name, counts, and the untraced remainder."""
        self.active = False
        out: Dict[str, float] = defaultdict(float)
        covered = 0.0
        for span in self.spans:
            duration = self.duration(span)
            out[span.name] += duration
            if span.parent is None:
                covered += duration
            else:
                out[span.parent.name] -= duration
        out.update(self.counts)
        out["untraced_s"] = max(op_s - covered, 0.0)
        return dict(out)

    # -- wrapping --------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        after: Optional[Callable[["Tracer", tuple, Any], None]] = None,
        first_only: Optional[Callable[[tuple], bool]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``after(tracer, args, result)`` may add counts from the call's
        arguments or return value.  ``first_only(args)`` returning false
        skips the span (used for "first call on this object" spans).
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.active or (
                first_only is not None and not first_only(args)
            ):
                return original(*args, **kwargs)
            span = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(span)
            if after is not None:
                after(tracer, args, result)
            return result

        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def unwrap_all(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
