"""In-memory host-time spans around the benchmark's calls into each layer.

A span records one call the benchmark makes into a layer's public API:
its name (``<layer>.<call>``), host start and end, the enclosing span,
the run it belongs to (the workload, or ``<workload>.probe`` for the
traced run's extra measurements) and an optional request id.  Spans live
in memory until the run ends, then export as Chrome trace-event JSON,
which Perfetto opens beside ``repro serve-bench --trace`` output.

With tracing off, :meth:`Tracer.span` returns a shared no-op context, so
the untraced run pays one ``with`` statement per call and records nothing.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

_NO_SPAN = nullcontext()


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    request: int | None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder for one benchmark process (single-threaded use)."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.run = "-"
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._origin = time.perf_counter()

    def span(self, name: str, request: int | None = None):
        """Context manager timing one call; a no-op when tracing is off."""
        if not self.enabled:
            return _NO_SPAN
        return self._record(name, request)

    @contextmanager
    def _record(self, name: str, request: int | None):
        parent = self._open[-1] if self._open else None
        self._open.append(len(self.spans))
        span = Span(name, time.perf_counter(), 0.0, parent, self.run,
                    request)
        self.spans.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def total(self, run: str, name: str) -> float:
        """Summed duration (s) of the spans called ``name`` in ``run``."""
        return sum(
            s.duration for s in self.spans if s.run == run and s.name == name
        )

    def self_times(self) -> dict[tuple[str, str], float]:
        """Self time (s) per ``(run, layer)``.

        A span's self time is its duration minus the time its child
        spans cover.  Spans come from one thread and nest strictly, so
        children never overlap and their durations simply add up.
        """
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.duration
        totals: dict[tuple[str, str], float] = {}
        for span, child in zip(self.spans, covered):
            key = (span.run, span.layer)
            totals[key] = totals.get(key, 0.0) + span.duration - child
        return totals

    def layer_calls(self) -> dict[str, int]:
        """Span counts per layer, over all runs."""
        counts: dict[str, int] = {}
        for span in self.spans:
            counts[span.layer] = counts.get(span.layer, 0) + 1
        return counts

    def chrome_events(self, pid: int = 0) -> list[dict]:
        """The spans as Chrome trace events on one host-clock track."""
        events: list[dict] = [
            {"ph": "M", "pid": pid, "tid": 0, "name": "process_name",
             "args": {"name": "perfbench (host clock)"}},
        ]
        for span in self.spans:
            args = {"run": span.run}
            if span.parent is not None:
                args["parent"] = self.spans[span.parent].name
            if span.request is not None:
                args["request_id"] = span.request
            events.append({
                "ph": "X", "pid": pid, "tid": 0, "cat": span.layer,
                "name": span.name,
                "ts": round((span.start - self._origin) * 1e6, 3),
                "dur": round(span.duration * 1e6, 3),
                "args": args,
            })
        return events
