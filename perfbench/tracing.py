"""In-memory spans, percentiles and self-time arithmetic for the benchmark.

Spans are recorded by the benchmark around the public calls it makes;
nothing inside ``src/`` is instrumented. Each span has a name, a start
and end (``time.perf_counter`` seconds), the id of the span that caused
it and the id of the request it belongs to. At the end of a traced run
the spans are written as Chrome trace-event JSON (loadable in Perfetto
or ``chrome://tracing``) together with a self-time table.
"""

from __future__ import annotations

import math
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

#: A percentile is reported only when at least this many samples lie
#: beyond it, so that one outlier cannot set it.
MIN_TAIL_SAMPLES = 10


def percentile(values, q: float) -> float:
    """The nearest-rank ``q``-quantile (``0 < q < 1``) of ``values``.

    Raises ``ValueError`` unless at least :data:`MIN_TAIL_SAMPLES`
    samples lie beyond it: a p90 needs 100 samples, a p50 needs 20.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must lie in (0, 1), got {q}")
    ordered = sorted(values)
    n = len(ordered)
    rank = math.ceil(q * n)
    if n - rank < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{q * 100:g} of {n} samples has {n - rank} beyond it; "
            f"need at least {MIN_TAIL_SAMPLES}"
        )
    return ordered[rank - 1]


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None = None
    request: int | None = None
    thread: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; thread-safe."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: int | None = None,
        request: int | None = None,
    ) -> int:
        with self._lock:
            span_id = len(self.spans)
            self.spans.append(
                Span(span_id, name, start, end, parent, request,
                     threading.get_ident())
            )
        return span_id

    @contextmanager
    def span(self, name: str, parent: int | None = None,
             request: int | None = None):
        """Time the ``with`` body as one span; yields the span id.

        The id is reserved before the body runs so that children
        recorded inside it can name it as their parent.
        """
        start = time.perf_counter()
        span_id = self.add(name, start, start, parent, request)
        try:
            yield span_id
        finally:
            self.spans[span_id].end = time.perf_counter()

    # ------------------------------------------------------------------
    def self_times(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: ``(count, total_s, self_s)``.

        A span's self time is its duration minus the part of its interval
        that its children cover; overlapping children (two party threads)
        are merged first so no instant is subtracted twice.
        """
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        table: dict[str, tuple[int, float, float]] = {}
        for span in self.spans:
            covered = covered_length(
                span.start, span.end,
                [(c.start, c.end) for c in children.get(span.id, [])],
            )
            count, total, own = table.get(span.name, (0, 0.0, 0.0))
            table[span.name] = (
                count + 1, total + span.duration, own + span.duration - covered
            )
        return table

    def chrome_trace(self) -> dict:
        """The spans as Chrome trace-event JSON (complete ``X`` events)."""
        if not self.spans:
            return {"traceEvents": [], "displayTimeUnit": "ms"}
        origin = min(span.start for span in self.spans)
        threads: dict[int, int] = {}
        events = []
        for span in self.spans:
            # One track per request keeps each request's spans nested;
            # spans outside any request go on their recording thread.
            if span.request is not None:
                tid = 1000 + span.request
            else:
                tid = threads.setdefault(span.thread, len(threads) + 1)
            events.append(
                {
                    "name": span.name,
                    "ph": "X",
                    "ts": (span.start - origin) * 1e6,
                    "dur": span.duration * 1e6,
                    "pid": 1,
                    "tid": tid,
                    "args": {"id": span.id, "parent": span.parent,
                             "request": span.request},
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def covered_length(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(start, lo), min(end, hi)) for lo, hi in intervals if hi > start
        and lo < end
    )
    covered = 0.0
    run_lo = run_hi = None
    for lo, hi in clipped:
        if run_hi is None or lo > run_hi:
            if run_hi is not None:
                covered += run_hi - run_lo
            run_lo, run_hi = lo, hi
        else:
            run_hi = max(run_hi, hi)
    if run_hi is not None:
        covered += run_hi - run_lo
    return covered


def render_self_times(table: dict[str, tuple[int, float, float]]) -> str:
    """The self-time table as aligned text, largest self time first."""
    lines = [f"{'span':<40} {'count':>6} {'total_ms':>10} {'self_ms':>10}"]
    for name, (count, total, own) in sorted(
        table.items(), key=lambda item: -item[1][2]
    ):
        lines.append(
            f"{name:<40} {count:>6} {total * 1e3:>10.2f} {own * 1e3:>10.2f}"
        )
    return "\n".join(lines)
