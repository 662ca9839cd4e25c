"""In-memory spans recorded by the benchmark around calls into each layer.

A span is ``(name, start, end, parent)`` with ``perf_counter`` times and the
index of the enclosing span on the same thread (``-1`` at the top).  Spans
stay in memory while the workload runs and are written out once at the end.
Phase durations that a layer reports itself (``PreprocessingResult.timing``,
``UpdateResult.timing``) become child spans laid end to end from the
parent's start, so the parent's self time is the part no phase accounts for.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple

#: one span: [name, start, end, parent index]
Span = List


class Tracer:
    """Records nested spans from any thread; cheap enough to wrap each request."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextlib.contextmanager
    def span(self, name: str):
        parent = getattr(self._local, "current", -1)
        record = [name, time.perf_counter(), None, parent]
        with self._lock:
            self.spans.append(record)
            index = len(self.spans) - 1
        self._local.current = index
        try:
            yield index
        finally:
            record[2] = time.perf_counter()
            self._local.current = parent

    def add_phases(self, parent: int, prefix: str, durations: Dict[str, float]) -> None:
        """Add reported phase durations as children of span ``parent``."""
        cursor = self.spans[parent][1]
        with self._lock:
            for name, seconds in durations.items():
                self.spans.append([f"{prefix}.{name}", cursor, cursor + seconds, parent])
                cursor += seconds

    def write(self, path: Path) -> None:
        with open(path, "w") as handle:
            for name, start, end, parent in self.spans:
                handle.write(json.dumps([name, start, end, parent]) + "\n")


class NullTracer:
    """Stand-in for untraced runs: every call is a no-op."""

    _null = contextlib.nullcontext(-1)

    def span(self, name: str):
        return self._null

    def add_phases(self, parent: int, prefix: str, durations: Dict[str, float]) -> None:
        pass


def covered_length(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo))
    total = 0.0
    cur_start = cur_end = None
    for start, end in clipped:
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - covered_length(children.get(i, ()), start, end)
        for i, (name, start, end, parent) in enumerate(spans)
    ]


def totals_by_name(spans: Sequence[Span]) -> Dict[str, float]:
    """Summed duration of every span name."""
    out: Dict[str, float] = defaultdict(float)
    for name, start, end, parent in spans:
        out[name] += end - start
    return dict(out)


def self_totals_by_name(spans: Sequence[Span]) -> Dict[str, float]:
    """Summed self time of every span name."""
    out: Dict[str, float] = defaultdict(float)
    for (name, *_), own in zip(spans, self_times(spans)):
        out[name] += own
    return dict(out)


def durations(spans: Sequence[Span], name: str, parent: int) -> List[float]:
    """Durations of the spans called ``name`` directly under span ``parent``."""
    return [end - start for span_name, start, end, up in spans if span_name == name and up == parent]
