"""Percentile and ladder rules shared by every workload."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

#: percentiles a timing may be reported at, lowest first
PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9, 99.99)

#: samples that must lie beyond a reported percentile
MIN_BEYOND = 10


def samples_beyond(count: int, percentile: float) -> int:
    """How many of ``count`` samples lie above ``percentile``."""
    return math.floor(count * (100.0 - percentile) / 100.0 + 1e-9)


def tail_percentile(count: int, candidates: Sequence[float] = PERCENTILES) -> Optional[float]:
    """The highest candidate percentile with at least ``MIN_BEYOND`` samples beyond it."""
    allowed = [p for p in candidates if samples_beyond(count, p) >= MIN_BEYOND]
    return max(allowed) if allowed else None


def percentile(samples, pct: float) -> float:
    """``pct`` of ``samples``; raises when fewer than ``MIN_BEYOND`` lie beyond it.

    A percentile read off too few samples is the largest value seen, not a
    property of the distribution, so it is refused rather than reported.
    """
    values = np.asarray(samples, dtype=np.float64)
    if samples_beyond(values.size, pct) < MIN_BEYOND:
        raise ValueError(
            f"p{pct:g} needs {MIN_BEYOND} samples beyond it; {values.size} samples give "
            f"{samples_beyond(values.size, pct)}"
        )
    return float(np.percentile(values, pct))


def describe(samples) -> dict:
    """Median, tail percentile and sample count of one timing sample set."""
    values = np.asarray(samples, dtype=np.float64)
    tail = tail_percentile(values.size)
    return {
        "count": int(values.size),
        "p50": float(np.median(values)) if values.size else float("nan"),
        "tail_percentile": tail,
        "tail": float(np.percentile(values, tail)) if tail is not None else float("nan"),
    }


def window_percentiles(samples, window_ids, pct: float) -> List[float]:
    """``pct`` of every window with enough samples for the ``MIN_BEYOND`` rule."""
    values = np.asarray(samples, dtype=np.float64)
    ids = np.asarray(window_ids)
    chunks = (values[ids == w] for w in np.unique(ids))
    return [float(np.percentile(c, pct)) for c in chunks if samples_beyond(c.size, pct) >= MIN_BEYOND]


def windowed_percentile(samples, window_ids, pct: float) -> float:
    """Median over windows of each window's ``pct`` percentile (``inf`` with no full window).

    One noisy moment (a neighbour's burst, a GC pause) moves one window's
    value, not the reported median.
    """
    per_window = window_percentiles(samples, window_ids, pct)
    return float(np.median(per_window)) if per_window else float("inf")


@dataclass
class Rung:
    """Outcome of one attempt at one fixed rate of the serving ladder."""

    rate: float
    attempted: int
    failed: int
    p99_ms: float
    backlog: bool

    def passes(self, limit_ms: float) -> bool:
        """Within the latency limit, nothing failed, and the queue did not grow."""
        return self.failed == 0 and not self.backlog and self.p99_ms <= limit_ms


def rate_passes(attempts: Sequence[Rung], limit_ms: float) -> bool:
    """A rate passes when most of its attempts pass.

    One stall of a shared host can fail a healthy rate, and a lucky attempt
    can pass a rate past the knee; a majority is wrong only when both happen
    more often than not.
    """
    return 2 * sum(a.passes(limit_ms) for a in attempts) > len(attempts)


def ladder_max_rate(attempts: Sequence[Rung], limit_ms: float) -> float:
    """Highest rate before the first failing one (0 when the first rate fails).

    ``attempts`` are in the order they ran, lowest rate first, grouped by
    rate; a rate that passes after a failing one does not count, because the
    ladder stops there.
    """
    best = 0.0
    for rate in dict.fromkeys(a.rate for a in attempts):
        if not rate_passes([a for a in attempts if a.rate == rate], limit_ms):
            break
        best = rate
    return best

