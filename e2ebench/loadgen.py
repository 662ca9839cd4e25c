"""Request generators for the serving engine.

Open loop: request ``i`` of a phase is due at ``start + i / rate`` whatever
happened to earlier requests, the way independent users arrive.  Latency
runs from the due time, so a stall in the engine or in the generator itself
is charged to every request it delays.  Closed loop: a fixed number of
requests is kept in flight, each sent as soon as an earlier one is answered,
which measures how many answers per second the engine can give.

Each future is dropped as soon as it resolves: a done-callback writes the
completion time and outcome into preallocated arrays and nothing else keeps
the future or its block alive, except the few answers sampled for the
bit-identity check.
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from repro import OverloadError

PENDING, OK, ERROR, SHED, TIMEOUT = 0, 1, 2, 3, 4

#: a request sent later than this after its due time counts as late
LATE_SECONDS = 0.001


@dataclass
class Phase:
    """Timestamps and outcomes of one phase of requests."""

    #: requests per second of an open-loop phase; 0 for a closed loop
    rate: float
    rows: np.ndarray
    start: float
    due: np.ndarray
    sent: np.ndarray
    done: np.ndarray
    status: np.ndarray
    #: requests not yet answered when the last one was sent
    outstanding_at_end: int = 0
    samples: List[Tuple[int, np.ndarray]] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return int(self.rows.size)

    @property
    def failed(self) -> int:
        return int(np.count_nonzero(self.status != OK))

    def count(self, code: int) -> int:
        return int(np.count_nonzero(self.status == code))

    def latencies_ms(self) -> np.ndarray:
        ok = self.status == OK
        return (self.done[ok] - self.due[ok]) * 1e3

    def window_ids(self, window_seconds: float) -> np.ndarray:
        """Window index (by due time) of every answered request."""
        per_window = max(1, int(round(self.rate * window_seconds)))
        return np.flatnonzero(self.status == OK) // per_window

    def window_throughputs(self, window_seconds: float) -> np.ndarray:
        """Answers per second in each whole window (by answer time) after the start."""
        ok = np.sort(self.done[self.status == OK]) - self.start
        if not ok.size:
            return np.zeros(0)
        windows = int(ok[-1] // window_seconds)
        counts = np.bincount((ok // window_seconds).astype(np.int64), minlength=windows + 1)
        return counts[:windows] / window_seconds

    def lateness_ms(self) -> np.ndarray:
        sent = ~np.isnan(self.sent)
        return (self.sent[sent] - self.due[sent]) * 1e3


def run_open_loop(
    engine,
    rows: np.ndarray,
    rate: float,
    tracer,
    *,
    sample_every: int = 0,
    drain_seconds: float = 2.0,
) -> Phase:
    """Submit ``rows`` to ``engine`` at ``rate`` per second and wait for the answers.

    Requests still unanswered ``drain_seconds`` after the last send count as
    timeouts.  Every ``sample_every``-th answer (0 = none) is kept for the
    caller's correctness check.
    """
    n = int(rows.size)
    start = time.perf_counter() + 0.002
    phase = Phase(
        rate=float(rate),
        rows=rows,
        start=start,
        due=start + np.arange(n, dtype=np.float64) / rate,
        sent=np.full(n, np.nan),
        done=np.full(n, np.nan),
        status=np.zeros(n, dtype=np.int8),
    )
    due, sent, done, status = phase.due, phase.sent, phase.done, phase.status
    samples = phase.samples

    def on_done(index: int, future) -> None:
        done[index] = time.perf_counter()
        if future.cancelled() or future.exception() is not None:
            status[index] = ERROR
            return
        status[index] = OK
        if sample_every and index % sample_every == 0:
            samples.append((int(rows[index]), future.result()))

    clock = time.perf_counter
    submit = engine.submit
    span = tracer.span
    i = 0
    while i < n:
        now = clock()
        if now < due[i]:
            time.sleep(due[i] - now)
            continue
        stop = int(np.searchsorted(due, now, side="right"))
        for j in range(i, stop):
            sent[j] = clock()
            try:
                with span("serving.submit"):
                    future = submit(int(rows[j]))
            except OverloadError:
                status[j] = SHED
                continue
            except Exception:  # typed serving errors and a closed engine alike
                status[j] = ERROR
                continue
            future.add_done_callback(functools.partial(on_done, j))
            del future
        i = stop
    phase.outstanding_at_end = int(np.count_nonzero(status == PENDING))

    deadline = clock() + drain_seconds
    while np.any(status == PENDING) and clock() < deadline:
        time.sleep(0.001)
    # freeze the outcome: a straggler resolving after the deadline stays a timeout
    phase.status = status.copy()
    phase.status[phase.status == PENDING] = TIMEOUT
    phase.done = done.copy()
    return phase


def run_closed_loop(
    engine,
    rows: np.ndarray,
    concurrency: int,
    seconds: float,
    tracer,
    *,
    sample_every: int = 0,
    drain_seconds: float = 2.0,
) -> Phase:
    """Submit ``rows`` to ``engine`` for ``seconds``, keeping ``concurrency`` in flight.

    A request is due when it is sent, so its latency is its time in the
    engine.  Rows not sent by the end are not attempted.  When no answer
    frees a slot for ``drain_seconds`` the phase stops, and requests not
    answered by then count as timeouts.
    """
    n = int(rows.size)
    sent = np.full(n, np.nan)
    done = np.full(n, np.nan)
    status = np.zeros(n, dtype=np.int8)
    samples: List[Tuple[int, np.ndarray]] = []
    slots = threading.Semaphore(concurrency)

    def on_done(index: int, future) -> None:
        done[index] = time.perf_counter()
        if future.cancelled() or future.exception() is not None:
            status[index] = ERROR
        else:
            status[index] = OK
            if sample_every and index % sample_every == 0:
                samples.append((int(rows[index]), future.result()))
        slots.release()

    clock = time.perf_counter
    submit = engine.submit
    span = tracer.span
    start = clock()
    stop_at = start + seconds
    count = 0
    while count < n and clock() < stop_at:
        if not slots.acquire(timeout=drain_seconds):
            break
        j = count
        count += 1
        sent[j] = clock()
        try:
            with span("serving.submit"):
                future = submit(int(rows[j]))
        except OverloadError:
            status[j] = SHED
            slots.release()
            continue
        except Exception:
            status[j] = ERROR
            slots.release()
            continue
        future.add_done_callback(functools.partial(on_done, j))
        del future
    outstanding = int(np.count_nonzero(status[:count] == PENDING))

    deadline = clock() + drain_seconds
    while np.any(status[:count] == PENDING) and clock() < deadline:
        time.sleep(0.001)
    final = status[:count].copy()
    final[final == PENDING] = TIMEOUT
    return Phase(
        rate=0.0,
        rows=rows[:count],
        start=start,
        due=sent[:count].copy(),
        sent=sent[:count].copy(),
        done=done[:count].copy(),
        status=final,
        outstanding_at_end=outstanding,
        samples=samples,
    )
