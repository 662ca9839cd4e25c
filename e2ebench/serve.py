"""``serve`` workload: Zipfian open-loop reads against an ``igb-medium`` store.

The store is built and the engine started during set-up, so the timed part
is only ``serving``: admission, coalescing, dispatch and the hot-node cache.
Node ids follow a Zipf law (a=1.1) over store rows.  After a short warm-up,
reads arrive open loop at a fixed reference rate well below the knee
(latency is reported there).  Then a closed loop keeps the engine saturated
and counts its answers per second of process CPU time (the throughput
reported; answers per wall second are a per-layer figure).  In a traced
run the untraced part also steps the open-loop rate up a ladder, which stops
at the first rung whose p99 exceeds the limit, that sheds or fails anything,
or whose queue grows; its highest passing rate is a per-layer figure.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Optional, Tuple

import numpy as np

from repro import Session, open_dataset

from e2ebench.common import Outcome, peak_rss_mb, prepropagation_layers, start_serving
from e2ebench.loadgen import ERROR, SHED, TIMEOUT, LATE_SECONDS, run_closed_loop, run_open_loop
from e2ebench.stats import (
    Rung,
    describe,
    ladder_max_rate,
    percentile,
    rate_passes,
    window_percentiles,
    windowed_percentile,
)
from e2ebench.tracing import NullTracer, Tracer, durations, self_totals_by_name, totals_by_name


@dataclass(frozen=True)
class Params:
    dataset: str = "igb-medium"
    num_nodes: Optional[int] = None  # None = the replica's 20k nodes
    zipf_a: float = 1.1
    warmup_seconds: float = 1.0
    reference_rate: float = 5000.0
    #: the reference phase takes this share of the run's seconds, in whole windows
    reference_share: float = 0.5
    #: the saturated phase takes this share of the run's seconds
    capacity_share: float = 0.5
    #: requests the saturated phase keeps in flight.  On a 2-core host
    #: throughput is flat (~20k/s) from 128 to 2048 in flight, so this sits on
    #: the plateau without the seconds-long queues of the top end
    capacity_concurrency: int = 256
    #: latency percentiles and throughputs are medians over windows this long
    window_seconds: float = 0.5
    #: rates above the reference one.  The knee on a 2-core host is near 20k/s,
    #: where p99 is 5 ms or 50 ms depending on host noise, so no rung sits there
    ladder: Tuple[float, ...] = (10000.0, 30000.0, 90000.0)
    rung_seconds: float = 2.0
    rung_attempts: int = 3
    limit_ms: float = 25.0
    #: keep every n-th answer for the bit-identity check
    sample_every: int = 101
    setup_repeats: int = 7


def zipf_rows(num_rows: int, size: int, a: float, rng: np.random.Generator) -> np.ndarray:
    """``size`` store rows drawn by a Zipf law over a seeded popularity order."""
    weights = np.arange(1, num_rows + 1, dtype=np.float64) ** -a
    popularity = rng.permutation(num_rows)
    return popularity[rng.choice(num_rows, size=size, p=weights / weights.sum())]


def _setup(params: Params, seed: int, tracer):
    began = time.perf_counter()
    with tracer.span("datasets.load"):
        dataset = open_dataset(params.dataset, seed=seed, num_nodes=params.num_nodes, use_cache=False)
    session = Session(dataset, seed=seed)
    engine, timing = start_serving(session, tracer, began)
    return session, engine, timing


def _rows(params: Params, num_rows: int, seed: int, phase: int, count: int) -> np.ndarray:
    return zipf_rows(num_rows, count, params.zipf_a, np.random.default_rng([seed, phase]))


def _rung(phase, limit_ms: float) -> Rung:
    latencies = phase.latencies_ms()
    return Rung(
        rate=phase.rate,
        attempted=phase.attempted,
        failed=phase.failed,
        # p99 needs 1000 answers; fewer means most of the attempt failed
        p99_ms=percentile(latencies, 99.0) if latencies.size >= 1000 else float("inf"),
        # more requests in flight than the latency limit allows at this rate
        backlog=phase.outstanding_at_end > phase.rate * limit_ms / 1e3,
    )


def _measure(params: Params, seed: int, seconds: float, session, engine, tracer, ladder: bool) -> dict:
    """Warm-up, reference and saturated phases, then the ladder if asked, against one engine."""
    store = session.store
    n = store.num_rows
    windows = max(3, int(seconds * params.reference_share / params.window_seconds))
    run_open_loop(
        engine, _rows(params, n, seed, 0, int(params.reference_rate * params.warmup_seconds)),
        params.reference_rate, tracer,
    )
    engine.drain_latencies()
    before = engine.snapshot()
    began = time.perf_counter()

    with tracer.span("loadgen.reference") as reference_span:
        count = int(params.reference_rate * params.window_seconds * windows)
        reference = run_open_loop(
            engine, _rows(params, n, seed, 1, count), params.reference_rate, tracer,
            sample_every=params.sample_every,
        )
    # per-layer serving figures cover the reference phase, like the read latencies
    after = engine.snapshot()
    engine_ms = engine.drain_latencies() * 1e3

    capacity_seconds = max(3 * params.window_seconds, seconds * params.capacity_share)
    cpu_began = time.process_time()
    with tracer.span("loadgen.capacity"):
        # more rows than the engine answers in that time
        capacity = run_closed_loop(
            engine, _rows(params, n, seed, 2, int(100000 * capacity_seconds)),
            params.capacity_concurrency, capacity_seconds, tracer, sample_every=params.sample_every,
        )
    # Answers per wall second fell by up to a third for minutes at a time on a
    # shared host while compute-bound work slowed by a tenth; per CPU second
    # they stayed within a few percent, since stalls spend no CPU
    capacity_cpu_s = time.process_time() - cpu_began
    throughputs = capacity.window_throughputs(params.window_seconds)
    rss_mb = peak_rss_mb()

    phases = [reference, capacity]
    attempts = [_rung(reference, params.limit_ms)]
    # attempts at the rate past the knee are how the ladder finds it: their
    # refusals are expected and stay out of the failure count
    counted = [reference, capacity]
    for k, rate in enumerate(params.ladder if ladder else ()):
        if not rate_passes([a for a in attempts if a.rate == attempts[-1].rate], params.limit_ms):
            break
        tried = []
        for attempt in range(params.rung_attempts):
            rows = _rows(params, n, seed, 3 + attempt + k * params.rung_attempts,
                         int(rate * params.rung_seconds))
            with tracer.span("loadgen.rung"):
                tried.append(run_open_loop(engine, rows, rate, tracer, sample_every=params.sample_every))
            attempts.append(_rung(tried[-1], params.limit_ms))
            passed = sum(a.passes(params.limit_ms) for a in attempts[-len(tried):])
            if 2 * passed > params.rung_attempts or 2 * (len(tried) - passed) >= params.rung_attempts:
                break  # the majority is decided
        phases.extend(tried)
        if rate_passes(attempts[-len(tried):], params.limit_ms):
            counted.extend(tried)
    elapsed = time.perf_counter() - began

    samples = [s for phase in phases for s in phase.samples]
    sample_rows = np.asarray([row for row, _ in samples], dtype=np.int64)
    expected = store.gather_packed(sample_rows)
    identical = bool(samples) and all(
        block.tobytes() == expected[:, i, :].tobytes() for i, (_, block) in enumerate(samples)
    )
    latencies = reference.latencies_ms()
    window_ids = reference.window_ids(params.window_seconds)
    return {
        "elapsed_s": elapsed,
        "peak_rss_mb": rss_mb,
        "reference": reference,
        "attempts": attempts,
        "counted": counted,
        "identical": identical,
        "samples": len(samples),
        "p50_ms": windowed_percentile(latencies, window_ids, 50.0),
        "p99_ms": windowed_percentile(latencies, window_ids, 99.0),
        "max_rate": ladder_max_rate(attempts, params.limit_ms) if ladder else None,
        "capacity_rows_per_s": float(np.median(throughputs)) if throughputs.size else 0.0,
        "capacity_rows_per_cpu_s": (capacity.attempted - capacity.failed) / capacity_cpu_s,
        "capacity_ms": describe(capacity.latencies_ms()),
        "capacity_windows": throughputs.tolist(),
        "reference_ms": describe(latencies),
        "window_p99_ms": window_percentiles(latencies, window_ids, 99.0),
        "engine_ms": engine_ms,
        "stats_before": before,
        "stats_after": after,
        "phase_span": reference_span,
        "lateness_ms": reference.lateness_ms(),
    }


def serving_layers(measured: dict, tracer) -> dict:
    """Per-layer serving metrics of the measured read phase."""
    before, after = measured["stats_before"], measured["stats_after"]
    delta = {k: after[k] - before[k] for k in after if isinstance(after[k], int)}
    cache_before, cache_after = before.get("cache", {}), after.get("cache", {})
    hits = cache_after.get("hits", 0) - cache_before.get("hits", 0)
    misses = cache_after.get("misses", 0) - cache_before.get("misses", 0)
    coalesced = delta["coalesced_window"] + delta["coalesced_inflight"]
    submit_us = np.asarray(durations(tracer.spans, "serving.submit", measured["phase_span"])) * 1e6
    engine_ms = measured["engine_ms"]
    lateness = measured["lateness_ms"]
    return {
        "serving.submit_us_p50": float(np.median(submit_us)),
        "serving.submit_us_p99": percentile(submit_us, 99.0),
        "serving.engine_p50_ms": float(np.median(engine_ms)),
        "serving.engine_p99_ms": percentile(engine_ms, 99.0),
        "serving.batches": delta["batches"],
        "serving.rows_per_batch": (delta["requests"] - coalesced - delta["shed"]) / max(delta["batches"], 1),
        "serving.coalesced_share": coalesced / max(delta["requests"], 1),
        "serving.cache_hit_rate": hits / max(hits + misses, 1),
        "serving.cache_evictions": cache_after.get("evictions", 0) - cache_before.get("evictions", 0),
        "serving.shed": delta["shed"],
        "serving.expired": delta["expired"],
        "serving.gather_errors": delta["gather_errors"],
        "serving.retried": delta["retried"],
        "loadgen.lateness_max_ms": float(lateness.max()),
        "loadgen.late_share": float(np.mean(lateness > LATE_SECONDS * 1e3)),
    }


def run(params: Params, seed: int, seconds: float, trace: bool, work_dir=None) -> Outcome:
    outcome = Outcome()
    null = NullTracer()
    timing = []
    session = None
    for _ in range(params.setup_repeats):
        if session is not None:
            session.close()
        session, engine, setup = _setup(params, seed, null)
        timing.append(setup)
    with session:
        measured = _measure(params, seed, seconds, session, engine, null, ladder=trace)

    counted = measured["counted"]
    outcome.attempted = sum(phase.attempted for phase in counted)
    outcome.failed = sum(phase.failed for phase in counted)
    outcome.checks["answers_bit_identical"] = measured["identical"]
    outcome.metrics = {
        "setup_s": float(np.median([t["setup_s"] for t in timing])),
        "peak_rss_mb": measured["peak_rss_mb"],
        "preprocess_s": float(np.median([t["preprocess_s"] for t in timing])),
        "time_to_ready_s": float(np.median([t["time_to_ready_s"] for t in timing])),
        "rows_per_s": measured["capacity_rows_per_cpu_s"],
        "ok_share": (outcome.attempted - outcome.failed) / outcome.attempted,
    }
    outcome.record = {
        "params": asdict(params),
        "setup": timing,
        "measured_seconds": measured["elapsed_s"],
        "reference_ms": measured["reference_ms"],
        "read_p99_ms": measured["p99_ms"],
        "reference_window_p99_ms": measured["window_p99_ms"],
        "capacity_ms": measured["capacity_ms"],
        "capacity_window_rows_per_s": measured["capacity_windows"],
        "capacity_rows_per_s": measured["capacity_rows_per_s"],
        "max_rate": measured["max_rate"],
        "ladder": [asdict(rung) for rung in measured["attempts"]],
        "failures": {
            "shed": sum(p.count(SHED) for p in counted),
            "errors": sum(p.count(ERROR) for p in counted),
            "timeouts": sum(p.count(TIMEOUT) for p in counted),
        },
        "samples_checked": measured["samples"],
        "engine": engine.snapshot(),
    }

    if trace:
        tracer = Tracer()
        session, engine, traced_timing = _setup(params, seed, tracer)
        with session:
            traced = _measure(params, seed, seconds, session, engine, tracer, ladder=False)
        outcome.checks["traced_answers_bit_identical"] = traced["identical"]
        total = totals_by_name(tracer.spans)
        own = self_totals_by_name(tracer.spans)
        outcome.layers = {
            "datasets.load_s": total.get("datasets.load", 0.0),
            **prepropagation_layers(total, own, traced_timing["expanded_mb"]),
            **serving_layers(traced, tracer),
            "loadgen.read_p50_ms": measured["p50_ms"],
            "loadgen.read_p99_ms": measured["p99_ms"],
            "loadgen.ladder_max_qps": measured["max_rate"],
            "loadgen.saturated_qps": measured["capacity_rows_per_s"],
            "trace.overhead_share": traced["p50_ms"] / measured["p50_ms"] - 1.0,
        }
        outcome.tracer = tracer
        outcome.record["traced_ladder"] = [asdict(rung) for rung in traced["attempts"]]
    return outcome
