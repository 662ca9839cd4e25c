"""``update`` workload: a stream of small deltas beside open-loop reads.

The graph is a generated high-diameter circulant ring (node ``i`` linked to
``i±1..6``, average degree 12 like the replicas), because on the expander
replicas a handful of inserted edges already patches most of the store.
Every node is labeled and the store is file-backed.  One thread applies a
delta of ~8 edges inside a 200-node window at a random position through
``Session.apply_updates`` every second; the other reads uniformly random
rows at a fixed open-loop rate.  ``updates`` does frontier patching, clone,
verify and publish; ``serving`` adopts each new store and invalidates its
cache under read load.
"""

from __future__ import annotations

import shutil
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import List

import numpy as np

from repro import GraphDelta, Session
from repro.datasets.splits import split_from_fractions
from repro.datasets.synthetic import NodeClassificationDataset
from repro.graph import from_edge_index, symmetrize
from repro.updates.versions import VersionedStore

from e2ebench.common import (
    Outcome,
    peak_rss_mb,
    phase_seconds,
    prepropagation_layers,
    start_serving,
    tree_mb,
)
from e2ebench.loadgen import ERROR, TIMEOUT, run_open_loop
from e2ebench.serve import serving_layers
from e2ebench.stats import describe, window_percentiles, windowed_percentile
from e2ebench.tracing import NullTracer, Tracer, self_totals_by_name, totals_by_name

UPDATE_PHASES = ("frontier", "clone", "patch", "verify", "publish")


@dataclass(frozen=True)
class Params:
    num_nodes: int = 20000
    ring_width: int = 6
    num_features: int = 256
    num_classes: int = 19
    window: int = 200
    insertions: int = 6
    deletions: int = 2
    delta_interval_seconds: float = 1.0
    read_rate: float = 2000.0
    #: read percentiles are medians over windows this long (1000 reads each)
    window_seconds: float = 0.5
    min_deltas: int = 5
    #: keep the newest published versions besides the current one
    keep_versions: int = 1
    setup_repeats: int = 15


def ring_dataset(params: Params, seed: int) -> NodeClassificationDataset:
    """Circulant ring with random features and labels, every node labeled."""
    rng = np.random.default_rng([seed, 0])
    n = params.num_nodes
    src = np.repeat(np.arange(n, dtype=np.int64), params.ring_width)
    dst = (src + np.tile(np.arange(1, params.ring_width + 1), n)) % n
    graph = symmetrize(from_edge_index(np.stack([src, dst], axis=1), num_nodes=n, name="ring"))
    return NodeClassificationDataset(
        name="ring",
        graph=graph,
        features=rng.standard_normal((n, params.num_features), dtype=np.float32),
        labels=rng.integers(0, params.num_classes, n),
        split=split_from_fractions(np.arange(n), (0.6, 0.2, 0.2), seed=rng),
        num_classes=params.num_classes,
    )


def window_delta(graph, params: Params, rng: np.random.Generator) -> GraphDelta:
    """Insert and delete a few edges inside one window of consecutive nodes."""
    lo = int(rng.integers(0, graph.num_nodes - params.window))
    hi = lo + params.window
    pairs = rng.integers(lo, hi, size=(4 * params.insertions, 2))
    insertions = pairs[pairs[:, 0] != pairs[:, 1]][: params.insertions]
    start, stop = graph.indptr[lo], graph.indptr[hi]
    src = np.repeat(np.arange(lo, hi), np.diff(graph.indptr[lo : hi + 1]))
    dst = graph.indices[start:stop]
    inside = np.flatnonzero((dst >= lo) & (dst < hi) & (dst != src))
    picked = rng.choice(inside, params.deletions, replace=False)
    return GraphDelta(insertions=insertions, deletions=np.stack([src[picked], dst[picked]], axis=1))


def _setup(params: Params, seed: int, root: Path, tracer):
    began = time.perf_counter()
    with tracer.span("datasets.load"):
        dataset = ring_dataset(params, seed)
    session = Session(dataset, seed=seed, root=root)
    engine, timing = start_serving(session, tracer, began)
    return session, engine, timing


def _discard(session, root: Path) -> None:
    session.close()
    shutil.rmtree(root, ignore_errors=True)
    shutil.rmtree(VersionedStore(root).versions_root, ignore_errors=True)


def _apply_stream(params, seed, session, engine, root, tracer, stop: threading.Event) -> dict:
    """Apply deltas back to back until ``stop`` is set; check each swap."""
    rng = np.random.default_rng([seed, 1])
    versions = VersionedStore(root)
    next_due = time.perf_counter()
    out = {"apply_s": [], "apply_cpu_s": [], "affected": [], "patched": [], "changed": [], "disk_mb": [],
           "attempted": 0, "failed": 0, "served_equal_new_store": True, "error": None}
    while not stop.is_set() or out["attempted"] < params.min_deltas:
        # deltas arrive open loop, one due every interval; a late one goes at once.
        # Back to back, the host is saturated and noise from other tenants
        # doubles every latency; paced, it has headroom to absorb it.
        stop.wait(max(0.0, next_due - time.perf_counter()))
        next_due += params.delta_interval_seconds
        delta = window_delta(session.dataset.graph, params, rng)
        old_store = session.store
        disk_before = tree_mb(root, versions.versions_root)
        out["attempted"] += 1
        began = time.perf_counter()
        cpu_began = time.thread_time()
        try:
            with tracer.span("updates.apply") as span:
                result = session.apply_updates(delta)
        except Exception as exc:  # counted as a failed update, reported in the record
            out["failed"] += 1
            out["error"] = f"{type(exc).__name__}: {exc}"
            continue
        out["apply_s"].append(time.perf_counter() - began)
        out["apply_cpu_s"].append(time.thread_time() - cpu_began)
        tracer.add_phases(span, "updates", phase_seconds(result.timing))
        out["disk_mb"].append(tree_mb(root, versions.versions_root) - disk_before)
        if result.status != "applied" or result.engine_errors:
            out["failed"] += 1
            continue
        rows = result.patch_rows
        new = result.store.gather_packed(rows)
        served = engine.fetch(rows)
        out["served_equal_new_store"] &= served.tobytes() == new.tobytes()
        changed = np.any(old_store.gather_packed(rows) != new, axis=(0, 2))
        del old_store
        out["affected"].append(result.affected_nodes)
        out["patched"].append(rows.size)
        out["changed"].append(int(changed.sum()))
        versions.prune(keep=params.keep_versions)
    return out


def _measure(params, seed, seconds, session, engine, root, tracer) -> dict:
    stop = threading.Event()
    updates: dict = {}
    updater = threading.Thread(
        target=lambda: updates.update(
            _apply_stream(params, seed, session, engine, root, tracer, stop)
        ),
        name="e2ebench-updater",
    )
    rows = np.random.default_rng([seed, 2]).integers(
        0, session.store.num_rows, int(params.read_rate * seconds)
    )
    before = engine.snapshot()
    began = time.perf_counter()
    updater.start()
    try:
        with tracer.span("loadgen.reads") as reads_span:
            reads = run_open_loop(engine, rows, params.read_rate, tracer)
    finally:
        stop.set()
        updater.join()
    elapsed = time.perf_counter() - began
    after = engine.snapshot()
    engine_ms = engine.drain_latencies() * 1e3
    rss_mb = peak_rss_mb()  # before the check below holds three more copies of the store

    # the served store after the last swap must equal a rebuild from scratch
    every_row = np.arange(session.store.num_rows)
    with Session(session.dataset, seed=seed) as rebuild:
        rebuilt = rebuild.preprocess().store.gather_packed(every_row)
    final_identical = engine.fetch(every_row).tobytes() == rebuilt.tobytes()

    latencies = reads.latencies_ms()
    window_ids = reads.window_ids(params.window_seconds)
    return {
        "elapsed_s": elapsed,
        "peak_rss_mb": rss_mb,
        "reads": reads,
        "updates": updates,
        "final_identical": final_identical,
        "p50_ms": windowed_percentile(latencies, window_ids, 50.0),
        "p99_ms": windowed_percentile(latencies, window_ids, 99.0),
        "reads_ms": describe(latencies),
        "window_p99_ms": window_percentiles(latencies, window_ids, 99.0),
        "engine_ms": engine_ms,
        "stats_before": before,
        "stats_after": after,
        "phase_span": reads_span,
        "lateness_ms": reads.lateness_ms(),
    }


def run(params: Params, seed: int, seconds: float, trace: bool, work_dir: Path) -> Outcome:
    outcome = Outcome()
    null = NullTracer()
    timing: List[dict] = []
    for k in range(params.setup_repeats):
        root = Path(work_dir) / f"store-{k}"
        if timing:
            _discard(session, Path(work_dir) / f"store-{k - 1}")
        session, engine, setup = _setup(params, seed, root, null)
        timing.append(setup)
    with session:
        measured = _measure(params, seed, seconds, session, engine, root, null)

    reads, updates = measured["reads"], measured["updates"]
    outcome.attempted = reads.attempted + updates["attempted"]
    outcome.failed = reads.failed + updates["failed"]
    outcome.checks["patched_rows_served_equal_new_store"] = updates["served_equal_new_store"]
    outcome.checks["final_store_equals_rebuild"] = measured["final_identical"]
    outcome.checks["every_update_applied"] = updates["failed"] == 0
    apply_s = np.asarray(updates["apply_s"])
    # On a shared host the apply's wall time beside the reads went from 0.40 to
    # 0.6-0.77 s for minutes at a time while its thread's CPU time stayed within
    # a few percent; that CPU time is what one update costs
    apply_cpu_s = np.asarray(updates["apply_cpu_s"])
    outcome.metrics = {
        "setup_s": float(np.median([t["setup_s"] for t in timing])),
        "peak_rss_mb": measured["peak_rss_mb"],
        "preprocess_s": float(np.median([t["preprocess_s"] for t in timing])),
        "time_to_ready_s": float(np.median(apply_cpu_s)),
        "rows_per_s": float(np.median(np.asarray(updates["patched"]) / apply_cpu_s)),
        "ok_share": (outcome.attempted - outcome.failed) / outcome.attempted,
    }
    outcome.record = {
        "params": asdict(params),
        "setup": timing,
        "measured_seconds": measured["elapsed_s"],
        "reads_ms": measured["reads_ms"],
        "read_p99_ms": measured["p99_ms"],
        "read_failures": {"errors": reads.count(ERROR), "timeouts": reads.count(TIMEOUT)},
        "deltas": updates["attempted"],
        "apply_s": describe(apply_s),
        "apply_seconds": updates["apply_s"],
        "apply_cpu_seconds": updates["apply_cpu_s"],
        "read_window_p99_ms": measured["window_p99_ms"],
        "patched_rows": updates["patched"],
        "update_error": updates["error"],
    }

    if trace:
        tracer = Tracer()
        root = Path(work_dir) / "store-traced"
        _discard(session, Path(work_dir) / f"store-{params.setup_repeats - 1}")
        session, engine, traced_setup = _setup(params, seed, root, tracer)
        with session:
            traced = _measure(params, seed, seconds, session, engine, root, tracer)
        stream = traced["updates"]
        outcome.checks["traced_patched_rows_served_equal_new_store"] = stream["served_equal_new_store"]
        outcome.checks["traced_final_store_equals_rebuild"] = traced["final_identical"]
        outcome.checks["traced_every_update_applied"] = stream["failed"] == 0
        total = totals_by_name(tracer.spans)
        own = self_totals_by_name(tracer.spans)
        deltas = max(len(stream["apply_s"]), 1)
        layers = {
            "datasets.load_s": total.get("datasets.load", 0.0),
            **prepropagation_layers(total, own, traced_setup["expanded_mb"]),
            "updates.apply_s": total.get("updates.apply", 0.0) / deltas,
            "updates.untimed_s": own.get("updates.apply", 0.0) / deltas,
            "updates.affected_nodes": float(np.mean(stream["affected"])),
            "updates.patched_rows": float(np.mean(stream["patched"])),
            "updates.changed_row_share": sum(stream["changed"]) / max(sum(stream["patched"]), 1),
            "updates.disk_mb_per_delta": float(np.mean(stream["disk_mb"])),
            **serving_layers(traced, tracer),
            "loadgen.read_p50_ms": measured["p50_ms"],
            "loadgen.read_p99_ms": measured["p99_ms"],
            "trace.overhead_share": float(np.median(stream["apply_cpu_s"])) / float(np.median(apply_cpu_s)) - 1.0,
        }
        for phase in UPDATE_PHASES:
            layers[f"updates.{phase}_s"] = total.get(f"updates.{phase}", 0.0) / deltas
        outcome.layers = layers
        outcome.tracer = tracer
    return outcome
