"""Metric catalogue and helpers shared by the three workloads.

Every workload reports every end-to-end metric; what each one means on each
workload is spelled out in ``END_TO_END``.  A traced run reports every
per-layer metric; a layer a workload never calls reads 0.
"""

from __future__ import annotations

import os
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional

MB = 1e6

#: name -> (unit, meaning on train / serve / update)
END_TO_END: Dict[str, tuple] = {
    "setup_s": ("s", "median of the set-ups in one run: dataset generation, plus store build "
                     "and engine start for serve and update"),
    "peak_rss_mb": ("MB", "peak resident set of the benchmark process by the end of the measured "
                          "part, before the output checks"),
    "preprocess_s": ("s", "wall time of Session.preprocess() on the workload's graph "
                          "(train: timed part; serve, update: the store build during set-up)"),
    "time_to_ready_s": ("s", "train: preprocess + fit (time to model); serve: preprocess + engine "
                             "start + first answer; update: CPU time of one apply_updates call "
                             "(its thread), median"),
    "rows_per_s": ("1/s", "train: training rows per median epoch second; serve: answers per "
                          "second of process CPU time with the engine kept saturated; "
                          "update: store rows patched per CPU-second of apply_updates"),
    "ok_share": ("share", "operations that succeeded over operations attempted"),
}

#: name -> unit.  The read latencies (``loadgen.read_*``, ``dataloading.wait_*``)
#: are taken from the untraced part of a traced run.  On a shared host the
#: serving p50 moved 1.5-2.5x and p99 2-3x between busy and quiet periods of
#: the machine, too much for an end-to-end bound, so they are reported here
PER_LAYER: Dict[str, str] = {
    "datasets.load_s": "s",
    "prepropagation.preprocess_s": "s",
    "prepropagation.operator_s": "s",
    "prepropagation.propagate_s": "s",
    "prepropagation.store_write_s": "s",
    "prepropagation.untimed_s": "s",
    "prepropagation.expanded_mb": "MB",
    "dataloading.wait_s": "s",
    "dataloading.wait_p50_ms": "ms",
    "dataloading.wait_p99_ms": "ms",
    "dataloading.batches": "count",
    "dataloading.assembled_mb": "MB",
    "models.forward_s": "s",
    "tensor.backward_s": "s",
    "tensor.optim_step_s": "s",
    "training.evaluate_s": "s",
    "training.untimed_s": "s",
    "serving.submit_us_p50": "us",
    "serving.submit_us_p99": "us",
    "serving.engine_p50_ms": "ms",
    "serving.engine_p99_ms": "ms",
    "serving.batches": "count",
    "serving.rows_per_batch": "count",
    "serving.coalesced_share": "share",
    "serving.cache_hit_rate": "share",
    "serving.cache_evictions": "count",
    "serving.shed": "count",
    "serving.expired": "count",
    "serving.gather_errors": "count",
    "serving.retried": "count",
    "updates.apply_s": "s",
    "updates.frontier_s": "s",
    "updates.clone_s": "s",
    "updates.patch_s": "s",
    "updates.verify_s": "s",
    "updates.publish_s": "s",
    "updates.untimed_s": "s",
    "updates.affected_nodes": "count",
    "updates.patched_rows": "count",
    "updates.changed_row_share": "share",
    "updates.disk_mb_per_delta": "MB",
    "loadgen.read_p50_ms": "ms",
    "loadgen.read_p99_ms": "ms",
    "loadgen.ladder_max_qps": "1/s",
    "loadgen.saturated_qps": "1/s",
    "loadgen.lateness_max_ms": "ms",
    "loadgen.late_share": "share",
    "trace.overhead_share": "share",
}


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    checks: Dict[str, bool] = field(default_factory=dict)
    record: dict = field(default_factory=dict)
    #: the traced run's spans, written out by the caller
    tracer: Optional[object] = None


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports kibibytes)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB


def tree_mb(*roots: Path) -> float:
    """Bytes of every regular file under ``roots``, in MB."""
    total = 0
    for root in roots:
        for dirpath, _, filenames in os.walk(root):
            for name in filenames:
                path = os.path.join(dirpath, name)
                if os.path.isfile(path) and not os.path.islink(path):
                    total += os.path.getsize(path)
    return total / MB


def phase_seconds(timing: Dict[str, float]) -> Dict[str, float]:
    """``{"operator": 0.1, ...}`` from a layer's ``{"operator_seconds": 0.1, ...}``."""
    return {
        key[: -len("_seconds")]: value
        for key, value in timing.items()
        if key.endswith("_seconds") and key != "total_seconds"
    }


def prepropagation_layers(total: Dict[str, float], own: Dict[str, float], expanded_mb: float) -> dict:
    """Per-layer preprocessing metrics from span totals and self times."""
    return {
        "prepropagation.preprocess_s": total.get("prepropagation.preprocess", 0.0),
        "prepropagation.operator_s": total.get("prepropagation.operator", 0.0),
        "prepropagation.propagate_s": total.get("prepropagation.propagate", 0.0),
        "prepropagation.store_write_s": total.get("prepropagation.store_write", 0.0),
        "prepropagation.untimed_s": own.get("prepropagation.preprocess", 0.0),
        "prepropagation.expanded_mb": expanded_mb,
    }


def preprocess_traced(session, tracer):
    """``session.preprocess()`` inside a span whose children are its reported phases."""
    with tracer.span("prepropagation.preprocess") as index:
        result = session.preprocess()
    tracer.add_phases(index, "prepropagation", phase_seconds(result.timing))
    return result


def start_serving(session, tracer, began: float):
    """Build ``session``'s store and start an engine; returns ``(engine, timing)``.

    ``began`` is when the set-up started (before the dataset was made), so
    ``setup_s`` covers generation, store build and engine start.
    """
    built = time.perf_counter()
    result = preprocess_traced(session, tracer)
    preprocessed = time.perf_counter()
    with tracer.span("serving.start"):
        engine = session.serve()
        engine.query([0])
    ready = time.perf_counter()
    return engine, {
        "setup_s": ready - began,
        "preprocess_s": preprocessed - built,
        "time_to_ready_s": ready - built,
        "expanded_mb": result.expanded_feature_bytes / MB,
    }
