"""``train`` workload: preprocess an ``igb-large`` replica, then fit SGC.

The offline path: ``prepropagation``, ``dataloading``, ``models``/``tensor``
and ``training``.  SGC has the cheapest per-batch compute, so data loading
has its largest share of epoch time (the Fig 5 regime).  One repetition is
``Session.preprocess()`` plus ``trainer.fit()``; a run repeats until its
time is spent and reports medians.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass
from typing import List, Optional

import numpy as np

from repro import LoaderConfig, Session, open_dataset
from repro.tensor.losses import cross_entropy

from e2ebench.common import MB, Outcome, peak_rss_mb, prepropagation_layers, preprocess_traced
from e2ebench.stats import describe, percentile
from e2ebench.tracing import NullTracer, Tracer, self_totals_by_name, totals_by_name


@dataclass(frozen=True)
class Params:
    dataset: str = "igb-large"
    num_nodes: Optional[int] = None  # None = the replica's 40k nodes
    model: str = "sgc"
    epochs: int = 10
    #: repetitions per run at least: two to compare losses, three for a steadier median
    #: (3 x 10 epochs x 79 batches of 512 rows is well over the 1000 reads p99 needs)
    min_reps: int = 3
    setup_repeats: int = 7
    #: None keeps LoaderConfig's default; small runs set it to get enough reads for p99
    batch_size: Optional[int] = None
    #: test accuracy the fitted model must reach (19 classes: chance is ~5%, 10 SGC epochs ~40%)
    accuracy_floor: float = 0.25


def _load(params: Params, seed: int, tracer):
    with tracer.span("datasets.load"):
        return open_dataset(params.dataset, seed=seed, num_nodes=params.num_nodes, use_cache=False)


def _batch_source(trainer):
    """The batch source ``fit()`` iterates: the loader itself, or the prefetch
    or worker pipeline the trainer put over it.  There is no public hook for
    it, so a trainer without one fails the run here rather than measuring the
    wrong iterator."""
    return trainer._source


def _time_reads(source, waits: List[float], rows: List[int]) -> None:
    """Record how long each ``next()`` on ``source.epoch()`` blocks, and its rows."""
    inner = source.epoch

    def epoch():
        batches = inner()
        while True:
            began = time.perf_counter()
            try:
                batch = next(batches)
            except StopIteration:
                return
            waits.append(time.perf_counter() - began)
            rows.append(batch.batch_size)
            yield batch

    source.epoch = epoch


def _session(params: Params, dataset, seed: int) -> Session:
    if params.batch_size is None:
        return Session(dataset, seed=seed)
    return Session(dataset, seed=seed, loader=LoaderConfig(batch_size=params.batch_size, seed=seed))


def _fit_rep(params: Params, dataset, seed: int, waits: List[float]) -> dict:
    with _session(params, dataset, seed) as session:
        began = time.perf_counter()
        session.preprocess()
        preprocessed = time.perf_counter()
        trainer = session.trainer(params.model, num_epochs=params.epochs)
        rows: List[int] = []
        source = _batch_source(trainer)
        _time_reads(source, waits, rows)
        try:
            history = trainer.fit()
        finally:
            del source.epoch  # the wrapper refers back to the source: break the cycle
        done = time.perf_counter()
        if len(rows) < params.epochs:
            raise RuntimeError("fit() did not read its batches through the timed epoch(); "
                               "the read waits would not measure the loader")
    return {
        "preprocess_s": preprocessed - began,
        "time_to_model_s": done - began,
        "epoch_seconds": [r.epoch_seconds for r in history.records],
        "losses": history.loss_curve,
        "test_accuracy": history.records[-1].test_accuracy,
        # the loader's epoch covers every store row, not only the train split
        "rows_per_epoch": sum(rows) / params.epochs,
    }


def _traced_rep(params: Params, seed: int, tracer: Tracer) -> dict:
    """One repetition driving each epoch by hand, mirroring ``PPGNNTrainer.train_epoch``."""
    dataset = _load(params, seed, tracer)
    assembled = 0
    batches = 0
    with _session(params, dataset, seed) as session:
        began = time.perf_counter()
        result = preprocess_traced(session, tracer)
        trainer = session.trainer(params.model, num_epochs=params.epochs)
        source, model, optimizer = _batch_source(trainer), trainer.model, trainer.optimizer
        with tracer.span("training.fit"):
            for _ in range(params.epochs):
                with tracer.span("training.epoch"):
                    model.train()
                    losses = []
                    epoch = source.epoch()
                    while True:
                        with tracer.span("dataloading.wait"):
                            batch = next(epoch, None)
                        if batch is None:
                            break
                        batches += 1
                        assembled += batch.nbytes()
                        with tracer.span("models.forward"):
                            logits = model(batch.hop_features)
                            loss = cross_entropy(logits, batch.labels)
                        with tracer.span("tensor.backward"):
                            optimizer.zero_grad()
                            loss.backward()
                        with tracer.span("tensor.optim_step"):
                            optimizer.step()
                        losses.append(loss.item())
                with tracer.span("training.evaluate"):
                    trainer.evaluate()
        done = time.perf_counter()
    return {
        "time_to_model_s": done - began,
        "final_loss": float(np.mean(losses)),
        "batches": batches,
        "assembled_mb": assembled / MB,
        "expanded_mb": result.expanded_feature_bytes / MB,
    }


def run(params: Params, seed: int, seconds: float, trace: bool, work_dir=None) -> Outcome:
    outcome = Outcome()
    null = NullTracer()
    setup = []
    for _ in range(params.setup_repeats):
        began = time.perf_counter()
        dataset = _load(params, seed, null)
        setup.append(time.perf_counter() - began)

    reps: List[dict] = []
    waits: List[float] = []
    deadline = time.perf_counter() + seconds
    while len(reps) < params.min_reps or time.perf_counter() < deadline:
        reps.append(_fit_rep(params, dataset, seed, waits))

    losses = [rep["losses"] for rep in reps]
    epochs = [s for rep in reps for s in rep["epoch_seconds"]]
    final_losses = [curve[-1] for curve in losses]
    finite = [all(math.isfinite(x) for x in curve) for curve in losses]
    outcome.checks["loss_finite"] = all(finite)
    outcome.checks["loss_identical_across_reps"] = len(set(final_losses)) == 1
    outcome.checks["accuracy_above_floor"] = all(
        rep["test_accuracy"] >= params.accuracy_floor for rep in reps
    )
    outcome.attempted = len(waits)
    outcome.failed = len(waits) // len(reps) * finite.count(False)
    ready = float(np.median([rep["time_to_model_s"] for rep in reps]))
    outcome.metrics = {
        "setup_s": float(np.median(setup)),
        "peak_rss_mb": peak_rss_mb(),
        "preprocess_s": float(np.median([rep["preprocess_s"] for rep in reps])),
        "time_to_ready_s": ready,
        "rows_per_s": reps[0]["rows_per_epoch"] / float(np.median(epochs)),
        "ok_share": (outcome.attempted - outcome.failed) / outcome.attempted,
    }
    outcome.record = {
        "params": asdict(params),
        "repetitions": len(reps),
        "setup_seconds": setup,
        "final_losses": final_losses,
        "test_accuracy": [rep["test_accuracy"] for rep in reps],
        "reads_ms": describe(np.asarray(waits) * 1e3),
        "epoch_seconds": describe(epochs),
    }

    if trace:
        tracer = Tracer()
        traced = _traced_rep(params, seed, tracer)
        outcome.checks["traced_loop_matches_fit"] = traced["final_loss"] == final_losses[0]
        spans = tracer.spans
        total = totals_by_name(spans)
        own = self_totals_by_name(spans)
        outcome.layers = {
            "datasets.load_s": total.get("datasets.load", 0.0),
            **prepropagation_layers(total, own, traced["expanded_mb"]),
            "dataloading.wait_s": total.get("dataloading.wait", 0.0),
            "dataloading.wait_p50_ms": float(np.median(waits)) * 1e3,
            "dataloading.wait_p99_ms": percentile(waits, 99.0) * 1e3,
            "dataloading.batches": traced["batches"],
            "dataloading.assembled_mb": traced["assembled_mb"],
            "models.forward_s": total.get("models.forward", 0.0),
            "tensor.backward_s": total.get("tensor.backward", 0.0),
            "tensor.optim_step_s": total.get("tensor.optim_step", 0.0),
            "training.evaluate_s": total.get("training.evaluate", 0.0),
            "training.untimed_s": own.get("training.fit", 0.0) + own.get("training.epoch", 0.0),
            "trace.overhead_share": traced["time_to_model_s"] / ready - 1.0,
        }
        outcome.tracer = tracer
        outcome.record["traced_time_to_model_s"] = traced["time_to_model_s"]
    return outcome
