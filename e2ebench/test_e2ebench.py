"""Tests of the benchmark's own rules, plus a small run of every workload."""

from __future__ import annotations

import gc
import json
import shutil
import subprocess
import sys
import threading
import weakref
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

from repro import OverloadError

from e2ebench import serve, train, update
from e2ebench.common import END_TO_END, PER_LAYER
from e2ebench.loadgen import OK, SHED, Phase, run_closed_loop, run_open_loop
from e2ebench.run import result_line, run_workload
from e2ebench.stats import (
    Rung,
    ladder_max_rate,
    percentile,
    tail_percentile,
    windowed_percentile,
)
from e2ebench.tracing import NullTracer, Tracer, covered_length, self_times, self_totals_by_name

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


# --------------------------------------------------------------------------- #
# percentile rule: the highest percentile with at least 10 samples beyond it
@pytest.mark.parametrize(
    "count, expected",
    [(19, None), (20, 50.0), (199, 90.0), (200, 95.0), (999, 95.0),
     (1000, 99.0), (9999, 99.0), (10000, 99.9), (100000, 99.99)],
)
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected


def test_percentile_refuses_too_few_samples():
    assert percentile(np.arange(1000.0), 99.0) == pytest.approx(989.01)
    with pytest.raises(ValueError, match="10 samples beyond"):
        percentile(np.arange(999.0), 99.0)


def test_windowed_percentile_is_the_median_over_full_windows():
    values = np.concatenate([np.full(1000, 1.0), np.full(1000, 2.0), np.full(1000, 50.0), [9.0] * 5])
    ids = np.repeat([0, 1, 2, 3], [1000, 1000, 1000, 5])
    # the 5-sample window is too small for p99 and is left out
    assert windowed_percentile(values, ids, 99.0) == 2.0
    assert windowed_percentile(values[-5:], ids[-5:], 99.0) == float("inf")


# --------------------------------------------------------------------------- #
# ladder stop rule
def _rung(rate, p99=5.0, failed=0, backlog=False):
    return Rung(rate=rate, attempted=1000, failed=failed, p99_ms=p99, backlog=backlog)


def test_ladder_stops_at_the_first_failing_rate():
    attempts = [_rung(5000), _rung(10000), _rung(20000, p99=40.0), _rung(40000)]
    assert ladder_max_rate(attempts, limit_ms=25.0) == 10000


@pytest.mark.parametrize("bad", [dict(p99=25.01), dict(failed=1), dict(backlog=True)])
def test_each_condition_fails_an_attempt(bad):
    assert ladder_max_rate([_rung(5000), _rung(10000, **bad)], limit_ms=25.0) == 5000


def test_a_rate_needs_a_majority_of_its_attempts():
    stall = dict(p99=80.0)
    assert ladder_max_rate(
        [_rung(5000), _rung(10000, **stall), _rung(10000), _rung(10000), _rung(20000, **stall),
         _rung(20000), _rung(20000, **stall)],
        limit_ms=25.0,
    ) == 10000
    # a tie is not a majority
    assert ladder_max_rate([_rung(5000), _rung(10000), _rung(10000, **stall)], limit_ms=25.0) == 5000


def test_ladder_is_zero_when_the_first_rate_fails():
    assert ladder_max_rate([_rung(5000, p99=30.0), _rung(10000)], limit_ms=25.0) == 0.0


# --------------------------------------------------------------------------- #
# self-time arithmetic
def test_covered_length_merges_overlaps_and_clips_to_the_parent():
    assert covered_length([(1, 3), (2, 5), (8, 12)], 0, 10) == 6
    assert covered_length([], 0, 10) == 0
    assert covered_length([(11, 12)], 0, 10) == 0


def test_self_time_subtracts_only_direct_children():
    spans = [
        ["layer", 0.0, 10.0, -1],
        ["child", 1.0, 3.0, 0],
        ["child", 2.0, 5.0, 0],
        ["grandchild", 2.5, 4.5, 2],
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 2.0])
    assert self_totals_by_name(spans)["child"] == pytest.approx(3.0)


def test_reported_phases_leave_the_untimed_residual_as_self_time():
    tracer = Tracer()
    with tracer.span("updates.apply") as index:
        pass
    tracer.spans[index][2] = tracer.spans[index][1] + 1.0  # a 1 s apply
    tracer.add_phases(index, "updates", {"clone": 0.25, "patch": 0.5})
    own = self_totals_by_name(tracer.spans)
    assert own["updates.apply"] == pytest.approx(0.25)
    assert own["updates.clone"] == pytest.approx(0.25)


def test_spans_nest_per_thread():
    tracer = Tracer()

    def other():
        with tracer.span("other"):
            pass

    with tracer.span("outer"):
        worker = threading.Thread(target=other)
        worker.start()
        worker.join(timeout=5)
        with tracer.span("inner"):
            pass
    parents = {name: parent for name, _, _, parent in tracer.spans}
    assert parents == {"outer": -1, "other": -1, "inner": 0}


# --------------------------------------------------------------------------- #
# load generator hygiene
class _FakeEngine:
    """Answers from a thread; sheds every 7th request; remembers weak refs."""

    def __init__(self):
        self.refs = []
        self.calls = 0

    def submit(self, row):
        self.calls += 1
        if self.calls % 7 == 0:
            raise OverloadError("full")
        future = Future()
        self.refs.append(weakref.ref(future))
        threading.Timer(0.001, future.set_result, args=(np.full(4, row),)).start()
        return future


def test_open_loop_drops_futures_and_counts_sheds():
    engine = _FakeEngine()
    rows = np.arange(700)
    phase = run_open_loop(engine, rows, 5000.0, NullTracer(), sample_every=100)
    assert phase.count(SHED) == 100
    assert phase.count(OK) == 600
    assert phase.failed == 100
    lat = phase.latencies_ms()
    assert lat.size == 600 and np.all(lat > 0)
    assert all(np.array_equal(block, np.full(4, row)) for row, block in phase.samples)
    gc.collect()
    assert sum(ref() is not None for ref in engine.refs) == 0


class _InFlightEngine:
    """Answers after 2 ms from a thread; records the most requests in flight."""

    def __init__(self):
        self.lock = threading.Lock()
        self.in_flight = 0
        self.most = 0
        self.refs = []

    def _answer(self, future, row):
        with self.lock:
            self.in_flight -= 1
        future.set_result(np.full(4, row))

    def submit(self, row):
        with self.lock:
            self.in_flight += 1
            self.most = max(self.most, self.in_flight)
        future = Future()
        self.refs.append(weakref.ref(future))
        threading.Timer(0.002, self._answer, args=(future, row)).start()
        return future


def test_closed_loop_keeps_its_concurrency_and_stops_on_time():
    engine = _InFlightEngine()
    phase = run_closed_loop(engine, np.arange(100000), 4, 0.3, NullTracer(), sample_every=50)
    assert engine.most == 4
    assert 0 < phase.attempted < 100000 and phase.failed == 0
    assert phase.done.max() - phase.start < 0.5
    assert np.all(phase.latencies_ms() > 0)
    assert phase.samples and all(np.array_equal(b, np.full(4, r)) for r, b in phase.samples)
    gc.collect()
    assert sum(ref() is not None for ref in engine.refs) == 0


def test_window_throughputs_count_whole_windows_by_answer_time():
    done = np.array([0.1, 0.2, 0.3, 0.6, 0.7, 1.05])
    phase = Phase(rate=0.0, rows=np.arange(6), start=0.0, due=np.zeros(6), sent=np.zeros(6),
                  done=done, status=np.full(6, OK, dtype=np.int8))
    # the window holding the last answer is partial and left out
    assert phase.window_throughputs(0.5).tolist() == [6.0, 4.0]


# --------------------------------------------------------------------------- #
# catalogue, BENCHMARK.json and the command line
def test_benchmark_json_matches_the_catalogue():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == {
        name: unit for name, (unit, _) in END_TO_END.items()
    }
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == ["train", "serve", "update"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "e2ebench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


STOP_CHILDREN = """
import subprocess, sys
from multiprocessing import shared_memory
sys.path.insert(0, sys.argv[1])
from e2ebench.run import _adopt_orphans, _child_pids, stop_children
_adopt_orphans()
segment = shared_memory.SharedMemory(create=True, size=64)  # starts the resource tracker
segment.close()
segment.unlink()
before = set(_child_pids())
subprocess.run(["sh", "-c", "sleep 60 & exit 0"], check=True)  # leaves an orphaned grandchild
assert set(_child_pids()) - before, "the orphan was not adopted"
stop_children(grace_seconds=1.0)
print(len(_child_pids()))
"""


def test_stop_children_leaves_no_process_behind():
    proc = subprocess.run(
        [sys.executable, "-c", STOP_CHILDREN, str(ROOT)], capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"


# --------------------------------------------------------------------------- #
# small runs of every workload, untraced and traced
SMALL = {
    "train": train.Params(num_nodes=2000, epochs=4, min_reps=2, setup_repeats=1, batch_size=16),
    "serve": serve.Params(
        num_nodes=2000, warmup_seconds=0.1, window_seconds=0.25, ladder=(10000.0,),
        rung_seconds=0.2, rung_attempts=1, setup_repeats=1,
    ),
    "update": update.Params(
        num_nodes=2000, num_features=16, window=50, window_seconds=0.5, min_deltas=2, setup_repeats=1,
    ),
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_small_run_passes_its_checks_and_reports_every_metric(name, tmp_path):
    outcome = run_workload(name, seed=3, seconds=1.0, trace=True, work_dir=tmp_path, params=SMALL[name])
    assert outcome.checks and all(outcome.checks.values()), outcome.checks
    assert outcome.attempted > 0 and outcome.failed == 0
    for trace in (False, True):
        line = result_line(outcome, trace)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        expected = PER_LAYER if trace else END_TO_END
        assert list(line["metrics"]) == list(expected)
        assert all(np.isfinite(m["value"]) for m in line["metrics"].values())
    assert all(value > 0 for value in outcome.metrics.values())
    assert outcome.layers["datasets.load_s"] > 0
    assert outcome.layers["prepropagation.untimed_s"] >= 0
