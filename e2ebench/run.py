"""Run one workload of the end-to-end benchmark and print its metrics.

    python3 e2ebench/run.py --workload train|serve|update --seed N --seconds S --trace 0|1

Inputs are generated from ``--seed``; the program only sees them through the
public ``repro`` API with its defaults.  Each workload measures for about
``--seconds`` seconds after its set-up and checks its outputs.  The output
lists every metric with its unit, then ends with one JSON line::

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {name: {"value": v, "unit": u}}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
workload untraced and then again with spans around every call into a layer,
and reports the per-layer metrics, including the tracing overhead between
the two.  A run record (seed, parameters, machine fingerprint, sample counts
and, when traced, the spans) goes to ``.e2ebench/runs/`` at the repository
root; scratch stores live in ``.e2ebench/work-<pid>/`` and are removed on exit.
Every process the run starts, the program's workers and ``multiprocessing``'s
resource tracker included, is stopped and waited for before it exits, on
every path out of it.

A failed output check makes the run print ``"correct": false`` and exit 1.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import shutil
import signal
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PR_SET_CHILD_SUBREAPER = 36  # from <linux/prctl.h>


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("train", "serve", "update"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _fingerprint() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _adopt_orphans() -> None:
    """Make this process the parent of any descendant whose own parent exits,
    so ``stop_children`` can reach and reap it (Linux only)."""
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _child_pids() -> list:
    me = os.getpid()
    pids = []
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            stat = Path(entry.path, "stat").read_text()
        except OSError:
            continue  # exited meanwhile
        # the field after ``(comm) state`` is the parent pid
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.append(int(entry.name))
    return pids


def stop_children(grace_seconds: float = 5.0) -> None:
    """Stop every child process and wait until each has ended.

    ``multiprocessing`` children are terminated and joined first.  The
    resource tracker, which the shared-memory store starts, is then stopped
    the way it expects, by closing its pipe, and waited for: left alone it
    would outlive the run by the time it takes to notice the exit.  Whatever
    else remains (orphaned grandchildren included) gets SIGTERM, then SIGKILL
    after ``grace_seconds``, and is reaped.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(grace_seconds)
        if child.is_alive():
            child.kill()
            child.join()
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if getattr(tracker, "_fd", None) is not None:
        tracker._stop()
    while True:
        pids = _child_pids()
        if not pids:
            return
        for pid in pids:
            try:
                os.kill(pid, signal.SIGTERM)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + grace_seconds
        for pid in pids:
            try:
                while os.waitpid(pid, os.WNOHANG) == (0, 0):
                    if time.monotonic() > deadline:
                        os.kill(pid, signal.SIGKILL)
                        os.waitpid(pid, 0)
                        break
                    time.sleep(0.01)
            except ChildProcessError:
                pass  # reaped already


def _exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def run_workload(name: str, seed: int, seconds: float, trace: bool, work_dir: Path, params=None):
    """Run workload ``name``; ``params`` overrides its default parameters."""
    module = importlib.import_module(f"e2ebench.{name}")
    params = params if params is not None else module.Params()
    return module.run(params, seed, seconds, trace, work_dir)


def result_line(outcome, trace: bool) -> dict:
    """The final JSON object: every catalogue metric, by name, with its unit."""
    from e2ebench.common import END_TO_END, PER_LAYER

    if trace:
        metrics = {
            name: {"value": float(outcome.layers.get(name, 0.0)), "unit": unit}
            for name, unit in PER_LAYER.items()
        }
    else:
        metrics = {
            name: {"value": float(outcome.metrics[name]), "unit": unit}
            for name, (unit, _) in END_TO_END.items()
        }
    for name, metric in metrics.items():
        if not math.isfinite(metric["value"]):
            raise ValueError(f"{name} was not measured: {metric['value']}")
    return {
        "correct": bool(outcome.checks) and all(outcome.checks.values()),
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    _adopt_orphans()
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    try:
        return _main(argv)
    finally:
        stop_children()


def _main(argv) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro package under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    for path in (ROOT / "src", ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))

    state = ROOT / ".e2ebench"
    runs = state / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    work_dir = state / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    # anything the program puts in a temp dir stays inside the checkout
    tempfile.tempdir = str(work_dir)
    began = time.time()
    try:
        outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    line = result_line(outcome, bool(args.trace))
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{int(began)}-{os.getpid()}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started": began,
        "machine": _fingerprint(),
        "checks": outcome.checks,
        "end_to_end": outcome.metrics,
        "per_layer": outcome.layers,
        "detail": outcome.record,
        "result": line,
    }
    (runs / f"{stem}.json").write_text(json.dumps(record, indent=2, default=float))
    if outcome.tracer is not None:
        outcome.tracer.write(runs / f"{stem}.spans.jsonl")

    for name, check in outcome.checks.items():
        print(f"check {name}: {'ok' if check else 'FAILED'}")
    for name, metric in line["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
