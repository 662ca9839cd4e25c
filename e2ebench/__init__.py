"""End-to-end PP-GNN benchmark: ``train``, ``serve`` and ``update`` workloads.

Run one workload with::

    python3 e2ebench/run.py --workload serve --seed 1 --seconds 15 --trace 0

See :mod:`e2ebench.run` for the command line and the printed result, and
``BENCHMARK.json`` at the repository root for the metric definitions.
"""
