"""Affected-frontier computation for incremental re-propagation.

A delta touches a set of *seed* nodes (edge endpoints, feature-overwritten
nodes).  After ``R`` applications of a 1-hop operator, the only store rows
whose values can differ from the old snapshot are the nodes within ``R``
reverse hops of a seed over the operator's support — the rows whose
dependency ball intersects the change.

:func:`affected_frontier` bounds that set without ever materializing an
operator: every registered operator's support is contained in the graph's
adjacency pattern plus its transpose plus self-loops (symmetrization and
self-loops never *extend* reachability beyond that closure), so the ball over
the **bidirectional union** of the old and new adjacency patterns is a sound
superset for every kernel — a deleted edge still propagated influence in the
old snapshot, an inserted one does in the new, hence both graphs.  The
expansion (:func:`expand_frontier_union`) is a level-synchronous multi-source
BFS straight over the CSR arrays — O(edges touched), so a local delta costs
milliseconds even on large graphs.

Over-approximation is free for correctness: re-propagating a row whose
dependency chain did not actually change rewrites byte-identical values.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.graph.csr import CSRGraph, span_positions
from repro.graph.operators import operator_radius
from repro.prepropagation.propagator import PropagationConfig
from repro.updates.delta import GraphDelta

__all__ = ["affected_frontier", "expand_frontier", "expand_frontier_union"]


def _neighbors(graph: CSRGraph, frontier: np.ndarray) -> np.ndarray:
    """Out-neighbors of ``frontier`` via one flat-index gather (with dups)."""
    starts, stops = graph.neighbor_slices(frontier)
    return graph.indices[span_positions(starts, stops - starts)]


def expand_frontier_union(
    graphs: Sequence[CSRGraph], seeds: np.ndarray, hops: int
) -> np.ndarray:
    """All nodes within ``hops`` edges of ``seeds`` in the union of ``graphs``.

    Level-synchronous: each hop takes the union of every graph's
    out-neighborhood of the current frontier, so paths may alternate freely
    between the constituent graphs — exactly reachability in the union
    pattern.  Returns a sorted unique array (seeds included).
    """
    if not graphs:
        raise ValueError("expand_frontier_union needs at least one graph")
    seeds = np.unique(np.asarray(seeds, dtype=np.int64))
    num_nodes = graphs[0].num_nodes
    if seeds.size and (seeds[0] < 0 or seeds[-1] >= num_nodes):
        raise ValueError(f"seeds out of range [0, {num_nodes})")
    reached = seeds
    frontier = seeds
    for _ in range(int(hops)):
        if frontier.size == 0:
            break
        gathered = [_neighbors(graph, frontier) for graph in graphs]
        neighbors = np.unique(np.concatenate(gathered))
        frontier = np.setdiff1d(neighbors, reached, assume_unique=True)
        reached = np.union1d(reached, frontier)
    return reached


def expand_frontier(graph: CSRGraph, seeds: np.ndarray, hops: int) -> np.ndarray:
    """All nodes within ``hops`` edges of ``seeds`` in ``graph`` (seeds included)."""
    return expand_frontier_union([graph], seeds, hops)


def affected_frontier(
    old_graph: CSRGraph,
    new_graph: CSRGraph,
    delta: GraphDelta,
    config: PropagationConfig,
) -> np.ndarray:
    """Sorted unique node set whose stored rows a delta can change.

    The ``num_hops * max-radius`` ball of the delta's seed nodes over the
    bidirectional union of the old and new adjacency patterns.  Every node
    outside this set has a byte-identical dependency chain in the old and new
    snapshots, so its store rows need no recompute (the bit-identity argument
    incremental updates rest on); nodes inside are re-propagated, which is
    harmless for any the over-approximation included spuriously.
    """
    seeds = delta.seed_nodes()
    if seeds.size == 0:
        return seeds
    # reverses are cached on the graphs; a graph from apply_delta carries one
    # derived from its source's reverse plus the delta's edges, so a chain of
    # updates reverses a full graph once, on the first delta
    radius = max(
        operator_radius(name, **config.kwargs_for(k))
        for k, name in enumerate(config.operators)
    )
    graphs = [old_graph, new_graph, old_graph.reverse(), new_graph.reverse()]
    return expand_frontier_union(graphs, seeds, hops=config.num_hops * radius)
