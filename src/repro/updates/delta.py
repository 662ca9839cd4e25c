"""Timestamped graph/feature deltas and their application.

A :class:`GraphDelta` is one batch of changes against a snapshot: edge
insertions, edge deletions and/or node-feature overwrites, each optionally
timestamped (the event-stream framing of temporal GNN workloads — batches
arrive ordered by time, and one delta is one window of events).  Application
semantics are deterministic and order-free *within* a batch:

* deletions apply first, then insertions — an edge both deleted and inserted
  in the same batch ends up present (with the inserted weight);
* inserting an edge that already exists overwrites its weight;
* duplicate insertions of the same edge: the last one in the batch wins;
* ``symmetric=True`` (the default, matching the symmetrized graphs the
  propagation operators use) mirrors every insertion and deletion;
* duplicate feature overwrites of the same node: the last one wins.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.graph.csr import CSRGraph, span_positions
from repro.resilience.checkpoint import digest_array, digest_parts

__all__ = ["GraphDelta", "apply_delta", "apply_features"]


def _as_edge_array(edges, name: str) -> np.ndarray:
    array = np.asarray(edges if edges is not None else [], dtype=np.int64)
    if array.size == 0:
        return array.reshape(0, 2)
    if array.ndim != 2 or array.shape[1] != 2:
        raise ValueError(f"{name} must have shape (E, 2), got {array.shape}")
    return array


def _as_times(times, count: int, name: str) -> Optional[np.ndarray]:
    if times is None:
        return None
    array = np.asarray(times, dtype=np.float64).ravel()
    if array.shape[0] != count:
        raise ValueError(f"{name} must align with its edges/nodes ({count}), got {array.shape[0]}")
    return array


@dataclass
class GraphDelta:
    """One batch of timestamped edge and feature changes.

    ``insertions`` / ``deletions`` are ``(E, 2)`` arrays of ``(src, dst)``
    pairs; ``feature_nodes`` / ``feature_values`` give full-row feature
    overwrites.  The ``*_times`` arrays are optional per-event timestamps —
    they do not change application semantics (a delta is one atomic batch)
    but ride along for provenance and are part of the delta fingerprint.
    """

    insertions: np.ndarray = field(default_factory=lambda: np.empty((0, 2), dtype=np.int64))
    deletions: np.ndarray = field(default_factory=lambda: np.empty((0, 2), dtype=np.int64))
    insertion_weights: Optional[np.ndarray] = None
    insertion_times: Optional[np.ndarray] = None
    deletion_times: Optional[np.ndarray] = None
    feature_nodes: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    feature_values: Optional[np.ndarray] = None
    feature_times: Optional[np.ndarray] = None
    symmetric: bool = True

    def __post_init__(self) -> None:
        self.insertions = _as_edge_array(self.insertions, "insertions")
        self.deletions = _as_edge_array(self.deletions, "deletions")
        if self.insertion_weights is not None:
            weights = np.asarray(self.insertion_weights, dtype=np.float64).ravel()
            if weights.shape[0] != self.insertions.shape[0]:
                raise ValueError("insertion_weights must align with insertions")
            self.insertion_weights = weights
        self.insertion_times = _as_times(
            self.insertion_times, self.insertions.shape[0], "insertion_times"
        )
        self.deletion_times = _as_times(
            self.deletion_times, self.deletions.shape[0], "deletion_times"
        )
        self.feature_nodes = np.asarray(self.feature_nodes, dtype=np.int64).ravel()
        if self.feature_nodes.size:
            if self.feature_values is None:
                raise ValueError("feature_nodes given without feature_values")
            values = np.asarray(self.feature_values)
            if values.ndim != 2 or values.shape[0] != self.feature_nodes.shape[0]:
                raise ValueError(
                    f"feature_values must be (len(feature_nodes), F), got {values.shape}"
                )
            self.feature_values = values
        self.feature_times = _as_times(
            self.feature_times, self.feature_nodes.shape[0], "feature_times"
        )

    # ------------------------------------------------------------------ #
    def is_empty(self) -> bool:
        return (
            self.insertions.shape[0] == 0
            and self.deletions.shape[0] == 0
            and self.feature_nodes.shape[0] == 0
        )

    def seed_nodes(self) -> np.ndarray:
        """Sorted unique nodes directly touched by this delta.

        Endpoints of every inserted or deleted edge (both of them — a degree
        change rescales the touched operator rows *and* columns) plus every
        feature-overwritten node.  These seed the affected-frontier expansion.
        """
        return np.unique(
            np.concatenate(
                [self.insertions.ravel(), self.deletions.ravel(), self.feature_nodes]
            )
        )

    def time_range(self) -> Optional[tuple[float, float]]:
        """``(min, max)`` over all event timestamps, or None if untimestamped."""
        stamps = [
            t for t in (self.insertion_times, self.deletion_times, self.feature_times)
            if t is not None and t.size
        ]
        if not stamps:
            return None
        merged = np.concatenate(stamps)
        return float(merged.min()), float(merged.max())

    def validate_for(self, graph: CSRGraph) -> None:
        """Raise if any referenced node is out of range for ``graph``."""
        seeds = self.seed_nodes()
        if seeds.size and (seeds[0] < 0 or seeds[-1] >= graph.num_nodes):
            raise ValueError(
                f"delta references node(s) outside [0, {graph.num_nodes})"
            )

    def fingerprint(self) -> str:
        """Content digest of the delta — part of the update run's identity."""
        parts = {
            "insertions": digest_array(self.insertions),
            "deletions": digest_array(self.deletions),
            "insertion_weights": (
                "none" if self.insertion_weights is None else digest_array(self.insertion_weights)
            ),
            "insertion_times": (
                "none" if self.insertion_times is None else digest_array(self.insertion_times)
            ),
            "deletion_times": (
                "none" if self.deletion_times is None else digest_array(self.deletion_times)
            ),
            "feature_nodes": digest_array(self.feature_nodes),
            "feature_values": (
                "none" if self.feature_values is None else digest_array(self.feature_values)
            ),
            "feature_times": (
                "none" if self.feature_times is None else digest_array(self.feature_times)
            ),
            "symmetric": self.symmetric,
        }
        return digest_parts(parts)

    # ------------------------------------------------------------------ #
    @staticmethod
    def from_events(events: Iterable[Sequence], symmetric: bool = True) -> "GraphDelta":
        """Build a delta from an ordered stream of timestamped events.

        Each event is a tuple: ``("insert", time, src, dst[, weight])``,
        ``("delete", time, src, dst)``, or ``("feature", time, node, values)``.
        Event order is preserved (later events win on conflicts, matching the
        batch semantics above).
        """
        ins, ins_w, ins_t = [], [], []
        dels, del_t = [], []
        feat_nodes, feat_vals, feat_t = [], [], []
        for event in events:
            kind = event[0]
            if kind == "insert":
                _, time, src, dst, *rest = event
                ins.append((int(src), int(dst)))
                ins_w.append(float(rest[0]) if rest else 1.0)
                ins_t.append(float(time))
            elif kind == "delete":
                _, time, src, dst = event
                dels.append((int(src), int(dst)))
                del_t.append(float(time))
            elif kind == "feature":
                _, time, node, values = event
                feat_nodes.append(int(node))
                feat_vals.append(np.asarray(values))
                feat_t.append(float(time))
            else:
                raise ValueError(f"unknown event kind {kind!r}")
        return GraphDelta(
            insertions=np.asarray(ins, dtype=np.int64).reshape(-1, 2),
            deletions=np.asarray(dels, dtype=np.int64).reshape(-1, 2),
            insertion_weights=np.asarray(ins_w) if ins else None,
            insertion_times=np.asarray(ins_t) if ins else None,
            deletion_times=np.asarray(del_t) if dels else None,
            feature_nodes=np.asarray(feat_nodes, dtype=np.int64),
            feature_values=np.stack(feat_vals) if feat_vals else None,
            feature_times=np.asarray(feat_t) if feat_nodes else None,
            symmetric=symmetric,
        )


# --------------------------------------------------------------------------- #
def _directed_edges(delta: GraphDelta) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deletions, insertions and insertion weights with mirrors applied."""
    deletions = delta.deletions
    insertions = delta.insertions
    weights = (
        delta.insertion_weights
        if delta.insertion_weights is not None
        else np.ones(insertions.shape[0])
    )
    if delta.symmetric:
        deletions = np.concatenate([deletions, deletions[:, ::-1]])
        insertions = np.concatenate([insertions, insertions[:, ::-1]])
        weights = np.concatenate([weights, weights])
    return deletions, insertions, weights


def _patch_rows(
    graph: CSRGraph, deletions: np.ndarray, insertions: np.ndarray, ins_weights: np.ndarray
) -> CSRGraph:
    """``graph`` with directed deletions, then insertions, rewriting only touched rows.

    Untouched rows are copied as whole spans; each touched row is rebuilt
    from its surviving entries plus its insertions, sorted by column.  For a
    graph in canonical CSR form (sorted, duplicate-free rows, which every
    builder here produces) the result is byte-identical to re-assembling the
    whole edge list through scipy, uniform-weight detection included.
    """
    n = graph.num_nodes
    # within-batch last-wins dedupe of insertions: keep the final occurrence
    # of each (src, dst)
    ins_keys = insertions[:, 0] * n + insertions[:, 1]
    if ins_keys.size:
        _, last_rev = np.unique(ins_keys[::-1], return_index=True)
        keep_ins = ins_keys.shape[0] - 1 - last_rev
        ins_keys = ins_keys[keep_ins]
        ins_weights = ins_weights[keep_ins]
    # every existing edge that is deleted or re-inserted (insert = overwrite)
    drop_keys = np.unique(np.concatenate([deletions[:, 0] * n + deletions[:, 1], ins_keys]))
    rows = np.unique(drop_keys // n)

    old_weight = graph.edge_weight
    starts = graph.indptr[rows]
    counts = graph.indptr[rows + 1] - starts
    flat = span_positions(starts, counts)
    keys = np.repeat(rows, counts) * n + graph.indices[flat]
    keep = drop_keys[np.minimum(np.searchsorted(drop_keys, keys), drop_keys.size - 1)] != keys
    kept_weights = old_weight[flat[keep]] if old_weight is not None else np.ones(int(keep.sum()))
    # the surviving and inserted keys are disjoint, so sorting them orders
    # each touched row by column
    merged = np.concatenate([keys[keep], ins_keys])
    order = np.argsort(merged)
    merged_keys = merged[order]
    merged_weights = np.concatenate([kept_weights, ins_weights])[order]

    row_counts = np.diff(graph.indptr)
    row_counts[rows] = np.bincount(np.searchsorted(rows, merged_keys // n), minlength=rows.size)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(row_counts, out=indptr[1:])
    indices = np.empty(int(indptr[-1]), dtype=np.int64)
    # scipy's assembly stores no weights when every one is close to 1: an
    # unweighted graph stays unweighted unless an inserted weight differs
    weighted = old_weight is not None or not np.allclose(ins_weights, 1.0)
    weights = np.empty(indices.size) if weighted else None
    # untouched spans between touched rows are copied whole
    for lo, hi in zip(np.concatenate([[0], rows + 1]), np.concatenate([rows, [n]])):
        source, dest = slice(graph.indptr[lo], graph.indptr[hi]), slice(indptr[lo], indptr[hi])
        indices[dest] = graph.indices[source]
        if weighted:
            weights[dest] = old_weight[source] if old_weight is not None else 1.0
    positions = span_positions(indptr[rows], row_counts[rows])
    indices[positions] = merged_keys % n
    if weighted:
        weights[positions] = merged_weights
        if np.allclose(weights, 1.0):
            weights = None
    return CSRGraph(
        indptr=indptr, indices=indices, num_nodes=n, edge_weight=weights, name=graph.name
    )


def apply_delta(graph: CSRGraph, delta: GraphDelta) -> CSRGraph:
    """Return the graph with ``delta`` applied (deletions, then insertions).

    Only the rows the delta touches are rebuilt (see :func:`_patch_rows`).
    The new graph carries its reverse, derived the same way from
    ``graph.reverse()`` and the transposed delta, so frontier expansion and
    row-local operator construction never reverse the whole graph twice.
    """
    delta.validate_for(graph)
    if delta.insertions.shape[0] == 0 and delta.deletions.shape[0] == 0:
        return graph
    deletions, insertions, ins_weights = _directed_edges(delta)
    updated = _patch_rows(graph, deletions, insertions, ins_weights)
    reverse = _patch_rows(graph.reverse(), deletions[:, ::-1], insertions[:, ::-1], ins_weights)
    object.__setattr__(updated, "_reverse", reverse)
    return updated


def apply_features(features: np.ndarray, delta: GraphDelta) -> np.ndarray:
    """Return the feature matrix with ``delta``'s row overwrites applied.

    Returns the input array unchanged (no copy) when the delta carries no
    feature events.
    """
    if delta.feature_nodes.size == 0:
        return features
    if delta.feature_nodes.max() >= features.shape[0] or delta.feature_nodes.min() < 0:
        raise ValueError(f"feature_nodes out of range [0, {features.shape[0]})")
    values = np.asarray(delta.feature_values)
    if values.shape[1] != features.shape[1]:
        raise ValueError(
            f"feature_values dim {values.shape[1]} != feature dim {features.shape[1]}"
        )
    out = features.copy()
    # last overwrite of a node wins
    nodes = delta.feature_nodes
    _, last_rev = np.unique(nodes[::-1], return_index=True)
    keep = nodes.shape[0] - 1 - last_rev
    out[nodes[keep]] = values[keep].astype(features.dtype, copy=False)
    return out
