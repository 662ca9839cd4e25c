"""Graph propagation operators (the ``B_k`` in Eq. 2 of the paper).

PP-GNNs propagate node features in preprocessing by repeatedly multiplying a
graph operator with the feature matrix.  The paper uses the symmetrically
normalized adjacency matrix for all main results, and mentions PPR and heat
kernels (from Gasteiger et al., 2019) as alternative SIGN operators; all of
them are implemented here as sparse matrices.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, Optional

import numpy as np
import scipy.sparse as sp

from repro.graph.builders import add_self_loops, symmetrize
from repro.graph.csr import CSRGraph, span_positions


def _degree_inv_sqrt(adj: sp.csr_matrix) -> np.ndarray:
    degree = np.asarray(adj.sum(axis=1)).ravel()
    with np.errstate(divide="ignore"):
        inv_sqrt = 1.0 / np.sqrt(degree)
    inv_sqrt[~np.isfinite(inv_sqrt)] = 0.0
    return inv_sqrt


def normalized_adjacency(
    graph: CSRGraph,
    add_self_loop: bool = True,
    make_undirected: bool = True,
) -> sp.csr_matrix:
    """Symmetrically normalized adjacency ``D^{-1/2} (A + I) D^{-1/2}``.

    This is the SGC/SIGN/HOGA default operator.  ``make_undirected`` controls
    whether the graph is symmetrized first — the paper tunes directed vs
    undirected per dataset (Appendix A).
    """
    if make_undirected:
        graph = symmetrize(graph)
    if add_self_loop:
        graph = add_self_loops(graph)
    adj = graph.to_scipy()
    inv_sqrt = _degree_inv_sqrt(adj)
    d_inv = sp.diags(inv_sqrt)
    return (d_inv @ adj @ d_inv).tocsr()


def random_walk_operator(graph: CSRGraph, add_self_loop: bool = True) -> sp.csr_matrix:
    """Row-stochastic random-walk operator ``D^{-1} (A + I)``."""
    if add_self_loop:
        graph = add_self_loops(graph)
    adj = graph.to_scipy()
    degree = np.asarray(adj.sum(axis=1)).ravel()
    with np.errstate(divide="ignore"):
        inv = 1.0 / degree
    inv[~np.isfinite(inv)] = 0.0
    return (sp.diags(inv) @ adj).tocsr()


def personalized_pagerank_operator(
    graph: CSRGraph,
    alpha: float = 0.15,
    num_iterations: int = 10,
    sparsify_threshold: float = 1e-4,
) -> sp.csr_matrix:
    """Truncated Personalized-PageRank diffusion operator.

    ``PPR = alpha * sum_k (1 - alpha)^k T^k`` with ``T`` the symmetrically
    normalized adjacency, truncated at ``num_iterations`` terms and sparsified
    by dropping entries below ``sparsify_threshold`` (as in GDC / Gasteiger et
    al. 2019, which the paper cites for SIGN's alternative operators).
    """
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if num_iterations < 1:
        raise ValueError("num_iterations must be >= 1")
    transition = normalized_adjacency(graph)
    result = sp.identity(graph.num_nodes, format="csr") * alpha
    power = sp.identity(graph.num_nodes, format="csr")
    for k in range(1, num_iterations + 1):
        power = (power @ transition).tocsr()
        result = result + alpha * (1 - alpha) ** k * power
        if sparsify_threshold > 0:
            result.data[np.abs(result.data) < sparsify_threshold] = 0.0
            result.eliminate_zeros()
    return result.tocsr()


def heat_kernel_operator(
    graph: CSRGraph,
    t: float = 3.0,
    num_iterations: int = 10,
    sparsify_threshold: float = 1e-4,
) -> sp.csr_matrix:
    """Heat-kernel diffusion ``exp(-t L) ≈ sum_k e^{-t} t^k / k! T^k``."""
    if t <= 0:
        raise ValueError(f"t must be positive, got {t}")
    if num_iterations < 1:
        raise ValueError("num_iterations must be >= 1")
    transition = normalized_adjacency(graph)
    coeff = np.exp(-t)
    result = sp.identity(graph.num_nodes, format="csr") * coeff
    power = sp.identity(graph.num_nodes, format="csr")
    for k in range(1, num_iterations + 1):
        power = (power @ transition).tocsr()
        coeff = coeff * t / k
        result = result + coeff * power
        if sparsify_threshold > 0:
            result.data[np.abs(result.data) < sparsify_threshold] = 0.0
            result.eliminate_zeros()
    return result.tocsr()


def operator_row_block(operator: sp.csr_matrix, start: int, stop: int) -> sp.csr_matrix:
    """Rows ``[start, stop)`` of a CSR operator as a rectangular block.

    The block is ``(stop - start, num_cols)`` and shares the operator's data
    and index arrays (only the short rebased ``indptr`` slice is copied), so
    building a block costs O(stop - start) regardless of graph size.  A
    block-SpMM ``operator_row_block(B, s, e) @ X`` runs the exact same
    per-row multiply-accumulate sequence as rows ``s:e`` of ``B @ X``, so
    tiled propagation is bit-identical to the in-core product.
    """
    num_rows, num_cols = operator.shape
    if not 0 <= start <= stop <= num_rows:
        raise ValueError(f"row block [{start}, {stop}) out of range for {num_rows} rows")
    lo, hi = int(operator.indptr[start]), int(operator.indptr[stop])
    indptr = operator.indptr[start : stop + 1] - operator.indptr[start]
    block = sp.csr_matrix(
        (operator.data[lo:hi], operator.indices[lo:hi], indptr),
        shape=(stop - start, num_cols),
        copy=False,
    )
    return block


def iter_operator_row_blocks(
    operator: sp.csr_matrix, block_size: int
) -> Iterator[tuple[int, int, sp.csr_matrix]]:
    """Yield ``(start, stop, block)`` row tiles of ``operator`` in order."""
    if block_size <= 0:
        raise ValueError("block_size must be positive")
    num_rows = operator.shape[0]
    for start in range(0, num_rows, block_size):
        stop = min(start + block_size, num_rows)
        yield start, stop, operator_row_block(operator, start, stop)


def csr_rows(matrix: sp.csr_matrix, rows: np.ndarray) -> sp.csr_matrix:
    """Scattered rows of a CSR matrix as a ``(len(rows), num_cols)`` block.

    The generalization of :func:`operator_row_block` to non-contiguous row
    sets: data and indices are gathered per source row in storage order, so a
    SpMM against the result runs the exact per-row multiply-accumulate
    sequence of those rows of the full product (bit-identical).
    """
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size and (rows.min() < 0 or rows.max() >= matrix.shape[0]):
        raise ValueError(f"row indices out of range [0, {matrix.shape[0]})")
    starts = matrix.indptr[rows]
    counts = matrix.indptr[rows + 1] - starts
    indptr = np.zeros(rows.size + 1, dtype=matrix.indptr.dtype)
    np.cumsum(counts, out=indptr[1:])
    flat = span_positions(starts, counts)
    data, indices = matrix.data[flat], matrix.indices[flat]
    return sp.csr_matrix(
        (data, indices, indptr), shape=(rows.size, matrix.shape[1]), copy=False
    )


def operator_radius(name: str, **kwargs) -> int:
    """Hops of graph reachability one application of an operator spans.

    The structural half of :func:`operator_support` without building the
    support graph: 1 for the paper's 1-hop kernels, ``num_iterations`` for
    the truncated diffusion operators.
    """
    key = name.lower()
    if key not in OPERATOR_REGISTRY:
        raise KeyError(f"unknown operator {name!r}; available: {sorted(OPERATOR_REGISTRY)}")
    if key in ("normalized_adjacency", "sym_norm_adj", "random_walk"):
        return 1
    return int(kwargs.get("num_iterations", 10))


def operator_support(name: str, graph: CSRGraph, **kwargs) -> tuple[CSRGraph, int]:
    """The 1-application support of a registered operator.

    Returns ``(support_graph, radius)``: ``B[v, u] != 0`` implies ``u`` is
    reachable from ``v`` within ``radius`` hops of ``support_graph`` — the
    structural fact incremental updates use to bound how far a change
    propagates per operator application.
    """
    key = name.lower()
    if key not in OPERATOR_REGISTRY:
        raise KeyError(f"unknown operator {name!r}; available: {sorted(OPERATOR_REGISTRY)}")
    if key in ("normalized_adjacency", "sym_norm_adj"):
        support = symmetrize(graph) if kwargs.get("make_undirected", True) else graph
        if kwargs.get("add_self_loop", True):
            support = add_self_loops(support)
        return support, 1
    if key == "random_walk":
        support = add_self_loops(graph) if kwargs.get("add_self_loop", True) else graph
        return support, 1
    # diffusion operators: num_iterations applications of the normalized
    # adjacency (which symmetrizes and adds self-loops internally)
    radius = int(kwargs.get("num_iterations", 10))
    return add_self_loops(symmetrize(graph)), radius


def _graph_rows(graph: CSRGraph, rows: np.ndarray) -> sp.csr_matrix:
    """Rows of ``graph``'s adjacency as a ``(len(rows), N)`` CSR block, in O(edges touched)."""
    starts, stops = graph.neighbor_slices(rows)
    indptr = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(stops - starts, out=indptr[1:])
    flat = span_positions(starts, stops - starts)
    data = graph.edge_weight[flat] if graph.edge_weight is not None else np.ones(flat.size)
    return sp.csr_matrix(
        (data, graph.indices[flat], indptr), shape=(rows.size, graph.num_nodes)
    )


class PartialOperator:
    """Bit-identical row slices of a registered operator, built row-locally.

    For the paper's 1-hop kernels (normalized adjacency, random walk) the
    requested rows are built by replaying the full construction on row
    slices: support rows (symmetrized with the graph's cached reverse, then
    self-looped) through the same scipy elementwise kernels, degrees from
    those rows, then the same left-associated diagonal products.  Values
    *and* the (scipy-version-dependent) within-row storage order come out
    byte-identical to ``csr_rows(build_operator(...), rows)``.

    Nothing is built for the whole graph: an extraction costs O(nnz) of the
    requested rows and of their neighbours' rows (whose degrees the right
    normalization needs), and degrees are cached across extractions.  The one
    exception is a weighted graph: the full build collapses a support whose
    weights are all close to 1 to exact ones, a global property learned from
    one full support build.  Diffusion operators (PPR/heat) have no closed
    row form and fall back to building the full operator once.
    """

    def __init__(self, name: str, graph: CSRGraph, **kwargs) -> None:
        self.name = name.lower()
        if self.name not in OPERATOR_REGISTRY:
            raise KeyError(f"unknown operator {name!r}; available: {sorted(OPERATOR_REGISTRY)}")
        self._graph = graph
        self._full: Optional[sp.csr_matrix] = None
        if self.name not in ("normalized_adjacency", "sym_norm_adj", "random_walk"):
            self._full = build_operator(self.name, graph, **kwargs)
            return
        self._symmetric = self.name != "random_walk"
        self._undirected = self._symmetric and kwargs.get("make_undirected", True)
        self._self_loops = kwargs.get("add_self_loop", True)
        self._unit_weights = (
            graph.edge_weight is None
            or operator_support(self.name, graph, **kwargs)[0].edge_weight is None
        )
        #: sorted nodes whose normalization scale is known, and those scales
        self._known = np.empty(0, dtype=np.int64)
        self._scale = np.empty(0, dtype=np.float64)

    def _support_rows(self, rows: np.ndarray) -> sp.csr_matrix:
        """Rows of the operator's support adjacency (what ``operator_support`` builds)."""
        block = _graph_rows(self._graph, rows)
        if self._undirected:
            block = block.maximum(_graph_rows(self._graph.reverse(), rows))
        if self._self_loops:
            # add_self_loops: the A + I structure, diagonal max(old, 1)
            block.sort_indices()
            row_of = np.repeat(np.arange(rows.size), np.diff(block.indptr))
            old_diag = np.zeros(rows.size)
            on_diag = block.indices == rows[row_of]
            old_diag[row_of[on_diag]] = block.data[on_diag]
            eye = sp.csr_matrix(
                (np.ones(rows.size), rows, np.arange(rows.size + 1)), shape=block.shape
            )
            block = (block + eye).tocsr()
            block.sort_indices()
            row_of = np.repeat(np.arange(rows.size), np.diff(block.indptr))
            on_diag = block.indices == rows[row_of]
            block.data[on_diag] = np.maximum(old_diag, 1.0)[row_of[on_diag]]
        if self._unit_weights:
            block.data[:] = 1.0
        return block

    def _learn(self, rows: np.ndarray) -> None:
        """Cache the normalization scale of ``rows`` (not yet known) from their support."""
        support = self._support_rows(rows)
        if self._symmetric:
            scale = _degree_inv_sqrt(support)
        else:
            degree = np.asarray(support.sum(axis=1)).ravel()
            with np.errstate(divide="ignore"):
                scale = 1.0 / degree
            scale[~np.isfinite(scale)] = 0.0
        known = np.concatenate([self._known, rows])
        order = np.argsort(known, kind="stable")
        self._known = known[order]
        self._scale = np.concatenate([self._scale, scale])[order]

    def _scales(self, rows: np.ndarray) -> np.ndarray:
        """Normalization scales of ``rows`` (sorted unique), learning the missing ones."""
        if self._known.size:
            positions = np.minimum(np.searchsorted(self._known, rows), self._known.size - 1)
            missing = rows[self._known[positions] != rows]
        else:
            missing = rows
        if missing.size:
            self._learn(missing)
        return self._scale[np.searchsorted(self._known, rows)]

    def rows(self, rows: np.ndarray) -> sp.csr_matrix:
        """The requested operator rows (sorted unique ids) as a ``(len(rows), N)`` CSR block."""
        rows = np.asarray(rows, dtype=np.int64)
        if self._full is not None:
            return csr_rows(self._full, rows)
        support = self._support_rows(rows)
        # replay the full build on the row slice: same left-associated
        # diagonal products, same kernels, hence the same bytes per row.  The
        # right factor only needs the columns these rows touch, so it runs
        # over local column ids and the global ids are restored afterwards.
        block = (sp.diags(self._scales(rows)) @ support).tocsr()
        if not self._symmetric:
            return block
        columns = np.unique(support.indices)
        local = sp.csr_matrix(
            (block.data, np.searchsorted(columns, block.indices), block.indptr),
            shape=(rows.size, columns.size),
        )
        block = (local @ sp.diags(self._scales(columns))).tocsr()
        return sp.csr_matrix(
            (block.data, columns[block.indices], block.indptr),
            shape=(rows.size, self._graph.num_nodes),
        )


OperatorFn = Callable[..., sp.csr_matrix]

OPERATOR_REGISTRY: Dict[str, OperatorFn] = {
    "normalized_adjacency": normalized_adjacency,
    "sym_norm_adj": normalized_adjacency,
    "random_walk": random_walk_operator,
    "ppr": personalized_pagerank_operator,
    "heat": heat_kernel_operator,
}


def build_operator(name: str, graph: CSRGraph, **kwargs) -> sp.csr_matrix:
    """Build a registered operator by name (case-insensitive)."""
    key = name.lower()
    if key not in OPERATOR_REGISTRY:
        raise KeyError(f"unknown operator {name!r}; available: {sorted(OPERATOR_REGISTRY)}")
    return OPERATOR_REGISTRY[key](graph, **kwargs)
