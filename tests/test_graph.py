"""Tests for the graph substrate: CSR structure, builders, operators, generators."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.graph import (
    CSRGraph,
    add_self_loops,
    build_operator,
    contiguous_chunks,
    iter_operator_row_blocks,
    operator_row_block,
    degree_statistics,
    edge_homophily,
    erdos_renyi_graph,
    from_dense,
    from_edge_index,
    from_networkx,
    heat_kernel_operator,
    locality_aware_partition,
    normalized_adjacency,
    personalized_pagerank_operator,
    powerlaw_cluster_graph,
    random_partition,
    random_walk_operator,
    receptive_field_size,
    remove_self_loops,
    stochastic_block_model,
    symmetrize,
    to_networkx,
)
from repro.graph.generators import attach_label_correlated_edges
from repro.graph.operators import PartialOperator, csr_rows
from repro.graph.partition import partition_edge_cut


class TestCSRGraph:
    def test_from_edge_index_basic(self):
        g = from_edge_index(np.array([[0, 1, 2], [1, 2, 0]]), num_nodes=3)
        assert g.num_nodes == 3
        assert g.num_edges == 3
        assert list(g.neighbors(0)) == [1]

    def test_edge_index_transposed_accepted(self):
        g = from_edge_index(np.array([[0, 1], [1, 2]]), num_nodes=3)
        assert g.num_edges == 2

    def test_duplicate_edges_coalesced(self):
        g = from_edge_index(np.array([[0, 0], [1, 1]]), num_nodes=2)
        assert g.num_edges == 1

    def test_out_of_range_node_raises(self):
        with pytest.raises(ValueError):
            from_edge_index(np.array([[0], [5]]), num_nodes=3)

    def test_empty_graph(self):
        g = from_edge_index(np.zeros((2, 0)), num_nodes=4)
        assert g.num_edges == 0
        assert np.all(g.out_degree() == 0)

    def test_invalid_indptr_rejected(self):
        with pytest.raises(ValueError):
            CSRGraph(indptr=np.array([0, 2]), indices=np.array([0]), num_nodes=1)

    def test_degrees(self, tiny_graph):
        assert tiny_graph.out_degree().sum() == tiny_graph.num_edges
        assert np.array_equal(tiny_graph.in_degree(), tiny_graph.out_degree())  # undirected

    def test_neighbors_out_of_range(self, tiny_graph):
        with pytest.raises(IndexError):
            tiny_graph.neighbors(100)

    def test_has_edge(self, tiny_graph):
        assert tiny_graph.has_edge(0, 1)
        assert not tiny_graph.has_edge(0, 7)

    def test_to_scipy_round_trip(self, tiny_graph):
        again = CSRGraph.from_scipy(tiny_graph.to_scipy())
        assert again.num_edges == tiny_graph.num_edges
        assert np.array_equal(again.indptr, tiny_graph.indptr)

    def test_from_scipy_nonsquare_raises(self):
        with pytest.raises(ValueError):
            CSRGraph.from_scipy(sp.random(3, 4, format="csr"))

    def test_reverse_preserves_edge_count(self):
        g = from_edge_index(np.array([[0, 1], [1, 2]]), num_nodes=3)
        assert g.reverse().num_edges == g.num_edges
        assert g.reverse().has_edge(1, 0)

    def test_reverse_matches_scipy_transpose(self, tiny_graph):
        reversed_graph = tiny_graph.reverse()
        reference = tiny_graph.to_scipy().T.tocsr()
        reference.sort_indices()
        assert np.array_equal(reversed_graph.indptr, reference.indptr.astype(np.int64))
        assert np.array_equal(reversed_graph.indices, reference.indices.astype(np.int64))
        assert np.array_equal(reversed_graph.reverse().indptr, tiny_graph.indptr)
        assert np.array_equal(reversed_graph.reverse().indices, tiny_graph.indices)

    def test_reverse_keeps_edge_weights_aligned(self):
        g = from_edge_index(np.array([[0, 0, 1, 2], [1, 2, 2, 0]]), num_nodes=3)
        # weight of each edge encodes its (src, dst) pair so misalignment is visible
        weights = np.array([1.0, 2.0, 12.0, 20.0])
        weighted = CSRGraph(g.indptr, g.indices, g.num_nodes, edge_weight=weights)
        reversed_graph = weighted.reverse()
        expected = {(1, 0): 1.0, (2, 0): 2.0, (2, 1): 12.0, (0, 2): 20.0}
        for src in range(reversed_graph.num_nodes):
            start, stop = reversed_graph.indptr[src], reversed_graph.indptr[src + 1]
            for dst, weight in zip(
                reversed_graph.indices[start:stop], reversed_graph.edge_weight[start:stop]
            ):
                assert expected[(src, int(dst))] == weight

    def test_reverse_is_linear_time_construction(self):
        rng = np.random.default_rng(0)
        edges = rng.integers(0, 200, size=(2, 2000))
        g = from_edge_index(edges, num_nodes=200)
        reversed_graph = g.reverse()
        assert reversed_graph.num_edges == g.num_edges
        assert np.array_equal(reversed_graph.in_degree(), g.out_degree())
        assert np.array_equal(reversed_graph.out_degree(), g.in_degree())
        # rows come out sorted, matching the scipy-based behaviour
        for node in range(0, 200, 17):
            neighbors = reversed_graph.neighbors(node)
            assert np.all(np.diff(neighbors) >= 0)

    def test_subgraph_relabels(self, tiny_graph):
        sub, nodes = tiny_graph.subgraph(np.array([0, 1, 2, 3]))
        assert sub.num_nodes == 4
        assert sub.num_edges > 0
        assert np.array_equal(nodes, [0, 1, 2, 3])

    def test_memory_bytes_positive(self, tiny_graph):
        assert tiny_graph.memory_bytes() > 0

    def test_dense_round_trip(self):
        dense = np.array([[0, 1.0], [0, 0]])
        g = from_dense(dense)
        assert g.has_edge(0, 1) and not g.has_edge(1, 0)

    def test_networkx_round_trip(self, tiny_graph):
        nx_graph = to_networkx(tiny_graph)
        back = from_networkx(nx_graph)
        assert back.num_nodes == tiny_graph.num_nodes
        assert back.num_edges == tiny_graph.num_edges


class TestRowBlocks:
    def test_row_block_matches_scipy_slice(self, tiny_graph):
        indptr, indices, weights = tiny_graph.row_block(2, 6)
        block = sp.csr_matrix(
            (np.ones(indices.size) if weights is None else weights, indices, indptr),
            shape=(4, tiny_graph.num_nodes),
        )
        assert np.array_equal(block.toarray(), tiny_graph.to_scipy()[2:6].toarray())

    def test_row_block_views_are_zero_copy(self, tiny_graph):
        _, indices, _ = tiny_graph.row_block(1, 5)
        assert indices.base is tiny_graph.indices

    def test_row_block_bounds_checked(self, tiny_graph):
        with pytest.raises(ValueError):
            tiny_graph.row_block(-1, 4)
        with pytest.raises(ValueError):
            tiny_graph.row_block(2, tiny_graph.num_nodes + 1)
        with pytest.raises(ValueError):
            tiny_graph.row_block(5, 2)

    def test_operator_row_block_matches_rows(self, tiny_graph):
        op = normalized_adjacency(tiny_graph)
        block = operator_row_block(op, 3, 7)
        assert block.shape == (4, tiny_graph.num_nodes)
        assert np.array_equal(block.toarray(), op[3:7].toarray())

    def test_block_spmm_bit_identical_to_full(self, tiny_graph):
        """The tiling contract of the blocked propagation engine."""
        op = normalized_adjacency(tiny_graph)
        x = np.random.default_rng(3).standard_normal((tiny_graph.num_nodes, 5))
        full = op @ x
        for start, stop, block in iter_operator_row_blocks(op, block_size=3):
            assert np.array_equal(block @ x, full[start:stop])

    def test_iter_blocks_cover_all_rows(self, tiny_graph):
        op = normalized_adjacency(tiny_graph)
        spans = [(s, e) for s, e, _ in iter_operator_row_blocks(op, block_size=3)]
        assert spans == [(0, 3), (3, 6), (6, 8)]
        with pytest.raises(ValueError):
            list(iter_operator_row_blocks(op, 0))


class TestBuilders:
    def test_symmetrize_makes_undirected(self):
        g = from_edge_index(np.array([[0], [1]]), num_nodes=2)
        sym = symmetrize(g)
        assert sym.has_edge(0, 1) and sym.has_edge(1, 0)

    def test_symmetrize_idempotent(self, tiny_graph):
        assert symmetrize(tiny_graph).num_edges == tiny_graph.num_edges

    def test_add_remove_self_loops(self, tiny_graph):
        with_loops = add_self_loops(tiny_graph)
        assert with_loops.num_edges == tiny_graph.num_edges + tiny_graph.num_nodes
        removed = remove_self_loops(with_loops)
        assert removed.num_edges == tiny_graph.num_edges


class TestOperators:
    def test_normalized_adjacency_symmetric(self, tiny_graph):
        op = normalized_adjacency(tiny_graph)
        assert np.allclose((op - op.T).toarray(), 0.0, atol=1e-12)

    def test_normalized_adjacency_spectral_radius_le_one(self, tiny_graph):
        op = normalized_adjacency(tiny_graph).toarray()
        eigenvalues = np.linalg.eigvalsh(op)
        assert eigenvalues.max() <= 1.0 + 1e-9

    def test_random_walk_rows_sum_to_one(self, tiny_graph):
        op = random_walk_operator(tiny_graph)
        assert np.allclose(np.asarray(op.sum(axis=1)).ravel(), 1.0)

    def test_ppr_rows_approximately_stochastic(self, tiny_graph):
        # With the *symmetric* normalization the PPR rows are only approximately
        # stochastic (exactly stochastic would require the random-walk operator).
        op = personalized_pagerank_operator(tiny_graph, alpha=0.2, num_iterations=20, sparsify_threshold=0.0)
        sums = np.asarray(op.sum(axis=1)).ravel()
        assert np.all(sums <= 1.2)
        assert np.all(sums > 0.8)

    def test_ppr_invalid_alpha(self, tiny_graph):
        with pytest.raises(ValueError):
            personalized_pagerank_operator(tiny_graph, alpha=1.5)

    def test_heat_kernel_positive(self, tiny_graph):
        op = heat_kernel_operator(tiny_graph, t=2.0, sparsify_threshold=0.0)
        assert (op.toarray() >= -1e-12).all()

    def test_heat_kernel_invalid_t(self, tiny_graph):
        with pytest.raises(ValueError):
            heat_kernel_operator(tiny_graph, t=0.0)

    def test_build_operator_registry(self, tiny_graph):
        op = build_operator("sym_norm_adj", tiny_graph)
        assert op.shape == (tiny_graph.num_nodes, tiny_graph.num_nodes)
        with pytest.raises(KeyError):
            build_operator("bogus", tiny_graph)

    def test_propagation_smooths_signal(self, tiny_graph):
        """One application of the normalized adjacency reduces signal variance."""
        op = normalized_adjacency(tiny_graph)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((tiny_graph.num_nodes, 1))
        assert np.var(op @ x) < np.var(x)

    @pytest.mark.parametrize(
        "name,kwargs",
        [
            ("normalized_adjacency", {}),
            ("normalized_adjacency", {"make_undirected": False}),
            ("normalized_adjacency", {"add_self_loop": False}),
            ("random_walk", {}),
            ("ppr", {"num_iterations": 2}),
        ],
    )
    @pytest.mark.parametrize("weighted", [False, True])
    def test_partial_operator_rows_byte_identical(self, name, kwargs, weighted):
        """Row-local extraction equals rows of the full build, storage order included."""
        rng = np.random.default_rng(4)
        graph = from_edge_index(rng.integers(0, 60, size=(240, 2)), num_nodes=60)
        if weighted:
            # weights close to 1 on one direction only: symmetrization and the
            # uniform-weight collapse both have to be replayed exactly
            weights = rng.choice([0.5, 1.0, 1.0000000001, 2.0], size=graph.num_edges)
            graph = CSRGraph(graph.indptr, graph.indices, 60, edge_weight=weights)
        full = build_operator(name, graph, **kwargs)
        partial = PartialOperator(name, graph, **kwargs)
        for size in (1, 7, 60):
            rows = np.unique(rng.integers(0, 60, size))
            want, got = csr_rows(full, rows), partial.rows(rows)
            assert np.array_equal(want.indptr, got.indptr)
            assert np.array_equal(want.indices, got.indices)
            assert want.data.tobytes() == got.data.tobytes()


class TestGenerators:
    def test_sbm_basic_properties(self):
        graph, labels = stochastic_block_model([50, 50], p_in=0.2, p_out=0.01, seed=0)
        assert graph.num_nodes == 100
        assert labels.shape == (100,)
        assert edge_homophily(graph, labels) > 0.7

    def test_sbm_invalid_probs(self):
        with pytest.raises(ValueError):
            stochastic_block_model([10, 10], p_in=0.1, p_out=0.5)

    def test_sbm_is_undirected(self):
        graph, _ = stochastic_block_model([30, 30], p_in=0.2, p_out=0.02, seed=1)
        adj = graph.to_scipy()
        assert (adj != adj.T).nnz == 0

    def test_powerlaw_graph_heavy_tail(self):
        g = powerlaw_cluster_graph(300, num_attach=3, seed=0)
        stats = degree_statistics(g)
        assert stats.maximum > 3 * stats.median

    def test_powerlaw_invalid_args(self):
        with pytest.raises(ValueError):
            powerlaw_cluster_graph(5, num_attach=10)

    def test_erdos_renyi_average_degree(self):
        g = erdos_renyi_graph(2000, avg_degree=10, seed=0)
        assert 7 < degree_statistics(g).mean < 13

    def test_attach_label_correlated_edges_raises_homophily(self):
        graph, labels = stochastic_block_model([100, 100], p_in=0.05, p_out=0.05, seed=0)
        before = edge_homophily(graph, labels)
        enriched = attach_label_correlated_edges(graph, labels, extra_edges=2000, homophily=1.0, seed=0)
        after = edge_homophily(enriched, labels)
        assert after > before


class TestMetrics:
    def test_edge_homophily_bounds(self, small_dataset):
        h = edge_homophily(small_dataset.graph, small_dataset.labels)
        assert 0.0 <= h <= 1.0

    def test_edge_homophily_wrong_length(self, tiny_graph):
        with pytest.raises(ValueError):
            edge_homophily(tiny_graph, np.zeros(3))

    def test_receptive_field_monotone(self, small_dataset):
        seeds = small_dataset.split.train[:16]
        sizes = receptive_field_size(small_dataset.graph, seeds, num_hops=3)
        assert len(sizes) == 4
        assert np.all(np.diff(sizes) >= 0)

    def test_receptive_field_explodes_then_saturates(self, small_dataset):
        sizes = receptive_field_size(small_dataset.graph, small_dataset.split.train[:8], num_hops=6)
        assert sizes[-1] <= small_dataset.num_nodes
        assert sizes[2] > sizes[0]

    def test_degree_statistics_empty(self):
        g = from_edge_index(np.zeros((2, 0)), num_nodes=0)
        assert degree_statistics(g).mean == 0.0


class TestPartition:
    def test_contiguous_chunks_cover_range(self):
        chunks = contiguous_chunks(10, 3)
        assert [len(c) for c in chunks] == [3, 3, 3, 1]
        assert np.array_equal(np.concatenate(chunks), np.arange(10))

    def test_contiguous_chunks_invalid(self):
        with pytest.raises(ValueError):
            contiguous_chunks(10, 0)

    def test_random_partition_covers_all(self):
        parts = random_partition(100, 4, seed=0)
        assert sum(len(p) for p in parts) == 100
        assert len(np.unique(np.concatenate(parts))) == 100

    def test_locality_partition_covers_training_nodes(self, small_dataset):
        train = small_dataset.split.train
        parts = locality_aware_partition(small_dataset.graph, train, 4, seed=0)
        assert len(parts) == 4
        combined = np.concatenate([p for p in parts if p.size])
        assert np.array_equal(np.sort(combined), np.sort(train))

    def test_locality_partition_beats_random_on_edge_cut(self, small_dataset):
        train = small_dataset.split.train
        local = locality_aware_partition(small_dataset.graph, train, 4, seed=0)
        rand = random_partition(small_dataset.num_nodes, 4, seed=0)
        rand = [np.intersect1d(p, train) for p in rand]
        assert partition_edge_cut(small_dataset.graph, local) <= partition_edge_cut(
            small_dataset.graph, rand
        )

    def test_single_part_returns_all(self, small_dataset):
        parts = locality_aware_partition(small_dataset.graph, small_dataset.split.train, 1)
        assert len(parts) == 1

    def test_locality_partition_scales_to_wide_frontiers(self):
        """Size-scaled sanity check for the deque-based BFS frontier.

        A hub graph drives the frontier to O(N) immediately; with the old
        ``list.pop(0)`` this path was quadratic in frontier size.  The test
        pins correctness at a size where the quadratic version already
        crawled, with a generous wall bound as a tripwire.
        """
        import time

        num_nodes = 6000
        hubs = np.arange(8)
        spokes = np.arange(num_nodes)
        src = np.concatenate([np.repeat(hubs, num_nodes // 8), np.tile(hubs, num_nodes // 8)])
        dst = np.concatenate([np.tile(spokes[: num_nodes // 8 * 8], 1), np.repeat(spokes[: num_nodes // 8 * 8], 1)])
        graph = symmetrize(from_edge_index(np.stack([src, dst]), num_nodes=num_nodes))
        train = np.arange(num_nodes, dtype=np.int64)
        began = time.perf_counter()
        parts = locality_aware_partition(graph, train, 4, seed=1)
        elapsed = time.perf_counter() - began
        combined = np.concatenate([p for p in parts if p.size])
        assert np.array_equal(np.sort(combined), train)
        assert sum(p.size for p in parts) == num_nodes
        assert elapsed < 5.0, f"wide-frontier partition took {elapsed:.1f}s"


@settings(max_examples=20, deadline=None)
@given(
    num_nodes=st.integers(min_value=2, max_value=40),
    num_edges=st.integers(min_value=1, max_value=120),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_property_edge_index_round_trip(num_nodes, num_edges, seed):
    """CSRGraph <-> scipy round trip preserves the (coalesced) edge set."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, num_nodes, size=num_edges)
    dst = rng.integers(0, num_nodes, size=num_edges)
    g = from_edge_index(np.stack([src, dst]), num_nodes=num_nodes)
    back = CSRGraph.from_scipy(g.to_scipy())
    assert back.num_edges == g.num_edges
    assert np.array_equal(back.indices, g.indices)


@settings(max_examples=15, deadline=None)
@given(
    num_nodes=st.integers(min_value=3, max_value=30),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_property_normalized_adjacency_row_sums_bounded(num_nodes, seed):
    """Symmetric normalization is symmetric with spectral radius at most 1."""
    g = erdos_renyi_graph(num_nodes, avg_degree=3, seed=seed)
    op = normalized_adjacency(g)
    dense = op.toarray()
    assert np.allclose(dense, dense.T, atol=1e-12)
    eigenvalues = np.linalg.eigvalsh(dense)
    assert eigenvalues.max() <= 1.0 + 1e-9
    assert np.all(np.asarray(op.sum(axis=1)).ravel() > 0)


@settings(max_examples=15, deadline=None)
@given(
    num_items=st.integers(min_value=0, max_value=200),
    chunk=st.integers(min_value=1, max_value=64),
)
def test_property_chunks_partition_items(num_items, chunk):
    """Contiguous chunking is a partition: disjoint, complete, ordered."""
    chunks = contiguous_chunks(num_items, chunk)
    flat = np.concatenate(chunks) if chunks else np.array([], dtype=np.int64)
    assert flat.size == num_items
    assert np.array_equal(flat, np.arange(num_items))
