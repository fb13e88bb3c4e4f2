import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mose.graph import (Graph, complete_graph, cycle_graph, degree_features,
                        disjoint_union, induced_subgraph, path_graph, relabel,
                        star_graph, walk_counts)
import reference


class TestGraphConstruction:
    def test_from_edges_dedupes_and_symmetrizes(self):
        g = Graph.from_edges(3, [(0, 1), (1, 0), (0, 1), (1, 2)])
        assert g.edge_count == 2
        assert list(g.neighbors_of(1)) == [0, 2]

    def test_self_loops_dropped(self):
        g = Graph.from_edges(2, [(0, 0), (0, 1)])
        assert g.edge_count == 1

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 5)])

    @pytest.mark.parametrize("edges", [[], [(0, 1)]])
    def test_negative_node_count_named(self, edges):
        with pytest.raises(ValueError, match="^node_count must be non-negative$"):
            Graph.from_edges(-1, edges)

    def test_asymmetric_csr_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            Graph(2, np.array([0, 1, 1]), np.array([1]), np.zeros((2, 0)))

    def test_bad_offsets_rejected(self):
        with pytest.raises(ValueError):
            Graph(2, np.array([0, 2, 1]), np.array([1, 0]), np.zeros((2, 0)))

    def test_feature_row_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(0, 1)], features=np.zeros((2, 4)))

    def test_immutable(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            g.neighbors[0] = 5


def set_from_edges(n, edges):
    """CSR arrays of an edge list built with a set, the reference for from_edges."""
    pairs = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for {n} nodes")
        if u != v:
            pairs |= {(u, v), (v, u)}
    rows = [sorted(v for u, v in pairs if u == node) for node in range(n)]
    return np.cumsum([0] + [len(r) for r in rows]), [v for r in rows for v in r]


# pairs may repeat, come reversed, be self-loops or leave nodes isolated
def edge_lists(max_nodes: int):
    return st.integers(0, max_nodes).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                             max_size=40) if n else st.just([])))


EDGE_LISTS = edge_lists(12)


class TestFromEdgesMatchesSetReference:
    @settings(max_examples=300, deadline=None)
    @given(EDGE_LISTS, st.booleans())
    def test_same_csr(self, n_edges, as_array):
        n, edges = n_edges
        offsets, neighbors = set_from_edges(n, edges)
        g = Graph.from_edges(n, np.array(edges, dtype=np.int64).reshape(-1, 2)
                             if as_array else edges)
        assert g.offsets.tolist() == offsets.tolist()
        assert g.neighbors.tolist() == neighbors

    @settings(max_examples=300, deadline=None)
    @given(EDGE_LISTS)
    def test_built_csr_passes_every_check(self, n_edges):
        # from_edges, with_features and with_label skip the CSR checks, as
        # their CSR is valid by construction; this checks that claim
        n, edges = n_edges
        g = Graph.from_edges(n, edges)
        for built in (g, g.with_features(np.ones((n, 2))), g.with_label(1)):
            built._validate()

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 12), st.lists(st.tuples(st.integers(-3, 15), st.integers(-3, 15)),
                                        min_size=1, max_size=12), st.booleans())
    def test_first_out_of_range_edge_named(self, n, edges, as_array):
        try:
            set_from_edges(n, edges)
        except ValueError as e:
            expected = str(e)
        else:
            return
        with pytest.raises(ValueError) as err:
            Graph.from_edges(n, np.array(edges) if as_array else iter(edges))
        assert str(err.value) == expected

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                             max_size=30),
        st.permutations(range(n)), st.integers(1, n))))
    def test_edges_induced_subgraph_and_relabel_match_loops(self, case):
        n, edges, perm, k = case
        g = Graph.from_edges(n, edges)
        loop_edges = [(u, int(v)) for u in range(n) for v in g.neighbors_of(u) if u < v]
        assert g.edges() == loop_edges
        nodes = perm[:k]        # distinct members in a random order
        local = {p: i for i, p in enumerate(nodes)}
        sub = induced_subgraph(g, nodes)
        offsets, neighbors = set_from_edges(k, [(local[u], local[v]) for u, v in loop_edges
                                                if u in local and v in local])
        assert (sub.offsets.tolist(), sub.neighbors.tolist()) == (offsets.tolist(), neighbors)
        moved = relabel(g.with_features(np.arange(n * 2.0).reshape(n, 2)), perm)
        offsets, neighbors = set_from_edges(n, [(perm[u], perm[v]) for u, v in loop_edges])
        assert (moved.offsets.tolist(), moved.neighbors.tolist()) == (offsets.tolist(), neighbors)
        assert all(moved.features[perm[i]].tolist() == [2.0 * i, 2.0 * i + 1] for i in range(n))


# ids may repeat, come reversed, be self-loops, negative or past the node count
RAW_EDGE_LISTS = st.tuples(
    st.integers(-1, 12), st.lists(st.tuples(st.integers(-3, 15), st.integers(-3, 15)),
                                  max_size=30),
    st.sampled_from(["list", "int64", "int32", "uint8", "iter"]))


class TestFromEdgesMatchesItsOldBuilder:
    @settings(max_examples=400, deadline=None)
    @given(RAW_EDGE_LISTS)
    def test_same_csr_bytes_or_same_message(self, case):
        n, edges, kind = case
        if kind == "uint8":
            edges = [(u, v) for u, v in edges if u >= 0 and v >= 0]

        def given_edges():
            if kind in ("list", "iter"):
                return edges if kind == "list" else iter(edges)
            return np.array(edges, dtype=kind).reshape(-1, 2)

        try:
            offsets, neighbors = reference.from_edges(n, given_edges())
        except ValueError as e:
            with pytest.raises(ValueError) as err:
                Graph.from_edges(n, given_edges())
            assert str(err.value) == str(e)
            return
        g = Graph.from_edges(n, given_edges())
        assert (g.offsets.dtype, g.neighbors.dtype) == (offsets.dtype, neighbors.dtype)
        assert g.offsets.tobytes() == offsets.tobytes()
        assert g.neighbors.tobytes() == neighbors.tobytes()


class TestFromEdgesRefusesMalformedInput:
    @pytest.mark.parametrize("edges", [np.zeros((0, 3), dtype=np.int64),
                                       np.zeros((2, 0), dtype=np.int64),
                                       np.zeros((0, 0)), [[]], [(), ()]])
    def test_empty_input_of_another_width(self, edges):
        with pytest.raises(ValueError, match=r"^edges must be \(u, v\) pairs$"):
            Graph.from_edges(3, edges)

    @pytest.mark.parametrize("edges", [[[0.5, 1.0]], [(0, 1), (1.0, 2)],
                                       np.array([[0.0, 1.0]]), [(True, False)],
                                       [("0", "1")]])
    def test_ids_that_are_not_integers(self, edges):
        with pytest.raises(ValueError, match="^edge ids must be integers, got "):
            Graph.from_edges(3, edges)

    @pytest.mark.parametrize("edges", [[], (), iter([]), np.zeros(0), np.zeros((0, 2)),
                                       np.zeros((0, 2), dtype=np.uint16)])
    def test_no_edges_still_builds_an_edgeless_graph(self, edges):
        g = Graph.from_edges(3, edges)
        assert (g.offsets.tolist(), g.neighbors.tolist()) == ([0, 0, 0, 0], [])

    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.int64, np.uint8, np.uint64])
    def test_integer_dtypes_build_the_same_graph(self, dtype):
        g = Graph.from_edges(4, np.array([[0, 1], [3, 1], [1, 0]], dtype=dtype))
        assert g.edges() == [(0, 1), (1, 3)]
        assert g.neighbors.dtype == np.int64


def csr(rows):
    """Offsets and neighbors of a CSR built row by row, exactly as given."""
    offsets = np.cumsum([0] + [len(r) for r in rows])
    neighbors = np.array([v for r in rows for v in r], dtype=np.int64)
    return offsets, neighbors


def loop_validate(n, offsets, neighbors):
    """Reference validator: one Python pass per node and a set for symmetry."""
    offsets = np.asarray(offsets, dtype=np.int64)
    neighbors = np.asarray(neighbors, dtype=np.int64)
    if offsets.shape != (n + 1,):
        raise ValueError("offsets must have length node_count + 1")
    if offsets[0] != 0 or np.any(np.diff(offsets) < 0):
        raise ValueError("offsets must be monotone starting at 0")
    if offsets[-1] != len(neighbors):
        raise ValueError("offsets[-1] must equal the neighbor-list length")
    if len(neighbors):
        if neighbors.min() < 0 or neighbors.max() >= n:
            raise ValueError("neighbor id out of range")
    for v in range(n):
        nbrs = neighbors[offsets[v]:offsets[v + 1]]
        if np.any(nbrs == v):
            raise ValueError(f"self-loop at node {v}")
        if np.any(np.diff(nbrs) <= 0):
            raise ValueError(f"neighbor list of node {v} not strictly sorted")
    src = np.repeat(np.arange(n), np.diff(offsets))
    fwd = {(int(u), int(v)) for u, v in zip(src, neighbors)}
    if any((v, u) not in fwd for u, v in fwd):
        raise ValueError("adjacency is not symmetric")


def outcome(check, n, offsets, neighbors):
    try:
        check(n, offsets, neighbors)
    except ValueError as e:
        return str(e)
    return None


def graph_validate(n, offsets, neighbors):
    Graph(n, offsets, neighbors, np.zeros((n, 0)))


class TestValidation:
    @pytest.mark.parametrize("rows, message", [
        ([[1], [0, 1, 2], [1]], "self-loop at node 1"),
        ([[1, 2], [2, 0], [0, 1]], "neighbor list of node 1 not strictly sorted"),
        ([[1, 2], [0, 2, 2], [0, 1]], "neighbor list of node 1 not strictly sorted"),
        ([[1], [0, 3], []], "neighbor id out of range"),
        ([[1], [0, -1], []], "neighbor id out of range"),
        ([[1], [0, 2], []], "adjacency is not symmetric"),
        # the lowest offending node wins; at one node a self-loop comes first
        ([[2, 1], [0], [2, 0]], "neighbor list of node 0 not strictly sorted"),
        ([[], [1, 0], []], "self-loop at node 1"),
    ])
    def test_defect_names_its_node(self, rows, message):
        offsets, neighbors = csr(rows)
        with pytest.raises(ValueError) as err:
            Graph(len(rows), offsets, neighbors, np.zeros((len(rows), 0)))
        assert str(err.value) == message

    def test_graphs_built_on_a_valid_csr_check_their_node_arrays(self):
        g = Graph.from_edges(3, [(0, 1)])
        with pytest.raises(ValueError, match="feature row count must equal node_count"):
            g.with_features(np.zeros((2, 1)))
        with pytest.raises(ValueError, match="features must be a 2-d matrix"):
            g.with_features(np.zeros(3))
        with pytest.raises(ValueError, match="node_labels must have length node_count"):
            Graph.from_edges(3, [(0, 1)], node_labels=[0, 1])
        assert g.degrees is g.degrees and not g.degrees.flags.writeable

    def test_non_monotone_offsets(self):
        with pytest.raises(ValueError) as err:
            Graph(3, np.array([0, 2, 1, 2]), np.array([1, 2]), np.zeros((3, 0)))
        assert str(err.value) == "offsets must be monotone starting at 0"

    def test_dense_adjacency_of_valid_csr(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (0, 3)])
        a = np.zeros((4, 4))
        for u, v in g.edges():
            a[u, v] = a[v, u] = 1
        assert np.array_equal(g.adjacency_dense(), a)

    @settings(max_examples=400, deadline=None)
    @given(st.integers(0, 6), st.data())
    def test_array_checks_match_per_node_loop(self, n, data):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        keep = data.draw(st.lists(st.booleans(), min_size=len(pairs),
                                  max_size=len(pairs)))
        edges = [p for p, k in zip(pairs, keep) if k]
        rows = [sorted([v for u, v in edges if u == w] + [u for u, v in edges if v == w])
                for w in range(n)]
        for _ in range(data.draw(st.integers(0, 2)) if n else 0):
            kind = data.draw(st.sampled_from(["set", "insert", "delete", "swap"]))
            row = rows[data.draw(st.integers(0, n - 1))]
            value = data.draw(st.integers(-1, n))
            if kind == "insert":
                row.insert(data.draw(st.integers(0, len(row))), value)
            elif row and kind == "set":
                row[data.draw(st.integers(0, len(row) - 1))] = value
            elif row and kind == "delete":
                del row[data.draw(st.integers(0, len(row) - 1))]
            elif len(row) > 1 and kind == "swap":
                i = data.draw(st.integers(0, len(row) - 2))
                row[i], row[i + 1] = row[i + 1], row[i]
        offsets, neighbors = csr(rows)
        if n and data.draw(st.booleans()):
            # a non-monotone or misaligned offset vector
            offsets = offsets.copy()
            offsets[data.draw(st.integers(0, n))] += data.draw(st.sampled_from([-1, 1]))
        assert outcome(graph_validate, n, offsets, neighbors) == \
            outcome(loop_validate, n, offsets, neighbors)


class TestInducedSubgraph:
    def test_triangle_pair_keeps_edge(self):
        sub = induced_subgraph(cycle_graph(3), [0, 1])
        assert sub.node_count == 2
        assert sub.edge_count == 1

    def test_singleton(self):
        sub = induced_subgraph(cycle_graph(3), [1])
        assert sub.node_count == 1
        assert sub.edge_count == 0

    def test_path4_selection(self):
        # oracle: parent edges with both endpoints selected
        g = path_graph(4)
        nodes = [0, 2, 3]
        expected = {(u, v) for u, v in g.edges() if u in nodes and v in nodes}
        assert expected == {(2, 3)}
        sub = induced_subgraph(g, nodes)
        assert sub.node_count == 3
        # local ids follow input ordering: 2 -> 1, 3 -> 2
        assert sub.edges() == [(1, 2)]

    def test_features_copied_rowwise(self):
        g = path_graph(4).with_features(np.arange(8.0).reshape(4, 2))
        sub = induced_subgraph(g, [2, 0])
        assert np.array_equal(sub.features, [[4.0, 5.0], [0.0, 1.0]])

    def test_center_is_first(self):
        g = path_graph(4).with_features(np.arange(4.0)[:, None])
        sub = induced_subgraph(g, [2, 0, 1])
        assert sub.features[0].tolist() == [2.0]

    def test_errors(self):
        with pytest.raises(ValueError):
            induced_subgraph(path_graph(3), [])
        with pytest.raises(ValueError):
            induced_subgraph(path_graph(3), [0, 7])
        with pytest.raises(ValueError):
            induced_subgraph(path_graph(3), [0, 0])

    def test_inducing_all_nodes_is_identity(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)])
        sub = induced_subgraph(g, range(5))
        assert sub.edges() == g.edges()


class TestWalkCounts:
    @settings(max_examples=200, deadline=None)
    @given(edge_lists(9), st.none() | st.integers(0, 300))
    def test_levels_are_adjacency_powers_held_at_the_cap(self, g_edges, cap):
        g = Graph.from_edges(*g_edges)
        a = g.adjacency_dense(dtype=np.int64)
        for p, ends in zip(range(9), walk_counts(g, cap)):
            exact = (np.linalg.matrix_power(a, p) @ np.ones(g.node_count, dtype=np.int64)).tolist()
            assert ends == (exact if cap is None else [min(c, cap) for c in exact])
            assert all(type(c) is int for c in ends)

    def test_cap_holds_a_count_at_the_cap(self):
        # K4 has 3^p walks from each node: 1, 3, 9, 27, 81, ...
        levels = list(itertools.islice(walk_counts(complete_graph(4), cap=10), 6))
        assert levels == [[1] * 4, [3] * 4, [9] * 4, [10] * 4, [10] * 4, [10] * 4]
        assert next(itertools.islice(walk_counts(complete_graph(4), cap=9), 2, None)) == [9] * 4

    def test_negative_cap_is_rejected(self):
        with pytest.raises(ValueError, match="got -1$"):
            next(walk_counts(path_graph(3), cap=-1))


class TestDegreeFeatures:
    def test_star_center(self):
        f = degree_features(star_graph(3), 4)
        assert f[0].tolist() == [0, 0, 0, 1, 0]

    def test_isolated_node(self):
        g = Graph.from_edges(2, [])
        assert degree_features(g, 3)[0].tolist() == [1, 0, 0, 0]

    def test_clamping(self):
        f = degree_features(star_graph(7), 4)
        assert f[0].tolist() == [0, 0, 0, 0, 1]
        assert f[1].tolist() == [0, 1, 0, 0, 0]


class TestFeatureRows:
    @staticmethod
    def check(features, want_first, want_row_of):
        g = Graph.from_edges(len(features), [], features=features)
        first, row_of = g.feature_rows
        assert first.tolist() == want_first and row_of.tolist() == want_row_of
        assert np.array_equal(g.features[first[row_of]], g.features)

    def test_classes_are_numbered_by_first_node(self):
        self.check(np.array([[2.0, 1], [0, 1], [2, 1], [0, 1], [5, 5]]),
                   [0, 1, 4], [0, 1, 0, 1, 2])

    def test_distinct_rows_keep_node_order(self):
        x = np.random.default_rng(0).normal(size=(7, 3))
        self.check(x, list(range(7)), list(range(7)))

    def test_all_rows_equal(self):
        self.check(np.ones((4, 3)), [0], [0, 0, 0, 0])

    def test_no_feature_columns(self):
        self.check(np.zeros((3, 0)), [0], [0, 0, 0])

    def test_no_nodes(self):
        self.check(np.zeros((0, 0)), [], [])
        self.check(np.zeros((0, 3)), [], [])

    def test_signed_zeros_may_split_a_class(self):
        # rows that differ only in the sign of a zero compare by their bytes
        self.check(np.array([[0.0, 1], [-0.0, 1], [0.0, 1]]), [0, 1], [0, 1, 0])

    def test_rows_that_share_a_hash_are_told_apart_by_their_bytes(self):
        # the hash multiplies each row's 64-bit words by fixed multipliers r; the
        # words (r1, -r0) and (0, 0) hash alike, r0 r1 - r1 r0 = 0 (mod 2^64)
        r = np.random.default_rng(0).integers(1, 2**63, 2, dtype=np.uint64)
        words = np.zeros((3, 2), dtype=np.uint64)
        words[1] = words[2] = [r[1], np.negative(r[:1])[0]]
        assert len(set((words @ r).tolist())) == 1
        self.check(words.view(np.float64), [0, 1], [0, 1, 1])

    def test_keeps_int_indices_and_no_copy_of_the_rows(self):
        # 1,500 distinct 512-wide rows: a float copy of them would take 6.1 MB,
        # kept or transient (sorting the rows by their bytes makes one)
        n, f = 1500, 512
        g = Graph.from_edges(n, [], features=np.random.default_rng(1).normal(size=(n, f)))
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            first, row_of = g.feature_rows
            kept, peak = (m - base for m in tracemalloc.get_traced_memory())
        finally:
            if not tracing:
                tracemalloc.stop()
        assert g.feature_rows[0] is first
        for a in (first, row_of):
            assert a.dtype.kind == "i" and a.shape == (n,)
        assert kept <= 2 * (first.nbytes + row_of.nbytes)
        assert peak < g.features.nbytes / 8


class TestHelpers:
    def test_disjoint_union(self):
        u = disjoint_union(cycle_graph(3), path_graph(2))
        assert u.node_count == 5
        assert u.edge_count == 4
        assert (3, 4) in u.edges()

    def test_disjoint_union_of_many_graphs(self):
        a = cycle_graph(3).with_features(np.ones((3, 2)))
        b, c = Graph.from_edges(2, []), path_graph(3).with_features(np.full((3, 1), 5.0))
        u, nested = disjoint_union(a, b, c), disjoint_union(disjoint_union(a, b), c)
        for field in ("offsets", "neighbors", "features"):
            assert np.array_equal(getattr(u, field), getattr(nested, field))
        assert u.features[5:].tolist() == [[5.0, 0.0]] * 3
        assert disjoint_union(a).edges() == a.edges()

    def test_relabel_preserves_structure(self):
        g = star_graph(3)
        r = relabel(g, [3, 0, 1, 2])
        assert sorted(r.degrees.tolist()) == sorted(g.degrees.tolist())

    def test_named_graphs(self):
        assert complete_graph(4).edge_count == 6
        assert cycle_graph(5).edge_count == 5
        assert path_graph(5).edge_count == 4
        assert star_graph(4).edge_count == 4
