import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mose.kernel
from mose.graph import (Graph, complete_graph, cycle_graph, induced_subgraph,
                        path_graph, relabel, star_graph)
from mose.kernel import (HiddenGraph, _oracle_counts, KernelConfig, hidden_graph_to_dot,
                         rwk_diff, rwk_discrete, rwk_hidden, rwk_hidden_grad,
                         rwk_oracle, walk_pair_counts, _moment_backward, _moment_forward,
                         _rectified_powers, _weight_backward, group_moments)
from mose.moe import build_group
from mose.util import BudgetError
from mose.walks import Records
from mose.wl import graph_corpus
from reference import expert_embed, kernel_features, slot_basis


def count_walk_pairs(g, h, p):
    """Independent oracle: count pairs of length-p walks by full expansion."""
    def walks(graph, length):
        out = [[v] for v in range(graph.node_count)]
        for _ in range(length):
            out = [w + [int(u)] for w in out for u in graph.neighbors_of(w[-1])]
        return out
    return len(walks(g, p)) * len(walks(h, p))


def random_subgraph(rng, n, f):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
    return Graph.from_edges(n, edges, features=rng.normal(size=(n, f)))


def lam_basis(max_p, p):
    return tuple(1.0 if q == p else 0.0 for q in range(max_p + 1))


class TestDiscreteKernel:
    def test_identity_power_counts_node_pairs(self):
        cfg = KernelConfig(1, (1.0, 0.0))
        assert rwk_discrete(path_graph(2), path_graph(3), cfg) == 6.0

    def test_single_step_p2_p2(self):
        # oracle: simultaneous 1-step walks on the product graph
        assert count_walk_pairs(path_graph(2), path_graph(2), 1) == 4
        assert rwk_discrete(path_graph(2), path_graph(2), KernelConfig(1, (0, 1.0))) == 4.0

    def test_edgeless_factor_kills_positive_steps(self):
        edgeless = Graph.from_edges(3, [])
        for p in (1, 2, 3):
            assert rwk_discrete(cycle_graph(4), edgeless,
                                KernelConfig(3, lam_basis(3, p))) == 0.0

    def test_one_hot_weights_read_the_count_vector(self):
        corpus = graph_corpus(5)
        for i, g in enumerate(corpus):
            for h in corpus[i:]:
                counts = walk_pair_counts(g, h, 4)
                assert counts[0] == g.node_count * h.node_count
                for p in range(1, 5):
                    assert rwk_discrete(g, h, KernelConfig(4, lam_basis(4, p))) == counts[p]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            KernelConfig(0)
        with pytest.raises(ValueError):
            KernelConfig(2, (1.0, 1.0))
        with pytest.raises(ValueError):
            KernelConfig(2, (1.0, -1.0, 1.0))
        with pytest.raises(ValueError):
            KernelConfig(2, step_mode="bogus")


class TestOracle:
    def test_triangle_pair_single_step(self):
        # 6 directed walk-steps per triangle, paired independently
        assert rwk_oracle(cycle_graph(3), cycle_graph(3), 1) == 36

    def test_zero_steps_counts_node_pairs(self):
        assert rwk_oracle(path_graph(3), star_graph(3), 0) == 12

    def test_p2_c3_two_steps(self):
        # walk counts factor across the pair: 2 walks in P2, 12 in C3
        assert count_walk_pairs(path_graph(2), cycle_graph(3), 2) == 24
        assert rwk_oracle(path_graph(2), cycle_graph(3), 2) == 24

    def test_budget_guard(self):
        k5 = Graph.from_edges(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
        with pytest.raises(BudgetError):
            rwk_oracle(k5, k5, 6, budget=1000)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_discrete_on_random_pairs(self, seed):
        rng = np.random.default_rng(seed)
        def rand(n):
            return Graph.from_edges(n, [(i, j) for i in range(n)
                                        for j in range(i + 1, n)
                                        if rng.random() < 0.5])
        g, h = rand(int(rng.integers(2, 5))), rand(int(rng.integers(2, 5)))
        for p in (1, 2, 3):
            assert rwk_discrete(g, h, KernelConfig(3, lam_basis(3, p))) == \
                rwk_oracle(g, h, p)


def dfs_oracle_counts(g: Graph, h: Graph, max_p: int, budget: int) -> list[int]:
    """Reference walk-pair enumeration: one recursive depth-first visit per pair."""
    nbr_g = [tuple(int(x) for x in g.neighbors_of(v)) for v in range(g.node_count)]
    nbr_h = [tuple(int(x) for x in h.neighbors_of(v)) for v in range(h.node_count)]
    counts = [0] * (max_p + 1)
    remaining = budget

    def visit(u: int, up: int, depth: int):
        nonlocal remaining
        counts[depth] += 1
        remaining -= 1
        if remaining < 0:
            raise BudgetError("walk-pair enumeration exceeded its budget")
        if depth == max_p:
            return
        for v in nbr_g[u]:
            for vp in nbr_h[up]:
                visit(v, vp, depth + 1)

    for u in range(g.node_count):
        for up in range(h.node_count):
            visit(u, up, 0)
    return counts


def outcome(fn, *args):
    """The function's result, or BudgetError when it raised that."""
    try:
        return fn(*args)
    except BudgetError:
        return BudgetError


@st.composite
def small_graphs(draw):
    """Up to 6 nodes, edgeless and 1-node graphs and isolated nodes included."""
    n = draw(st.integers(1, 6))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [e for e, k in zip(pairs, keep) if k])


class TestLevelOracle:
    """The level-by-level walk-pair enumeration against the depth-first reference."""

    @given(small_graphs(), small_graphs(), st.integers(0, 5), st.integers(1, 5000),
           st.sampled_from([1, 7, mose.kernel._BLOCK]))
    @example(Graph.from_edges(3, [(1, 2)]), path_graph(3), 4, 5000, 7)   # isolated node
    @example(Graph.from_edges(1, []), cycle_graph(3), 3, 5000, 7)         # 1-node factor
    @example(Graph.from_edges(4, []), cycle_graph(3), 5, 5000, 1)         # edgeless factor
    @example(complete_graph(5), Graph.from_edges(2, [(0, 1)]), 0, 9, 1)   # node pairs alone
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, g, h, p, budget, block):
        # small blocks split every level over many blocks
        with mock.patch.object(mose.kernel, "_BLOCK", block):
            ref = outcome(dfs_oracle_counts, g, h, p, budget)
            assert outcome(_oracle_counts, g, h, p, budget) == ref
            if ref is not BudgetError:
                # the budget bounds the walk pairs over all depths, exactly
                assert _oracle_counts(g, h, p, sum(ref)) == ref
                with pytest.raises(BudgetError):
                    _oracle_counts(g, h, p, sum(ref) - 1)

    def test_walk_longer_than_the_recursion_limit(self):
        p = 2000
        assert p > sys.getrecursionlimit()
        assert rwk_oracle(path_graph(2), path_graph(2), p) == 4
        with pytest.raises(RecursionError):
            dfs_oracle_counts(path_graph(2), path_graph(2), p, 10**7)

    def test_suites_largest_pair_holds_no_whole_level(self):
        # K5 x K5 is the kernel-oracle suite's largest pair: 1,747,625 walk pairs
        # over p = 0..4, 1,638,400 of them at the last level (13 MB per int64 array)
        k5 = complete_graph(5)
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            counts = _oracle_counts(k5, k5, 4, 10**7)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert counts == [25 * 16 ** q for q in range(5)]
        # Measured with numpy 2.4: the enumeration peaks at 0.82 MB.
        assert peak < 2 * 2**20


    def test_budget_holds_the_counted_last_level(self):
        # the last level is counted from its parents' degrees, never built, and
        # still counts against the budget
        k5 = complete_graph(5)
        counts = _oracle_counts(k5, k5, 4, 10**7)
        assert counts[4] == 1_638_400
        assert _oracle_counts(k5, k5, 4, sum(counts)) == counts
        with pytest.raises(BudgetError):
            _oracle_counts(k5, k5, 4, sum(counts) - 1)


class TestFeatureWeightedKernel:
    def test_unit_features_reduce_to_walk_counts(self):
        g = cycle_graph(4).with_features(np.ones((4, 1)))
        h = path_graph(3).with_features(np.ones((3, 1)))
        for p in (0, 1, 2, 3):
            assert rwk_diff(g, h, p) == pytest.approx(rwk_oracle(g, h, p))

    def test_zero_features(self):
        g = cycle_graph(3).with_features(np.zeros((3, 2)))
        h = cycle_graph(3).with_features(np.random.default_rng(0).normal(size=(3, 2)))
        assert rwk_diff(g, h, 2) == 0.0

    def test_zero_steps_closed_form(self):
        rng = np.random.default_rng(1)
        g = path_graph(3).with_features(rng.normal(size=(3, 2)))
        h = path_graph(2).with_features(rng.normal(size=(2, 2)))
        expected = sum((g.features[u] @ h.features[v]) ** 2
                       for u in range(3) for v in range(2))
        assert rwk_diff(g, h, 0) == pytest.approx(expected, rel=1e-12)

    def test_dim_mismatch(self):
        g = path_graph(2).with_features(np.ones((2, 2)))
        h = path_graph(2).with_features(np.ones((2, 3)))
        with pytest.raises(ValueError):
            rwk_diff(g, h, 1)

    @pytest.mark.parametrize("seed", range(6))
    def test_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        g = random_subgraph(rng, 5, 3)
        h = random_subgraph(rng, 4, 3)
        for p in (1, 2, 3):
            assert rwk_diff(g, h, p) == pytest.approx(rwk_diff(h, g, p), rel=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        g = random_subgraph(rng, 5, 2)
        h = random_subgraph(rng, 4, 2)
        gp = relabel(g, rng.permutation(5))
        for p in (1, 2, 3):
            assert rwk_diff(gp, h, p) == pytest.approx(rwk_diff(g, h, p), rel=1e-10)

    @pytest.mark.parametrize("seed", range(6))
    def test_edge_addition_monotone_for_nonneg_features(self, seed):
        rng = np.random.default_rng(seed)
        n = 5
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.4]
        missing = [(i, j) for i in range(n) for j in range(i + 1, n)
                   if (i, j) not in edges]
        if not missing:
            return
        feats = rng.random((n, 2))
        g = Graph.from_edges(n, edges, features=feats)
        g2 = Graph.from_edges(n, edges + [missing[0]], features=feats)
        h = cycle_graph(3).with_features(rng.random((3, 2)))
        for p in (1, 2, 3):
            assert rwk_diff(g2, h, p) >= rwk_diff(g, h, p) - 1e-12


class TestHiddenKernel:
    def test_zero_hidden_features(self):
        rng = np.random.default_rng(0)
        sub = random_subgraph(rng, 4, 3)
        hg = HiddenGraph(W=rng.random((3, 3)), Z=np.zeros((3, 3)))
        assert rwk_hidden(sub, hg, 2) == 0.0

    def test_single_node_hidden_graph(self):
        rng = np.random.default_rng(0)
        sub = random_subgraph(rng, 4, 2)
        hg = HiddenGraph(W=np.zeros((1, 1)), Z=rng.normal(size=(1, 2)))
        for p in (1, 2, 3):
            assert rwk_hidden(sub, hg, p) == 0.0

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_materialized_graph(self, seed):
        rng = np.random.default_rng(seed)
        sub = random_subgraph(rng, int(rng.integers(2, 5)), 3)
        s = int(rng.integers(2, 4))
        w01 = np.triu((rng.random((s, s)) < 0.6).astype(float), 1)
        hg = HiddenGraph(W=w01 + w01.T, Z=rng.normal(size=(s, 3)))
        for p in (1, 2, 3):
            a = rwk_hidden(sub, hg, p)
            b = rwk_diff(sub, hg.as_graph(), p)
            assert a == pytest.approx(b, rel=1e-10, abs=1e-12)

    def test_effective_adjacency_properties(self):
        hg = HiddenGraph(W=np.array([[5.0, -1.0], [3.0, 2.0]]), Z=np.zeros((2, 1)))
        r = hg.effective_adjacency()
        assert np.allclose(r, r.T)
        assert np.all(np.diag(r) == 0)
        assert np.all(r >= 0)
        assert r[0, 1] == 1.0  # relu((−1+3)/2)


class TestHiddenGradients:
    @pytest.mark.parametrize("seed, n, s", [(seed, 5, 3) for seed in range(5)]
                             + [(5, 1, 3), (6, 5, 1)],
                             ids=[*map(str, range(5)), "one-node-subgraph", "one-node-hidden"])
    def test_finite_differences(self, seed, n, s):
        rng = np.random.default_rng(seed)
        sub = random_subgraph(rng, n, 2)
        hg = HiddenGraph(W=rng.normal(size=(s, s)), Z=rng.normal(size=(s, 2)))
        p = int(rng.integers(1, 4))
        ref = rwk_hidden_grad(sub, hg, p)
        assert ref.value == pytest.approx(rwk_hidden(sub, hg, p), rel=1e-12)
        h = 1e-6
        for arr, grad in ((hg.W, ref.d_W), (hg.Z, ref.d_Z)):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                ix = it.multi_index
                orig = arr[ix]
                arr[ix] = orig + h
                kp = rwk_hidden(sub, hg, p)
                arr[ix] = orig - h
                km = rwk_hidden(sub, hg, p)
                arr[ix] = orig
                num = (kp - km) / (2 * h)
                assert grad[ix] == pytest.approx(num, rel=1e-5, abs=1e-7)

    def test_zero_features_flat_in_w(self):
        rng = np.random.default_rng(3)
        sub = random_subgraph(rng, 4, 2)
        hg = HiddenGraph(W=rng.normal(size=(3, 3)), Z=np.zeros((3, 2)))
        g = rwk_hidden_grad(sub, hg, 2)
        assert g.value == 0.0
        assert np.all(g.d_W == 0)
        assert np.all(np.isfinite(g.d_Z))

    def test_negative_weights_flat(self):
        rng = np.random.default_rng(4)
        sub = random_subgraph(rng, 4, 2)
        hg = HiddenGraph(W=-1.0 - rng.random((3, 3)), Z=rng.normal(size=(3, 2)))
        assert np.all(rwk_hidden_grad(sub, hg, 3).d_W == 0)

    def test_graph_without_nodes_has_value_and_gradients_zero(self):
        g = Graph.from_edges(0, [], features=np.zeros((0, 3)))
        rng = np.random.default_rng(6)
        hg = HiddenGraph(W=rng.normal(size=(4, 4)), Z=rng.normal(size=(4, 3)))
        assert rwk_hidden(g, hg, 2) == 0.0
        got = rwk_hidden_grad(g, hg, 2)
        assert got.value == 0.0
        assert got.d_W.shape == (4, 4) and not got.d_W.any()
        assert got.d_Z.shape == (4, 3) and not got.d_Z.any()

    def test_step_zero_is_refused(self):
        rng = np.random.default_rng(5)
        sub = random_subgraph(rng, 4, 2)
        hg = HiddenGraph(W=rng.normal(size=(3, 3)), Z=rng.normal(size=(3, 2)))
        with pytest.raises(ValueError, match="p must be >= 1"):
            rwk_hidden_grad(sub, hg, 0)

    @staticmethod
    def moment_order_grad(group, basis, basis_rows, hidden, p):
        """(value, dW, dZ) of the step-p kernel by the engine's moment order."""
        w, z = hidden.W[None], hidden.Z[None]
        r_pows = _rectified_powers(w, p)
        moments = group_moments(group.adj, basis, p)
        vals, rz = _moment_forward(z, r_pows, moments, basis_rows)
        dvals = np.zeros(vals.shape)
        dvals[..., -1] = 1.0
        d_z, d_rq = _moment_backward(z, moments, dvals, rz, basis_rows)
        return vals[0, 0, -1], _weight_backward(w, r_pows, d_rq)[0], d_z[0]

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_the_moment_order_on_a_one_row_group(self, seed):
        # fewer distinct feature rows than features, so the group's own basis is
        # the class basis; the moments are also taken in the identity basis
        rng = np.random.default_rng(seed)
        n, s, f, p = (int(rng.integers(lo, hi)) for lo, hi in ((1, 9), (2, 6), (2, 6), (1, 5)))
        rows = rng.normal(size=(int(rng.integers(1, f)), f))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
        g = Graph.from_edges(n, edges, features=rows[rng.integers(0, len(rows), n)])
        group = build_group(g, Records.from_lists([list(range(n))]), [0])
        assert len(group.basis_rows) < f
        hg = HiddenGraph(W=rng.uniform(-0.5, 1.0, (s, s)), Z=rng.normal(size=(s, f)))
        ref = rwk_hidden_grad(g, hg, p)
        want = (ref.value, ref.d_W, ref.d_Z)
        for basis, basis_rows in ((slot_basis(group), group.basis_rows), (group.feats, np.eye(f))):
            got = self.moment_order_grad(group, basis, basis_rows, hg, p)
            for a, b in zip(got, want):
                assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()


class TestExpertEmbed:
    def test_identity_transform_single_p(self):
        rng = np.random.default_rng(0)
        sub = random_subgraph(rng, 4, 2)
        hg = HiddenGraph(W=rng.random((3, 3)), Z=rng.normal(size=(3, 2)))
        cfg = KernelConfig(2, step_mode="single-p")
        out = expert_embed(sub, [hg], cfg, lambda x: x)
        assert out.shape == (1,)
        assert out[0] == pytest.approx(rwk_hidden(sub, hg, 2), rel=1e-12)

    def test_permuting_subgraph_nodes_keeps_output(self):
        rng = np.random.default_rng(1)
        n = 5
        g = random_subgraph(rng, n, 2)
        perm = rng.permutation(n)
        hgs = [HiddenGraph(W=rng.random((3, 3)), Z=rng.normal(size=(3, 2)))
               for _ in range(2)]
        cfg = KernelConfig(3)
        a = expert_embed(g, hgs, cfg, lambda x: x)
        gp = relabel(g, perm)
        order = list(np.argsort(perm))
        b = expert_embed(induced_subgraph(gp, [int(perm[i]) for i in range(n)]),
                         hgs, cfg, lambda x: x)
        assert np.allclose(a, b, rtol=1e-10)

    def test_concat_width(self):
        rng = np.random.default_rng(2)
        sub = random_subgraph(rng, 4, 2)
        hgs = [HiddenGraph(W=rng.random((2, 2)), Z=rng.normal(size=(2, 2)))
               for _ in range(4)]
        cfg = KernelConfig(3, step_mode="concat-over-p")
        assert kernel_features(sub, hgs, cfg).shape == (12,)

    def test_mixed_sizes_rejected(self):
        rng = np.random.default_rng(3)
        sub = random_subgraph(rng, 4, 2)
        hgs = [HiddenGraph(W=rng.random((2, 2)), Z=rng.normal(size=(2, 2))),
               HiddenGraph(W=rng.random((3, 3)), Z=rng.normal(size=(3, 2)))]
        with pytest.raises(ValueError):
            expert_embed(sub, hgs, KernelConfig(2), lambda x: x)


class TestSerialization:
    def test_dot_export_prunes(self):
        w = np.array([[0.0, 2.0, 0.005], [2.0, 0.0, 0.0], [0.005, 0.0, 0.0]])
        dot = hidden_graph_to_dot(HiddenGraph(W=w, Z=np.zeros((3, 1))))
        assert "n0 -- n1" in dot
        assert "n0 -- n2" not in dot  # below the default threshold

    def test_dot_export_empty_graph(self):
        dot = hidden_graph_to_dot(HiddenGraph(W=-np.ones((2, 2)), Z=np.zeros((2, 1))))
        assert dot.startswith("graph")
        assert "n0;" in dot and "n1;" in dot
        assert "--" not in dot
