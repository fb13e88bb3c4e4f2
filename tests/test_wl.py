import sys
import warnings
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mose.verify
import mose.walks as walks
import mose.wl
from mose.graph import (Graph, complete_graph, cycle_graph, degree_features,
                        disjoint_union, path_graph, relabel, star_graph)
from mose.kernel import KernelConfig
from mose.moe import ModelConfig, build_group, group_forward, new_model, pool_rows
from mose.util import BudgetError
from mose.verify import wl_suite
from mose.walks import Records, enumerate_anonymous_walks, top_patterns
from mose.wl import (AnonymousWalkPolicy, EgoPolicy, all_nonisomorphic_graphs,
                     are_isomorphic, canonical_form, distinguish, embed_graph,
                     embed_group, graph_corpus, lemma1_check, mose_distinguish,
                     same_size_pairs, swl_refine, swl_refine_many, wl1_refine,
                     wl1_refine_many)
import reference

C6 = cycle_graph(6)
TRI2 = disjoint_union(cycle_graph(3), cycle_graph(3))


class TestWl1:
    @pytest.mark.parametrize("g", [cycle_graph(5), complete_graph(4),
                                   disjoint_union(cycle_graph(3), cycle_graph(3))])
    def test_regular_graph_single_class_one_round(self, g):
        col = wl1_refine(g)
        assert col.class_count() == 1
        assert col.rounds == 1

    def test_star_two_classes(self):
        assert wl1_refine(star_graph(3)).class_count() == 2

    def test_p4_endpoints_vs_midpoints(self):
        col = wl1_refine(path_graph(4))
        assert col.class_count() == 2
        assert col.colors[0] == col.colors[3]
        assert col.colors[1] == col.colors[2]
        assert col.colors[0] != col.colors[1]

    def test_monotone_and_bounded_rounds(self):
        for g in (path_graph(7), star_graph(5), cycle_graph(8)):
            col = wl1_refine(g)
            assert col.rounds <= g.node_count
            assert col.class_count() >= 1

    def test_respects_initial_colors(self):
        g = cycle_graph(4)
        col = wl1_refine(g, init=np.array([0, 1, 0, 1]))
        assert col.class_count() == 2

    def test_isomorphism_invariance(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 4)])
        h = relabel(g, [3, 5, 0, 2, 4, 1])
        a, b = wl1_refine_many([g, h])
        assert a.histogram == b.histogram


class TestSwl:
    def test_c6_vs_triangles_separated(self):
        assert distinguish(C6, TRI2, "swl")
        assert not distinguish(C6, TRI2, "wl1")

    def test_vertex_transitive_single_class(self):
        for g in (cycle_graph(5), complete_graph(4)):
            assert swl_refine(g, EgoPolicy(1)).class_count() == 1

    def test_isomorphic_pair_not_distinguished(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 2)])
        h = relabel(g, [4, 2, 0, 1, 3])
        assert not distinguish(g, h, "wl1")
        assert not distinguish(g, h, "swl")

    def test_subgraph_cap_enforced(self):
        with pytest.raises(BudgetError):
            swl_refine(star_graph(9), EgoPolicy(1))

    def test_ego_policy_sets(self):
        sets = EgoPolicy(1).node_sets(path_graph(3))
        assert sets[0] == [0, 1]
        assert sorted(sets[1]) == [0, 1, 2]

    def test_walk_policy_deterministic_and_centered(self):
        pol = AnonymousWalkPolicy(length=3, pattern_budget=3)
        a = pol.node_sets(C6)
        b = pol.node_sets(C6)
        assert a == b
        for v, nodes in enumerate(a):
            assert nodes[0] == v

    def test_walk_policy_distinguishes_triangles(self):
        assert distinguish(C6, TRI2, "swl", AnonymousWalkPolicy(3, 4))


@st.composite
def colored_graphs(draw):
    """A graph of at most 7 nodes, so every ego set fits the canonical-form cap,
    with initial colors from three values."""
    n = draw(st.integers(1, 7))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    colors = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    return Graph.from_edges(n, [e for e, k in zip(pairs, keep) if k]), colors


def same_colorings(got, want):
    return len(got) == len(want) and all(
        np.array_equal(a.colors, b.colors) and a.histogram == b.histogram
        and a.rounds == b.rounds for a, b in zip(got, want))


class TestSwlMemo:
    """The memoized subgraph-hash round against the round that searches every
    node's subgraph afresh (tests/reference.py)."""

    def test_matches_fresh_searches_on_the_small_corpus(self):
        corpus = graph_corpus(5)
        assert same_colorings(swl_refine_many(corpus, EgoPolicy(1)),
                              reference.swl_refine_many(corpus, EgoPolicy(1)))

    @given(st.lists(colored_graphs(), min_size=1, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_matches_fresh_searches_with_initial_colors(self, cases):
        graphs = [g for g, _ in cases]
        inits = [colors for _, colors in cases]
        assert same_colorings(swl_refine_many(graphs, EgoPolicy(1), inits),
                              reference.swl_refine_many(graphs, EgoPolicy(1), inits))

    def test_holds_nothing_between_calls(self, monkeypatch):
        real, calls = mose.wl._canonical_raw, []
        monkeypatch.setattr(mose.wl, "_canonical_raw",
                            lambda *args: calls.append(args) or real(*args))
        g, h = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (1, 4)]), cycle_graph(5)
        runs = []
        for x in (g, h, g):
            calls.clear()
            runs.append((swl_refine_many([x], EgoPolicy(1)), len(calls)))
        # a memo kept between calls would leave the second g nothing to search
        assert runs[2][1] == runs[0][1] > 0
        for x, (got, _) in zip((g, h, g), runs):
            assert same_colorings(got, reference.swl_refine_many([x], EgoPolicy(1)))


def dfs_walk_node_sets(policy: AnonymousWalkPolicy, g: Graph) -> list[list[int]]:
    """Reference walk-policy node sets: a recursive depth-first walk per node."""
    counts = Counter()
    for v in range(g.node_count):
        counts.update(enumerate_anonymous_walks(g, v, policy.length, policy.budget))
    selected = set(top_patterns(counts, policy.pattern_budget)) if counts else set()
    nbrs = [tuple(int(x) for x in g.neighbors_of(u)) for u in range(g.node_count)]
    out = []
    for v in range(g.node_count):
        seen = {v}

        def visit(u, depth, first, pattern):
            if depth == policy.length:
                if tuple(pattern) in selected:
                    seen.update(first)
                return
            for w in nbrs[u]:
                fresh = w not in first
                if fresh:
                    first[w] = len(first)
                pattern.append(first[w])
                visit(w, depth + 1, first, pattern)
                pattern.pop()
                if fresh:
                    del first[w]

        if g.offsets[v] != g.offsets[v + 1]:
            visit(v, 0, {v: 0}, [0])
        out.append(sorted(seen, key=lambda w: (w != v, w)))
    return out


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 9))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [e for e, k in zip(pairs, keep) if k])


class TestWalkPolicyNodeSets:
    """Node sets read from the enumeration's completed walks, against the reference."""

    @given(small_graphs(), st.integers(0, 6), st.integers(1, 6),
           st.sampled_from([64, walks._BLOCK]))
    @example(Graph.from_edges(3, [(1, 2)]), 2, 4, 64)     # isolated node
    @example(Graph.from_edges(1, []), 0, 1, 64)           # 1-node graph, length 0
    @example(path_graph(9), 6, 2, 64)
    @settings(max_examples=150, deadline=None)
    def test_matches_reference(self, g, length, pattern_budget, block):
        pol = AnonymousWalkPolicy(length, pattern_budget)
        with mock.patch.object(walks, "_BLOCK", block):   # walks span many blocks
            got = pol.node_sets(g)
        assert got == dfs_walk_node_sets(pol, g)

    def test_byte_row_keys_match_reference(self):
        g, pol = path_graph(3), AnonymousWalkPolicy(length=33, pattern_budget=3)
        assert walks._label_bits(g, 33) * 33 > 64      # past one uint64 word
        assert pol.node_sets(g) == dfs_walk_node_sets(pol, g)

    def test_walk_longer_than_the_recursion_limit(self):
        pol = AnonymousWalkPolicy(length=1500)
        assert pol.length > sys.getrecursionlimit()
        assert pol.node_sets(path_graph(2)) == [[0, 1], [1, 0]]


class TestCanonicalForm:
    def test_invariant_under_relabeling(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 3)])
        for seed in range(5):
            perm = np.random.default_rng(seed).permutation(6)
            assert canonical_form(relabel(g, perm)) == canonical_form(g)

    def test_distinguishes_nonisomorphic(self):
        assert canonical_form(path_graph(4)) != canonical_form(star_graph(3))

    def test_root_matters(self):
        p3 = path_graph(3)
        assert canonical_form(p3, root=0) == canonical_form(p3, root=2)
        assert canonical_form(p3, root=0) != canonical_form(p3, root=1)

    def test_colors_matter(self):
        g = path_graph(2)
        assert canonical_form(g, colors=[0, 0]) != canonical_form(g, colors=[0, 1])

    def test_cap(self):
        with pytest.raises(BudgetError):
            canonical_form(cycle_graph(9))

    def test_are_isomorphic(self):
        assert are_isomorphic(relabel(C6, [5, 3, 1, 0, 2, 4]), C6)
        assert not are_isomorphic(C6, TRI2)


class TestLemma1:
    def test_fully_separated_graph(self):
        g = path_graph(5)  # ego hashes split all orbits here
        assert lemma1_check(g)

    def test_c6_single_color_stays(self):
        assert lemma1_check(C6)

    def test_p4(self):
        assert lemma1_check(path_graph(4))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_small_corpus(self, n):
        for g in all_nonisomorphic_graphs(n):
            assert lemma1_check(g)


class TestCorpus:
    def test_counts_match_known_sequence(self):
        expected = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156}
        for n, count in expected.items():
            assert len(all_nonisomorphic_graphs(n)) == count

    def test_pairwise_nonisomorphic(self):
        graphs = all_nonisomorphic_graphs(4)
        for i in range(len(graphs)):
            for j in range(i + 1, len(graphs)):
                assert not are_isomorphic(graphs[i], graphs[j])

    def test_same_size_pairs(self):
        corpus = graph_corpus(3)  # 1 + 2 + 4 graphs
        pairs = same_size_pairs(corpus)
        assert len(pairs) == 1 + 6

    def test_swl_superset_on_small_corpus(self):
        corpus = graph_corpus(5)
        pairs = same_size_pairs(corpus)
        wl = wl1_refine_many(corpus)
        swl = swl_refine_many(corpus, EgoPolicy(1))
        for i, j in pairs:
            if wl[i].histogram != wl[j].histogram:
                assert swl[i].histogram != swl[j].histogram


class TestMoseDistinguish:
    def make_model(self, seed=0, max_degree=5):
        mcfg = ModelConfig(feature_dim=max_degree + 1, class_count=2, experts=3,
                           hidden_per_expert=4, embed_dim=16, k_ept=2)
        return new_model(mcfg, KernelConfig(max_step=3), seed=seed)

    def test_isomorphic_pair_equal_embeddings(self):
        model = self.make_model()
        g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 3)])
        h = relabel(g, [2, 4, 0, 5, 1, 3])
        assert not mose_distinguish(g, h, model)

    def test_c6_vs_triangles(self):
        hits = sum(mose_distinguish(C6, TRI2, self.make_model(seed=s))
                   for s in range(5))
        assert hits == 5

    def test_random_nonregular_pair(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
        h = Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5)])
        assert mose_distinguish(g, h, self.make_model(seed=1))


class TestEmbedGroup:
    def test_segments_of_a_union_group_embed_each_graph(self):
        corpus = graph_corpus(5)
        mcfg = ModelConfig(feature_dim=5, class_count=2, experts=3,
                           hidden_per_expert=4, embed_dim=16, k_ept=2)
        model = new_model(mcfg, KernelConfig(max_step=3), seed=3)
        union = disjoint_union(*corpus)
        union = union.with_features(degree_features(union, 4))
        group = build_group(union, Records.from_lists(EgoPolicy(1).node_sets(union)),
                            range(union.node_count))
        starts = np.cumsum([0] + [g.node_count for g in corpus[:-1]])
        got = embed_group(model, group, starts)
        want = np.stack([embed_graph(model, g, EgoPolicy(1).node_sets(g)) for g in corpus])
        assert got.shape == want.shape
        # only the padding and the batch of the engine's products differ
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_one_segment_is_the_whole_group_readout(self):
        mcfg = ModelConfig(feature_dim=4, class_count=2, experts=3,
                           hidden_per_expert=4, embed_dim=16, k_ept=2, readout_mode="max")
        model = new_model(mcfg, KernelConfig(max_step=3), seed=5)
        g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 3)])
        g = g.with_features(degree_features(g, 3))
        group = build_group(g, Records.from_lists(EgoPolicy(1).node_sets(g)), range(6))
        whole = pool_rows(group_forward(model, group).h, "max")[0][0]
        assert np.array_equal(embed_group(model, group, [0])[0], whole)

    @pytest.mark.parametrize("mode", ["mean", "sum", "max"])
    def test_readouts_are_pool_rows_of_each_graph_bit_for_bit(self, mode):
        # graphs of 1-5 nodes in corpus order, sizes interleaved, so each
        # size's graphs are read out from rows scattered over the group
        corpus = graph_corpus(5)
        corpus = corpus[::2] + corpus[1::2]
        mcfg = ModelConfig(feature_dim=5, class_count=2, experts=3, hidden_per_expert=4,
                           embed_dim=16, k_ept=2, readout_mode=mode)
        model = new_model(mcfg, KernelConfig(max_step=3), seed=3)
        union = disjoint_union(*corpus)
        union = union.with_features(degree_features(union, 4))
        group = build_group(union, Records.from_lists(EgoPolicy(1).node_sets(union)),
                            range(union.node_count))
        bounds = np.cumsum([0] + [g.node_count for g in corpus])
        h = group_forward(model, group).h
        want = np.concatenate([pool_rows(h[a:b], mode)[0] for a, b in zip(bounds, bounds[1:])])
        assert np.array_equal(embed_group(model, group, bounds[:-1]), want)

    @pytest.mark.parametrize("mode", ["mean", "sum", "max"])
    @settings(max_examples=30, deadline=None)
    @given(rows=st.lists(st.integers(1, 7), min_size=1, max_size=12), seed=st.integers(0, 99))
    def test_ties_and_signed_zeros_read_out_as_pool_rows(self, mode, rows, seed):
        # rows of few values, zeros of both signs among them, so maxima tie
        rng = np.random.default_rng(seed)
        h = rng.choice([-1.0, -0.0, 0.0, 0.5, 2.0], size=(sum(rows), 3))
        bounds = np.cumsum([0] + rows)
        mcfg = ModelConfig(feature_dim=1, class_count=2, readout_mode=mode)
        model = new_model(mcfg, KernelConfig(max_step=1), seed=0)
        with mock.patch.object(mose.wl, "group_forward", return_value=mock.Mock(h=h)):
            got = embed_group(model, None, bounds[:-1])
        want = np.concatenate([pool_rows(h[a:b], mode)[0] for a, b in zip(bounds, bounds[1:])])
        assert got.tobytes() == want.tobytes()

    def test_a_graph_without_rows_is_refused(self):
        mcfg = ModelConfig(feature_dim=1, class_count=2)
        model = new_model(mcfg, KernelConfig(max_step=1), seed=0)
        with mock.patch.object(mose.wl, "group_forward", return_value=mock.Mock(h=np.ones((4, 2)))):
            with pytest.raises(ValueError, match="graph 1 has no rows"):
                embed_group(model, None, [0, 2, 2])

    def test_a_graph_without_nodes_has_no_plan(self):
        # the plan builder refuses no records before numpy reduces an empty array
        model = new_model(ModelConfig(feature_dim=3, class_count=2), KernelConfig(max_step=2),
                          seed=0)
        empty = Graph.from_edges(0, [])
        with pytest.raises(ValueError, match="^the plan has no records$"):
            mose_distinguish(empty, cycle_graph(3), model)
        with pytest.raises(ValueError, match="^the plan has no records$"):
            embed_graph(model, empty, [])


@pytest.fixture(scope="module")
def counted_wl_suite():
    """A two-init wl suite run with canonical_form counted where it is looked up,
    and every canonical search (``_canonical_raw``) recorded with its arguments."""
    calls, searches = [], []
    real_search = mose.wl._canonical_raw

    def counted(*args, **kwargs):
        calls.append(args[0])
        return canonical_form(*args, **kwargs)

    def recorded(n, adj, keys):
        searches.append((tuple(adj), tuple(keys)))
        return real_search(n, adj, keys)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mose.wl, "canonical_form", counted)
        mp.setattr(mose.verify, "canonical_form", counted)
        mp.setattr(mose.wl, "_canonical_raw", recorded)
        rep = wl_suite(inits=2, required=2)
    return rep, calls, searches


class TestWlSuite:
    def test_all_cases_pass(self, counted_wl_suite):
        rep, _, _ = counted_wl_suite
        assert len(rep.cases) == 3
        assert rep.ok, rep.lines()

    def test_canonicalizes_only_graphs_of_the_witness_size(self, counted_wl_suite):
        _, calls, _ = counted_wl_suite
        same_size = sum(1 for g in graph_corpus(6)
                        if (g.node_count, g.edge_count) == (6, 6))
        assert len(calls) <= 2 + same_size
        # of those, only the two 2-regular graphs share the targets' degrees
        two_regular = sum(1 for g in graph_corpus(6) if g.degrees.tolist() == [2] * 6)
        assert len(calls) == 2 + two_regular == 4

    def test_searches_each_rooted_signature_once(self, counted_wl_suite):
        # the refinement's searches carry a root key (0, color); canonical_form's
        # unrooted ones are counted above
        _, _, searches = counted_wl_suite
        rooted = [s for s in searches if any(key[0] == 0 for key in s[1])]
        assert rooted and len(rooted) == len(set(rooted))


def reference_separated(a, b, tol=1e-8):
    with np.errstate(all="ignore"):
        return np.abs(a - b).max(axis=1) > tol


SPECIAL = [0.0, 1e-8, -1e-8, 2e-8, 1.0, -1.0, 1e308, -1e308,
           np.nan, np.inf, -np.inf]


class TestSeparated:
    """``verify._separated`` against the full-row max-norm check, row for row."""

    @given(st.integers(1, 6).flatmap(lambda k: st.tuples(
        st.lists(st.lists(st.sampled_from(SPECIAL) | st.floats(-2.0, 2.0), min_size=3,
                          max_size=3), min_size=k, max_size=k),
        st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)), max_size=12))))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_max_norm_check(self, case):
        rows, pairs = case
        embeds = np.array(rows)
        first, second = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = mose.verify._separated(embeds, first, second)
        assert got.tolist() == reference_separated(embeds[first], embeds[second]).tolist()

    def test_special_rows(self):
        nan, inf = np.nan, np.inf
        embeds = np.array([
            [0.0, 0.0, 0.0],
            [1e-8, 0.0, 0.0],       # first coordinate exactly tol away: undecided
            [1e-8, 1e-8, 0.0],      # every coordinate exactly tol away: not separated
            [1e-8, 2e-8, 0.0],      # decided by a later coordinate
            [1.0, nan, 0.0],        # a NaN difference anywhere: not separated
            [inf, 0.0, 0.0],
            [inf, 1.0, 0.0],        # inf - inf is NaN: not separated
            [-inf, 0.0, 0.0],
            [nan, 0.0, 0.0]])
        first = np.array([0, 0, 0, 0, 0, 5, 5, 7, 8, 8])
        second = np.array([1, 2, 3, 4, 5, 6, 7, 0, 0, 8])
        want = [False, False, True, False, True, False, True, True, False, False]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = mose.verify._separated(embeds, first, second)
        assert got.tolist() == want
        assert reference_separated(embeds[first], embeds[second]).tolist() == want
