import numpy as np
import pytest

import mose.verify
import mose.wl
from mose.graph import (Graph, complete_graph, cycle_graph, disjoint_union,
                        path_graph, relabel, star_graph)
from mose.kernel import KernelConfig
from mose.moe import ModelConfig, new_model
from mose.util import BudgetError
from mose.verify import wl_suite
from mose.wl import (AnonymousWalkPolicy, EgoPolicy, all_nonisomorphic_graphs,
                     are_isomorphic, canonical_form, distinguish, graph_corpus,
                     lemma1_check, mose_distinguish, same_size_pairs, swl_refine,
                     swl_refine_many, wl1_refine, wl1_refine_many)

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


@pytest.fixture(scope="module")
def counted_wl_suite():
    """A two-init wl suite run with canonical_form counted where it is looked up."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return canonical_form(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mose.wl, "canonical_form", counted)
        mp.setattr(mose.verify, "canonical_form", counted)
        rep = wl_suite(inits=2, required=2)
    return rep, calls


class TestWlSuite:
    def test_all_cases_pass(self, counted_wl_suite):
        rep, _ = counted_wl_suite
        assert len(rep.cases) == 3
        assert rep.ok, rep.lines()

    def test_canonicalizes_only_graphs_of_the_witness_size(self, counted_wl_suite):
        _, calls = counted_wl_suite
        same_size = sum(1 for g in graph_corpus(6)
                        if (g.node_count, g.edge_count) == (6, 6))
        assert len(calls) <= 2 + same_size
