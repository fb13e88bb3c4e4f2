import hashlib
import sys
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mose import walks
from mose.datasets import gen_graph_cycle, gen_graph_five
from mose.graph import (Graph, complete_graph, cycle_graph, disjoint_union, induced_subgraph,
                        path_graph, star_graph)
from mose.util import BudgetError, FormatError, substream
from mose.walks import (CACHE_MAGIC, Records, WalkConfig, _anonymize, _label_bits, _pack,
                        _pattern_table, _replay_bounded, _uint32_stream, _unpack, _v_lines, _walks_from_words,
                        enumerate_anonymous_walks,
                        extract_dataset, extract_subgraph, load_cache, sample_walks,
                        save_cache, to_anonymous, top_patterns,
                        walk_distributions_distinguish)
from mose.wl import AnonymousWalkPolicy
from reference import cache_text, sample_walks_by_array


HEADER = "dataset=t seed=0 walk_length=4 walks_per_node=5 pattern_budget=3 cap=8\n"


def cfg(**kw):
    base = dict(walk_length=4, walks_per_node=5, pattern_budget=3,
                subgraph_cap=64, seed=0)
    base.update(kw)
    return WalkConfig(**base)


class TestSampleWalks:
    def test_isolated_node_yields_nothing(self):
        g = Graph.from_edges(3, [(1, 2)])
        assert sample_walks(g, 0, cfg(), substream(0, 1)) == []

    def test_p2_walk_is_forced(self):
        for w in sample_walks(path_graph(2), 0, cfg(walk_length=3), substream(0, 2)):
            assert w == (0, 1, 0, 1)

    def test_walk_shape_and_adjacency(self):
        g = cycle_graph(5)
        for w in sample_walks(g, 2, cfg(walk_length=6), substream(0, 3)):
            assert len(w) == 7 and w[0] == 2
            for a, b in zip(w, w[1:]):
                assert b in g.neighbors_of(a)

    def test_triangle_walk_frequencies_uniform(self):
        # two uniform binary choices per walk: each of 4 walks has mass 1/4
        walks = sample_walks(cycle_graph(3), 0,
                             cfg(walk_length=2, walks_per_node=1000),
                             substream(7, 4))
        freq = Counter(walks)
        assert set(freq) == {(0, 1, 0), (0, 1, 2), (0, 2, 0), (0, 2, 1)}
        for count in freq.values():
            assert abs(count / 1000 - 0.25) < 0.05

    def test_deterministic_under_seed(self):
        g = cycle_graph(6)
        a = sample_walks(g, 1, cfg(), substream(3, 9))
        b = sample_walks(g, 1, cfg(), substream(3, 9))
        assert a == b


    @pytest.mark.parametrize("walks_per_node", [1, 2, 5, 17])
    def test_scalar_draws_match_one_array_call_per_step(self, walks_per_node):
        # the walks and the stream left behind equal those of one
        # rng.integers(0, degrees) call per step, on graphs whose leaves (degree
        # 1) draw from a range of one and starts that are leaves themselves
        rng = np.random.default_rng(walks_per_node)
        graphs = [path_graph(4), star_graph(5), cycle_graph(5)]
        for n in rng.integers(2, 12, size=12):
            parents = [int(rng.integers(0, i)) for i in range(1, n)]
            graphs.append(Graph.from_edges(int(n), list(enumerate(parents, start=1))))
        for i, g in enumerate(graphs):
            assert g.degrees.min() == 1 or g is graphs[2]
            for v in range(g.node_count):
                c = cfg(walk_length=int(rng.integers(1, 8)), walks_per_node=walks_per_node)
                ours, theirs = substream(i, v), substream(i, v)
                assert sample_walks(g, v, c, ours) == sample_walks_by_array(g, v, c, theirs)
                assert ours.integers(0, 2**62) == theirs.integers(0, 2**62)


class TestToAnonymous:
    def test_examples(self):
        assert to_anonymous((7, 2, 7, 9)) == (0, 1, 0, 2)
        assert to_anonymous((4, 8, 1, 4)) == (0, 1, 2, 0)
        assert to_anonymous((5,)) == (0,)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            to_anonymous(())

    @given(st.lists(st.integers(0, 20), min_size=1, max_size=12),
           st.permutations(list(range(21))))
    @settings(max_examples=300, deadline=None)
    def test_relabeling_invariance_and_validity(self, walk, perm):
        pat = to_anonymous(tuple(walk))
        assert pat == to_anonymous(tuple(perm[x] for x in walk))
        assert pat[0] == 0
        running_max = 0
        for x in pat[1:]:
            assert 0 <= x <= running_max + 1
            running_max = max(running_max, x)
        assert len(pat) == len(walk)

    @given(st.integers(1, 9).flatmap(lambda length: hnp.arrays(
        np.int64, st.tuples(st.integers(0, 30), st.just(length + 1)),
        elements=st.integers(0, 4))))
    @settings(max_examples=200, deadline=None)
    def test_array_pass_labels_each_row_as_to_anonymous(self, walks_):
        # five node ids over 2-10 steps: most rows revisit a node
        want = [list(to_anonymous(tuple(w))) for w in walks_.tolist()]
        assert _anonymize(walks_).tolist() == want


# an id of 1 to 10 digits, of either sign, within int32
ids_of_any_width = st.integers(1, 10).flatmap(lambda d: st.integers(
    10 ** (d - 1) if d > 1 else 0, min(10 ** d - 1, 2**31 - 1))).flatmap(
    lambda v: st.sampled_from([v, -v]) if v else st.just(0))


class TestVLines:
    @given(st.lists(st.lists(ids_of_any_width, max_size=5), max_size=8))
    @example([[], [], [0]])
    @example([[-2**31, 2**31 - 1, 5]])
    @settings(max_examples=200, deadline=None)
    def test_byte_pass_equals_the_per_record_join(self, lists):
        want = "".join("v " + " ".join(map(str, ids)) + "\n" for ids in lists)
        assert _v_lines(Records.from_lists(lists)) == want


class TestTopPatterns:
    def test_tie_breaks_lexicographically(self):
        counts = Counter({(0, 1, 0): 5, (0, 1, 2): 5, (0, 1, 0, 1): 3})
        assert top_patterns(counts, 2) == [(0, 1, 0), (0, 1, 2)]

    def test_budget_above_distinct_count(self):
        counts = Counter({(0, 1): 2, (0, 1, 0): 1})
        assert top_patterns(counts, 10) == [(0, 1), (0, 1, 0)]

    def test_single_winner(self):
        counts = Counter({(0, 1, 2): 9, (0, 1, 0): 1})
        assert top_patterns(counts, 1) == [(0, 1, 2)]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            top_patterns(Counter(), 2)


class TestExtractSubgraph:
    def test_no_match_falls_back_to_singleton(self):
        g = cycle_graph(4)
        walks = [(0, 1, 2, 3)]
        assert extract_subgraph(g, 0, walks, {(0, 0, 0, 0)}) == [0]

    def test_p2_collects_both_nodes(self):
        g = path_graph(2)
        walks = [(0, 1, 0, 1)]
        record = extract_subgraph(g, 0, walks, {(0, 1, 0, 1)})
        assert record == [0, 1]
        assert induced_subgraph(g, record).edge_count == 1

    def test_c4_full_walk_induces_whole_cycle(self):
        g = cycle_graph(4)
        record = extract_subgraph(g, 0, [(0, 1, 2, 3)], {(0, 1, 2, 3)})
        assert record == [0, 1, 2, 3]
        assert induced_subgraph(g, record).edge_count == 4  # induction restores the closing edge

    def test_cap_keeps_earliest_visits(self):
        g = path_graph(6)
        walks = [(0, 1, 2, 3, 4, 5)]
        assert extract_subgraph(g, 0, walks, {to_anonymous(walks[0])}, cap=3) == [0, 1, 2]

    def test_wrong_start_rejected(self):
        with pytest.raises(ValueError):
            extract_subgraph(path_graph(3), 0, [(1, 0)], {(0, 1)})

    def test_contains_center_and_connected(self):
        g = cycle_graph(8)
        rng = substream(5, 0)
        walks = sample_walks(g, 3, cfg(walk_length=5, walks_per_node=8), rng)
        pats = {to_anonymous(w) for w in walks}
        record = extract_subgraph(g, 3, walks, pats)
        assert record[0] == 3
        # connectivity via BFS over the induced subgraph
        sub = induced_subgraph(g, record)
        seen = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for u in frontier:
                for v in sub.neighbors_of(u):
                    if int(v) not in seen:
                        seen.add(int(v))
                        nxt.append(int(v))
            frontier = nxt
        assert seen == set(range(sub.node_count))


class TestEnumeration:
    def test_p2_single_pattern(self):
        assert enumerate_anonymous_walks(path_graph(2), 0, 2) == \
            Counter({(0, 1, 0): 1})

    def test_c3_two_step_patterns(self):
        assert enumerate_anonymous_walks(cycle_graph(3), 0, 2) == \
            Counter({(0, 1, 0): 2, (0, 1, 2): 2})

    def test_star_center_two_steps(self):
        assert enumerate_anonymous_walks(star_graph(3), 0, 2) == \
            Counter({(0, 1, 0): 3})

    @pytest.mark.parametrize("seed", range(8))
    def test_multiset_size_matches_power_row_sum(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 11))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.4]
        g = Graph.from_edges(n, edges)
        length = int(rng.integers(1, 6))
        v = int(rng.integers(0, n))
        counts = enumerate_anonymous_walks(g, v, length)
        a = np.linalg.matrix_power(g.adjacency_dense(), length)
        assert sum(counts.values()) == int(a[v].sum())

    def test_budget_exceeded(self):
        k6 = Graph.from_edges(6, [(i, j) for i in range(6) for j in range(i + 1, 6)])
        with pytest.raises(BudgetError):
            enumerate_anonymous_walks(k6, 0, 12, budget=10**4)


class TestDistributionDistinguish:
    def test_c6_vs_triangles(self):
        c6 = cycle_graph(6)
        tri2 = disjoint_union(cycle_graph(3), cycle_graph(3))
        # the closed 3-step pattern occurs only on the triangle component
        assert (0, 1, 2, 0) in enumerate_anonymous_walks(tri2, 0, 3)
        assert (0, 1, 2, 0) not in enumerate_anonymous_walks(c6, 0, 3)
        assert walk_distributions_distinguish(c6, 0, tri2, 0, 3)

    def test_path_endpoint_vs_midpoint(self):
        p3 = path_graph(3)
        assert walk_distributions_distinguish(p3, 0, p3, 1, 2)

    def test_isomorphic_roots_equal_for_all_small_lengths(self):
        g = cycle_graph(5)
        for length in (1, 2, 3, 4):
            assert not walk_distributions_distinguish(g, 0, g, 3, length)


def dfs_anonymous_walks(g: Graph, v: int, length: int, budget: int = 10**7) -> Counter:
    """Reference enumeration: one recursive depth-first pass, one tuple per walk."""
    if not (0 <= v < g.node_count):
        raise ValueError("start node out of range")
    nbrs = [tuple(int(x) for x in g.neighbors_of(u)) for u in range(g.node_count)]
    counts: Counter = Counter()
    remaining = budget
    first = {v: 0}
    pattern = [0]

    def visit(u: int, depth: int):
        nonlocal remaining
        if depth == length:
            counts[tuple(pattern)] += 1
            remaining -= 1
            if remaining < 0:
                raise BudgetError("walk enumeration exceeded its budget")
            return
        for w in nbrs[u]:
            fresh = w not in first
            if fresh:
                first[w] = len(first)
            pattern.append(first[w])
            visit(w, depth + 1)
            pattern.pop()
            if fresh:
                del first[w]

    visit(v, 0)
    return counts


def dfs_distinguish(g: Graph, v: int, h: Graph, vp: int, length: int,
                    budget: int = 10**7) -> bool:
    """Reference comparison of two reference multisets by cross-multiplication."""
    c1 = dfs_anonymous_walks(g, v, length, budget)
    c2 = dfs_anonymous_walks(h, vp, length, budget)
    t1, t2 = sum(c1.values()), sum(c2.values())
    if t1 == 0 or t2 == 0:
        return (t1 == 0) != (t2 == 0)
    return any(c1.get(pat, 0) * t2 != c2.get(pat, 0) * t1 for pat in set(c1) | set(c2))


def outcome(fn, *args):
    """The function's result, or BudgetError when it raised that."""
    try:
        return fn(*args)
    except BudgetError:
        return BudgetError


@st.composite
def rooted_graphs(draw):
    n = draw(st.integers(1, 10))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [e for e, k in zip(pairs, keep) if k]), draw(st.integers(0, n - 1))


class TestArrayEnumeration:
    """The array enumeration against the depth-first reference, exactly."""

    @given(rooted_graphs(), st.integers(0, 8),
           st.sampled_from([(3, 2), (64, 40), (walks._BLOCK, walks._MERGE)]))
    @example((Graph.from_edges(3, [(1, 2)]), 0), 4, (3, 2))        # isolated root
    @example((Graph.from_edges(1, []), 0), 0, (3, 2))              # 1-node graph
    @example((Graph.from_edges(1, []), 0), 5, (3, 2))
    @example((star_graph(9), 0), 6, (64, 40))                      # star hub
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(self, rooted, length, sizes):
        g, v = rooted
        # small blocks and merge thresholds split the walks over many blocks and merges
        with mock.patch.object(walks, "_BLOCK", sizes[0]), \
                mock.patch.object(walks, "_MERGE", sizes[1]):
            got = outcome(enumerate_anonymous_walks, g, v, length, 3000)
        assert got == outcome(dfs_anonymous_walks, g, v, length, 3000)

    @given(rooted_graphs(), rooted_graphs(), st.integers(0, 8))
    @settings(max_examples=150, deadline=None)
    def test_distinguish_matches_reference(self, a, b, length):
        # node counts mostly differ, so the two graphs alone would pick other key widths
        got = outcome(walk_distributions_distinguish, *a, *b, length, 3000)
        assert got == outcome(dfs_distinguish, *a, *b, length, 3000)

    def test_one_key_width_for_both_graphs(self):
        c5 = cycle_graph(5)
        padded = disjoint_union(cycle_graph(5), path_graph(12))
        assert (_label_bits(c5, 16), _label_bits(padded, 16)) == (3, 5)
        assert not walk_distributions_distinguish(c5, 0, padded, 0, 16)
        assert walk_distributions_distinguish(c5, 0, padded, 5, 16)

    @pytest.mark.parametrize("v", [0, 1])
    def test_byte_row_keys_match_reference(self, v):
        g = path_graph(17)
        assert _label_bits(g, 16) * 16 > 64            # past one uint64 word
        with mock.patch.object(walks, "_MERGE", 64):   # byte keys merge into the table
            assert enumerate_anonymous_walks(g, v, 16) == dfs_anonymous_walks(g, v, 16)
        assert walk_distributions_distinguish(g, v, g, 16 - v, 16) is False
        assert walk_distributions_distinguish(g, 0, g, 1, 16) == dfs_distinguish(g, 0, g, 1, 16)

    def test_walk_longer_than_the_recursion_limit(self):
        length = 2000
        assert length > sys.getrecursionlimit()
        assert enumerate_anonymous_walks(path_graph(2), 0, length) == \
            Counter({tuple(t % 2 for t in range(length + 1)): 1})
        with pytest.raises(RecursionError):
            dfs_anonymous_walks(path_graph(2), 0, length)

    @pytest.mark.parametrize("length", [-1, -2])
    def test_negative_length_is_rejected(self, length):
        g = path_graph(3)
        with pytest.raises(ValueError, match=f"got {length}$"):
            enumerate_anonymous_walks(g, 0, length)
        with pytest.raises(ValueError, match=f"got {length}$"):
            walk_distributions_distinguish(g, 0, g, 1, length)

    @pytest.mark.parametrize("g, v, length", [
        (path_graph(2), 0, 0), (cycle_graph(5), 0, 6), (star_graph(9), 0, 6),
        (star_graph(9), 1, 5),
        (Graph.from_edges(5, [(i, j) for i in range(5) for j in range(i)]), 0, 9)])  # 4^9 walks
    def test_budget_is_exact(self, g, v, length):
        count = int(np.linalg.matrix_power(g.adjacency_dense(), length)[v].sum())
        assert sum(enumerate_anonymous_walks(g, v, length, budget=count).values()) == count
        assert walk_distributions_distinguish(g, v, g, v, length, budget=count) is False
        with pytest.raises(BudgetError):
            enumerate_anonymous_walks(g, v, length, budget=count - 1)
        with pytest.raises(BudgetError):
            walk_distributions_distinguish(g, v, g, v, length, budget=count - 1)

    @pytest.mark.parametrize("g, length", [
        (path_graph(2), 0), (cycle_graph(5), 6), (complete_graph(4), 5),
        (star_graph(9), 5)])                                 # the hub has the most walks
    def test_budget_is_refused_before_any_block(self, g, length):
        count = int(np.linalg.matrix_power(g.adjacency_dense(), length)[0].sum())
        assert sum(enumerate_anonymous_walks(g, 0, length, budget=count).values()) == count
        assert AnonymousWalkPolicy(length, 2, budget=count).node_sets(g) == \
            AnonymousWalkPolicy(length, 2, budget=10**7).node_sets(g)
        # no block of walks is ever turned into keys: the root's count refuses it first
        with mock.patch.object(walks, "_as_keys", side_effect=AssertionError) as as_keys:
            with pytest.raises(BudgetError, match="^walk enumeration exceeded its budget$"):
                enumerate_anonymous_walks(g, 0, length, budget=count - 1)
            with pytest.raises(BudgetError, match="^walk enumeration exceeded its budget$"):
                AnonymousWalkPolicy(length, 2, budget=count - 1).node_sets(g)
        as_keys.assert_not_called()

    def test_budget_bounds_the_larger_side_too(self):
        # P2's one walk pattern (0, 1, 0, 1) is a pattern of K4's 27 walks, which
        # also hold patterns P2 lacks: the budget is checked before any walk of
        # either side is enumerated, not at the first such pattern
        k4 = complete_graph(4)
        assert walk_distributions_distinguish(path_graph(2), 0, k4, 0, 3, budget=27)
        for a, b in (((path_graph(2), 0), (k4, 0)), ((k4, 0), (path_graph(2), 0))):
            with pytest.raises(BudgetError):
                walk_distributions_distinguish(*a, *b, 3, budget=26)

    def test_comparison_ends_at_its_first_witness(self):
        # the larger side's first block of completed walks holds a pattern P2
        # lacks, so its full table of 957,459 patterns is never built
        g = Graph.from_edges(7, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 6), (2, 3), (2, 5), (4, 6)])
        keys, counts = _pattern_table(g, 0, 15, 10**7, _label_bits(g, 15))
        assert (int(counts.sum()), len(keys)) == (1587095, 957459)
        table = keys.nbytes + counts.nbytes
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            assert walk_distributions_distinguish(path_graph(2), 0, g, 0, 15)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        # Measured with numpy 2.4: the comparison peaks at 1.7 MB, the enumeration's
        # stack of blocks, against a 14.6 MB table.
        assert peak < table / 4

    def test_comparison_holds_no_pattern_tuples(self):
        g = Graph.from_edges(7, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 6), (2, 3), (2, 5), (4, 6)])
        counts = enumerate_anonymous_walks(g, 0, 13)
        assert (sum(counts.values()), len(counts)) == (242903, 134369)
        tuples = sys.getsizeof(counts) + sum(map(sys.getsizeof, counts))
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            assert not walk_distributions_distinguish(g, 0, g, 0, 13)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        # Measured with numpy 2.4: the comparison peaks at 7.5 MB, while one Counter
        # of pattern tuples takes 24.5 MB; comparing through two such Counters peaked at 65 MB.
        assert peak < tuples / 2


class TestDatasetExtraction:
    def make_graphs(self):
        return [cycle_graph(5).with_features(np.eye(5)),
                star_graph(4).with_features(np.eye(5))]

    def test_deterministic_and_thread_invariant(self):
        graphs = self.make_graphs()
        a = extract_dataset(graphs, "t", cfg(seed=2))
        b = extract_dataset(graphs, "t", cfg(seed=2), threads=3)
        assert a.records == b.records
        assert a.pattern_tables == b.pattern_tables

    def test_record_contract(self):
        graphs = self.make_graphs()
        cache = extract_dataset(graphs, "t", cfg(subgraph_cap=3))
        for recs in cache.records:
            for v, nodes in enumerate(recs):
                assert nodes[0] == v
                assert len(nodes) <= 3

    def test_cache_roundtrip(self, tmp_path):
        graphs = self.make_graphs()
        cache = extract_dataset(graphs, "toyset", cfg(seed=4))
        path = str(tmp_path / "sub.cache")
        save_cache(path, cache)
        back = load_cache(path)
        assert back.dataset_name == "toyset"
        assert back.cfg == cache.cfg
        assert back.records == cache.records
        assert back.pattern_tables == cache.pattern_tables

    def test_cache_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.cache"
        path.write_text("not a cache\n")
        with pytest.raises(ValueError):
            load_cache(str(path))

    @pytest.mark.parametrize("body, where, what", [
        ("", 2, "missing header line"),
        ("dataset=t seed=0 walks_per_node=5 pattern_budget=3 cap=8\n", 2,
         "header lacks walk_length"),
        (HEADER + "v 0 1\ng 0\n", 3, "'v' line before the first graph line"),
        (HEADER + "p 0,1 4\n", 3, "'p' line before the first graph line"),
        (HEADER + "g 0\nv 0\nq 1\n", 5, "unrecognized cache line"),
        (HEADER.replace("walk_length=4", "walk_length=x"), 2,
         "bad header: invalid literal for int()"),
        (HEADER.replace("walk_length=4", "walk_length=0"), 2,
         "bad header: walk_length must be >= 1"),
        (HEADER + "g 0\np 0,1 many\n", 4, "malformed 'p' line 'p 0,1 many'"),
        (HEADER + "g 0\nv 0 one\n", 4, "malformed 'v' line 'v 0 one'"),
        (HEADER + "g 0\np 0,1\n", 4, "malformed 'p' line 'p 0,1'"),
        (HEADER + "g 0\np 0,+1 4\n", 4, "malformed 'p' line 'p 0,+1 4'"),
        # ids that int() reads but save_cache never writes, one past int32 (the
        # record ids' type) and one past int64
        (HEADER + "g 0\nv 0 99999999999999999999\n", 4,
         "malformed 'v' line 'v 0 99999999999999999999'"),
        (HEADER + "g 0\nv 0 2147483648\n", 4, "malformed 'v' line 'v 0 2147483648'"),
        (HEADER + "g 0\nv 0 -2147483648\n", 4, "malformed 'v' line 'v 0 -2147483648'"),
        (HEADER + "g 0\nv 0 9223372036854775808\n", 4,
         "malformed 'v' line 'v 0 9223372036854775808'"),
        (HEADER + "g 0\nv 0 1_0\n", 4, "malformed 'v' line 'v 0 1_0'"),
        (HEADER + "g 0\nv 0 +1\n", 4, "malformed 'v' line 'v 0 +1'"),
        (HEADER + "g 0\nv 0\t1\n", 4, "malformed 'v' line 'v 0\\t1'"),
        (HEADER + "g 0\nv 0  1\n", 4, "malformed 'v' line 'v 0  1'"),
        (HEADER + "g 0\nv 0 1 \n", 4, "malformed 'v' line 'v 0 1 '"),
        (HEADER + "g 0\nv 0 01\n", 4, "malformed 'v' line 'v 0 01'"),
        # the first bad line of the file, whatever its kind
        (HEADER + "g 0\nv 0\nv 1 x\ng 1\nq\n", 5, "malformed 'v' line 'v 1 x'"),
        (HEADER + "g 0\nv 0\nq\nv 1 x\n", 5, "unrecognized cache line 'q'"),
    ])
    def test_malformed_cache_names_path_and_line(self, tmp_path, body, where, what):
        path = tmp_path / "bad.cache"
        path.write_text(CACHE_MAGIC + "\n" + body)
        with pytest.raises(FormatError) as err:
            load_cache(str(path))
        assert str(err.value).startswith(f"{path}:{where}: ")
        assert what in str(err.value)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.lists(st.integers(-2**31 + 1, 2**31 - 1), max_size=6),
                             max_size=5), max_size=4))
    def test_csr_roundtrip_is_the_identity(self, tmp_path_factory, records):
        # records as CSR, saved and read back: the same arrays, and the bytes a
        # writer from node-id lists gives
        c = cfg(seed=4)
        tables = [[((0, 1), 3)] for _ in records]
        cache = walks.SubgraphCache("csr set", c, [Records.from_lists(r) for r in records],
                                    tables)
        path = tmp_path_factory.mktemp("csr") / "sub.cache"
        save_cache(str(path), cache)
        assert path.read_text() == cache_text("csr set", c, records, tables)
        back = load_cache(str(path))
        assert back.records == cache.records and back.pattern_tables == tables
        for got, want in zip(back.records, records):
            assert got.ids.dtype == np.int32 and got.offsets.dtype == np.int64
            assert [r.tolist() for r in got] == want

    def test_undecodable_byte_names_path_and_line(self, tmp_path):
        path = tmp_path / "bad.cache"
        path.write_bytes((CACHE_MAGIC + "\n" + HEADER + "g 0\n").encode() + b"v 0 \xff1\n")
        with pytest.raises(FormatError, match=r"bad.cache:4: not UTF-8 text$"):
            load_cache(str(path))


def _node_task_graph() -> Graph:
    """One labelled 240-node community graph, as a node-level task uses."""
    rng = np.random.default_rng(2024)
    labels = np.sort(np.arange(240) % 4)
    edges = []
    for c in range(4):
        ids = np.nonzero(labels == c)[0]
        for i in range(1, len(ids)):
            for j in rng.integers(0, i, size=min(i, 2)):
                edges.append((int(ids[i]), int(ids[j])))
    for u in np.nonzero(rng.random(240) < 0.1)[0]:
        edges.append((int(u), int(rng.integers(0, 240))))
    return Graph.from_edges(240, edges, node_labels=labels)


def _edge_case_graphs() -> list[Graph]:
    """Isolated nodes, degree-1 leaves, a 300-leaf star hub, empty graphs."""
    rng = np.random.default_rng(11)
    sparse = [(i, j) for i in range(40) for j in range(i + 1, 40) if rng.random() < 0.04]
    return [Graph.from_edges(6, [(1, 2), (2, 3)]),
            star_graph(300),
            path_graph(7),
            Graph.from_edges(40, sparse),
            Graph.from_edges(1, []),
            Graph.from_edges(0, []),
            disjoint_union(cycle_graph(3), star_graph(4))]


GOLDEN_CONFIGS = {
    "default": WalkConfig(),
    # 17-position patterns: a base-17 integer code of them overflows int64
    "long": WalkConfig(walk_length=16, walks_per_node=7, pattern_budget=2,
                       subgraph_cap=5, seed=1),
}

# sha256 of save_cache output, computed with the per-node scalar extraction
# (sample_walks, to_anonymous, top_patterns, extract_subgraph's record rule)
GOLDEN_SHA256 = {
    ("edge-cases", "default"): "35ae2b6888837228c844e2829a1446d77530e6e393188aa328bad0efe42aad10",
    ("edge-cases", "long"): "e3bbefb49e76d38376170ef6a5e1e583959abcda2697d16ecfe4fa21e7a802ee",
    ("graph-cycle", "default"): "664459d79f06ce193c9ef8dc5e4a91b957fa20d52a05d6105f16ae03e46d02fb",
    ("graph-cycle", "long"): "6689e531b63e2b5bbc857aac61811ba39966a6c1988a39f0ff44ca5bf56372f3",
    ("graph-five", "default"): "c79cb1b741ec10d7e7bd046b45ecdc3e5fa6eb1d75406f54a9b7cca314a6a948",
    ("graph-five", "long"): "3923d4fc66ebd4835690a50538fc722df91e1c644a1073ab20ecfeb6325d0374",
    ("node-task", "default"): "238a37c0aed4ee73a31faae1d27a297a9a2adfaf2ceaf57e468a4062db627bf7",
    ("node-task", "long"): "d53ff3162ef27cab1118ed93815fc69a3d89fba938a9ef5b926925aec49d5535",
}


class TestGoldenCache:
    @pytest.fixture(scope="class")
    def datasets(self):
        return {"graph-cycle": gen_graph_cycle(4, 3).graphs,
                "graph-five": gen_graph_five(5, 1).graphs,
                "node-task": [_node_task_graph()],
                "edge-cases": _edge_case_graphs()}

    @pytest.mark.parametrize("data_name,cfg_name", sorted(GOLDEN_SHA256))
    def test_cache_bytes_match_scalar_reference(self, datasets, tmp_path,
                                                data_name, cfg_name):
        cache = extract_dataset(datasets[data_name], data_name,
                                GOLDEN_CONFIGS[cfg_name])
        path = tmp_path / "golden.cache"
        save_cache(str(path), cache)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == GOLDEN_SHA256[(data_name, cfg_name)]


def _scalar_extraction(g: Graph, graph_idx: int, c: WalkConfig):
    """The definition the batched path must reproduce, one node at a time."""
    walks = [sample_walks(g, v, c, substream(c.seed, graph_idx, v))
             for v in range(g.node_count)]
    counts = Counter(to_anonymous(w) for ws in walks for w in ws)
    selected = top_patterns(counts, c.pattern_budget) if counts else []
    records = [extract_subgraph(g, v, walks[v], selected, c.subgraph_cap)
               for v in range(g.node_count)]
    return records, [(pat, counts[pat]) for pat in selected]


class TestBatchedExtraction:
    def test_replayed_draws_match_generator_integers(self):
        # several calls per row, odd lengths so calls share a raw word,
        # degree 1 (no value consumed) and degrees above 2**16
        degrees = np.array([1, 2, 3, 5, 300, 2**16 + 3, 2**20 + 7, 2**31 - 1])
        for seed in range(30):
            meta = np.random.default_rng(seed)
            rows = 3
            calls = [degrees[meta.integers(0, len(degrees), size=(rows, meta.integers(1, 8)))]
                     for _ in range(6)]
            total = sum(c.shape[1] for c in calls)
            gens = [substream(seed, r) for r in range(rows)]
            words = np.stack([substream(seed, r).bit_generator.random_raw(-(-total // 2))
                              for r in range(rows)])
            stream, ptr = _uint32_stream(words), np.zeros(rows, dtype=np.int64)
            for high in calls:
                got, ptr, rejected = _replay_bounded(stream, ptr, high)
                assert not rejected.any()
                want = np.stack([gen.integers(0, h) for gen, h in zip(gens, high)])
                np.testing.assert_array_equal(got, want)
            assert ptr.tolist() == [sum(int((c[r] > 1).sum()) for c in calls)
                                    for r in range(rows)]

    def test_rejection_flag_matches_numpy_redraw(self):
        # d = 2**31 + 1 rejects about half of all values: numpy's draw is the
        # replay of the first value the replay does not flag
        d = np.array([[2**31 + 1]])
        rejections = 0
        for seed in range(64):
            stream = _uint32_stream(substream(seed, 9).bit_generator.random_raw(8)[None])
            for i in range(stream.shape[1]):
                got, _, rejected = _replay_bounded(stream[:, i:i + 1],
                                                   np.zeros(1, dtype=np.int64), d)
                if not rejected[0]:
                    break
                rejections += 1
            assert got[0, 0] == substream(seed, 9).integers(0, d[0, 0])
        assert rejections > 10

    def test_rejected_node_falls_back_to_sample_walks(self):
        g = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (3, 4)])
        c = cfg(walk_length=4, walks_per_node=3, seed=5)
        nodes = np.arange(5)
        words = np.stack([substream(5, 7, v).bit_generator.random_raw(6) for v in range(5)])
        # node 0 has degree 3: its first value u = 0 gives u*3 mod 2**32 = 0,
        # below the threshold (2**32 - 3) mod 3 = 1, so numpy would redraw
        words[0, 0] &= ~np.uint64(0xFFFFFFFF)
        _, _, rejected = _replay_bounded(_uint32_stream(words[:1]), np.zeros(1, dtype=np.int64),
                                         np.full((1, 3), 3))
        assert rejected[0]
        walks = _walks_from_words(g, 7, c, nodes, words)
        for v in range(5):
            assert [tuple(w) for w in walks[v].tolist()] == \
                sample_walks(g, v, c, substream(5, 7, v))

    def test_only_rejected_nodes_build_a_generator(self, monkeypatch):
        # extraction draws every node's words in one array pass; a node builds
        # its own substream only when its draws hit a rejection
        g = gen_graph_cycle(2, seed=4).graphs[0]
        calls, rejected = [], []

        def counted(seed, *key):
            calls.append(key)
            return substream(seed, *key)

        def noted(stream, ptr, high):
            out = _replay_bounded(stream, ptr, high)
            rejected.append(out[2])
            return out

        monkeypatch.setattr(walks, "substream", counted)
        monkeypatch.setattr(walks, "_replay_bounded", noted)
        c = WalkConfig(seed=3)
        got = extract_dataset([g], "GraphCycle", c)
        nodes = np.flatnonzero(g.degrees > 0)
        hit = nodes[np.logical_or.reduce(rejected)]
        assert len(nodes) > 10 and len(rejected) == c.walk_length
        assert sorted(calls) == [(0, v) for v in hit.tolist()]
        monkeypatch.undo()
        assert got.records == extract_dataset([g], "GraphCycle", c).records

    def test_pattern_counts_are_unique_rows(self):
        rng = np.random.default_rng(3)
        for width in (1, 2, 9, 17, 300):
            # labels of a length-width walk run to width, in width.bit_length() bits
            bits = width.bit_length()
            rows = rng.choice([0, 1, width], size=(200, width)) * rng.integers(0, 2, (1, width))
            keys, inverse, counts = np.unique(_pack(rows, bits), return_inverse=True,
                                              return_counts=True)
            ref, ref_inv, ref_counts = np.unique(rows, axis=0, return_inverse=True,
                                                 return_counts=True)
            np.testing.assert_array_equal(_unpack(keys, width, bits), np.pad(ref, ((0, 0), (1, 0))))
            np.testing.assert_array_equal(inverse, ref_inv.ravel())
            np.testing.assert_array_equal(counts, ref_counts)

    @pytest.mark.parametrize("c", [cfg(walk_length=1, walks_per_node=1, pattern_budget=1),
                                   cfg(walk_length=2, walks_per_node=3, pattern_budget=2,
                                       subgraph_cap=2, seed=3),
                                   cfg(walk_length=3, walks_per_node=7, pattern_budget=2,
                                       subgraph_cap=5, seed=1),
                                   cfg(walk_length=16, walks_per_node=4, pattern_budget=9,
                                       seed=8)])
    def test_matches_scalar_definition(self, c):
        rng = np.random.default_rng(c.seed)
        graphs = [star_graph(6), Graph.from_edges(3, [])]
        for n in (5, 12, 30):
            graphs.append(Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                                               if rng.random() < 3 / n]))
        cache = extract_dataset(graphs, "t", c)
        for gi, g in enumerate(graphs):
            records, table = _scalar_extraction(g, gi, c)
            assert cache.records[gi] == Records.from_lists(records)
            assert cache.pattern_tables[gi] == table
