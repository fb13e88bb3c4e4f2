"""Verification suites: each cross-checks one subsystem against an
independent oracle (exhaustive enumeration, finite differences, or exact
refinement) and reports per-case pass/fail lines."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .datasets import Dataset
from .graph import (Graph, complete_graph, cycle_graph, degree_features, disjoint_union,
                    induced_subgraph, relabel, walk_counts)
from .kernel import (HiddenGraph, KernelConfig, rwk_diff, rwk_hidden,
                     rwk_hidden_grad, walk_pair_counts, _oracle_counts)
from .moe import ModelConfig, build_group, kernel_moments, new_model
from .trainer import TrainConfig, grad_check
from .util import BudgetError, substream
from .walks import (Records, WalkConfig, enumerate_anonymous_walks, extract_dataset,
                    sample_walks, to_anonymous, walk_distributions_distinguish)
from .wl import (EgoPolicy, canonical_form, embed_group, graph_corpus,
                 same_size_pairs, swl_refine_many, wl1_refine_many)

BUDGET = 10**7     # walks (or walk pairs) one oracle enumeration may expand


@dataclass
class Case:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class Report:
    suite: str
    cases: list[Case] = field(default_factory=list)

    def add(self, name: str, ok: bool, detail: str = ""):
        self.cases.append(Case(name, bool(ok), detail))

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.cases)

    def lines(self) -> list[str]:
        out = []
        for c in self.cases:
            mark = "PASS" if c.ok else "FAIL"
            suffix = f"  ({c.detail})" if c.detail else ""
            out.append(f"[{mark}] {self.suite}/{c.name}{suffix}")
        return out


def _random_graph(rng, n: int, p_edge: float) -> Graph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p_edge]
    return Graph.from_edges(n, edges)


def _random_connected_sparse(rng, n: int, extra: int) -> Graph:
    order = rng.permutation(n)
    edges = [(int(order[i]), int(order[rng.integers(0, i)])) for i in range(1, n)]
    for _ in range(extra):
        u, v = rng.integers(0, n, size=2)
        if u != v:
            edges.append((int(u), int(v)))
    return Graph.from_edges(n, edges)


# -- kernel-oracle suite ------------------------------------------------------

EXHAUSTIVE_NODES = 5    # the exhaustive case pairs every graph of at most this many nodes


def exhaustive_walk_pairs(max_nodes: int, max_p: int) -> tuple[int, int]:
    """(pairs, q): the walk pairs over lengths 0..q of the exhaustive case's
    largest pair, K_n x K_n with n = min(EXHAUSTIVE_NODES, max_nodes), whose
    pairs at length p are the square of K_n's exact walk total; q is max_p,
    or the first length at which the pairs exceed BUDGET, where the levels
    stop, so a huge max_p costs a few. ``mose verify`` refuses the case before
    it starts iff these exact pairs exceed the budget."""
    pairs = 0
    for q, ends in enumerate(walk_counts(complete_graph(min(EXHAUSTIVE_NODES, max_nodes)))):
        pairs += sum(ends) ** 2
        if q >= max_p or pairs > BUDGET:
            return pairs, q


def kernel_oracle_suite(max_nodes: int = 6, max_p: int = 4, seed: int = 0,
                        random_pairs: int = 200, identity_instances: int = 500) -> Report:
    """Discrete kernel vs simultaneous-enumeration oracle, plus the
    hidden-graph identity against the feature-weighted kernel."""
    rep = Report("kernel-oracle")
    rng = substream(seed, 1)

    exhaustive = min(EXHAUSTIVE_NODES, max_nodes)
    corpus = graph_corpus(exhaustive)
    mismatches = 0
    checked = 0
    for i in range(len(corpus)):
        for j in range(i, len(corpus)):
            g, h = corpus[i], corpus[j]
            counts = _oracle_counts(g, h, max_p, BUDGET)
            got = walk_pair_counts(g, h, max_p)
            checked += max_p
            mismatches += sum(got[p] != counts[p] for p in range(1, max_p + 1))
    rep.add(f"exhaustive <={exhaustive}-node pairs, p=1..{max_p}", mismatches == 0,
            f"{checked} checks, {mismatches} mismatches")

    bad = 0
    done = 0
    attempts = 0
    while done < random_pairs and attempts < random_pairs * 20:
        attempts += 1
        n1, n2 = rng.integers(2, max_nodes + 1, size=2)
        g = _random_graph(rng, int(n1), rng.uniform(0.2, 0.5))
        h = _random_graph(rng, int(n2), rng.uniform(0.2, 0.5))
        try:
            counts = _oracle_counts(g, h, max_p, BUDGET)
        except BudgetError:
            continue
        got = walk_pair_counts(g, h, max_p)
        bad += sum(got[p] != counts[p] for p in range(1, max_p + 1))
        done += 1
    rep.add(f"{random_pairs} random <= {max_nodes}-node pairs", bad == 0 and done == random_pairs,
            f"{done} pairs checked, {bad} mismatches")

    # hidden-graph form equals the feature-weighted kernel on 0/1 adjacencies
    worst = 0.0
    for _ in range(identity_instances):
        n = int(rng.integers(2, 13))
        s = int(rng.integers(2, 7))
        f = int(rng.integers(1, 5))
        g = _random_graph(rng, n, rng.uniform(0.3, 0.7)).with_features(
            rng.normal(size=(n, f)))
        w01 = (rng.random((s, s)) < 0.5).astype(float)
        w01 = np.triu(w01, 1)
        w01 = w01 + w01.T
        hg = HiddenGraph(W=w01, Z=rng.normal(size=(s, f)))
        p = int(rng.integers(1, 5))
        a = rwk_hidden(g, hg, p)
        b = rwk_diff(g, hg.as_graph(), p)
        err = abs(a - b) / max(1.0, abs(a), abs(b))
        worst = np.maximum(worst, err)      # keeps a NaN, which max(worst, err) drops
    rep.add(f"hidden-graph identity on {identity_instances} instances",
            worst < 1e-10, f"max rel diff {worst:.2e}")
    return rep


# -- gradient suite -------------------------------------------------------------

def _toy_graph_task(seed: int):
    rng = substream(seed, 2)
    graphs = []
    for i in range(4):
        g = _random_connected_sparse(rng, int(rng.integers(4, 7)), 2)
        graphs.append(g.with_label(i % 2))
    cap = max(int(g.degrees.max()) for g in graphs)
    graphs = [g.with_features(degree_features(g, cap)) for g in graphs]
    data = Dataset(graphs=graphs, task="graph", class_count=2, name="gradtoy")
    cache = extract_dataset(data.graphs, "gradtoy",
                            WalkConfig(walk_length=3, walks_per_node=6,
                                       pattern_budget=4, subgraph_cap=8, seed=seed))
    return data, cache


def grad_suite(instances: int = 120, seed: int = 0, step: float = 1e-5) -> Report:
    """Analytic kernel and end-to-end gradients vs central differences."""
    rep = Report("grad")
    rng = substream(seed, 3)

    worst = 0.0
    for _ in range(instances):
        n = int(rng.integers(2, 9))
        s = int(rng.integers(2, 6))
        f = int(rng.integers(1, 4))
        g = _random_graph(rng, n, rng.uniform(0.3, 0.7)).with_features(
            rng.normal(size=(n, f)))
        hg = HiddenGraph(W=rng.normal(size=(s, s)), Z=rng.normal(size=(s, f)))
        p = int(rng.integers(1, 5))
        ref = rwk_hidden_grad(g, hg, p)
        for arr, grad in ((hg.W, ref.d_W), (hg.Z, ref.d_Z)):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                ix = it.multi_index
                orig = arr[ix]
                arr[ix] = orig + step
                kp = rwk_hidden(g, hg, p)
                arr[ix] = orig - step
                km = rwk_hidden(g, hg, p)
                arr[ix] = orig
                num = (kp - km) / (2 * step)
                err = abs(num - grad[ix]) / max(1.0, abs(num), abs(grad[ix]))
                worst = np.maximum(worst, err)      # keeps a NaN, which max drops
    rep.add(f"kernel gradients on {instances} instances", worst < 1e-5,
            f"max rel err {worst:.2e}")

    # fixed-point cases
    n, s, f = 5, 3, 2
    g = _random_graph(rng, n, 0.5).with_features(rng.normal(size=(n, f)))
    hg0 = HiddenGraph(W=rng.normal(size=(s, s)), Z=np.zeros((s, f)))
    g0 = rwk_hidden_grad(g, hg0, 2)
    rep.add("zero hidden features: value 0, flat W gradient",
            g0.value == 0.0 and np.all(g0.d_W == 0) and np.all(np.isfinite(g0.d_Z)))
    hgn = HiddenGraph(W=-1.0 - rng.random((s, s)), Z=rng.normal(size=(s, f)))
    gn = rwk_hidden_grad(g, hgn, 3)
    rep.add("all-negative weights: rectifier is flat", np.all(gn.d_W == 0))

    data, cache = _toy_graph_task(seed)
    kcfg = KernelConfig(max_step=2)
    mcfg = ModelConfig(feature_dim=data.feature_dim, class_count=2, experts=3,
                       hidden_per_expert=2, embed_dim=6, k_ept=2)
    model = new_model(mcfg, kcfg, seed=seed)
    err = grad_check(model, data, cache, list(range(len(data.graphs))),
                     TrainConfig(seed=seed, beta=0.3, dropout_rate=0.2), step=step)
    rep.add("end-to-end graph-task gradients", err < 1e-4, f"max rel err {err:.2e}")

    gsz = 9
    gn_graph = _random_connected_sparse(substream(seed, 4), gsz, 3)
    gn_graph = gn_graph.with_features(degree_features(gn_graph, 4))
    labels = np.array([i % 2 for i in range(gsz)])
    gn_graph = Graph(gn_graph.node_count, gn_graph.offsets, gn_graph.neighbors,
                     gn_graph.features, None, labels)
    nd = Dataset(graphs=[gn_graph], task="node", class_count=2, name="gradnode")
    ncache = extract_dataset(nd.graphs, "gradnode",
                             WalkConfig(walk_length=3, walks_per_node=5,
                                        pattern_budget=3, subgraph_cap=8, seed=seed))
    nmcfg = ModelConfig(feature_dim=gn_graph.feature_dim, class_count=2, experts=2,
                        hidden_per_expert=2, embed_dim=6, k_ept=1, task="node")
    nmodel = new_model(nmcfg, kcfg, seed=seed + 1)
    nerr = grad_check(nmodel, nd, ncache, list(range(gsz)),
                      TrainConfig(seed=seed, beta=0.2, dropout_rate=0.1), step=step)
    rep.add("end-to-end node-task gradients", nerr < 1e-4, f"max rel err {nerr:.2e}")
    return rep


# -- walks suite ------------------------------------------------------------------

def _pattern_valid(pat) -> bool:
    if pat[0] != 0:
        return False
    seen_max = 0
    for x in pat[1:]:
        if x > seen_max + 1 or x < 0:
            return False
        seen_max = max(seen_max, x)
    return True


def _rooted_ego(g: Graph, v: int) -> Graph:
    nodes = [v] + sorted(int(u) for u in g.neighbors_of(v))
    return induced_subgraph(g, nodes)


def walks_suite(seed: int = 0, fuzz_walks: int = 10000, perm_pairs: int = 1000,
                count_graphs: int = 50, rooted_pairs: int = 200) -> Report:
    """Anonymity-map invariants plus the walk-distribution distinguishing
    experiment on rooted pairs."""
    rep = Report("walks")
    rng = substream(seed, 5)

    bad = 0
    cfg = WalkConfig(walk_length=6, walks_per_node=1, pattern_budget=1, seed=seed)
    done = 0
    while done < fuzz_walks:
        g = _random_connected_sparse(rng, int(rng.integers(2, 10)), 3)
        for v in range(g.node_count):
            for w in sample_walks(g, v, cfg, rng):
                pat = to_anonymous(w)
                if len(pat) != len(w) or not _pattern_valid(pat):
                    bad += 1
                done += 1
            if done >= fuzz_walks:
                break
    rep.add(f"{fuzz_walks} fuzzed walks satisfy pattern invariants", bad == 0,
            f"{bad} violations")

    bad = 0
    for _ in range(perm_pairs):
        n = int(rng.integers(2, 10))
        g = _random_connected_sparse(rng, n, 2)
        walk = sample_walks(g, 0, WalkConfig(walk_length=5, walks_per_node=1,
                                             pattern_budget=1, seed=seed), rng)[0]
        perm = rng.permutation(n)
        if to_anonymous(walk) != to_anonymous(tuple(int(perm[x]) for x in walk)):
            bad += 1
    rep.add(f"{perm_pairs} relabeled walks keep their pattern", bad == 0)

    bad = 0
    for _ in range(count_graphs):
        n = int(rng.integers(2, 11))
        g = _random_connected_sparse(rng, n, 3)
        length = int(rng.integers(1, 6))
        v = int(rng.integers(0, n))
        counts = enumerate_anonymous_walks(g, v, length, BUDGET)
        a = g.adjacency_dense()
        expected = int(np.linalg.matrix_power(a, length)[v].sum())
        if sum(counts.values()) != expected:
            bad += 1
    rep.add(f"walk multiset sizes match adjacency-power row sums "
            f"({count_graphs} graphs)", bad == 0)

    distinguished = 0
    total = 0
    iso_fail = 0
    attempts = 0
    while total < rooted_pairs and attempts < rooted_pairs * 50:
        attempts += 1
        g = _random_connected_sparse(rng, int(rng.integers(4, 13)), 2)
        h = _random_connected_sparse(rng, int(rng.integers(4, 13)), 2)
        v = int(rng.integers(0, g.node_count))
        u = int(rng.integers(0, h.node_count))
        ego_g, ego_h = _rooted_ego(g, v), _rooted_ego(h, u)
        if ego_g.node_count > 8 or ego_h.node_count > 8:
            continue
        if canonical_form(ego_g, root=0) == canonical_form(ego_h, root=0):
            continue
        length = 2 * ego_h.edge_count
        if length < 1:
            continue
        try:
            if walk_distributions_distinguish(g, v, h, u, length, BUDGET):
                distinguished += 1
            total += 1
        except BudgetError:
            continue
    rate = distinguished / max(1, total)
    rep.add(f"rooted pairs with differing egos distinguished "
            f"({distinguished}/{total})", total == rooted_pairs and rate >= 0.95,
            f"rate {rate:.3f}")

    bad = 0
    for _ in range(40):
        g = _random_connected_sparse(rng, int(rng.integers(3, 9)), 2)
        perm = rng.permutation(g.node_count)
        h = relabel(g, perm)
        v = int(rng.integers(0, g.node_count))
        length = 2 * _rooted_ego(g, v).edge_count
        if length < 1:
            continue
        try:
            if walk_distributions_distinguish(g, v, h, int(perm[v]), length, BUDGET):
                bad += 1
        except BudgetError:
            continue
    rep.add("isomorphic rooted pairs never distinguished", bad == 0)
    return rep


# -- expressivity suite --------------------------------------------------------------

def _histogram_ids(colorings) -> np.ndarray:
    """One id per distinct color histogram: two ids differ iff their histograms do."""
    ids = {}
    return np.array([ids.setdefault(frozenset(c.histogram.items()), len(ids)) for c in colorings])


def _separated(embeds: np.ndarray, first, second) -> np.ndarray:
    """``np.abs(embeds[first] - embeds[second]).max(axis=1) > 1e-8`` without a
    RuntimeWarning: the full-row check runs only on the pairs whose first
    coordinates differ by at most 1e-8 (or NaN) or whose rows are not finite."""
    with np.errstate(invalid="ignore", over="ignore"):
        out = np.abs(embeds[first, 0] - embeds[second, 0]) > 1e-8
        finite = np.isfinite(embeds).all(axis=1)
        check = np.flatnonzero(~out | ~finite[first] | ~finite[second])
        out[check] = np.abs(embeds[first[check]] - embeds[second[check]]).max(axis=1) > 1e-8
    return out


def wl_suite(seed: int = 0, inits: int = 100, required: int = 99,
             max_n: int = 6) -> Report:
    """Distinguishing power on the exhaustive small-graph corpus.

    Checks that subgraph-hash refinement dominates neighbor-multiset
    refinement (with the classic 6-cycle vs two-triangles witness) and
    that randomly initialized model embeddings separate what the
    subgraph-hash refinement separates.
    """
    rep = Report("wl")
    corpus = graph_corpus(max_n)

    pairs = np.array(same_size_pairs(corpus), dtype=np.int64).reshape(-1, 2)
    policy = EgoPolicy(1)
    wl_ids = _histogram_ids(wl1_refine_many(corpus))
    swl_ids = _histogram_ids(swl_refine_many(corpus, policy))
    wl_sep = wl_ids[pairs[:, 0]] != wl_ids[pairs[:, 1]]
    swl_sep = swl_ids[pairs[:, 0]] != swl_ids[pairs[:, 1]]
    rep.add("subgraph-hash refinement dominates neighbor-multiset refinement",
            not np.any(wl_sep & ~swl_sep),
            f"{int(wl_sep.sum())} vs {int(swl_sep.sum())} of {len(pairs)} pairs")

    # the corpus holds one graph per isomorphism class, so a canonical form names
    # at most one index; only graphs of a target's degree sequence are canonicalized
    targets = (cycle_graph(6), disjoint_union(cycle_graph(3), cycle_graph(3)))
    degrees = {tuple(sorted(t.degrees.tolist())) for t in targets}
    index = {canonical_form(g): i for i, g in enumerate(corpus)
             if tuple(sorted(g.degrees.tolist())) in degrees}
    found = [index.get(canonical_form(t)) for t in targets]
    strict = None not in found and (swl_ids[found[0]] != swl_ids[found[1]]
                                    and wl_ids[found[0]] == wl_ids[found[1]])
    rep.add("6-cycle vs two-triangles separated only by subgraph hashing", strict)

    # the group holds no model parameter: the whole corpus is one group, built
    # once for all inits, with each graph's rows from its first node on
    cap = max(int(g.degrees.max()) if g.node_count else 0 for g in corpus)
    mcfg = ModelConfig(feature_dim=cap + 1, class_count=2, experts=3,
                       hidden_per_expert=4, embed_dim=16, k_ept=2)
    union = disjoint_union(*corpus)
    union = union.with_features(degree_features(union, cap))
    group = build_group(union, Records.from_lists(policy.node_sets(union)),
                        range(union.node_count))
    starts = np.cumsum([0] + [g.node_count for g in corpus[:-1]])
    kcfg = KernelConfig(max_step=3)
    first, second = pairs[swl_sep].T
    successes = np.zeros(len(first), dtype=np.int64)
    moments = None      # every init shares the kernel config and expert shapes
    for trial in range(inits):
        model = new_model(mcfg, kcfg, seed=int(
            np.random.SeedSequence(seed, spawn_key=(7, trial)).generate_state(1)[0]))
        if trial == 0:
            moments = kernel_moments(model, group)
        embeds = embed_group(model, group, starts, moments)
        successes += _separated(embeds, first, second)
    worst = successes.min() if len(successes) else inits
    rep.add(f"random-init embeddings separate subgraph-hash-separated pairs "
            f"(>= {required}/{inits} inits each)", worst >= required,
            f"worst pair separated in {worst}/{inits} inits")
    return rep


SUITES = {
    "kernel-oracle": kernel_oracle_suite,
    "grad": grad_suite,
    "walks": walks_suite,
    "wl": wl_suite,
}


def run_suite(name: str, **kwargs) -> Report:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name}; choose from {sorted(SUITES)}")
    return SUITES[name](**kwargs)
