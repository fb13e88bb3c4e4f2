import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mose.datasets import Dataset
from mose.graph import Graph, cycle_graph, degree_features, induced_subgraph
from mose.kernel import (STEP_MODES, KernelConfig, _moment_backward, _moment_forward,
                         _padded_backward, _padded_forward, _rectified_powers,
                         group_moments)
from mose.moe import (BUCKET, GATE_ACTIVATIONS, ExpertBank, GatingParams, KernelInput,
                      ModelConfig, build_group, group_forward, new_model,
                      _expert_kernel_backward, _expert_kernel_forward)
from mose.nn import relu, softmax, softplus
from mose.trainer import TrainConfig, frozen_loss
from mose.util import substream
from mose.walks import WalkConfig, extract_dataset
from reference import (Route, combine, forward, gate_aggregate, gate_scores,
                       node_embedding, readout, route)


def tiny_model(f=4, classes=2, experts=3, k_ept=2, seed=0, step_mode="concat-over-p",
               **kw):
    mcfg = ModelConfig(feature_dim=f, class_count=classes, experts=experts,
                       hidden_per_expert=2, embed_dim=6, k_ept=k_ept, **kw)
    kcfg = KernelConfig(max_step=2, lambdas=(1.0, 0.7, 0.4), step_mode=step_mode)
    return new_model(mcfg, kcfg, seed=seed)


class TestGateAggregate:
    def test_singleton_doubles_center(self):
        g = Graph.from_edges(1, [], features=np.array([[1.0, -2.0, 3.0]]))
        eta = gate_aggregate(induced_subgraph(g, [0]))
        assert np.allclose(eta, relu(2 * g.features[0]))

    def test_equal_features_double(self):
        x = np.array([0.5, 1.5])
        g = cycle_graph(3).with_features(np.tile(x, (3, 1)))
        eta = gate_aggregate(induced_subgraph(g, [0, 1, 2]))
        assert np.allclose(eta, relu(2 * x))

    def test_zero_features(self):
        g = cycle_graph(3).with_features(np.zeros((3, 2)))
        assert np.allclose(gate_aggregate(induced_subgraph(g, [0, 1, 2])), 0.0)

    def test_matches_manual_softmax(self):
        rng = np.random.default_rng(0)
        g = cycle_graph(4).with_features(rng.normal(size=(4, 3)))
        sub = induced_subgraph(g, [2, 0, 1])
        x = sub.features
        alpha = softmax(x @ x[0])
        assert np.allclose(gate_aggregate(sub), relu(x[0] + alpha @ x))


class TestGateScores:
    def test_eval_mode_is_clean(self):
        rng = np.random.default_rng(1)
        gp = GatingParams(W_g=rng.normal(size=(3, 4)), W_n=rng.normal(size=(3, 4)))
        eta = rng.normal(size=3)
        assert np.array_equal(gate_scores(eta, gp, train_mode=False), eta @ gp.W_g)

    def test_large_negative_noise_weights_vanish(self):
        rng = np.random.default_rng(2)
        gp = GatingParams(W_g=rng.normal(size=(3, 4)),
                          W_n=np.full((3, 4), -50.0))
        eta = np.abs(rng.normal(size=3)) + 0.5
        psi = gate_scores(eta, gp, train_mode=True, rng=substream(0, 1))
        assert np.allclose(psi, eta @ gp.W_g, atol=1e-6)

    def test_zero_summary_gives_log2_noise(self):
        gp = GatingParams(W_g=np.ones((3, 2)), W_n=np.ones((3, 2)))
        eta = np.zeros(3)
        eps = substream(42, 0).standard_normal(2)
        psi = gate_scores(eta, gp, train_mode=True, rng=substream(42, 0))
        assert np.allclose(psi, eps * np.log(2.0))


class TestRoute:
    def test_example_values(self):
        r = route(np.array([0.5, 2.0, 1.0]), 2)
        assert r.indices == (1, 2)
        expected = np.exp([2.0, 1.0])
        expected /= expected.sum()
        assert np.allclose(r.weights, expected)
        assert r.weights[0] == pytest.approx(0.73106, abs=1e-5)
        assert r.weights[1] == pytest.approx(0.26894, abs=1e-5)

    def test_full_selection_sums_to_one(self):
        r = route(np.array([3.0, -1.0, 0.5]), 3)
        assert r.indices == (0, 1, 2)
        assert r.weights.sum() == pytest.approx(1.0)

    def test_constant_scores_pick_lowest_indices(self):
        r = route(np.zeros(5), 2)
        assert r.indices == (0, 1)
        assert np.allclose(r.weights, 0.5)

    def test_scaling_keeps_selection(self):
        psi = np.array([0.3, -0.2, 1.4, 0.9])
        assert route(psi, 2).indices == route(5.0 * psi, 2).indices

    def test_route_invariants(self):
        with pytest.raises(ValueError):
            Route(indices=(1, 0), weights=np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            Route(indices=(0, 1), weights=np.array([0.7, 0.2]))
        with pytest.raises(ValueError):
            Route(indices=(0,), weights=np.array([-1.0]))


class TestCombine:
    def test_single_expert_passthrough(self):
        r = Route(indices=(2,), weights=np.array([1.0]))
        h = np.array([1.0, 2.0])
        assert np.array_equal(combine({2: h}, r), h)

    def test_equal_weights_average(self):
        r = Route(indices=(0, 1), weights=np.array([0.5, 0.5]))
        out = combine({0: np.array([2.0, 0.0]), 1: np.array([0.0, 2.0])}, r)
        assert np.allclose(out, [1.0, 1.0])

    def test_missing_embedding_is_internal_error(self):
        r = Route(indices=(0, 1), weights=np.array([0.5, 0.5]))
        with pytest.raises(RuntimeError):
            combine({0: np.zeros(2)}, r)


class TestReadout:
    def test_single_and_mean(self):
        a, b = np.array([1.0, 3.0]), np.array([3.0, 5.0])
        assert np.array_equal(readout([a]), a)
        assert np.allclose(readout([a, b]), [2.0, 4.0])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        vecs = [rng.normal(size=4) for _ in range(5)]
        for mode in ("mean", "sum", "max"):
            assert np.allclose(readout(vecs, mode), readout(vecs[::-1], mode))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            readout([])


def toy_subgraph(seed=0, n=5, f=4):
    rng = np.random.default_rng(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
    return Graph.from_edges(n, edges, features=rng.normal(size=(n, f)))


class TestForward:
    def test_eval_deterministic(self):
        model = tiny_model()
        sub = toy_subgraph()
        l1, r1 = forward(model, sub)
        l2, r2 = forward(model, sub)
        assert np.array_equal(l1, l2)
        assert r1.indices == r2.indices

    def test_logits_length(self):
        model = tiny_model(classes=3)
        logits, r = forward(model, toy_subgraph())
        assert logits.shape == (3,)
        assert len(r.indices) == 2

    # f = 2 puts the group on the moment side of the rule p*f^2 <= nmax^2,
    # f = 6 on the padded side
    def test_engine_matches_reference(self):
        for step_mode, (f, moments) in itertools.product(STEP_MODES,
                                                         [(2, True), (6, False)]):
            model = tiny_model(f=f, experts=4, k_ept=2, seed=3, step_mode=step_mode)
            rng = np.random.default_rng(5)
            n = 6
            edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < 0.5]
            g = Graph.from_edges(n, edges, features=rng.normal(size=(n, f)))
            records = [[v] + [int(u) for u in g.neighbors_of(v)] for v in range(n)]
            group = build_group(g, records, range(n))
            assert group.fits_moments(model.kernel_cfg.max_step) == moments
            run = group_forward(model, group)
            assert (run.kernel_in.moments is not None) == moments
            for v in range(n):
                h_ref, r_ref = node_embedding(model, induced_subgraph(g, records[v]))
                assert np.allclose(run.h[v], h_ref, atol=1e-12)
                assert tuple(run.idx[v]) == r_ref.indices

    def test_concat_combine_engine_matches_reference(self):
        for step_mode, (f, moments) in itertools.product(STEP_MODES,
                                                         [(2, True), (4, False)]):
            model = tiny_model(f=f, experts=3, k_ept=2, seed=9, combine_mode="concat",
                               step_mode=step_mode)
            rng = np.random.default_rng(6)
            g = cycle_graph(5).with_features(rng.normal(size=(5, f)))
            records = [[v] + [int(u) for u in g.neighbors_of(v)] for v in range(5)]
            group = build_group(g, records, range(5))
            assert group.fits_moments(model.kernel_cfg.max_step) == moments
            run = group_forward(model, group)
            for v in range(5):
                h_ref, _ = node_embedding(model, induced_subgraph(g, records[v]))
                assert np.allclose(run.h[v], h_ref, atol=1e-12)

    @pytest.mark.parametrize("step_mode", STEP_MODES)
    def test_kernel_paths_agree(self, step_mode):
        rng = np.random.default_rng(11)
        n, f = 9, 3
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.4]
        g = Graph.from_edges(n, edges, features=rng.normal(size=(n, f)))
        records = [[v] + [int(u) for u in g.neighbors_of(v)] for v in range(n)]
        group = build_group(g, records, range(n))
        model = tiny_model(f=f, experts=3, seed=4, step_mode=step_mode)
        kcfg = model.kernel_cfg
        expert = model.bank.experts[2]
        rows = np.array([0, 2, 3, 5, 8])
        moments = group_moments(group.adj, group.feats, kcfg.max_step)
        out = {}
        for name, kin in (("padded", KernelInput(group.xu, group.local, adj=group.adj)),
                          ("moments", KernelInput(group.xu, group.local, moments=moments))):
            phi, cache = _expert_kernel_forward(expert, kcfg, kin, rows)
            grads = {"e.W": np.zeros_like(expert.W), "e.Z": np.zeros_like(expert.Z)}
            dphi = np.random.default_rng(12).normal(size=phi.shape)
            _expert_kernel_backward(expert, kcfg, kin, rows, dphi, cache, grads, "e")
            out[name] = (phi, grads["e.W"], grads["e.Z"])
        for a, b in zip(out["padded"], out["moments"]):
            assert np.any(a != 0)
            assert np.abs(a - b).max() <= 1e-12 * np.abs(a).max()

    def test_unselected_expert_gets_zero_gradient(self):
        rng = np.random.default_rng(2)
        g = cycle_graph(4).with_features(degree_features(cycle_graph(4), 3))
        g = g.with_label(0)
        data = Dataset(graphs=[g], task="graph", class_count=2, name="t")
        cache = extract_dataset([g], "t", WalkConfig(walk_length=3,
                                                     walks_per_node=4,
                                                     pattern_budget=2,
                                                     subgraph_cap=6, seed=0))
        model = tiny_model(f=4, experts=3, k_ept=1, seed=1)
        cfg = TrainConfig(seed=0, beta=0.0, dropout_rate=0.0)
        grads = model.zero_grads()
        _, picks = frozen_loss(model, data, cache, [0], cfg, None, grads,
                               train_mode=False)
        selected = set(picks[0].ravel().tolist())
        unselected = set(range(3)) - selected
        assert unselected
        params = model.parameters()
        for m in unselected:
            assert np.all(grads[f"expert{m}.W"] == 0)
            assert np.all(grads[f"expert{m}.Z"] == 0)
            # finite-difference cross-check on one entry
            name = f"expert{m}.W"
            arr = params[name]
            orig = arr[0, 0, 1]
            h = 1e-5
            arr[0, 0, 1] = orig + h
            lp, _ = frozen_loss(model, data, cache, [0], cfg, None, None, False)
            arr[0, 0, 1] = orig - h
            lm, _ = frozen_loss(model, data, cache, [0], cfg, None, None, False)
            arr[0, 0, 1] = orig
            assert lp == lm

    def test_sparsity_touches_only_selected_experts(self):
        model = tiny_model(experts=4, k_ept=2, seed=7)
        calls = []
        for m, e in enumerate(model.bank.experts):
            orig = e.transform.forward
            def wrapped(x, *a, _m=m, _orig=orig, **kw):
                calls.append(_m)
                return _orig(x, *a, **kw)
            e.transform.forward = wrapped
        sub = toy_subgraph(seed=8)
        _, r = forward(model, sub)
        assert sorted(set(calls)) == list(r.indices)
        assert len(calls) == len(r.indices)


def loop_group(g, records, node_ids, act=relu):
    """Reference build: one record at a time, the padded tensors filled entry
    by entry from the parent graph; returns (adj, sizes, feats, eta)."""
    node_ids = list(node_ids)
    nmax = max(len(records[v]) for v in node_ids)
    b, f = len(node_ids), g.feature_dim
    adj, feats = np.zeros((b, nmax, nmax)), np.zeros((b, nmax, f))
    sizes, eta = np.zeros(b, dtype=np.int64), np.zeros((b, f))
    for i, v in enumerate(node_ids):
        ids = records[v]
        sizes[i] = len(ids)
        for a, u in enumerate(ids):
            feats[i, a] = g.features[u]
            nbrs = set(int(w) for w in g.neighbors_of(u))
            for c, w in enumerate(ids):
                adj[i, a, c] = float(w in nbrs)
        x = feats[i, :len(ids)]
        eta[i] = act(x[0] + softmax(x @ x[0]) @ x)
    return adj, sizes, feats, eta


def padded_tensor_kernel(expert, r_pows, adj, feats, dvals):
    """Reference padded kernel on an explicit (B, nmax, f) feature tensor:
    T = Z X_b^T per row, then dZ = sum_b dT_b X_b; returns (vals, dZ, dR^q)."""
    n_hidden, s = expert.hidden_count, expert.size
    b, p_max = adj.shape[0], len(r_pows) - 1
    t = np.matmul(expert.Z.reshape(n_hidden * s, -1)[None], feats.transpose(0, 2, 1))
    v_list = [t]
    for _ in range(p_max):
        v_list.append(np.matmul(v_list[-1], adj))
    t4 = t.reshape(b, n_hidden, s, -1)
    vals = np.empty((b, n_hidden, p_max))
    dt4 = np.zeros_like(t4)
    d_rq = np.empty((p_max, n_hidden, s, s))
    for q in range(1, p_max + 1):
        v4 = v_list[q].reshape(b, n_hidden, s, -1)
        m = np.matmul(r_pows[q][None], v4)
        vals[:, :, q - 1] = (t4 * m).sum(axis=(2, 3))
        dt4 += 2.0 * dvals[:, :, q - 1, None, None] * m
        c = np.matmul(t4, v4.transpose(0, 1, 3, 2))
        d_rq[q - 1] = (dvals[:, :, q - 1, None, None] * c).sum(axis=0)
    return vals, np.tensordot(dt4, feats, axes=([0, 3], [0, 1])), d_rq


def longdouble_kernel(expert, r_pows, adj, feats, sizes, dvals):
    """Loop reference in np.longdouble on the unpadded records: per row b, hidden
    graph i and step q, T = Z_i X_b^T, vals = <R^q, T A^q T^T>, and the sums
    dZ_i += dvals 2 R^q T A^q X_b and dR^q_i += dvals T A^q T^T."""
    ld = np.longdouble
    z, r = expert.Z.astype(ld), r_pows.astype(ld)
    b, n_hidden, p_max = dvals.shape
    s = expert.size
    vals = np.zeros(dvals.shape, dtype=ld)
    dz = np.zeros(z.shape, dtype=ld)
    d_rq = np.zeros((p_max, n_hidden, s, s), dtype=ld)
    for row in range(b):
        k = sizes[row]
        x, a = feats[row, :k].astype(ld), adj[row, :k, :k].astype(ld)
        for i in range(n_hidden):
            t = z[i] @ x.T
            ta = t
            for q in range(1, p_max + 1):
                ta = ta @ a
                c = ta @ t.T
                d = ld(dvals[row, i, q - 1])
                vals[row, i, q - 1] = (r[q, i] * c).sum()
                dz[i] += d * 2 * (r[q, i] @ ta @ x)
                d_rq[q - 1, i] += d * c
    return vals, dz, d_rq


def rel_err(a, b):
    return np.abs(a - b).max() / max(np.abs(b).max(), 1e-300)


class TestGroupBuild:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 8), st.data())
    def test_matches_per_node_loop(self, n, data):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        f = data.draw(st.integers(1, 4))
        # isolated extra nodes make a large sparse graph around the records
        extra = data.draw(st.sampled_from([0, 6000]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        g = Graph.from_edges(n + extra, [p for p, k in zip(pairs, keep) if k],
                             features=rng.normal(size=(n + extra, f)))
        records = []
        for v in range(n):
            others = data.draw(st.permutations([u for u in range(n) if u != v]))
            records.append([v] + others[:data.draw(st.integers(0, n - 1))])
        node_ids = data.draw(st.permutations(range(n)))[:data.draw(st.integers(1, n))]
        act = GATE_ACTIVATIONS[data.draw(st.sampled_from(sorted(GATE_ACTIVATIONS)))]
        group = build_group(g, records, node_ids)
        adj, sizes, feats, eta = loop_group(g, records, node_ids, act)
        assert np.array_equal(group.adj, adj)
        assert np.array_equal(group.sizes, sizes)
        assert np.array_equal(group.feats, feats)
        assert np.abs(act(group.agg) - eta).max() <= 1e-12 * max(1.0, np.abs(eta).max())

    @pytest.mark.parametrize("n", [12, 6500])
    def test_one_construction_at_every_size(self, n, monkeypatch):
        def refuse(self, dtype=np.float64):
            raise AssertionError("build_group formed an n x n adjacency")

        monkeypatch.setattr(Graph, "adjacency_dense", refuse)
        rng = np.random.default_rng(n)
        edges = [(i, i + 1) for i in range(n - 1)]
        edges += [tuple(rng.integers(0, n, 2)) for _ in range(n // 2)]
        g = Graph.from_edges(n, edges, features=rng.normal(size=(n, 3)))
        records = [[v] + [int(u) for u in rng.choice(n, 9, replace=False) if u != v]
                   for v in range(n)]
        records[1] = [1]
        for v in range(0, n, max(1, n // 40)):
            records[v] = [v] + [int(u) for u in g.neighbors_of(v)]
        node_ids = rng.permutation(n)[:min(n, 300)]
        group = build_group(g, records, node_ids)
        adj, sizes, feats, eta = loop_group(g, records, node_ids)
        assert adj.sum() > 0
        assert np.array_equal(group.adj, adj)
        assert np.array_equal(group.sizes, sizes)
        assert np.array_equal(group.feats, feats)
        assert rel_err(relu(group.agg), eta) <= 1e-12

    def test_one_group_serves_every_gate_activation(self):
        # the group holds no parameter: models that differ only in their gate
        # activation each apply their own to the same group
        rng = np.random.default_rng(12)
        n = 9
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
        g = Graph.from_edges(n, edges, features=rng.normal(size=(n, 4)))
        records = [[v] + [int(u) for u in g.neighbors_of(v)][:4] for v in range(n)]
        group = build_group(g, records, range(n))
        etas = []
        for name in ("relu", "tanh"):
            run = group_forward(tiny_model(seed=3, gate_activation=name), group)
            want = np.stack([gate_aggregate(induced_subgraph(g, records[v]),
                                            act=GATE_ACTIVATIONS[name]) for v in range(n)])
            assert rel_err(run.eta, want) <= 1e-12
            etas.append(run.eta)
        assert not np.array_equal(*etas)


class TestPlan:
    """The plan keeps index arrays; each pass builds its dense arrays from them."""

    # (nodes, record sizes): small records with singletons; sizes 57-62 under
    # nmax = 62, whose rounded width 64 exceeds nmax; and records above 256
    # nodes, past what uint16 offsets hold
    REGIMES = {"small": (9, (1, 9)), "near-nmax": (62, (57, 62)), "wide": (300, (1, 300))}

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(REGIMES)), st.integers(1, 4), st.booleans(),
           st.integers(0, 2**16))
    def test_bucketed_moments_equal_the_padded_ones(self, regime, p_max, identity, seed):
        rng = np.random.default_rng(seed)
        n, (lo, hi) = self.REGIMES[regime]
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < min(0.5, 8 / n)]
        # small integer features keep both bases exact: f = 2 with many
        # distinct rows takes the identity basis, f = 8 with 3 rows the class one
        if identity:
            x = rng.integers(-3, 4, (n, 2)).astype(float)
        else:
            x = rng.integers(-3, 4, (3, 8)).astype(float)[rng.integers(0, 3, n)]
        g = Graph.from_edges(n, edges, features=x)
        records = [[v] + [u for u in rng.permutation(n).tolist() if u != v]
                   [:rng.integers(lo, hi + 1) - 1] for v in range(n)]
        records[0] = [0] + list(range(1, hi))   # a record at the top size sets nmax
        node_ids = [0] + rng.permutation(np.arange(1, n))[:rng.integers(0, 6)].tolist()
        group = build_group(g, records, node_ids)
        nmax = group.local.shape[1]
        assert nmax == hi and group.edges.dtype.itemsize == (4 if hi > 256 else
                                                              2 if hi > 16 else 1)
        whole = g.adjacency_dense()
        adj = np.zeros((len(node_ids), nmax, nmax))
        for b, v in enumerate(node_ids):
            k = len(records[v])
            adj[b, :k, :k] = whole[np.ix_(records[v], records[v])]
        assert np.array_equal(group.adj, adj)
        want = group_moments(adj, group.basis, p_max)
        got = group.moments(group.xu, p_max)
        assert got.shape == want.shape and np.array_equal(got, want)
        widths, _ = group.buckets()
        assert ((widths >= group.sizes) & ((widths % BUCKET == 0) | (widths == nmax))).all()
        assert widths.max() == nmax


class TestGatheredKernel:
    @staticmethod
    def wide_group(f=64):
        # f = 64 is far wider than any record (nmax = 5)
        rng = np.random.default_rng(21)
        n = 10
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
        g = Graph.from_edges(n, edges, features=rng.normal(size=(n, f)))
        records = [[v] + [int(u) for u in g.neighbors_of(v)][:4] for v in range(n)]
        records[3] = [3]
        records[6] = [6, 9, 1, 4]
        return g, records

    @pytest.mark.parametrize("rows", [np.arange(10), np.array([0, 3, 6, 7])])
    def test_matches_padded_tensor_reference(self, rows):
        g, records = self.wide_group()
        node_ids = [4, 0, 6, 3, 1, 2, 5, 7, 8, 9]
        group = build_group(g, records, node_ids)
        _, _, feats, eta = loop_group(g, records, node_ids)
        assert len(set(group.sizes.tolist())) > 2
        assert rel_err(relu(group.agg), eta) <= 1e-12
        model = tiny_model(f=64, experts=3, seed=5)
        assert not group.fits_moments(model.kernel_cfg.max_step)
        expert = model.bank.experts[2]
        r_pows = _rectified_powers(expert.W, model.kernel_cfg.max_step)
        vals, state = _padded_forward(expert.Z, r_pows, group.adj[rows], group.xu,
                                      group.local[rows])
        dvals = np.random.default_rng(22).normal(size=vals.shape)
        dz, d_rq = _padded_backward(r_pows, group.adj[rows], group.xu, group.local[rows],
                                     dvals, state)
        ref = padded_tensor_kernel(expert, r_pows, group.adj[rows], feats[rows], dvals)
        for got, want in zip((vals, dz, d_rq), ref):
            assert np.any(want != 0)
            assert rel_err(got, want) <= 1e-12

    # p = 1..4 runs both block cases, C_q = Y_k Y_k^T (even q) and Y_{k-1} Y_k^T (odd q)
    @pytest.mark.parametrize("p_max", [1, 2, 3, 4])
    def test_both_orders_match_longdouble_loops(self, p_max):
        g, records = self.wide_group()
        node_ids = [4, 0, 6, 3, 1, 2, 5, 7, 8, 9]
        group = build_group(g, records, node_ids)
        adj, sizes, feats, _ = loop_group(g, records, node_ids)
        assert 1 in sizes.tolist() and len(set(sizes.tolist())) > 2
        model = tiny_model(f=64, experts=3, seed=5)
        moments = group_moments(group.adj, group.feats, p_max)
        for m, expert in enumerate(model.bank.experts):
            r_pows = _rectified_powers(expert.W, p_max)
            dvals = np.random.default_rng(30 + m).normal(
                size=(group.count, expert.hidden_count, p_max))
            want = longdouble_kernel(expert, r_pows, adj, feats, sizes, dvals)
            vals, state = _padded_forward(expert.Z, r_pows, group.adj, group.xu, group.local)
            padded = (vals,) + _padded_backward(r_pows, group.adj, group.xu, group.local,
                                                dvals, state)
            vals, state = _moment_forward(expert.Z, r_pows, moments, np.eye(64))
            moment = (vals,) + _moment_backward(expert.Z, moments, dvals, state, np.eye(64))
            for got in (padded, moment):
                for a, b in zip(got, want):
                    assert np.any(b != 0)
                    assert np.abs(a - b).max() <= 1e-13 * np.abs(b).max()

    def test_padded_order_keeps_no_padded_tensor(self):
        # records of up to 12 nodes, so that nmax exceeds p * s and the kept
        # (p, rows, N, s, s) blocks stay below one padded (rows, N, s, nmax) tensor
        rng = np.random.default_rng(23)
        n, f = 16, 64
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
        g = Graph.from_edges(n, edges, features=rng.normal(size=(n, f)))
        records = [[v] + [u for u in rng.permutation(n).tolist() if u != v][:rng.integers(12)]
                   for v in range(n)]
        records[5] = [5]
        group = build_group(g, records, range(n))
        model = tiny_model(f=f, experts=3, seed=5)
        assert not group.fits_moments(model.kernel_cfg.max_step)
        run = group_forward(model, group, train_mode=True, rng=substream(0, 1), dropout=0.1)
        nmax = group.adj.shape[1]
        assert nmax > model.kernel_cfg.max_step * max(model.cfg.sizes)

        def arrays(obj):
            if isinstance(obj, np.ndarray):
                yield obj
            elif isinstance(obj, (tuple, list)):
                for item in obj:
                    yield from arrays(item)

        assert run.expert_caches
        for m, cache in run.expert_caches.items():
            expert = model.bank.experts[m]
            padded = len(run.expert_rows[m][0]) * expert.hidden_count * expert.size * nmax
            assert max(a.size for a in arrays(cache)) < padded

    def test_only_the_moment_path_builds_the_padded_features(self, monkeypatch):
        # the moment order in the identity basis gathers (rows, width, f)
        # features per size bucket; the padded order gathers none
        import mose.moe
        slot_basis, gathered = mose.moe._slot_basis, []

        def recorded(xu, local):
            out = slot_basis(xu, local)
            gathered.append(out.shape)
            return out

        monkeypatch.setattr(mose.moe, "_slot_basis", recorded)
        for f, moments in ((64, False), (2, True)):
            gathered.clear()
            g, records = self.wide_group(f)
            group = build_group(g, records, range(g.node_count))
            model = tiny_model(f=f, experts=3, seed=5)
            run = group_forward(model, group, train_mode=True, rng=substream(0, 1),
                                dropout=0.1)
            run.backward(np.ones_like(run.h), model.zero_grads())
            assert (run.kernel_in.moments is not None) == moments
            assert bool(gathered) == moments
            assert all(shape[2] == f for shape in gathered)


class TestClassBasis:
    """Moments taken in the basis of a group's distinct feature rows (U < f)."""

    @staticmethod
    def repeated_group(f=12, distinct=3, seed=31):
        # 10 nodes share 3 feature rows; records of 1 to 5 nodes
        rng = np.random.default_rng(seed)
        n = 10
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
        rows = rng.normal(size=(distinct, f))
        g = Graph.from_edges(n, edges, features=rows[rng.integers(0, distinct, n)])
        records = [[v] + [int(u) for u in g.neighbors_of(v)][:4] for v in range(n)]
        records[3] = [3]
        records[6] = [6, 9, 1, 4]
        return g, records

    @staticmethod
    def expert_passes(model, group, p_max):
        """Per expert: (expert, R powers, dvals, {basis: (vals, dZ, dR^q)}), the
        moments taken in the group's basis ("class") and in the features."""
        for m, expert in enumerate(model.bank.experts):
            r_pows = _rectified_powers(expert.W, p_max)
            dvals = np.random.default_rng(40 + m).normal(
                size=(group.count, expert.hidden_count, p_max))
            out = {}
            for name, basis, rows in (("class", group.basis, group.basis_rows),
                                      ("identity", group.feats, np.eye(group.xu.shape[1]))):
                moments = group_moments(group.adj, basis, p_max)
                vals, state = _moment_forward(expert.Z, r_pows, moments, rows)
                out[name] = (vals,) + _moment_backward(expert.Z, moments, dvals, state, rows)
            yield expert, r_pows, dvals, out

    @pytest.mark.parametrize("p_max", [1, 2, 3, 4])
    def test_matches_longdouble_loops(self, p_max):
        g, records = self.repeated_group()
        node_ids = [4, 0, 6, 3, 1, 2, 5, 7, 8, 9]
        group = build_group(g, records, node_ids)
        adj, sizes, feats, _ = loop_group(g, records, node_ids)
        assert 1 in sizes.tolist() and len(set(sizes.tolist())) > 2
        assert group.basis_rows.shape == (3, 12) and group.basis.shape[2] == 3
        model = tiny_model(f=12, experts=3, seed=5)
        for expert, r_pows, dvals, out in self.expert_passes(model, group, p_max):
            want = longdouble_kernel(expert, r_pows, adj, feats, sizes, dvals)
            for a, b in zip(out["class"], want):
                assert np.any(b != 0)
                assert np.abs(a - b).max() <= 1e-13 * np.abs(b).max()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**16), st.integers(1, 5), st.integers(6, 16), st.integers(1, 4))
    def test_agrees_with_the_identity_basis(self, seed, distinct, f, p_max):
        g, records = self.repeated_group(f, distinct, seed)
        rng = np.random.default_rng(seed)
        group = build_group(g, records, rng.permutation(10)[:rng.integers(1, 11)])
        assert len(group.basis_rows) < f
        model = tiny_model(f=f, experts=3, seed=seed % 7)
        for _, _, _, out in self.expert_passes(model, group, p_max):
            for a, b in zip(out["class"], out["identity"]):
                assert rel_err(a, b) <= 1e-12

    @pytest.mark.parametrize("f,distinct,p_max", [(12, 3, 1), (12, 3, 2), (12, 3, 3),
                                                  (3, 3, 2), (2, 3, 1), (2, 3, 2)])
    def test_fits_moments_counts_the_smaller_basis(self, f, distinct, p_max):
        g, records = self.repeated_group(f, distinct)
        group = build_group(g, records, range(10))
        u, nmax = len(group.xu) - 1, group.adj.shape[1]
        assert (u, nmax) == (3, 5)
        assert group.fits_moments(p_max) == (p_max * min(u, f) ** 2 <= nmax ** 2)
        assert group.basis.shape[2] == min(u, f)
        assert np.array_equal(group.basis_rows, group.xu[:-1] if u < f else np.eye(f))

    def test_signed_zeros_keep_the_moments_exact(self):
        # -0.0 and +0.0 split a feature row into two classes; on small integer
        # features both bases are exact, so the moments agree bit for bit
        rng = np.random.default_rng(3)
        n = 8
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
        x = np.zeros((n, 6))
        x[:, 0] = [0.0, -0.0, 0.0, -0.0, 1.0, 1.0, 2.0, 0.0]
        x[:, 1] = 1.0
        g = Graph.from_edges(n, edges, features=x)
        records = [[v] + [int(u) for u in g.neighbors_of(v)] for v in range(n)]
        group = build_group(g, records, range(n))
        assert len(group.xu) - 1 == 4     # two classes for the rows (0, 1, 0, ...)
        e = group.basis_rows
        for q, k in enumerate(group_moments(group.adj, group.basis, 4)):
            want = group_moments(group.adj, group.feats, 4)[q]
            assert np.array_equal(e.T @ k @ e, want)

    def test_group_keeps_each_distinct_row_once(self):
        g, records = self.repeated_group()
        group = build_group(g, records, range(10))
        rows = group.xu[:-1]
        assert len(np.unique(rows, axis=0)) == len(rows) == 3
        assert not group.xu[-1].any()


class TestBankValidation:
    def test_sizes_strictly_increasing(self):
        model = tiny_model(experts=3)
        e = model.bank.experts
        with pytest.raises(ValueError):
            ExpertBank([e[0], e[0]])

    def test_model_config_validation(self):
        with pytest.raises(ValueError):
            ModelConfig(feature_dim=3, class_count=2, experts=2, k_ept=5)
        with pytest.raises(ValueError):
            ModelConfig(feature_dim=3, class_count=2, combine_mode="bogus")
        with pytest.raises(ValueError):
            ModelConfig(feature_dim=3, class_count=2, sizes=(2, 3))

    def test_default_sizes_start_at_two(self):
        cfg = ModelConfig(feature_dim=3, class_count=2, experts=4)
        assert cfg.sizes == (2, 3, 4, 5)
