import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mose.datasets import Dataset
from mose.graph import Graph, cycle_graph, degree_features, induced_subgraph
from mose.kernel import (BUCKET, STEP_MODES, KernelConfig, _moment_backward,
                         _moment_forward, _padded_backward, _padded_forward,
                         _rectified_powers, group_moments, group_values,
                         group_values_backward)
from mose.moe import (GATE_ACTIVATIONS, ExpertBank, ModelConfig, build_group,
                      group_forward, new_model)
from mose.nn import Mlp, relu, softmax, softplus
from mose.trainer import TrainConfig, frozen_loss
from mose.util import substream
from mose.walks import Records, WalkConfig, extract_dataset
from reference import (DenseSlots, Route, combine, distinct_rows, forward, gate_aggregate,
                       gate_scores, node_embedding, readout, route, slot_basis)


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
        w_g, w_n = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        eta = rng.normal(size=3)
        assert np.array_equal(gate_scores(eta, w_g, w_n, train_mode=False), eta @ w_g)

    def test_large_negative_noise_weights_vanish(self):
        rng = np.random.default_rng(2)
        w_g = rng.normal(size=(3, 4))
        eta = np.abs(rng.normal(size=3)) + 0.5
        psi = gate_scores(eta, w_g, np.full((3, 4), -50.0), train_mode=True,
                          rng=substream(0, 1))
        assert np.allclose(psi, eta @ w_g, atol=1e-6)

    def test_zero_summary_gives_log2_noise(self):
        eta = np.zeros(3)
        eps = substream(42, 0).standard_normal(2)
        psi = gate_scores(eta, np.ones((3, 2)), np.ones((3, 2)), train_mode=True,
                          rng=substream(42, 0))
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

    # with 12 distinct rows, f = 2 puts the group on the moment side of the rule
    # p*min(U, f)^2 <= nmax*(nmax + N*s) (N*s = 10), f = 12 on the padded side
    # (2*144 against at most 12*22)
    def test_engine_matches_reference(self):
        for step_mode, (f, moments) in itertools.product(STEP_MODES,
                                                         [(2, True), (12, False)]):
            model = tiny_model(f=f, experts=4, k_ept=2, seed=3, step_mode=step_mode)
            hidden = model.bank.hidden_nodes
            rng = np.random.default_rng(5)
            n = 12
            edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < 0.5]
            g = Graph.from_edges(n, edges, features=rng.normal(size=(n, f)))
            records = [[v] + [int(u) for u in g.neighbors_of(v)] for v in range(n)]
            group = build_group(g, Records.from_lists(records), range(n))
            assert group.fits_moments(model.kernel_cfg.max_step, hidden) == moments
            run = group_forward(model, group)
            assert (run.moments is not None) == moments
            for v in range(n):
                h_ref, r_ref = node_embedding(model, induced_subgraph(g, records[v]))
                assert np.allclose(run.h[v], h_ref, atol=1e-12)
                assert tuple(run.idx[v]) == r_ref.indices

    def test_reused_moments_give_the_same_bits(self, monkeypatch):
        # a run given an earlier run's moments computes none and matches a
        # fresh run bit for bit, forward and backward
        import mose.kernel
        model = tiny_model(f=2, experts=4, k_ept=2, seed=3)
        rng = np.random.default_rng(5)
        n = 12
        g = Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                                 if rng.random() < 0.5], features=rng.normal(size=(n, 2)))
        records = [[v] + [int(u) for u in g.neighbors_of(v)] for v in range(n)]
        group = build_group(g, Records.from_lists(records), range(n))
        dh = rng.normal(size=(n, model.embed_dim))
        runs, grads = [], []
        for moments in (None, "reused"):
            if moments is not None:
                moments = runs[0].moments
                monkeypatch.setattr(mose.kernel.NodeGroup, "moments", None)
            runs.append(group_forward(model, group, train_mode=True, rng=substream(1, 2),
                                      dropout=0.2, moments=moments))
            grads.append(model.zero_grads())
            runs[-1].backward(dh, grads[-1])
        assert runs[0].moments is not None and runs[1].moments is runs[0].moments
        assert np.array_equal(runs[0].h, runs[1].h)
        assert all(np.array_equal(grads[0][k], grads[1][k]) for k in grads[0])
        for other in (runs[0].moments[:1], runs[0].moments[:, :-1]):
            with pytest.raises(ValueError, match="moments of shape"):
                group_forward(model, group, moments=other)

    # nmax = 3 and N*s = 8: f = 5 (5 distinct rows) takes the padded order
    def test_concat_combine_engine_matches_reference(self):
        for step_mode, (f, moments) in itertools.product(STEP_MODES,
                                                         [(2, True), (5, False)]):
            model = tiny_model(f=f, experts=3, k_ept=2, seed=9, combine_mode="concat",
                               step_mode=step_mode)
            hidden = model.bank.hidden_nodes
            rng = np.random.default_rng(6)
            g = cycle_graph(5).with_features(rng.normal(size=(5, f)))
            records = [[v] + [int(u) for u in g.neighbors_of(v)] for v in range(5)]
            group = build_group(g, Records.from_lists(records), range(5))
            assert group.fits_moments(model.kernel_cfg.max_step, hidden) == moments
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
        group = build_group(g, Records.from_lists(records), range(n))
        model = tiny_model(f=f, experts=3, seed=4, step_mode=step_mode)
        kcfg = model.kernel_cfg
        expert = model.bank.experts[2]
        rows = np.array([0, 2, 3, 5, 8])
        moments = group_moments(group.adj, group.feats, kcfg.max_step)
        out = {}
        weights = kcfg.step_weights
        for name, kin in (("padded", None), ("moments", moments)):
            vals, cache = group_values(expert.W, expert.Z, group, kcfg.max_step, kin, rows)
            phi = (vals.reshape(-1, kcfg.max_step) @ weights).reshape(len(rows), -1)
            dphi = np.random.default_rng(12).normal(size=phi.shape)
            dvals = (dphi.reshape(-1, weights.shape[1]) @ weights.T).reshape(vals.shape)
            out[name] = (phi, *group_values_backward(group, dvals, cache))
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
        group = build_group(g, Records.from_lists(records), node_ids)
        adj, sizes, feats, eta = loop_group(g, records, node_ids, act)
        assert np.array_equal(group.adj, adj)
        assert np.array_equal(group.sizes, sizes)
        assert np.array_equal(group.feats, feats)
        assert np.abs(act(group.agg) - eta).max() <= 1e-12 * max(1.0, np.abs(eta).max())

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 30), st.data())
    def test_a_chunk_of_the_csr_builds_as_its_own_records(self, n, data):
        # build_group cuts the chunk's ids out of the whole graph's CSR by its
        # offsets: the plan equals one built from a CSR of just those records
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
        g = Graph.from_edges(n, edges, features=rng.integers(0, 3, (n, 3)).astype(float))
        lists = [[v] + [u for u in rng.permutation(n).tolist() if u != v][
            :data.draw(st.integers(0, n - 1))] for v in range(n)]
        node_ids = data.draw(st.permutations(range(n)))[:data.draw(st.integers(1, n))]
        got = build_group(g, Records.from_lists(lists), node_ids)
        want = build_group(g, Records.from_lists([lists[v] for v in node_ids]),
                           range(len(node_ids)))
        for name in ("row_nodes", "local", "sizes", "edges", "edge_offsets", "agg"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name

    def test_peak_holds_the_gate_aggregate_and_little_else(self):
        # a 512-row chunk of a 1500-node graph with 512-wide features, as a
        # node task plans it. The bound holds the (B, f) aggregate, 8 int64
        # arrays per neighbour of a slot for the edge phase and 16 per slot;
        # the aggregate's row blocks fit in the slots' share. Measured with
        # numpy 2.4: 6.8 MB (bound 15.7 MB); 10.4 MB with a sorted key search
        # for the neighbours' slots, 17.4 MB with the (B, U + 1) lookup table,
        # scores and weights.
        rng = np.random.default_rng(60)
        n, f, cap = 1500, 512, 64
        edges = [(i, int(j)) for i in range(1, n) for j in rng.integers(0, i, 3)]
        g = Graph.from_edges(n, edges, features=(rng.random((n, f)) < 0.1).astype(float))
        records = Records.from_lists([[v] + [u for u in rng.choice(n, cap).tolist()
                                             if u != v][:rng.integers(cap // 2, cap)]
                                      for v in range(n)])
        node_ids = rng.permutation(n)[:512]
        peak, group = self.build_peak(g, records, node_ids)
        (b, nmax), u = group.local.shape, len(group.row_nodes)
        assert u > 1000 and nmax == cap
        neighbours = g.degrees[np.concatenate([records[v] for v in node_ids])].sum()
        assert peak <= 8 * (b * f + 8 * neighbours + 16 * b * nmax)

    @staticmethod
    def wide_records(n=400, nmax=150, seed=71):
        """A sparse n-node graph, and records of up to nmax nodes (> 127, so the
        slot table needs int16) for every node: a plan wider than int8 slots."""
        rng = np.random.default_rng(seed)
        edges = [(i, i + 1) for i in range(n - 1)] + [tuple(e) for e in
                                                      rng.integers(0, n, (2 * n, 2))]
        g = Graph.from_edges(n, edges, features=rng.normal(size=(n, 3)))
        lists = [[v] + [u for u in rng.permutation(n)[:nmax].tolist() if u != v][
            :int(rng.integers(1, nmax))] for v in range(n)]
        lists[0] = list(range(nmax))
        return g, Records.from_lists(lists), np.arange(0, n, 4)

    @pytest.mark.parametrize("chunk", ["outside-neighbours", "wide-slots"])
    def test_one_row_blocks_give_the_same_edges(self, chunk, monkeypatch):
        # the slot table filled one row at a time: the same bits as one block
        import mose.kernel
        g, records, node_ids = (self.scaled_chunk(2000) if chunk == "outside-neighbours"
                                else self.wide_records())
        want = build_group(g, records, node_ids)
        nmax = want.local.shape[1]
        neighbours = g.degrees[np.concatenate([records[v] for v in node_ids])].sum()
        if chunk == "outside-neighbours":
            assert len(want.edges) < neighbours
        else:
            assert nmax > 128 and np.min_scalar_type(-nmax) == np.int16
            rows = np.array([0, 5, len(node_ids) - 1])     # row 0 holds nmax nodes
            dense = [induced_subgraph(g, records[node_ids[r]].tolist()).adjacency_dense()
                     for r in rows]
            for adj, ref in zip(want.padded_adjacency(np.float64, rows), dense):
                assert np.array_equal(adj[:len(ref), :len(ref)], ref) and adj.sum() == ref.sum()
        table_row = g.node_count * np.min_scalar_type(-nmax).itemsize
        assert len(list(mose.kernel._row_blocks(len(node_ids), table_row))) == 1
        monkeypatch.setattr(mose.kernel, "_BLOCK_BYTES", 1)
        assert len(list(mose.kernel._row_blocks(len(node_ids), table_row))) == len(node_ids)
        got = build_group(g, records, node_ids)
        for name in ("edges", "edge_offsets"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name

    @staticmethod
    def scaled_chunk(n, f=64, nmax=48, seed=70):
        """A ring of n nodes with chords and real-valued f-wide features, each
        node's record 24..nmax nodes of the 64 around it (CSR arrays), and 512
        centers: a node task's chunk, whose records touch more distinct rows
        as n grows."""
        rng = np.random.default_rng(seed)
        ring = np.arange(n)
        edges = np.concatenate([np.stack([ring, (ring + k) % n], 1) for k in (1, 2, 3)]
                               + [rng.integers(0, n, (n // 4, 2))])
        g = Graph.from_edges(n, edges, features=rng.normal(size=(n, f)))
        sizes = rng.integers(nmax // 2, nmax + 1, n)
        window = np.concatenate([np.arange(-32, 0), np.arange(1, 33)])
        picks = window[rng.random((n, len(window))).argsort(axis=1)[:, :nmax - 1]]
        ids = np.concatenate([ring[:, None], (ring[:, None] + picks) % n], axis=1)
        keep = np.arange(nmax)[None] < sizes[:, None]
        records = Records(ids[keep].astype(np.int32), np.concatenate([[0], np.cumsum(sizes)]))
        return g, records, rng.permutation(n)[:512]

    @staticmethod
    def build_peak(g, records, node_ids):
        """(peak of build_group over its entry, the plan)."""
        import tracemalloc
        g.feature_rows                      # computed once per graph, before any plan
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            group = build_group(g, records, node_ids)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        return peak, group

    def test_blocked_aggregate_matches_the_reference(self):
        # real-valued features through seven row blocks of the aggregate: each
        # row is the reference gate aggregate of its record's subgraph
        g, records, node_ids = self.scaled_chunk(2000)
        group = build_group(g, records, node_ids)
        want = np.stack([gate_aggregate(induced_subgraph(g, records[v].tolist()),
                                        act=GATE_ACTIVATIONS["identity"])
                         for v in node_ids])
        assert rel_err(group.agg, want) <= 1e-12

    def test_chunk_peak_does_not_grow_with_the_graph(self):
        # a 512-node chunk of a 2k-node and of a 16k-node graph: its records
        # touch 2,000 and 10,964 distinct rows, and nothing build_group
        # allocates is sized by them. Measured with numpy 2.4.6: 4.8 and 5.0 MB
        # (the edge phase's per-neighbour arrays lead); with (B, U + 1) tables,
        # 11.3 and 53.1 MB.
        peaks = []
        for n in (2000, 16000):
            peak, group = self.build_peak(*self.scaled_chunk(n))
            assert group.local.shape == (512, 48)
            peaks.append((peak, len(group.row_nodes)))
        (small, u_small), (large, u_large) = peaks
        assert u_large > 5 * u_small
        assert large <= 1.2 * small

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
        group = build_group(g, Records.from_lists(records), node_ids)
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
        group = build_group(g, Records.from_lists(records), range(n))
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
        group = build_group(g, Records.from_lists(records), node_ids)
        nmax = group.local.shape[1]
        assert nmax == hi and group.edges.dtype.itemsize == (4 if hi > 256 else
                                                              2 if hi > 16 else 1)
        whole = g.adjacency_dense()
        adj = np.zeros((len(node_ids), nmax, nmax))
        for b, v in enumerate(node_ids):
            k = len(records[v])
            adj[b, :k, :k] = whole[np.ix_(records[v], records[v])]
        assert np.array_equal(group.adj, adj)
        want = group_moments(adj, slot_basis(group), p_max)
        got = group.moments(p_max)
        assert got.shape == want.shape and np.array_equal(got, want)
        widths, _ = group.buckets()
        assert ((widths >= group.sizes) & ((widths % BUCKET == 0) | (widths == nmax))).all()
        assert widths.max() == nmax

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 20), st.data())
    def test_row_csr_pads_each_rows_induced_subgraph(self, n, data):
        # any rows of the plan, in any order, at any width their sizes fit in
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < data.draw(st.sampled_from([0.0, 0.3, 1.0]))]
        g = Graph.from_edges(n, edges, features=rng.normal(size=(n, 2)))
        records = [[v] + [u for u in rng.permutation(n).tolist() if u != v][
            :data.draw(st.integers(0, n - 1))] for v in range(n)]
        node_ids = data.draw(st.permutations(range(n)))[:data.draw(st.integers(1, n))]
        group = build_group(g, Records.from_lists(records), node_ids)
        offsets = group.edge_offsets
        assert offsets[0] == 0 and offsets[-1] == len(group.edges)
        assert len(offsets) == group.count + 1 and (np.diff(offsets) >= 0).all()
        rows = np.array(data.draw(st.lists(st.integers(0, group.count - 1), max_size=6)),
                        dtype=np.int64)
        fit = int(group.sizes[rows].max()) if len(rows) else 0
        width = data.draw(st.one_of(st.none(), st.integers(fit, fit + 9)))
        got = group.padded_adjacency(np.uint8, rows, width)
        w = group.local.shape[1] if width is None else width
        assert got.shape == (len(rows), w, w) and got.dtype == np.uint8
        for block, b in zip(got, rows):
            a = induced_subgraph(g, records[node_ids[b]]).adjacency_dense(np.uint8)
            assert np.array_equal(block, np.pad(a, (0, w - len(a))))


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

    # 1 KiB blocks: X_u projected and dZ summed two rows at a time, A one row
    @pytest.mark.parametrize("block_bytes", [None, 1 << 10])
    @pytest.mark.parametrize("rows", [np.arange(10), np.array([0, 3, 6, 7])])
    def test_matches_padded_tensor_reference(self, rows, block_bytes, monkeypatch):
        import mose.kernel
        if block_bytes:
            monkeypatch.setattr(mose.kernel, "_BLOCK_BYTES", block_bytes)
        g, records = self.wide_group()
        node_ids = [4, 0, 6, 3, 1, 2, 5, 7, 8, 9]
        group = build_group(g, Records.from_lists(records), node_ids)
        _, _, feats, eta = loop_group(g, records, node_ids)
        assert len(set(group.sizes.tolist())) > 2
        assert rel_err(relu(group.agg), eta) <= 1e-12
        model = tiny_model(f=64, experts=3, seed=5)
        assert not group.fits_moments(model.kernel_cfg.max_step,
                                      model.bank.hidden_nodes)
        expert = model.bank.experts[2]
        r_pows = _rectified_powers(expert.W, model.kernel_cfg.max_step)
        vals, state = _padded_forward(expert.Z, r_pows, group, rows)
        dvals = np.random.default_rng(22).normal(size=vals.shape)
        dz, d_rq = _padded_backward(r_pows, group, dvals, state, rows)
        ref = padded_tensor_kernel(expert, r_pows, group.adj[rows], feats[rows], dvals)
        for got, want in zip((vals, dz, d_rq), ref):
            assert np.any(want != 0)
            assert rel_err(got, want) <= 1e-12

    # p = 1..4 runs both block cases, C_q = Y_k Y_k^T (even q) and Y_{k-1} Y_k^T (odd q)
    @pytest.mark.parametrize("p_max", [1, 2, 3, 4])
    def test_both_orders_match_longdouble_loops(self, p_max):
        g, records = self.wide_group()
        node_ids = [4, 0, 6, 3, 1, 2, 5, 7, 8, 9]
        group = build_group(g, Records.from_lists(records), node_ids)
        adj, sizes, feats, _ = loop_group(g, records, node_ids)
        assert 1 in sizes.tolist() and len(set(sizes.tolist())) > 2
        model = tiny_model(f=64, experts=3, seed=5)
        moments = group_moments(group.adj, group.feats, p_max)
        for m, expert in enumerate(model.bank.experts):
            r_pows = _rectified_powers(expert.W, p_max)
            dvals = np.random.default_rng(30 + m).normal(
                size=(group.count, expert.hidden_count, p_max))
            want = longdouble_kernel(expert, r_pows, adj, feats, sizes, dvals)
            vals, state = _padded_forward(expert.Z, r_pows, group)
            padded = (vals,) + _padded_backward(r_pows, group, dvals, state)
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
        group = build_group(g, Records.from_lists(records), range(n))
        model = tiny_model(f=f, experts=3, seed=5)
        assert not group.fits_moments(model.kernel_cfg.max_step,
                                      model.bank.hidden_nodes)
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

    def test_row_blocks_give_the_same_bits(self, monkeypatch):
        # rows routed to three experts, read from the plan itself and from a
        # dense uint8 adjacency, one row, three rows or every row per block:
        # each gives the bits of the unblocked call on the dense float64 arrays
        # sliced to the expert's rows. _BLOCK_BYTES also blocks the distinct
        # rows projected into P and summed into dZ; at f = 11 they stay one
        # block at every size forced here, so only the row blocking varies, and
        # the group takes the padded order (2*11^2 against nmax*(nmax + 8) = 240)
        import mose.kernel
        rng = np.random.default_rng(31)
        n, f = 16, 11
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
        g = Graph.from_edges(n, edges, features=np.random.default_rng(32).normal(size=(n, f)))
        records = [[v] + [u for u in rng.permutation(n).tolist() if u != v][:rng.integers(12)]
                   for v in range(n)]
        group = build_group(g, Records.from_lists(records), range(n))
        nmax = group.local.shape[1]
        assert nmax > BUCKET
        model = tiny_model(f=f, experts=3, seed=5)
        assert not group.fits_moments(model.kernel_cfg.max_step,
                                      model.bank.hidden_nodes)
        routes = [np.arange(n), np.array([0, 3, 4, 9, 15]), np.array([2, 5, 7, 8, 11, 12, 14])]
        block_bytes = mose.kernel._BLOCK_BYTES
        assert 8 * f * group.distinct <= 8 * nmax * (nmax + 4)     # one block: N*s >= 4

        def evaluate(slots, sliced, rows_per_block=None):
            # (vals, C, dZ, dR^q) per expert
            out = []
            for m, (expert, at) in enumerate(zip(model.bank.experts, routes)):
                if rows_per_block:
                    # a block of rows holds (nmax, nmax) adjacencies and (N*s, nmax) T
                    width = expert.hidden_count * expert.size
                    monkeypatch.setattr(mose.kernel, "_BLOCK_BYTES",
                                        rows_per_block * 8 * nmax * (nmax + width))
                r_pows = _rectified_powers(expert.W, model.kernel_cfg.max_step)
                args = ((DenseSlots(slots.adj[at], slots.xu, slots.local[at]),) if sliced
                        else (slots,))
                rows = () if sliced else (at,)
                vals, state = _padded_forward(expert.Z, r_pows, *args, *rows)
                dvals = np.random.default_rng(40 + m).normal(size=vals.shape)
                out += [vals, state[1], *_padded_backward(r_pows, *args, dvals, state, *rows)]
            monkeypatch.setattr(mose.kernel, "_BLOCK_BYTES", block_bytes)
            return out

        xu = distinct_rows(group)
        want = evaluate(DenseSlots(group.adj, xu, group.local), True)
        for rows_per_block in (1, 3, n):
            for slots in (group, DenseSlots(group.padded_adjacency(np.uint8), xu, group.local)):
                got = evaluate(slots, False, rows_per_block)
                assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_padded_run_keeps_no_distinct_rows_for_backward(self, monkeypatch):
        # 64 disjoint records of 128 nodes, U = 8192 distinct rows of 512
        # features. Every expert's state keeps its projection P = X_u Z^T, (U+1,
        # N*s), and the kernel reads A and the rows of X_u a block at a time,
        # so no (U + 1, f) or (U', f) copy of the features and no (B, nmax,
        # nmax) adjacency is held between the passes or made within them.
        # With 64 KiB blocks, measured with numpy 2.4: peaks of 1.7 MB (forward)
        # and 1.1 MB (backward), bound 4.2 MB; X_u alone is 33.6 MB.
        import dataclasses
        import tracemalloc
        import mose.kernel
        rng = np.random.default_rng(24)
        b, nmax, f = 64, 128, 512
        n = b * nmax
        ring = np.arange(n)
        g = Graph.from_edges(n, np.concatenate([np.stack([ring, (ring + k) % n], 1)
                                                for k in (1, 5)]),
                             features=rng.normal(size=(n, f)))
        centers = np.arange(0, n, nmax)
        records = [[v] for v in range(n)]
        for c in centers:
            records[c] = list(range(c, c + nmax))
        group = build_group(g, Records.from_lists(records), centers)
        model = tiny_model(f=f, experts=3, seed=5)
        assert not group.fits_moments(model.kernel_cfg.max_step,
                                      model.bank.hidden_nodes)
        assert group.local.shape == (b, nmax) and len(group.row_nodes) == n
        distinct = 8 * (len(group.row_nodes) + 1) * f
        bound = min(distinct, 8 * b * nmax * nmax) / 2
        monkeypatch.setattr(mose.kernel, "_BLOCK_BYTES", 1 << 16)

        def traced(call):
            tracing = tracemalloc.is_tracing()
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                out = call()
                return out, tracemalloc.get_traced_memory()[1] - base
            finally:
                if not tracing:
                    tracemalloc.stop()

        run, peak = traced(lambda: group_forward(model, group, train_mode=True,
                                                 rng=substream(0, 1), dropout=0.1))
        assert peak <= bound
        held, seen, stack = [], set(), [run]
        while stack:
            obj = stack.pop()
            if id(obj) in seen or obj is model or obj is group.features:
                continue
            seen.add(id(obj))
            if isinstance(obj, np.ndarray):
                held.append(obj.shape)
                stack.append(obj.base)
            elif isinstance(obj, (tuple, list)):
                stack.extend(obj)
            elif isinstance(obj, dict):
                stack.extend(obj.values())
            elif dataclasses.is_dataclass(obj):
                stack.extend(vars(obj).values())
        assert len(held) > 10
        assert not [shape for shape in held if shape[-1:] == (f,) and shape[0] > b]
        assert (b, nmax, nmax) not in held
        grads = model.zero_grads()
        _, peak = traced(lambda: run.backward(np.ones_like(run.h), grads))
        assert peak <= bound
        assert np.any(grads["expert0.Z"] != 0)

    @staticmethod
    def backward_peak(n):
        """(peak over entry, bound) of GroupRun.backward on a wide padded unit of
        n rows (nmax 64, f 64). The bound is twice ``_BLOCK_BYTES`` for one row
        block (the budget covers its float64 adjacencies and T, its other arrays
        are T-sized), plus dT and three C-sized arrays for the largest expert's
        rows, plus 0.5 MB."""
        import tracemalloc
        import mose.kernel
        rng = np.random.default_rng(50)
        f = nmax = 64
        g = Graph.from_edges(n, rng.integers(0, n, (8 * n, 2)),
                             features=rng.normal(size=(n, f)))
        records = [[v] + [u for u in rng.permutation(n)[:nmax].tolist() if u != v][
            :nmax - 1 - v % 9] for v in range(n)]
        group = build_group(g, Records.from_lists(records), range(n))
        model = tiny_model(f=f, experts=3, seed=5)
        p = model.kernel_cfg.max_step
        assert not group.fits_moments(p, model.bank.hidden_nodes) and group.local.shape[1] == nmax
        run = group_forward(model, group)
        grads, dh = model.zero_grads(), np.ones_like(run.h)
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            run.backward(dh, grads)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        kept = max(8 * len(run.expert_rows[m][0]) * e.hidden_count * e.size
                   * (nmax + 3 * p * e.size)
                   for m, e in enumerate(model.bank.experts) if m in run.expert_rows)
        return peak, 2 * mose.kernel._BLOCK_BYTES + kept + 2**19

    def test_padded_backward_memory_grows_with_blocks_not_rows(self):
        # the float64 adjacencies exist for one block of rows at a time, so the
        # bound holds no rows x nmax^2 term, and twice the rows add only their
        # dT and C. Measured with numpy 2.4: 4.2 MB for 300 rows (bound 6.0 MB),
        # 5.8 MB for 600; a float64 adjacency for every routed row took 12.7
        # and 25.1 MB.
        peak, bound = self.backward_peak(300)
        assert peak <= bound
        assert self.backward_peak(600)[0] < 1.6 * peak

    def test_only_the_moment_path_builds_the_padded_features(self, monkeypatch):
        # the moment order in the identity basis gathers (rows, width, f)
        # features per size bucket; the padded order gathers none
        import mose.kernel
        basis_of, gathered = mose.kernel._slot_basis, []

        def recorded(group, local):
            out = basis_of(group, local)
            gathered.append(out.shape)
            return out

        monkeypatch.setattr(mose.kernel, "_slot_basis", recorded)
        for f, moments in ((64, False), (2, True)):
            gathered.clear()
            g, records = self.wide_group(f)
            group = build_group(g, Records.from_lists(records), range(g.node_count))
            model = tiny_model(f=f, experts=3, seed=5)
            run = group_forward(model, group, train_mode=True, rng=substream(0, 1),
                                dropout=0.1)
            run.backward(np.ones_like(run.h), model.zero_grads())
            assert (run.moments is not None) == moments
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
            for name, basis, rows in (("class", slot_basis(group), group.basis_rows),
                                      ("identity", group.feats, np.eye(group.width))):
                moments = group_moments(group.adj, basis, p_max)
                vals, state = _moment_forward(expert.Z, r_pows, moments, rows)
                out[name] = (vals,) + _moment_backward(expert.Z, moments, dvals, state, rows)
            yield expert, r_pows, dvals, out

    @pytest.mark.parametrize("p_max", [1, 2, 3, 4])
    def test_matches_longdouble_loops(self, p_max):
        g, records = self.repeated_group()
        node_ids = [4, 0, 6, 3, 1, 2, 5, 7, 8, 9]
        group = build_group(g, Records.from_lists(records), node_ids)
        adj, sizes, feats, _ = loop_group(g, records, node_ids)
        assert 1 in sizes.tolist() and len(set(sizes.tolist())) > 2
        assert group.basis_rows.shape == (3, 12) and slot_basis(group).shape[2] == 3
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
        group = build_group(g, Records.from_lists(records), rng.permutation(10)[:rng.integers(1, 11)])
        assert len(group.basis_rows) < f
        model = tiny_model(f=f, experts=3, seed=seed % 7)
        for _, _, _, out in self.expert_passes(model, group, p_max):
            for a, b in zip(out["class"], out["identity"]):
                assert rel_err(a, b) <= 1e-12

    @pytest.mark.parametrize("f,distinct,p_max", [(12, 3, 1), (12, 3, 2), (12, 3, 3),
                                                  (3, 3, 2), (2, 3, 1), (2, 3, 2)])
    def test_fits_moments_counts_the_smaller_basis(self, f, distinct, p_max):
        g, records = self.repeated_group(f, distinct)
        group = build_group(g, Records.from_lists(records), range(10))
        u, nmax = len(distinct_rows(group)) - 1, group.adj.shape[1]
        assert (u, nmax) == (3, 5)
        for hidden in (0, 2, 16):
            assert group.fits_moments(p_max, hidden) == (
                p_max * min(u, f) ** 2 <= nmax * (nmax + hidden))
        assert slot_basis(group).shape[2] == min(u, f)
        assert np.array_equal(group.basis_rows,
                              distinct_rows(group)[:-1] if u < f else np.eye(f))

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
        group = build_group(g, Records.from_lists(records), range(n))
        assert len(distinct_rows(group)) - 1 == 4     # two classes for the rows (0, 1, 0, ...)
        e = group.basis_rows
        for q, k in enumerate(group_moments(group.adj, slot_basis(group), 4)):
            want = group_moments(group.adj, group.feats, 4)[q]
            assert np.array_equal(e.T @ k @ e, want)

    def test_group_keeps_each_distinct_row_once(self):
        g, records = self.repeated_group()
        group = build_group(g, Records.from_lists(records), range(10))
        rows = distinct_rows(group)[:-1]
        assert len(np.unique(rows, axis=0)) == len(rows) == 3
        assert not distinct_rows(group)[-1].any()


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


class TestParameterLayout:
    def test_default_layout_is_pinned(self):
        # the names and shapes a version-3 checkpoint stores
        model = new_model(ModelConfig(feature_dim=3, class_count=2), KernelConfig())
        expected = {"gating.W_g": (3, 5), "gating.W_n": (3, 5), "head.W0": (32, 32),
                    "head.W1": (32, 2), "head.b0": (32,), "head.b1": (2,)}
        for k, s in enumerate(range(2, 7)):
            expected |= {f"expert{k}.W": (8, s, s), f"expert{k}.Z": (8, s, 3),
                         f"expert{k}.mlp.W0": (24, 32), f"expert{k}.mlp.W1": (32, 32),
                         f"expert{k}.mlp.b0": (32,), f"expert{k}.mlp.b1": (32,)}
        layout = [(k, v.shape) for k, v in sorted(model.parameters().items())]
        assert layout == sorted(expected.items())


class TestMlp:
    @pytest.mark.parametrize("shape", [(4,), (2, 3, 4)])
    def test_refuses_input_that_is_not_a_batch(self, shape):
        # a 1-d input with in == out would give a scalar weight gradient that
        # broadcasts into every entry
        mlp = Mlp("m", (4, 4), np.random.default_rng(0))
        with pytest.raises(ValueError, match=r"m: input must be \(batch, in\)"):
            mlp.forward(np.ones(shape))
