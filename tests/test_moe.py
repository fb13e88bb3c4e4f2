import itertools

import numpy as np
import pytest

from mose.datasets import Dataset
from mose.graph import Graph, cycle_graph, degree_features, induced_subgraph
from mose.kernel import STEP_MODES, KernelConfig
from mose.moe import (ExpertBank, GatingParams, ModelConfig, Route, build_group,
                      combine, forward, gate_aggregate, gate_scores,
                      group_forward, group_moments, new_model, node_embedding,
                      readout, route, _expert_kernel_backward,
                      _expert_kernel_forward)
from mose.nn import relu, softmax, softplus
from mose.trainer import TrainConfig, frozen_loss
from mose.util import substream
from mose.walks import WalkConfig, extract_dataset


def sub_of(g, nodes):
    return induced_subgraph(g, nodes)


def tiny_model(f=4, classes=2, experts=3, k_ept=2, seed=0, step_mode="concat-over-p",
               **kw):
    mcfg = ModelConfig(feature_dim=f, class_count=classes, experts=experts,
                       hidden_per_expert=2, embed_dim=6, k_ept=k_ept, **kw)
    kcfg = KernelConfig(max_step=2, lambdas=(1.0, 0.7, 0.4), step_mode=step_mode)
    return new_model(mcfg, kcfg, seed=seed)


class TestGateAggregate:
    def test_singleton_doubles_center(self):
        g = Graph.from_edges(1, [], features=np.array([[1.0, -2.0, 3.0]]))
        eta = gate_aggregate(sub_of(g, [0]))
        assert np.allclose(eta, relu(2 * g.features[0]))

    def test_equal_features_double(self):
        x = np.array([0.5, 1.5])
        g = cycle_graph(3).with_features(np.tile(x, (3, 1)))
        eta = gate_aggregate(sub_of(g, [0, 1, 2]))
        assert np.allclose(eta, relu(2 * x))

    def test_zero_features(self):
        g = cycle_graph(3).with_features(np.zeros((3, 2)))
        assert np.allclose(gate_aggregate(sub_of(g, [0, 1, 2])), 0.0)

    def test_matches_manual_softmax(self):
        rng = np.random.default_rng(0)
        g = cycle_graph(4).with_features(rng.normal(size=(4, 3)))
        sub = sub_of(g, [2, 0, 1])
        x = sub.graph.features
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
    g = Graph.from_edges(n, edges, features=rng.normal(size=(n, f)))
    return sub_of(g, range(n))


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
            assert (run.moments is not None) == moments
            for v in range(n):
                h_ref, r_ref = node_embedding(model, sub_of(g, records[v]))
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
                h_ref, _ = node_embedding(model, sub_of(g, records[v]))
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
        for name, m in (("padded", None), ("moments", moments)):
            phi, cache = _expert_kernel_forward(expert, kcfg, group, rows, m)
            grads = {"e.W": np.zeros_like(expert.W), "e.Z": np.zeros_like(expert.Z)}
            dphi = np.random.default_rng(12).normal(size=phi.shape)
            _expert_kernel_backward(expert, kcfg, group, rows, m, dphi, cache,
                                    grads, "e")
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
