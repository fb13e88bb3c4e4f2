import hashlib
import json
import os
import platform
import re
import subprocess
import sys

import numpy as np
import pytest

from mose.datasets import Dataset, gen_graph_cycle, make_folds, make_node_splits
from mose.graph import Graph, degree_features
from mose.kernel import KernelConfig
from mose.moe import ModelConfig, build_group, gate_backward, group_forward, new_model
from mose.trainer import (Metrics, NonFiniteLossError, TrainConfig, _RouteStash,
                          accuracy_score, evaluate, grad_check, load_checkpoint,
                          macro_f1_score, metrics_csv, save_checkpoint, total_loss,
                          train, _cv_squared, _cv_squared_grad)
from mose.util import FormatError, substream
from mose.walks import WalkConfig, extract_dataset
from reference import Route, full_rerun_grad_check, importance_loss, slot_basis


def tri_tail(label=0):
    return Graph.from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)],
                            graph_label=label)


def sq_tail(label=1):
    return Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4)],
                            graph_label=label)


def toy_dataset(pairs=10):
    graphs = []
    for _ in range(pairs):
        graphs.append(tri_tail(0))
        graphs.append(sq_tail(1))
    cap = max(int(g.degrees.max()) for g in graphs)
    graphs = [g.with_features(degree_features(g, cap)) for g in graphs]
    return Dataset(graphs=graphs, task="graph", class_count=2, name="toy")


def toy_cache(data, seed=1):
    return extract_dataset(data.graphs, data.name,
                           WalkConfig(walk_length=4, walks_per_node=8,
                                      pattern_budget=4, subgraph_cap=8,
                                      seed=seed))


def toy_model(data, experts=3, seed=0, max_step=3, combine_mode="weighted-sum"):
    mcfg = ModelConfig(feature_dim=data.feature_dim, class_count=data.class_count,
                       experts=experts, hidden_per_expert=2, embed_dim=8, k_ept=2,
                       combine_mode=combine_mode)
    return new_model(mcfg, KernelConfig(max_step=max_step), seed=seed)


class TestLosses:
    def test_importance_balanced_is_zero(self):
        routes = [Route(indices=(k,), weights=np.array([1.0])) for k in range(3)] * 3
        assert importance_loss(routes, 3) == pytest.approx(0.0)

    def test_importance_two_four(self):
        routes = [Route(indices=(0, 1), weights=np.array([1 / 3, 2 / 3]))] * 6
        # totals (2, 4): mean 3, population std 1
        assert importance_loss(routes, 2) == pytest.approx(1 / 9, rel=1e-9)

    def test_importance_single_hot(self):
        routes = [Route(indices=(0,), weights=np.array([1.0]))] * 5
        assert importance_loss(routes, 4) == pytest.approx(3.0, rel=1e-9)

    def test_importance_empty_rejected(self):
        with pytest.raises(ValueError):
            importance_loss([], 3)

    def test_total_loss(self):
        assert total_loss(1.0, 7.0, 0.0) == 1.0
        assert total_loss(1.0, 0.0, 5.0) == 1.0
        assert total_loss(1.0, 0.2, 0.5) == pytest.approx(1.1)

    def test_cv_gradient_matches_fd(self):
        rng = np.random.default_rng(0)
        totals = rng.random(5) * 3 + 0.5
        grad = _cv_squared_grad(totals)
        h = 1e-7
        for k in range(5):
            plus, minus = totals.copy(), totals.copy()
            plus[k] += h
            minus[k] -= h
            num = (_cv_squared(plus) - _cv_squared(minus)) / (2 * h)
            assert grad[k] == pytest.approx(num, rel=1e-5, abs=1e-9)


class TestRouteStash:
    def test_penalty_maps_match_the_eta_backward(self):
        # two train-mode units on real-valued features: the balance penalty's
        # W_g and W_n gradients through the stash's (f, E, E) maps equal
        # gate_backward's from each unit's eta; an eval stash keeps no map
        data = golden_node_dataset(width=64)
        cache = extract_dataset(data.graphs, data.name, GOLDEN_WALKS)
        model = new_model(ModelConfig(feature_dim=64, class_count=3, experts=4,
                                      hidden_per_expert=2, embed_dim=6, k_ept=2, task="node"),
                          KernelConfig(max_step=2), seed=3)
        g, e = data.graphs[0], model.expert_count
        runs = [group_forward(model, build_group(g, cache.records[0], chunk), train_mode=True,
                              rng=substream(0, k))
                for k, chunk in enumerate(np.array_split(np.arange(g.node_count), [512]))]
        stash, plain = _RouteStash(e, maps=True), _RouteStash(e, maps=False)
        for run in runs:
            stash.add(run)
            plain.add(run)
        assert plain.maps is None and np.array_equal(plain.totals(), stash.totals())
        # no (B, f) array outlives its unit: the stash holds (B, k) picks and
        # weights and (f, E * E) maps
        held = [a.shape for item in stash.items for a in item]
        assert all(shape[1] == 2 for shape in held)
        assert [m.shape for m in stash.maps.values()] == [(64, e * e)] * 2
        d_totals = np.random.default_rng(1).normal(size=e)
        got, want = model.zero_grads(), model.zero_grads()
        stash.backward(d_totals, got)
        for run in runs:
            gate_backward(run.eta, run.eps, run.sig, run.idx, run.zeta, d_totals[run.idx], e,
                          want)
        for name in ("gating.W_g", "gating.W_n"):
            assert np.any(want[name] != 0)
            assert np.abs(got[name] - want[name]).max() <= 1e-12 * np.abs(want[name]).max()


class TestMetricHelpers:
    def test_perfect_predictor(self):
        y = np.array([0, 1, 1, 0])
        assert accuracy_score(y, y) == 1.0
        assert macro_f1_score(y, y, 2) == 1.0

    def test_constant_predictor_balanced(self):
        y = np.array([0, 1] * 10)
        pred = np.zeros(20, dtype=int)
        assert accuracy_score(pred, y) == 0.5
        assert macro_f1_score(pred, y, 2) == pytest.approx((2 / 3) / 2)

    def test_empty_split_rejected(self):
        data = toy_dataset(2)
        cache = toy_cache(data)
        model = toy_model(data)
        with pytest.raises(ValueError):
            evaluate(model, data, cache, [])


class TestTrainConfig:
    @pytest.mark.parametrize("field, value, message", [
        ("epochs", -1, "epochs must be >= 0"),
        ("learning_rate", 0.0, "learning_rate must be > 0"),
        ("learning_rate", float("nan"), "learning_rate must be > 0"),
        ("batch_size", 0, "batch_size must be >= 1"),
        ("beta", float("inf"), "beta must be finite and non-negative"),
        ("dropout_rate", 1.0, "dropout_rate must lie in [0, 1)"),
        ("dropout_rate", -0.5, "dropout_rate must lie in [0, 1)"),
        ("val_fraction", 1.0, "val_fraction must lie in [0, 1)"),
        ("val_fraction", -0.1, "val_fraction must lie in [0, 1)")])
    def test_out_of_range_field_is_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            TrainConfig(**{field: value})

    def test_range_ends_are_accepted(self):
        TrainConfig(epochs=0, dropout_rate=0.0, val_fraction=0.0, beta=0.0)
        TrainConfig(dropout_rate=0.999, val_fraction=0.999)


class TestTraining:
    def test_zero_epochs_leaves_model_unchanged(self):
        data = toy_dataset(3)
        cache = toy_cache(data)
        model = toy_model(data)
        before = model.snapshot()
        ids = np.arange(len(data.graphs))
        model, metrics, _ = train(model, data, cache, (ids, ids),
                                  TrainConfig(epochs=0, seed=0, patience=0))
        for k, v in model.parameters().items():
            assert np.array_equal(v, before[k])
        assert 0.0 <= metrics.accuracy <= 1.0

    def test_fixed_seed_reproduces_parameters(self):
        data = toy_dataset(4)
        cache = toy_cache(data)
        ids = np.arange(len(data.graphs))
        cfg = TrainConfig(epochs=3, seed=5, patience=0, batch_size=4)
        final = []
        for _ in range(2):
            model = toy_model(data, seed=2)
            model, _, _ = train(model, data, cache, (ids, ids), cfg)
            final.append(model.snapshot())
        for k in final[0]:
            assert np.array_equal(final[0][k], final[1][k])

    def test_separable_toy_reaches_full_train_accuracy(self):
        data = toy_dataset(10)
        cache = toy_cache(data)
        model = toy_model(data)
        ids = np.arange(len(data.graphs))
        cfg = TrainConfig(epochs=60, learning_rate=3e-3, seed=3, patience=0,
                          batch_size=10, dropout_rate=0.1)
        model, metrics, _ = train(model, data, cache, (ids, ids), cfg)
        assert metrics.accuracy == 1.0

    def test_loss_decreases_early(self):
        data = toy_dataset(8)
        cache = toy_cache(data)
        ids = np.arange(len(data.graphs))
        drops = []
        for seed in range(5):
            model = toy_model(data, seed=seed)
            cfg = TrainConfig(epochs=10, learning_rate=3e-3, seed=seed,
                              patience=0, batch_size=8)
            _, _, state = train(model, data, cache, (ids, ids), cfg)
            first = [r for r in state["rows"] if r["split"] == "train"][0]
            last = [r for r in state["rows"] if r["split"] == "train"][-1]
            drops.append(last["loss_task"] < first["loss_task"])
        assert np.median(drops) == 1.0

    def test_balance_penalty_lowers_load_cv(self):
        data = toy_dataset(8)
        cache = toy_cache(data)
        ids = np.arange(len(data.graphs))
        cvs = {0.0: [], 0.5: []}
        for seed in range(5):
            for beta in (0.0, 0.5):
                model = toy_model(data, experts=4, seed=seed)
                cfg = TrainConfig(epochs=12, learning_rate=3e-3, beta=beta,
                                  seed=seed, patience=0, batch_size=8)
                _, metrics, _ = train(model, data, cache, (ids, ids), cfg)
                cvs[beta].append(_cv_squared(metrics.expert_load))
        assert np.median(cvs[0.5]) <= np.median(cvs[0.0])

    def test_nonfinite_loss_aborts_with_dump(self):
        data = toy_dataset(3)
        cache = toy_cache(data)
        model = toy_model(data)
        model.parameters()["head.W0"][0, 0] = np.nan
        ids = np.arange(len(data.graphs))
        with pytest.raises(NonFiniteLossError) as err:
            train(model, data, cache, (ids, ids),
                  TrainConfig(epochs=1, seed=0, patience=0))
        dump = err.value.dump()
        assert dump["epoch"] == 0
        assert "head.W0" in dump["param_norms"]

    def test_eval_invariant_to_order(self):
        data = toy_dataset(5)
        cache = toy_cache(data)
        model = toy_model(data)
        ids = list(range(len(data.graphs)))
        a = evaluate(model, data, cache, ids)
        b = evaluate(model, data, cache, ids[::-1])
        assert a.accuracy == b.accuracy
        assert a.macro_f1 == b.macro_f1
        assert np.allclose(a.expert_load, b.expert_load)


class TestNodeTask:
    def make(self, seed=0):
        n = 12
        edges = [(i, (i + 1) % n) for i in range(n)] + [(0, 6), (3, 9)]
        labels = np.array([i % 2 for i in range(n)])
        g = Graph.from_edges(n, edges, node_labels=labels)
        g = g.with_features(degree_features(g, 3))
        data = Dataset(graphs=[g], task="node", class_count=2, name="toynode")
        cache = extract_dataset([g], "toynode",
                                WalkConfig(walk_length=3, walks_per_node=6,
                                           pattern_budget=3, subgraph_cap=6,
                                           seed=seed))
        return data, cache

    def test_trains_and_evaluates(self):
        data, cache = self.make()
        mcfg = ModelConfig(feature_dim=data.feature_dim, class_count=2,
                           experts=2, hidden_per_expert=2, embed_dim=6,
                           k_ept=1, task="node")
        model = new_model(mcfg, KernelConfig(max_step=2), seed=0)
        masks = (np.array([True] * 8 + [False] * 4),
                 np.array([False] * 8 + [True, True, False, False]),
                 np.array([False] * 10 + [True, True]))
        model, metrics, _ = train(model, data, cache, masks,
                                  TrainConfig(epochs=5, seed=1, patience=0))
        assert 0.0 <= metrics.accuracy <= 1.0
        assert len(metrics.expert_load) == 2

    def test_evaluate_reads_node_ids(self):
        # each item's routing weights sum to 1, so the load counts the items;
        # reading the ids as a mask would drop node 0 and count two
        data, cache = self.make()
        mcfg = ModelConfig(feature_dim=data.feature_dim, class_count=2,
                           experts=2, hidden_per_expert=2, embed_dim=6,
                           k_ept=2, task="node")
        model = new_model(mcfg, KernelConfig(max_step=2), seed=0)
        ids = [0, 3, 5]
        metrics = evaluate(model, data, cache, ids)
        assert metrics.expert_load.sum() == pytest.approx(len(ids), rel=1e-12)


    def test_shared_plans_key_chunks_by_their_nodes(self):
        # both item sets fill chunk 0; a plan keyed by the chunk index would
        # score the second set's labels on the first set's subgraphs
        data, cache = self.make()
        mcfg = ModelConfig(feature_dim=data.feature_dim, class_count=2,
                           experts=2, hidden_per_expert=2, embed_dim=6,
                           k_ept=1, task="node")
        model = new_model(mcfg, KernelConfig(max_step=2), seed=0)
        plans = {}
        evaluate(model, data, cache, [0, 2, 4, 6, 8], plans)
        shared = evaluate(model, data, cache, [1, 3, 5, 7, 9], plans)
        fresh = evaluate(model, data, cache, [1, 3, 5, 7, 9])
        assert shared.loss_task == fresh.loss_task
        assert np.array_equal(shared.expert_load, fresh.expert_load)
        assert len(plans) == 2

class TestUnitLifetime:
    def test_each_unit_is_planned_once_per_call(self, monkeypatch):
        # a plan is built once per distinct graph per call and reused by every
        # pass; the dense adjacencies a pass builds from it, the padded order's
        # row blocks and the moment order's buckets, are gone before the next
        # pass starts
        import collections
        import weakref
        import mose.kernel
        import mose.trainer
        built, dense = collections.Counter(), []
        adjacency = mose.kernel.NodeGroup.padded_adjacency
        group_moments = mose.kernel.group_moments
        group_forward = mose.trainer.group_forward

        def planned(g, records, node_ids):
            built[id(g)] += 1
            return build_group(g, records, node_ids)

        def padded(group, dtype, rows=None, width=None):
            adj = adjacency(group, dtype, rows, width)
            dense.append(("padded" if width is None else "bucket", weakref.ref(adj)))
            return adj

        def bucketed(adj, basis, max_step):
            dense.append(("bucket", weakref.ref(adj)))
            return group_moments(adj, basis, max_step)

        def forward(*args, **kwargs):
            assert all(ref() is None for _, ref in dense)
            return group_forward(*args, **kwargs)

        monkeypatch.setattr(mose.trainer, "build_group", planned)
        monkeypatch.setattr(mose.kernel.NodeGroup, "padded_adjacency", padded)
        monkeypatch.setattr(mose.kernel, "group_moments", bucketed)
        monkeypatch.setattr(mose.trainer, "group_forward", forward)
        # even graphs hold five distinct 6-wide rows and take the padded order at
        # p = 3 (3*5^2 against at most nmax*(nmax + N*s) = 5*13); odd graphs hold
        # three distinct degree rows and take the moment order's buckets
        rng = np.random.default_rng(8)
        graphs = [g.with_features(rng.normal(size=(g.node_count, 6)) if i % 2 == 0
                                  else np.pad(g.features, ((0, 0), (0, 6 - g.feature_dim))))
                  for i, g in enumerate(toy_dataset(2).graphs)]
        data = Dataset(graphs=graphs, task="graph", class_count=2, name="toy")
        cache = toy_cache(data)
        model = toy_model(data, max_step=3)
        ids = np.arange(len(data.graphs))
        cfg = TrainConfig(epochs=3, batch_size=2, seed=0, patience=2, val_fraction=0.5)
        for phase in ("train", "evaluate", "grad_check"):
            built.clear()
            dense.clear()
            if phase == "train":
                train(model, data, cache, (ids[:3], ids[3:]), cfg)
                graphs = len(ids)
            elif phase == "evaluate":
                evaluate(model, data, cache, ids)
                graphs = len(ids)
            else:
                grad_check(model, data, cache, [0, 1, 2],
                           TrainConfig(seed=4, beta=0.2, dropout_rate=0.1))
                graphs = 3
            assert len(built) == graphs and set(built.values()) == {1}, phase
            assert {kind for kind, _ in dense} == {"padded", "bucket"}, phase
            assert all(ref() is None for _, ref in dense), phase


    def test_only_grad_check_keeps_moments_across_passes(self, monkeypatch):
        # grad_check's perturbed passes reuse each plan's moments; evaluate
        # computes them in every pass, even on plans it keeps
        import collections
        import mose.kernel
        calls = collections.Counter()
        moments = mose.kernel.NodeGroup.moments

        def counted(group, max_step):
            calls[id(group)] += 1
            return moments(group, max_step)

        monkeypatch.setattr(mose.kernel.NodeGroup, "moments", counted)
        data = toy_dataset(2)
        cache = toy_cache(data)
        model = toy_model(data, max_step=2)
        grad_check(model, data, cache, [0, 1, 2],
                   TrainConfig(seed=4, beta=0.2, dropout_rate=0.1))
        assert len(calls) == 3 and set(calls.values()) == {1}
        calls.clear()
        plans = {}
        for _ in range(2):
            evaluate(model, data, cache, [0, 1, 2], plans)
        assert len(calls) == 3 and set(calls.values()) == {2}


class TestGradCheck:
    def test_small_model_passes(self):
        # 6-wide features, one distinct row per node (U = 5), keep every group
        # on the padded kernel path at p = 3 (3*5^2 against at most nmax*(nmax +
        # N*s) = 5*13); 2-wide features put every group on the moment path
        rng = np.random.default_rng(8)
        for width, moments in ((6, False), (2, True)):
            data = toy_dataset(2)
            graphs = [g.with_features(rng.normal(size=(g.node_count, width)))
                      for g in data.graphs]
            data = Dataset(graphs=graphs, task="graph", class_count=2, name="toy")
            cache = toy_cache(data)
            model = toy_model(data, max_step=3)
            for g, recs in zip(data.graphs[:3], cache.records):
                group = build_group(g, recs, range(g.node_count))
                assert group.fits_moments(3, model.bank.hidden_nodes) == moments
            err = grad_check(model, data, cache, [0, 1, 2],
                             TrainConfig(seed=4, beta=0.2, dropout_rate=0.1))
            assert err < 1e-4

    def test_class_basis_passes(self):
        # degree one-hot features (f = 4) hold 3 distinct rows per graph, so its
        # groups take the moment order in their basis; graph 0's five distinct
        # rows (U = 5 >= f) take it in the identity basis
        data = toy_dataset(2)
        graphs = [data.graphs[0].with_features(np.eye(5, 4))] + data.graphs[1:]
        data = Dataset(graphs=graphs, task="graph", class_count=2, name="toy")
        cache = toy_cache(data)
        model = toy_model(data, max_step=2)
        hidden = model.bank.hidden_nodes
        groups = [build_group(g, recs, range(g.node_count))
                  for g, recs in zip(data.graphs[:3], cache.records)]
        assert [slot_basis(gr).shape[2] < gr.width and gr.fits_moments(2, hidden)
                for gr in groups] == [False, True, True]
        err = grad_check(model, data, cache, [0, 1, 2],
                         TrainConfig(seed=4, beta=0.2, dropout_rate=0.1))
        assert err < 1e-4

    def test_concat_combine_passes(self):
        data = toy_dataset(2)
        cache = toy_cache(data)
        model = toy_model(data, max_step=2, combine_mode="concat")
        err = grad_check(model, data, cache, [0, 1, 2],
                         TrainConfig(seed=4, beta=0.2, dropout_rate=0.1))
        assert err < 1e-4

    def test_one_backward_per_unit_of_the_analytic_pass(self, monkeypatch):
        # the perturbed evaluations run forward only
        import mose.moe
        calls = []
        backward = mose.moe.GroupRun.backward

        def counted(run, dh, grads):
            calls.append(run.group.count)
            return backward(run, dh, grads)

        monkeypatch.setattr(mose.moe.GroupRun, "backward", counted)
        data = toy_dataset(2)
        cache = toy_cache(data)
        model = toy_model(data, max_step=2)
        grad_check(model, data, cache, [0, 1, 2],
                   TrainConfig(seed=4, beta=0.2, dropout_rate=0.1))
        assert calls == [g.node_count for g in data.graphs[:3]]

    def test_eval_mode_noise_matrix_has_no_gradient(self):
        from mose.trainer import frozen_loss
        data = toy_dataset(2)
        cache = toy_cache(data)
        model = toy_model(data, max_step=2)
        grads = model.zero_grads()
        frozen_loss(model, data, cache, [0, 1], TrainConfig(seed=0, beta=0.1),
                    None, grads, train_mode=False)
        assert np.all(grads["gating.W_n"] == 0)
        assert np.any(grads["gating.W_g"] != 0)

    def test_near_tied_pick_shrinks_the_step(self, monkeypatch):
        # expert 0 leads every node; expert 2 beats expert 1 for the second
        # pick by 3e-7 of the node's gate mass, which a 1e-5 step on a column
        # of W_g overturns and a 1e-7 step does not
        import mose.trainer
        calls = []
        staged = mose.trainer._staged_loss

        def counted(*args, **kwargs):
            calls.append(1)
            return staged(*args, **kwargs)

        monkeypatch.setattr(mose.trainer, "_staged_loss", counted)
        data = toy_dataset(2)
        cache = toy_cache(data)
        model = toy_model(data, max_step=2)
        w_g = model.W_g
        w_g[:, 0], w_g[:, 1], w_g[:, 2] = 1.0, 0.0, 3e-7
        err = grad_check(model, data, cache, [0, 1, 2], TrainConfig(seed=4, beta=0.2),
                         train_mode=False)
        assert err < 1e-4
        size = sum(v.size for v in model.parameters().values())
        assert len(calls) > 2 * size   # some entries were evaluated again

    def test_exact_tie_keeps_flipping(self):
        data = toy_dataset(2)
        cache = toy_cache(data)
        model = toy_model(data, max_step=2)
        model.W_g[...] = 0.0
        with pytest.raises(RuntimeError, match=r"top-k selection keeps flipping at gating\.W_g"):
            grad_check(model, data, cache, [0, 1, 2], TrainConfig(seed=4, beta=0.2),
                       train_mode=False)

    def test_zero_learning_rate_fixes_parameters(self):
        data = toy_dataset(2)
        cache = toy_cache(data)
        model = toy_model(data)
        before = model.snapshot()
        ids = np.arange(len(data.graphs))
        with pytest.raises(ValueError):
            TrainConfig(epochs=1, learning_rate=0.0)
        # smallest positive rate barely moves parameters
        model, _, _ = train(model, data, cache, (ids, ids),
                            TrainConfig(epochs=1, learning_rate=1e-300,
                                        seed=0, patience=0))
        for k, v in model.parameters().items():
            assert np.allclose(v, before[k], atol=1e-200)


def staged_losses(monkeypatch) -> list:
    """The (parameter name, loss) of every staged evaluation grad_check makes
    from now on, in order."""
    import mose.trainer
    log = []
    staged = mose.trainer._staged_loss

    def logged(model, units, truth, name, *args):
        loss = staged(model, units, truth, name, *args)
        log.append((name, loss))
        return loss

    monkeypatch.setattr(mose.trainer, "_staged_loss", logged)
    return log


def staged_case(kind):
    """(model, data, cache, item ids, TrainConfig, train_mode) of one grad_check
    setting; the padded and moments cases pin the kernel order they take."""
    data = toy_dataset(2)
    ids = [0, 1, 2]
    cfg = TrainConfig(seed=4, beta=0.2, dropout_rate=0.1)
    if kind in ("padded", "moments"):
        width = 6 if kind == "padded" else 2
        rng = np.random.default_rng(8)
        data = Dataset(graphs=[g.with_features(rng.normal(size=(g.node_count, width)))
                               for g in data.graphs], task="graph", class_count=2,
                       name="toy")
    if kind == "node":
        data, cache = TestNodeTask().make()
        mcfg = ModelConfig(feature_dim=data.feature_dim, class_count=2, experts=2,
                           hidden_per_expert=2, embed_dim=6, k_ept=1, task="node")
        return (new_model(mcfg, KernelConfig(max_step=2), seed=1), data, cache,
                list(range(12)), cfg, True)
    cache = toy_cache(data)
    if kind == "max-readout":
        mcfg = ModelConfig(feature_dim=data.feature_dim, class_count=2, experts=3,
                           hidden_per_expert=2, embed_dim=8, k_ept=2, readout_mode="max")
        model = new_model(mcfg, KernelConfig(max_step=2), seed=0)
    else:
        model = toy_model(data, max_step=3 if kind in ("padded", "moments") else 2,
                          combine_mode="concat" if kind == "concat" else "weighted-sum")
    if kind in ("padded", "moments"):
        for g, recs in zip(data.graphs[:3], cache.records):
            group = build_group(g, recs, range(g.node_count))
            assert group.fits_moments(3, model.bank.hidden_nodes) == (kind == "moments")
    return model, data, cache, ids, cfg, kind != "eval"


class TestStagedEvaluation:
    @pytest.mark.parametrize("kind", ["padded", "moments", "concat", "max-readout",
                                      "node", "eval"])
    def test_every_loss_matches_a_full_rerun(self, monkeypatch, kind):
        # each perturbed evaluation reruns only the stages the tensor feeds and
        # replays the base pass's draws; its loss is the full rerun's bit for bit
        model, data, cache, ids, cfg, train_mode = staged_case(kind)
        log = staged_losses(monkeypatch)
        err = grad_check(model, data, cache, ids, cfg, train_mode=train_mode)
        full_err, full = full_rerun_grad_check(model, data, cache, ids, cfg,
                                               train_mode=train_mode)
        assert len(log) == 2 * sum(v.size for v in model.parameters().values())
        assert log == full and err == full_err < 1e-4

    def test_near_tie_shrinks_the_step_as_a_full_rerun_does(self, monkeypatch):
        model, data, cache, ids, cfg, _ = staged_case("eval")
        w_g = model.W_g
        w_g[:, 0], w_g[:, 1], w_g[:, 2] = 1.0, 0.0, 3e-7
        log = staged_losses(monkeypatch)
        err = grad_check(model, data, cache, ids, cfg, train_mode=False)
        full_err, full = full_rerun_grad_check(model, data, cache, ids, cfg,
                                               train_mode=False)
        assert any(loss is None for _, loss in log) and log == full and err == full_err

    def test_exact_tie_raises_as_a_full_rerun_does(self):
        model, data, cache, ids, cfg, _ = staged_case("eval")
        model.W_g[...] = 0.0
        raised = []
        for check in (grad_check, full_rerun_grad_check):
            with pytest.raises(RuntimeError, match="keeps flipping") as e:
                check(model, data, cache, ids, cfg, train_mode=False)
            raised.append(str(e.value))
        assert raised[0] == raised[1]

    def test_a_stage_reruns_only_what_the_tensor_feeds(self, monkeypatch):
        # kernel values are recomputed only for an expert's own W or Z, once per
        # unit routed to it, on the base rows
        import mose.moe
        from mose.trainer import _staged_loss, frozen_loss
        model, data, cache, ids, cfg, _ = staged_case("concat")
        units = []
        frozen_loss(model, data, cache, ids, cfg, substream(4, 500), None, keep=units)
        truth = np.concatenate([y for *_, y in units])
        rows = []
        values = mose.moe.group_values

        def counted(W, Z, group, max_step, moments, rows_):
            rows.append(rows_)
            return values(W, Z, group, max_step, moments, rows_)

        monkeypatch.setattr(mose.moe, "group_values", counted)
        for name in model.parameters():
            rows.clear()
            assert np.isfinite(_staged_loss(model, units, truth, name, 0.2, 0.0, True))
            stage, _, rest = name.partition(".")
            if stage.startswith("expert") and rest in ("W", "Z"):
                m = int(stage[len("expert"):])
                routed = [run.expert_rows[m][0] for run, *_ in units if m in run.expert_rows]
                assert len(rows) == len(routed) and all(
                    a is b for a, b in zip(rows, routed)), name
            else:
                assert rows == [], name

    @pytest.mark.parametrize("step", [0.0, -1e-5, float("nan"), float("inf")])
    def test_step_must_be_finite_and_positive(self, monkeypatch, step):
        import mose.trainer
        model, data, cache, ids, cfg, _ = staged_case("eval")
        monkeypatch.setattr(mose.trainer, "frozen_loss", None)   # no pass may run
        with pytest.raises(ValueError, match="step must be finite and > 0"):
            grad_check(model, data, cache, ids, cfg, step=step)


class TestCrossValidate:
    def test_toy_separates(self):
        data = toy_dataset(10)
        cache = toy_cache(data)
        folds = make_folds(data, 2, seed=0).folds
        mcfg = ModelConfig(feature_dim=data.feature_dim, class_count=2,
                           experts=3, hidden_per_expert=2, embed_dim=8, k_ept=2)
        cfg = TrainConfig(epochs=50, learning_rate=3e-3, seed=0, patience=0,
                          batch_size=10, dropout_rate=0.1)
        accs = []
        for fi, fold in enumerate(folds):
            seed = int(np.random.SeedSequence(cfg.seed, spawn_key=(400, fi))
                       .generate_state(1)[0])
            model = new_model(mcfg, KernelConfig(3), seed=seed)
            _, metrics, _ = train(model, data, cache, fold, cfg)
            accs.append(metrics.accuracy)
        assert np.mean(accs) >= 0.9


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        data = toy_dataset(3)
        cache = toy_cache(data)
        model = toy_model(data)
        ids = np.arange(len(data.graphs))
        cfg = TrainConfig(epochs=2, seed=0, patience=0)
        model, _, state = train(model, data, cache, (ids, ids), cfg)
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(path, model, state, cfg, "abc")
        back, bstate, bcfg, data_hash = load_checkpoint(path)
        for k, v in model.parameters().items():
            assert np.array_equal(v, bstate["params"][k])
        assert bstate["epoch_next"] == 2
        assert bcfg.epochs == 2
        assert data_hash == "abc"

    def test_write_is_atomic_and_keeps_the_given_name(self, tmp_path):
        data = toy_dataset(3)
        model = toy_model(data)
        ids = np.arange(len(data.graphs))
        cfg = TrainConfig(epochs=1, seed=0, patience=0)
        model, _, state = train(model, data, toy_cache(data), (ids, ids), cfg)
        path = tmp_path / "ckpt"          # np.savez given this name would write ckpt.npz
        save_checkpoint(str(path), model, state, cfg, "abc")
        assert os.listdir(tmp_path) == ["ckpt"]
        before = path.read_bytes()
        assert load_checkpoint(str(path))[1]["epoch_next"] == 1

        class Unwritable:
            def __array__(self, *args, **kwargs):
                raise RuntimeError("failed partway")

        # the last array fails after the others are in the new zip
        broken = state | {"adam_v": state["adam_v"] | {"zz": Unwritable()}}
        with pytest.raises(RuntimeError, match="partway"):
            save_checkpoint(str(path), model, broken, cfg, "abc")
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["ckpt"]

    def test_moments_and_best_snapshot_are_whole_or_absent(self, tmp_path):
        # a run that never stepped has no Adam moments and a run without
        # validation no best snapshot; once there, each holds every parameter
        data = toy_dataset(3)
        ids = np.arange(len(data.graphs))
        path = str(tmp_path / "ckpt.npz")
        for epochs, patience, members in ((0, 0, {"param"}),
                                          (1, 5, {"param", "adam_m", "adam_v", "best"})):
            cfg = TrainConfig(epochs=epochs, seed=0, patience=patience, val_fraction=0.5)
            model, _, state = train(toy_model(data), data, toy_cache(data), (ids, ids), cfg)
            save_checkpoint(path, model, state, cfg, "abc")
            with np.load(path) as f:
                assert {k.split("/")[0] for k in f.files} - {"meta"} == members
            _, back, _, _ = load_checkpoint(path)
            assert (back["best"]["snapshot"] is None) == ("best" not in members)
        with np.load(path) as f:
            arrays = {k: f[k] for k in f.files if k != "best/head.b1"}
        np.savez(path, **arrays)
        with pytest.raises(FormatError, match=r"ckpt.npz: best/head.b1: missing$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("sizes", [[0, 1, 2], [2, 2, 3]])
    def test_refuses_hidden_graph_sizes_the_bank_cannot_hold(self, tmp_path, sizes):
        # the expert arrays reshaped to the sizes, so only the sizes are wrong
        data = toy_dataset(3)
        ids = np.arange(len(data.graphs))
        cfg = TrainConfig(epochs=0, seed=0, patience=0)
        model, _, state = train(toy_model(data), data, toy_cache(data), (ids, ids), cfg)
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(path, model, state, cfg, "abc")
        with np.load(path) as f:
            arrays = {k: f[k] for k in f.files}
        meta = json.loads(str(arrays["meta"]))
        meta["model_config"]["sizes"] = sizes
        arrays["meta"] = json.dumps(meta)
        for k, s in enumerate(sizes):
            arrays[f"param/expert{k}.W"] = np.zeros((2, s, s))
            arrays[f"param/expert{k}.Z"] = np.zeros((2, s, data.feature_dim))
        np.savez(path, **arrays)
        with pytest.raises(FormatError, match=re.escape(
                "ckpt.npz: not a mose checkpoint: hidden-graph sizes must be >= 1 and "
                f"strictly increasing, got {tuple(sizes)}")):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit,message", [
        (lambda m: m["model_config"].pop("k_ept"), "meta: model_config.k_ept is missing"),
        (lambda m: m["rows"][0].update(split=1.5), "meta: rows[0].split must be a string, got 1.5"),
        (lambda m: m["kernel_config"]["lambdas"].__setitem__(0, "x"),
         "meta: kernel_config.lambdas must be a number, got 'x'"),
        (lambda m: m["model_config"]["sizes"].__setitem__(1, 2.5),
         "meta: model_config.sizes must be an integer, got 2.5"),
        (lambda m: m["rows"].__setitem__(0, 3), "meta: rows[0] must be an object, got 3"),
        (lambda m: m["rows"][1]["expert_load"].__setitem__(2, None),
         "meta: rows[1].expert_load must be a number, got None"),
        (lambda m: m.update(seed=True), "meta: seed must be an integer, got True"),
        (lambda m: m.update(train_config=[1]), "meta: train_config must be an object, got [1]"),
        (lambda m: m.pop("rows"), "not a mose checkpoint: missing 'rows'"),
    ])
    def test_meta_edit_is_refused_naming_its_path(self, tmp_path, edit, message):
        data = toy_dataset(3)
        ids = np.arange(len(data.graphs))
        cfg = TrainConfig(epochs=1, seed=0, patience=0)
        model, _, state = train(toy_model(data), data, toy_cache(data), (ids, ids), cfg)
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(path, model, state, cfg, "abc")
        with np.load(path) as f:
            arrays = {k: f[k] for k in f.files}
        meta = json.loads(str(arrays["meta"]))
        edit(meta)
        arrays["meta"] = json.dumps(meta)
        np.savez(path, **arrays)
        with pytest.raises(FormatError) as refused:
            load_checkpoint(path)
        assert str(refused.value) == f"{path}: {message}"

    def test_load_snapshot_refuses_another_shape(self):
        model = toy_model(toy_dataset(3))
        before = model.snapshot()
        snap = before | {"head.b0": np.zeros(()), "gating.W_g": np.ones_like(before["gating.W_g"])}
        with pytest.raises(ValueError, match=r"^head.b0: shape \(\), expected \(8,\)$"):
            model.load_snapshot(snap)
        assert all(np.array_equal(v, before[k]) for k, v in model.parameters().items())

    def test_metrics_csv_shape(self):
        rows = [{"epoch": 0, "split": "train", "loss_task": 1.0,
                 "loss_importance": 0.1, "accuracy": 0.5, "macro_f1": float("nan"),
                 "expert_load": [1.0, 2.0]}]
        text = metrics_csv(rows, 2)
        lines = text.strip().split("\n")
        assert lines[0].split(",")[:2] == ["epoch", "split"]
        assert lines[0].endswith("expert_load_0,expert_load_1")
        assert len(lines) == 2


# -- golden training runs ---------------------------------------------------------

GOLDEN_WALKS = WalkConfig(walk_length=4, walks_per_node=6, pattern_budget=3,
                          subgraph_cap=8, seed=1)
GOLDEN_TRAIN = TrainConfig(epochs=2, learning_rate=5e-3, beta=0.3, batch_size=3,
                           dropout_rate=0.2, seed=4, patience=3, val_fraction=0.25)

# (sha256 of the trained parameters, test accuracy, test loss_task); they pin
# every routing-noise and dropout draw and the order of the arithmetic
GOLDEN_RUNS = {
    ("mean", "weighted-sum"): ("935f01bf40d6899c78c8e6e041501b09fc9faedf715316ffb8e1fae60e3d4a9d",
                               0.3333333333333333, 0.7017995326840248),
    ("mean", "concat"): ("8813681d9593ff9c964abd405e198bb4671c66d796f31b28ea1e2c9705c772cd",
                         0.3333333333333333, 0.7214245817306107),
    ("max", "weighted-sum"): ("5fd26679bad574a3fee4761f88d597866f41c3ad5d6e6683b1abb83366a58006",
                              0.6666666666666666, 0.7132389552046083),
    ("max", "concat"): ("299ed391bfb89b9c77278a43c569b8af6f4730f5fbef68fdd55b8d8084f2b35f",
                        0.3333333333333333, 0.7545383790849186),
    "node": ("27e37114bf4aab35bda5738ef0a62713594e967e2dac2cd77f0aed51b0e367de",
             0.3333333333333333, 2.0721758385709013),
}


def golden_node_dataset(n=900, classes=3, width=5, seed=0):
    """One graph whose 630 training nodes span two 512-node engine chunks."""
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % classes
    edges = [(i, (i + classes) % n) for i in range(n)]
    edges += [(int(u), int(rng.integers(n))) for u in rng.integers(0, n, n // 2)]
    edges = sorted({(min(a, b), max(a, b)) for a, b in edges if a != b})
    feats = 0.3 * rng.normal(size=(n, width)) + 0.2 * labels[:, None]
    g = Graph.from_edges(n, edges, features=feats, node_labels=labels)
    return Dataset(graphs=[g], task="node", class_count=classes, name="golden-node")


def parameter_digest(model) -> str:
    h = hashlib.sha256()
    for name, v in sorted(model.parameters().items()):
        h.update(name.encode())
        h.update(np.ascontiguousarray(v).tobytes())
    return h.hexdigest()


def golden_graph_run(readout, combine):
    """The trained model, metrics and state of a graph-task golden run."""
    data = gen_graph_cycle(12, 2)
    cache = extract_dataset(data.graphs, data.name, GOLDEN_WALKS)
    mcfg = ModelConfig(feature_dim=data.feature_dim, class_count=2, experts=3,
                       hidden_per_expert=2, embed_dim=6, k_ept=2,
                       readout_mode=readout, combine_mode=combine)
    model = new_model(mcfg, KernelConfig(max_step=2), seed=3)
    return train(model, data, cache, make_folds(data, 4, seed=0).folds[0], GOLDEN_TRAIN)


def golden_node_run():
    """The trained model, metrics and state of the node-task golden run."""
    data = golden_node_dataset()
    cache = extract_dataset(data.graphs, data.name, GOLDEN_WALKS)
    masks = make_node_splits(data, (0.7, 0.15, 0.15), 0).masks
    assert int(masks[0].sum()) > 512
    mcfg = ModelConfig(feature_dim=data.feature_dim, class_count=3, experts=3,
                       hidden_per_expert=2, embed_dim=6, k_ept=2, task="node")
    model = new_model(mcfg, KernelConfig(max_step=2), seed=3)
    return train(model, data, cache, masks, GOLDEN_TRAIN)


def golden_outcomes() -> dict:
    """Test accuracy, loss_task and per-tensor parameter norms of the node
    golden run and one graph golden run, as JSON."""
    out = {}
    for name, (model, metrics, _) in (("node", golden_node_run()),
                                      ("graph", golden_graph_run("mean", "weighted-sum"))):
        out[name] = {"accuracy": metrics.accuracy, "loss_task": metrics.loss_task,
                     "norms": {k: float(np.linalg.norm(v))
                               for k, v in model.parameters().items()}}
    return out


class TestGoldenTraining:
    @pytest.mark.parametrize("readout,combine", [k for k in GOLDEN_RUNS if k != "node"])
    def test_graph_task_matches_golden(self, readout, combine):
        model, metrics, state = golden_graph_run(readout, combine)
        assert [r["split"] for r in state["rows"]] == ["train", "val"] * 2 + ["test"]
        assert (parameter_digest(model), metrics.accuracy, metrics.loss_task) == \
            GOLDEN_RUNS[(readout, combine)]

    def test_node_task_matches_golden(self):
        model, metrics, _ = golden_node_run()
        assert (parameter_digest(model), metrics.accuracy, metrics.loss_task) == \
            GOLDEN_RUNS["node"]

    @pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"),
                        reason="OpenBLAS's Haswell kernels run on x86-64 only")
    def test_outcomes_hold_under_another_blas_kernel(self):
        # the digests above pin the bits of this host's dgemm kernel; under
        # OpenBLAS's Haswell kernel the node run and a graph run keep their
        # accuracy, their loss to 1e-12 (the node run's differs in its last
        # bit there) and every parameter norm to 1e-9
        tests = os.path.dirname(os.path.abspath(__file__))
        src = os.path.join(os.path.dirname(tests), "src")
        env = dict(os.environ, OPENBLAS_CORETYPE="Haswell")
        script = ("import json, sys; sys.path[:0] = sys.argv[1:]; import test_trainer; "
                  "print(json.dumps(test_trainer.golden_outcomes()))")
        proc = subprocess.run([sys.executable, "-c", script, tests, src], env=env,
                              capture_output=True, text=True, check=True)
        other, here = json.loads(proc.stdout), golden_outcomes()
        for name, want in here.items():
            got = other[name]
            assert got["accuracy"] == want["accuracy"]
            assert abs(got["loss_task"] - want["loss_task"]) <= 1e-12 * want["loss_task"]
            worst = max(abs(got["norms"][k] / norm - 1) for k, norm in want["norms"].items())
            assert worst <= 1e-9, (name, worst)
