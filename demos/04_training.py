"""End-to-end training on a small synthetic dataset.

Generates community graphs, extracts walk-based subgraphs, trains the
expert mixture for a few epochs, and exports the learned hidden graphs
as DOT.
"""

import os
import tempfile

import numpy as np

from mose import (KernelConfig, ModelConfig, TrainConfig, WalkConfig,
                  extract_dataset, gen_graph_cycle, hidden_graph_to_dot,
                  make_folds, new_model, train)

data = gen_graph_cycle(40, seed=0)
print(f"dataset: {len(data.graphs)} graphs, {data.class_count} classes, "
      f"feature dim {data.feature_dim}")

wcfg = WalkConfig(walk_length=6, walks_per_node=8, pattern_budget=4,
                  subgraph_cap=24, seed=0)
cache = extract_dataset(data.graphs, data.name, wcfg, threads=2)
print("subgraphs extracted; example node record:", cache.records[0][0])

fold = make_folds(data, 2, seed=0).folds[0]
mcfg = ModelConfig(feature_dim=data.feature_dim, class_count=data.class_count,
                   experts=4, hidden_per_expert=4, embed_dim=16, k_ept=2)
model = new_model(mcfg, KernelConfig(max_step=3), seed=0)
cfg = TrainConfig(epochs=10, learning_rate=5e-3, beta=0.1, batch_size=10,
                  seed=0, patience=0, dropout_rate=0.1, val_fraction=0.0)
model, metrics, _ = train(model, data, cache, fold, cfg)

print(f"\nheld-out accuracy {metrics.accuracy:.3f}, macro-F1 {metrics.macro_f1:.3f}")
print("expert load:", np.round(metrics.expert_load, 1),
      " squared CV %.3f" % metrics.loss_importance)

out = os.path.join(tempfile.mkdtemp(prefix="hidden-graphs-"), "expert0_hg0.dot")
with open(out, "w") as f:
    f.write(hidden_graph_to_dot(model.bank.experts[0].hidden[0]))
print(f"\nwrote a learned hidden graph to {out}")
