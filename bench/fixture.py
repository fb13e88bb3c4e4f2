"""Deterministic node-task fixture for the ``node-wide`` workload.

One graph of 1500 nodes in dense communities, whose community id is each
node's label, with 512-wide binary bag-of-words features: a wide-feature
node task, with the feature width far above the subgraph size nmax. (The
data-gated Texas and Cornell graphs are wide too, at 1703 features, but
have only 183 nodes.) Built only from mose's public API (``Graph``, ``Dataset``, ``save_tu_dataset``) and keyed on the
workload seed, so the same seed always writes byte-identical TU files.
"""

from __future__ import annotations

import numpy as np

from mose import Dataset, Graph

NAME = "NodeWide"
NODES = 1500
CLASSES = 5
WIDTH = 512
INTRA_LINKS = 3        # edges each node adds to earlier members of its community
CROSS_SHARE = 0.1      # share of nodes with one edge into another community
VOCAB = 64             # feature columns each class over-uses
P_BASE, P_CLASS = 0.05, 0.3


def node_wide_dataset(seed: int) -> Dataset:
    """Community graph with community-id labels and class-skewed features.

    Node count, class count and feature width are fixed, so every seed
    gives inputs of the same size; only the wiring and features move.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(7001,)))
    labels = np.sort(np.arange(NODES) % CLASSES)
    members = [np.nonzero(labels == c)[0] for c in range(CLASSES)]
    edges = []
    for ids in members:
        for i in range(1, len(ids)):
            picks = rng.integers(0, i, size=min(i, INTRA_LINKS))
            edges.extend((int(ids[i]), int(ids[j])) for j in picks)
    for u in np.nonzero(rng.random(NODES) < CROSS_SHARE)[0]:
        other = (labels[u] + rng.integers(1, CLASSES)) % CLASSES
        edges.append((int(u), int(rng.choice(members[other]))))
    vocab = rng.permutation(WIDTH)[:CLASSES * VOCAB].reshape(CLASSES, VOCAB)
    prob = np.full((CLASSES, WIDTH), P_BASE)
    for c in range(CLASSES):
        prob[c, vocab[c]] = P_CLASS
    features = (rng.random((NODES, WIDTH)) < prob[labels]).astype(np.float64)
    g = Graph.from_edges(NODES, edges, features=features, graph_label=0,
                         node_labels=labels)
    return Dataset(graphs=[g], task="node", class_count=CLASSES, name=NAME)
