"""Mixture-of-subgraph-experts graph learning.

Walk-based subgraph extraction feeds small learnable "hidden graphs" whose
walk-count kernels, routed through a noisy top-k gate, embed nodes and
graphs for classification. Exact enumeration oracles, finite-difference
gradient checks, and color-refinement harnesses verify every piece at desk
scale.
"""

from .graph import (Graph, complete_graph, cycle_graph, degree_features,
                    direct_product, disjoint_union, induced_subgraph, path_graph,
                    relabel, star_graph)
from .datasets import (Dataset, SplitPlan, gen_graph_cycle, gen_graph_five,
                       load_tu_dataset, make_folds, make_node_splits,
                       save_tu_dataset)
from .walks import (Records, SubgraphCache, WalkConfig, enumerate_anonymous_walks,
                    extract_dataset, extract_subgraph, load_cache, sample_walks,
                    save_cache, to_anonymous, top_patterns,
                    walk_distributions_distinguish)
from .kernel import (HiddenGraph, KernelConfig, KernelGrad, hidden_graph_to_dot,
                     rwk_diff, rwk_discrete, rwk_hidden, rwk_hidden_grad,
                     rwk_oracle, walk_pair_counts)
from .moe import Expert, ExpertBank, ModelConfig, MoseModel, new_model
from .trainer import (Metrics, NonFiniteLossError, TrainConfig, evaluate,
                      grad_check, load_checkpoint, metrics_csv, save_checkpoint,
                      total_loss, train)
from .wl import (AnonymousWalkPolicy, Coloring, EgoPolicy, all_nonisomorphic_graphs,
                 are_isomorphic, canonical_form, distinguish, graph_corpus,
                 lemma1_check, mose_distinguish, swl_refine, wl1_refine)
from .util import BudgetError, FormatError

__version__ = "0.1.0"
