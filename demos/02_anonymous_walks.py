"""Anonymous walks and walk-based subgraph extraction.

Samples random walks, maps them to identity-free patterns, selects the
most frequent patterns, and extracts each node's neighborhood from the
walks that match.
"""

from collections import Counter

from mose import (WalkConfig, cycle_graph, disjoint_union,
                  enumerate_anonymous_walks, extract_subgraph, induced_subgraph,
                  sample_walks, to_anonymous, top_patterns,
                  walk_distributions_distinguish)
from mose.util import substream

g = cycle_graph(8)
cfg = WalkConfig(walk_length=5, walks_per_node=10, pattern_budget=3, seed=7)

print("== sampling and anonymizing ==")
walks = sample_walks(g, 0, cfg, substream(7, 0))
for w in walks[:3]:
    print(f"walk {w} -> pattern {to_anonymous(w)}")

counts = Counter(to_anonymous(w) for v in range(g.node_count)
                 for w in sample_walks(g, v, cfg, substream(7, v)))
selected = top_patterns(counts, cfg.pattern_budget)
print(f"\ntop {cfg.pattern_budget} patterns across the 8-cycle:")
for pat in selected:
    print(f"  {pat}  seen {counts[pat]} times")

record = extract_subgraph(g, 0, walks, set(selected), cap=cfg.subgraph_cap)
sub = induced_subgraph(g, record)
print(f"\nnode 0's extracted subgraph: {sub.node_count} nodes "
      f"({record}), {sub.edge_count} edges")

print("\n== exact pattern distributions distinguish rooted structures ==")
c6 = cycle_graph(6)
tri2 = disjoint_union(cycle_graph(3), cycle_graph(3))
print("length-3 patterns from a 6-cycle node:",
      dict(enumerate_anonymous_walks(c6, 0, 3)))
print("length-3 patterns from a triangle node:",
      dict(enumerate_anonymous_walks(tri2, 0, 3)))
print("distributions differ:",
      walk_distributions_distinguish(c6, 0, tri2, 0, 3))
