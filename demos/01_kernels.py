"""Walk-count kernels from first principles.

Builds small graphs, counts their walks, and shows that the closed-form
kernel (the product of the two graphs' walk totals), the brute-force
walk-pair enumeration, and the feature-weighted form all agree.
"""

import numpy as np

from mose import (HiddenGraph, KernelConfig, cycle_graph, path_graph, rwk_diff,
                  rwk_discrete, rwk_hidden, rwk_hidden_grad, rwk_oracle,
                  walk_counts)

p2, c3 = path_graph(2), cycle_graph(3)

print("== walk totals: a walk pair is a walk on each graph ==")
for p, a, b in zip(range(4), walk_counts(p2), walk_counts(c3)):
    print(f"p={p}: P2 has {sum(a)} p-step walks and C3 {sum(b)}, "
          f"so the pair has {sum(a) * sum(b)} walk pairs")

print("\n== discrete kernel vs enumeration oracle ==")
for p in (1, 2, 3):
    lam = tuple(1.0 if q == p else 0.0 for q in range(4))
    closed = rwk_discrete(p2, c3, KernelConfig(3, lam))
    enumerated = rwk_oracle(p2, c3, p)
    print(f"p={p}: walk-total form {closed:.0f}, simultaneous enumeration "
          f"{enumerated} -> {'agree' if closed == enumerated else 'DISAGREE'}")

print("\n== feature-weighted kernel collapses to walk counts on unit features ==")
g = cycle_graph(4).with_features(np.ones((4, 1)))
h = path_graph(3).with_features(np.ones((3, 1)))
for p in (1, 2):
    print(f"p={p}: rwk_diff={rwk_diff(g, h, p):.0f}  oracle={rwk_oracle(g, h, p)}")

print("\n== learnable hidden graph with analytic gradients ==")
rng = np.random.default_rng(0)
sub = cycle_graph(4).with_features(rng.normal(size=(4, 3)))
hidden = HiddenGraph(W=rng.normal(size=(3, 3)), Z=rng.normal(size=(3, 3)))
grad = rwk_hidden_grad(sub, hidden, p=2)
print(f"kernel value {grad.value:.4f}")
print(f"dK/dW norm {np.linalg.norm(grad.d_W):.4f}, dK/dZ norm "
      f"{np.linalg.norm(grad.d_Z):.4f}")

step = 1e-6
hidden.W[0, 1] += step
up = rwk_hidden(sub, hidden, 2)
hidden.W[0, 1] -= 2 * step
down = rwk_hidden(sub, hidden, 2)
hidden.W[0, 1] += step
print(f"finite difference on W[0,1]: {(up - down) / (2 * step):.6f} "
      f"vs analytic {grad.d_W[0, 1]:.6f}")
