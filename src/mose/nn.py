"""Minimal dense-layer machinery: MLPs with hand-written backprop, Adam,
and a record/replay wrapper that freezes stochastic draws for gradient
checking."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def relu(x):
    return np.maximum(0.0, x)


def softplus(x):
    # overflow-safe: log(1 + e^x) = max(x, 0) + log1p(e^-|x|)
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def sigmoid(x):
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softmax(x, axis=-1):
    z = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax(x, axis=-1):
    z = x - np.max(x, axis=axis, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=axis, keepdims=True))


class Mlp:
    """Feed-forward stack with ReLU between layers and inverted dropout.

    ``dims`` lists layer widths, e.g. (in, hidden, out). The final layer is
    linear. forward() returns (output, cache); backward() consumes the
    cache and writes parameter gradients into a dict keyed by this MLP's
    name prefix.
    """

    def __init__(self, name: str, dims: tuple, rng: np.random.Generator):
        self.name = name
        self.dims = tuple(dims)
        self.weights = []
        self.biases = []
        for i in range(len(dims) - 1):
            fan_in = dims[i]
            w = rng.normal(0.0, 1.0 / np.sqrt(max(1, fan_in)), size=(dims[i], dims[i + 1]))
            self.weights.append(w)
            # small positive bias keeps units off the ReLU kink even for
            # all-zero inputs (singleton subgraphs have zero kernel features)
            self.biases.append(np.full(dims[i + 1], 0.01))

    @property
    def out_dim(self) -> int:
        return self.dims[-1]

    def parameters(self) -> dict:
        out = {}
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            out[f"{self.name}.W{i}"] = w
            out[f"{self.name}.b{i}"] = b
        return out

    def forward(self, x: np.ndarray, train: bool = False, dropout: float = 0.0,
                rng: np.random.Generator | None = None):
        """x is (batch, in) or (in,); dropout applies to hidden activations."""
        squeeze = x.ndim == 1
        if squeeze:
            x = x[None, :]
        acts = [x]
        masks = []
        h = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ w + b
            if i < last:
                h = relu(h)
                if train and dropout > 0.0:
                    mask = (rng.random(h.shape) >= dropout) / (1.0 - dropout)
                    h = h * mask
                    masks.append(mask)
                else:
                    masks.append(None)
                acts.append(h)
        cache = (acts, masks, squeeze)
        return (h[0] if squeeze else h), cache

    def backward(self, dout: np.ndarray, cache, grads: dict):
        acts, masks, squeeze = cache
        if squeeze:
            dout = dout[None, :]
        dh = dout
        last = len(self.weights) - 1
        for i in range(last, -1, -1):
            a_in = acts[i]
            grads[f"{self.name}.W{i}"] += a_in.T @ dh
            grads[f"{self.name}.b{i}"] += dh.sum(axis=0)
            if i > 0:
                dh = dh @ self.weights[i].T
                if masks[i - 1] is not None:
                    dh = dh * masks[i - 1]
                dh = dh * (acts[i] > 0)
        dx = dh @ self.weights[0].T if last >= 0 else dh
        return dx[0] if squeeze else dx


@dataclass
class Adam:
    """Adam with bias correction; state keyed by parameter name."""

    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    def step(self, params: dict, grads: dict):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for name in sorted(params):
            g = grads[name]
            if name not in self.m:
                self.m[name] = np.zeros_like(g)
                self.v[name] = np.zeros_like(g)
            self.m[name] = b1 * self.m[name] + (1 - b1) * g
            self.v[name] = b2 * self.v[name] + (1 - b2) * g * g
            mh = self.m[name] / (1 - b1 ** self.t)
            vh = self.v[name] / (1 - b2 ** self.t)
            params[name] -= self.learning_rate * mh / (np.sqrt(vh) + self.eps)


class RecordingRng:
    """Wraps a Generator, remembering every draw so it can be replayed."""

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self.tape: list[np.ndarray] = []

    def standard_normal(self, size=None):
        out = self._rng.standard_normal(size)
        self.tape.append(np.array(out, copy=True))
        return out

    def random(self, size=None):
        out = self._rng.random(size)
        self.tape.append(np.array(out, copy=True))
        return out


class ReplayMismatch(RuntimeError):
    """A replayed draw was requested with a different shape or past the tape."""


class ReplayRng:
    """Replays a RecordingRng tape in order; draws must match in sequence."""

    def __init__(self, tape: list[np.ndarray]):
        self.tape = tape
        self._i = 0

    def _next(self, size):
        if self._i >= len(self.tape):
            raise ReplayMismatch("ran past the recorded tape")
        out = self.tape[self._i]
        self._i += 1
        if size is None:
            expected = ()
        elif np.isscalar(size):
            expected = (int(size),)
        else:
            expected = tuple(int(s) for s in size)
        if out.shape != expected:
            raise ReplayMismatch("replayed draw shape mismatch")
        return out

    def standard_normal(self, size=None):
        return self._next(size)

    def random(self, size=None):
        return self._next(size)

    def rewind(self):
        self._i = 0
