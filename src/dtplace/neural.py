"""Dense feed-forward networks with hand-rolled backprop and Adam.

Deliberately small scope: dense layers with ReLU/Sigmoid/Identity
activations, a binary cross-entropy loss against {0, 1} targets (the output
layer must be sigmoid), and Adam with bias correction.  Weights initialize
from N(0, 1/fan_in); biases start at zero.

Shapes follow the row-per-sample convention: inputs are ``(batch, in)`` or a
single ``(in,)`` vector, weight matrices are ``(out, in)``.

A model computes in the floating dtype of its parameters: inputs, targets
and upstream gradients are cast to it, and gradients and Adam moments come
out in it.  Losses are Python floats whatever the dtype.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ContractError

LOSS_CLAMP = 1e-7


class Activation(str, Enum):
    RELU = "relu"
    SIGMOID = "sigmoid"
    IDENTITY = "identity"

    def apply(self, z: np.ndarray) -> np.ndarray:
        if self is Activation.RELU:
            return np.maximum(z, 0.0)
        if self is Activation.SIGMOID:
            # exp(-z) overflows to inf below z ≈ -88 in float32, giving the limit 0.
            with np.errstate(over="ignore"):
                return 1.0 / (1.0 + np.exp(-z))
        return z

    def derivative(self, z: np.ndarray, a: np.ndarray) -> np.ndarray:
        """Derivative at pre-activation ``z`` whose activation came out ``a``."""
        if self is Activation.RELU:
            return (z > 0.0).astype(z.dtype)
        if self is Activation.SIGMOID:
            return a * (1.0 - a)
        return np.ones_like(z)


@dataclass(frozen=True)
class MlpArch:
    """Layer widths (input first) and one activation per weight layer."""

    sizes: tuple[int, ...]
    activations: tuple[Activation, ...]

    def __post_init__(self):
        if len(self.sizes) < 2:
            raise ContractError("an architecture needs at least input and output sizes")
        if len(self.activations) != len(self.sizes) - 1:
            raise ContractError("need exactly one activation per weight layer")
        if any(n < 1 for n in self.sizes):
            raise ContractError("layer sizes must be positive")


@dataclass(frozen=True)
class AdamHyper:
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


@dataclass
class BackwardResult:
    """Per-layer ``(d_weights, d_biases)`` plus input gradient and loss."""

    gradients: list[tuple[np.ndarray, np.ndarray]]
    input_gradient: np.ndarray
    loss: float


def _floating(a) -> np.ndarray:
    a = np.asarray(a)
    return a if np.issubdtype(a.dtype, np.floating) else a.astype(float)


class MlpModel:
    """Mutable network state; one instance is owned by one trainer.

    Parameters keep their floating dtype (others become float64), and all
    of them must share it: it is the dtype the model computes in.
    """

    def __init__(self, arch: MlpArch, weights, biases, hyper: AdamHyper = AdamHyper()):
        self.arch = arch
        self.weights = [_floating(w) for w in weights]
        self.biases = [_floating(b) for b in biases]
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            expected = (arch.sizes[i + 1], arch.sizes[i])
            if w.shape != expected or b.shape != (arch.sizes[i + 1],):
                raise ContractError(f"layer {i} parameters do not match the architecture")
        if len({p.dtype for p in self.weights + self.biases}) != 1:
            raise ContractError("all parameters must share one floating dtype")
        self.hyper = hyper
        self.m_w = [np.zeros_like(w) for w in self.weights]
        self.v_w = [np.zeros_like(w) for w in self.weights]
        self.m_b = [np.zeros_like(b) for b in self.biases]
        self.v_b = [np.zeros_like(b) for b in self.biases]
        self.step = 0

    @property
    def num_layers(self) -> int:
        return len(self.weights)

    @property
    def dtype(self) -> np.dtype:
        return self.weights[0].dtype

    def _forward_cached(self, x: np.ndarray):
        pre, post = [], [x]
        a = x
        for w, b, act in zip(self.weights, self.biases, self.arch.activations):
            z = a @ w.T + b
            a = act.apply(z)
            pre.append(z)
            post.append(a)
        return pre, post

    def forward(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=self.dtype)
        single = x.ndim == 1
        batch = x[None, :] if single else x
        if batch.shape[1] != self.arch.sizes[0]:
            raise ContractError(
                f"input width {batch.shape[1]} does not match the architecture "
                f"({self.arch.sizes[0]})"
            )
        out = self._forward_cached(batch)[1][-1]
        return out[0] if single else out

    def _backprop(self, pre, post, delta):
        gradients = []
        for i in range(self.num_layers - 1, -1, -1):
            gradients.append((delta.T @ post[i], delta.sum(axis=0)))
            if i > 0:
                act = self.arch.activations[i - 1]
                delta = (delta @ self.weights[i]) * act.derivative(pre[i - 1], post[i])
            else:
                delta = delta @ self.weights[0]
        gradients.reverse()
        return gradients, delta

    def backward(self, x, targets) -> BackwardResult:
        """Gradient of the mean binary cross-entropy over the batch.

        Targets must be 0/1 and the output activation sigmoid, which makes
        the output-layer residual the plain ``(prediction - target) / batch``.
        """
        if self.arch.activations[-1] is not Activation.SIGMOID:
            raise ContractError("cross-entropy backward requires a sigmoid output layer")
        x = np.asarray(x, dtype=self.dtype)
        t = np.asarray(targets, dtype=self.dtype)
        if x.ndim == 1:
            x = x[None, :]
        if t.ndim == 1:
            t = t[None, :]
        if not np.isin(t, (0.0, 1.0)).all():
            raise ContractError("targets must be 0 or 1")
        if x.shape[0] != t.shape[0] or t.shape[1] != self.arch.sizes[-1]:
            raise ContractError("target shape does not match input batch and output width")

        pre, post = self._forward_cached(x)
        f = post[-1]
        u = x.shape[0]
        clamped = np.clip(f, LOSS_CLAMP, 1.0 - LOSS_CLAMP)
        loss = float(-(t * np.log(clamped) + (1.0 - t) * np.log(1.0 - clamped)).sum() / u)
        gradients, input_gradient = self._backprop(pre, post, (f - t) / u)
        return BackwardResult(gradients, input_gradient, loss)

    def backward_from_output(self, x, output_gradient) -> BackwardResult:
        """Chain-rule pass for an upstream gradient on this net's output."""
        x = np.asarray(x, dtype=self.dtype)
        g = np.asarray(output_gradient, dtype=self.dtype)
        if x.ndim == 1:
            x = x[None, :]
        if g.ndim == 1:
            g = g[None, :]
        if g.shape != (x.shape[0], self.arch.sizes[-1]):
            raise ContractError("output gradient shape does not match the forward batch")
        pre, post = self._forward_cached(x)
        act = self.arch.activations[-1]
        delta = g * act.derivative(pre[-1], post[-1])
        gradients, input_gradient = self._backprop(pre, post, delta)
        return BackwardResult(gradients, input_gradient, 0.0)

    def adam_step(self, gradients) -> None:
        """One Adam update with bias correction; mutates the model in place."""
        if len(gradients) != self.num_layers:
            raise ContractError("gradient count does not match layer count")
        h = self.hyper
        self.step += 1
        correct1 = 1.0 - h.beta1 ** self.step
        correct2 = 1.0 - h.beta2 ** self.step
        for i, (d_w, d_b) in enumerate(gradients):
            if d_w.shape != self.weights[i].shape or d_b.shape != self.biases[i].shape:
                raise ContractError(f"gradient shape mismatch at layer {i}")
            for p, g, m, v in (
                (self.weights[i], d_w, self.m_w[i], self.v_w[i]),
                (self.biases[i], d_b, self.m_b[i], self.v_b[i]),
            ):
                m *= h.beta1
                m += (1.0 - h.beta1) * g
                v *= h.beta2
                v += (1.0 - h.beta2) * g * g
                p -= h.learning_rate * (m / correct1) / (np.sqrt(v / correct2) + h.eps)


def init_random(arch: MlpArch, seed: int, hyper: AdamHyper = AdamHyper()) -> MlpModel:
    """Fresh model with N(0, 1/fan_in) weights and zero biases."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(arch.sizes[:-1], arch.sizes[1:]):
        weights.append(rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpModel(arch, weights, biases, hyper)


def model_state(model: MlpModel, prefix: str = "") -> dict[str, np.ndarray]:
    """Flat array mapping for checkpoints; ``load_state`` inverts it."""
    state = {}
    for i in range(model.num_layers):
        state[f"{prefix}w{i}"] = model.weights[i]
        state[f"{prefix}b{i}"] = model.biases[i]
        state[f"{prefix}mw{i}"] = model.m_w[i]
        state[f"{prefix}vw{i}"] = model.v_w[i]
        state[f"{prefix}mb{i}"] = model.m_b[i]
        state[f"{prefix}vb{i}"] = model.v_b[i]
    state[f"{prefix}step"] = np.asarray(model.step)
    return state


def model_meta(model: MlpModel) -> dict:
    return {
        "sizes": list(model.arch.sizes),
        "activations": [a.value for a in model.arch.activations],
        "hyper": {
            "learning_rate": model.hyper.learning_rate,
            "beta1": model.hyper.beta1,
            "beta2": model.hyper.beta2,
            "eps": model.hyper.eps,
        },
    }


def load_state(meta: dict, state: dict, prefix: str = "") -> MlpModel:
    arch = MlpArch(
        sizes=tuple(int(n) for n in meta["sizes"]),
        activations=tuple(Activation(a) for a in meta["activations"]),
    )
    hyper = AdamHyper(**meta["hyper"])
    n = len(arch.sizes) - 1
    model = MlpModel(
        arch,
        [state[f"{prefix}w{i}"] for i in range(n)],
        [state[f"{prefix}b{i}"] for i in range(n)],
        hyper,
    )
    model.m_w = [np.asarray(state[f"{prefix}mw{i}"]) for i in range(n)]
    model.v_w = [np.asarray(state[f"{prefix}vw{i}"]) for i in range(n)]
    model.m_b = [np.asarray(state[f"{prefix}mb{i}"]) for i in range(n)]
    model.v_b = [np.asarray(state[f"{prefix}vb{i}"]) for i in range(n)]
    model.step = int(state[f"{prefix}step"])
    return model
