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

A model is its flat parameter vector ``params`` and its Adam moments ``m``
and ``v``, and it keeps the vectors it is given: it neither copies them nor
writes them on construction, so the rows of one matrix that stacks several
models of one architecture can each be a model.  ``weights``, ``biases``,
``m_w``, ``v_w``, ``m_b`` and ``v_b`` are per-layer views into them (in the
order w0, b0, w1, b1, ...; ``layer_views`` cuts a whole stack the same
way), so an Adam step is one pass over three vectors and writes through
every view.  Write into the views; do not rebind them.  A model copies and
pickles as its checkpoint (``model_meta`` and ``model_state``), and
``load_state`` hands the model copies of the stored vectors, so a copy
owns fresh ones.

``forward(x, keep=True)`` also returns the activations it computed, which
``backward_from_output`` accepts instead of running the forward pass again.
``backward_from_output`` serves a network whose input is data (the
extractor): it stops at the first layer's weight gradient and leaves
``input_gradient`` as ``None``.  ``backward`` still returns the gradient on
its input, which is what chains a decision network to the extractor.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import asdict, dataclass
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

    @property
    def num_params(self) -> int:
        """Length of the flat parameter vector: every weight and bias."""
        pairs = zip(self.sizes[:-1], self.sizes[1:])
        return sum((fan_in + 1) * fan_out for fan_in, fan_out in pairs)


@dataclass(frozen=True)
class AdamHyper:
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


@dataclass
class BackwardResult:
    """Per-layer ``(d_weights, d_biases)`` plus input gradient and loss.

    ``input_gradient`` is ``None`` from ``backward_from_output``.
    """

    gradients: list[tuple[np.ndarray, np.ndarray]]
    input_gradient: np.ndarray | None
    loss: float


def layer_views(arch: MlpArch, flat: np.ndarray):
    """Per-layer ``(..., out, in)`` weight and ``(..., out)`` bias views.

    ``flat`` holds parameter vectors along its last axis in the order w0,
    b0, w1, b1, ...; any leading axes (a stack of models) carry through.
    """
    lead = flat.shape[:-1]
    ws, bs = [], []
    offset = 0
    for fan_in, fan_out in zip(arch.sizes[:-1], arch.sizes[1:]):
        ws.append(flat[..., offset:offset + fan_out * fan_in].reshape(*lead, fan_out, fan_in))
        offset += fan_out * fan_in
        bs.append(flat[..., offset:offset + fan_out])
        offset += fan_out
    return ws, bs


class MlpModel:
    """Mutable network state; one instance is owned by one trainer.

    ``params``, ``m`` and ``v`` must each be a writable, contiguous
    floating vector of ``arch.num_params`` in ``params``' dtype, the dtype
    the model computes in; ``m`` and ``v`` start at zero when not given.
    The model keeps the three vectors as they are.
    """

    def __init__(self, arch: MlpArch, params, hyper: AdamHyper = AdamHyper(), m=None, v=None):
        self.arch = arch
        self.hyper = hyper
        m = np.zeros_like(params) if m is None else m
        v = np.zeros_like(params) if v is None else v
        for a in (params, m, v):
            if not (
                isinstance(a, np.ndarray) and a.shape == (arch.num_params,)
                and np.issubdtype(a.dtype, np.floating) and a.dtype == params.dtype
                and a.flags.c_contiguous and a.flags.writeable
            ):
                raise ContractError(
                    f"params, m and v must be writable contiguous vectors of {arch.num_params} "
                    "values of one floating dtype"
                )
        self.params, self.m, self.v = params, m, v
        self.step = 0
        # per-layer views into the flat vectors, in the order w0, b0, w1, b1, ...
        self.weights, self.biases = layer_views(self.arch, self.params)
        self.m_w, self.m_b = layer_views(self.arch, self.m)
        self.v_w, self.v_b = layer_views(self.arch, self.v)

    def __reduce__(self):
        # copies (pickle, copy.copy, copy.deepcopy) go through the checkpoint, into fresh vectors
        return load_state, (model_meta(self), model_state(self))

    @property
    def num_layers(self) -> int:
        return len(self.arch.activations)

    @property
    def dtype(self) -> np.dtype:
        return self.params.dtype

    def _forward_cached(self, x: np.ndarray):
        pre, post = [], [x]
        a = x
        for w, b, act in zip(self.weights, self.biases, self.arch.activations):
            z = a @ w.T + b
            a = act.apply(z)
            pre.append(z)
            post.append(a)
        return pre, post

    def forward(self, x, keep: bool = False):
        """Output for a batch or a single vector.

        With ``keep`` the result is ``(output, activations)``, where the
        activations are what ``backward_from_output`` needs for this batch.
        """
        x = np.asarray(x, dtype=self.dtype)
        single = x.ndim == 1
        batch = x[None, :] if single else x
        if batch.shape[1] != self.arch.sizes[0]:
            raise ContractError(
                f"input width {batch.shape[1]} does not match the architecture "
                f"({self.arch.sizes[0]})"
            )
        activations = self._forward_cached(batch)
        out = activations[1][-1]
        out = out[0] if single else out
        return (out, activations) if keep else out

    def _backprop(self, pre, post, delta, to_input: bool):
        """Per-layer gradients, plus the input gradient if ``to_input``."""
        gradients = []
        for i in range(self.num_layers - 1, -1, -1):
            gradients.append((delta.T @ post[i], delta.sum(axis=0)))
            if i > 0:
                act = self.arch.activations[i - 1]
                delta = (delta @ self.weights[i]) * act.derivative(pre[i - 1], post[i])
        gradients.reverse()
        return gradients, (delta @ self.weights[0] if to_input else None)

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
        if not ((t == 0.0) | (t == 1.0)).all():
            raise ContractError("targets must be 0 or 1")
        if x.shape[0] != t.shape[0] or t.shape[1] != self.arch.sizes[-1]:
            raise ContractError("target shape does not match input batch and output width")

        pre, post = self._forward_cached(x)
        f = post[-1]
        u = x.shape[0]
        clamped = np.clip(f, LOSS_CLAMP, 1.0 - LOSS_CLAMP)
        loss = float(-(t * np.log(clamped) + (1.0 - t) * np.log(1.0 - clamped)).sum() / u)
        gradients, input_gradient = self._backprop(pre, post, (f - t) / u, to_input=True)
        return BackwardResult(gradients, input_gradient, loss)

    def backward_from_output(self, x, output_gradient, activations=None) -> BackwardResult:
        """Chain-rule pass for an upstream gradient on this net's output.

        ``activations`` from ``forward(x, keep=True)`` spare a second forward
        pass over ``x``.  The input is taken to be data, so no gradient is
        computed for it: ``input_gradient`` is ``None``.
        """
        x = np.asarray(x, dtype=self.dtype)
        g = np.asarray(output_gradient, dtype=self.dtype)
        if x.ndim == 1:
            x = x[None, :]
        if g.ndim == 1:
            g = g[None, :]
        if g.shape != (x.shape[0], self.arch.sizes[-1]):
            raise ContractError("output gradient shape does not match the forward batch")
        if activations is None:
            activations = self._forward_cached(x)
        pre, post = activations
        if post[0].shape != x.shape:
            raise ContractError("activations do not belong to this input batch")
        act = self.arch.activations[-1]
        # an identity head passes the gradient through unchanged
        delta = g if act is Activation.IDENTITY else g * act.derivative(pre[-1], post[-1])
        gradients, _ = self._backprop(pre, post, delta, to_input=False)
        return BackwardResult(gradients, None, 0.0)

    def adam_step(self, gradients) -> None:
        """One Adam update with bias correction; mutates the model in place.

        The gradients are concatenated in the layout of ``params``, so the
        update is one pass over the flat parameter and moment vectors.
        """
        if len(gradients) != self.num_layers:
            raise ContractError("gradient count does not match layer count")
        for i, (d_w, d_b) in enumerate(gradients):
            if d_w.shape != self.weights[i].shape or d_b.shape != self.biases[i].shape:
                raise ContractError(f"gradient shape mismatch at layer {i}")
        g = np.concatenate([a.ravel() for pair in gradients for a in pair])
        h = self.hyper
        self.step += 1
        correct1 = 1.0 - h.beta1 ** self.step
        correct2 = 1.0 - h.beta2 ** self.step
        m, v = self.m, self.v
        m *= h.beta1
        m += (1.0 - h.beta1) * g
        v *= h.beta2
        v += (1.0 - h.beta2) * g * g
        self.params -= h.learning_rate * (m / correct1) / (np.sqrt(v / correct2) + h.eps)


def init_random(arch: MlpArch, seed: int, hyper: AdamHyper = AdamHyper()) -> MlpModel:
    """Fresh model with N(0, 1/fan_in) weights and zero biases."""
    rng = np.random.default_rng(seed)
    params = np.zeros(arch.num_params)
    for w in layer_views(arch, params)[0]:
        w[...] = rng.normal(0.0, 1.0 / np.sqrt(w.shape[1]), size=w.shape)
    return MlpModel(arch, params, hyper)


def model_state(model: MlpModel, prefix: str = "") -> dict[str, np.ndarray]:
    """The model's flat ``params``, ``m`` and ``v`` and its ``step``; ``load_state`` inverts it."""
    state = {f"{prefix}{name}": getattr(model, name) for name in ("params", "m", "v")}
    state[f"{prefix}step"] = np.asarray(model.step)
    return state


def model_meta(model: MlpModel) -> dict:
    return {
        "sizes": list(model.arch.sizes),
        "activations": [a.value for a in model.arch.activations],
        "hyper": asdict(model.hyper),
    }


def read_meta(meta: dict) -> tuple[MlpArch, AdamHyper]:
    """The architecture and Adam setting of a ``model_meta`` record."""
    arch = MlpArch(
        sizes=tuple(int(n) for n in meta["sizes"]),
        activations=tuple(Activation(a) for a in meta["activations"]),
    )
    return arch, AdamHyper(**meta["hyper"])


def load_state(meta: dict, state: Mapping[str, np.ndarray], prefix: str = "") -> MlpModel:
    """The model ``model_meta`` and ``model_state`` saved; ``state`` may be an ``np.load`` archive.

    The model gets copies of the stored vectors.  A ``params`` of the wrong
    length, or an ``m`` or ``v`` of another shape or dtype, raises ``ContractError``.
    """
    arch, hyper = read_meta(meta)
    params, m, v = (np.array(state[f"{prefix}{name}"]) for name in ("params", "m", "v"))
    model = MlpModel(arch, params, hyper, m, v)
    model.step = int(state[f"{prefix}step"])
    return model
