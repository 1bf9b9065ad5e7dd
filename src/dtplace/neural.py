"""Dense feed-forward networks with hand-rolled backprop and Adam.

Deliberately small scope: dense layers with ReLU/Sigmoid/Identity
activations, a binary cross-entropy loss against {0, 1} targets (the output
layer must be sigmoid), and Adam with bias correction.  Weights initialize
from N(0, 1/fan_in); biases start at zero.

Shapes follow the row-per-sample convention: inputs are ``(batch, in)``
batches and nothing else, weight matrices are ``(out, in)``.

A model computes in the floating dtype of its parameters: inputs, targets
and upstream gradients are cast to it, and gradients and Adam moments come
out in it.  Losses are Python floats whatever the dtype.

A model is its architecture, its flat parameter vector ``params`` and its
Adam moments ``m`` and ``v``, and it keeps the vectors it is given: it
neither copies them nor writes them on construction, so the rows of one
matrix that stacks several models of one architecture can each be a model.
``weights`` and ``biases`` are per-layer views into ``params`` (in the order
w0, b0, w1, b1, ...; ``layer_views`` cuts a moment vector, a gradient or a
whole stack the same way).  A gradient is one vector in that layout, which
backprop fills layer by layer, so gradients add as vectors and an Adam step
is one pass over four vectors that writes through every view.  Write into
the views; do not rebind them.  Adam's betas and epsilon are the module
constants ``BETA1``, ``BETA2`` and ``EPS``; a model keeps neither a step
count nor a learning rate, its owner passes both to ``adam_step``.  A
model copies and pickles as its architecture and copies of its three
vectors, so a copy owns fresh ones.

``feed_forward`` is the one layer loop: ``a·Wᵀ + b``, then the
activation, over ``layer_views`` of one model or of a ``(K, P)`` stack of
K models, which it runs as one batched product per layer.  It alone casts
and checks the input batch.  ``forward``, ``backward`` and the ensemble's
proposals all run it.  Backprop reads only the layer outputs it keeps: each
activation's derivative is a function of its output.

``backward`` also returns the gradient on its input, which is what chains a
decision network to the extractor.  ``backward_from_output`` serves the
extractor, a network with an identity head whose input is data: it takes
the activations ``forward(x, keep=True)`` returned and stops at the first
layer's weight gradient.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ContractError

LOSS_CLAMP = 1e-7
# Adam's constants.  Python floats, so that the moment arithmetic stays in
# the model's dtype under NumPy's promotion rules.
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Activation(str, Enum):
    RELU = "relu"
    SIGMOID = "sigmoid"
    IDENTITY = "identity"

    def apply(self, z: np.ndarray) -> np.ndarray:
        """The activation of the pre-activation array ``z``, which ReLU overwrites."""
        if self is Activation.RELU:
            return np.maximum(z, 0.0, out=z)
        if self is Activation.SIGMOID:
            # exp(-z) overflows to inf below z ≈ -88 in float32, giving the limit 0.
            with np.errstate(over="ignore"):
                return 1.0 / (1.0 + np.exp(-z))
        return z

    def derivative(self, a: np.ndarray) -> np.ndarray:
        """Derivative at the pre-activation whose activation came out ``a``.

        ReLU's ``a > 0`` holds exactly where its pre-activation is ``> 0``, NaN included.
        """
        if self is Activation.RELU:
            return (a > 0.0).astype(a.dtype)
        if self is Activation.SIGMOID:
            return a * (1.0 - a)
        return np.ones_like(a)


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


@dataclass
class BackwardResult:
    """Parameter gradient in the layout of ``params``, input gradient and loss."""

    gradient: np.ndarray
    input_gradient: np.ndarray
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


def feed_forward(x, weights, biases, activations, keep: bool = False):
    """Every layer's ``a·Wᵀ + b`` and activation, for a ``(batch, in)`` batch ``x``.

    ``weights`` and ``biases`` are ``layer_views`` of one model, which gives
    a ``(batch, out)`` output, or of a stack of K models, which gives
    ``(K, batch, out)``.  ``x`` is cast to the parameters' dtype.  With
    ``keep`` the result is the list of ``x`` and every layer's output.
    """
    a = np.asarray(x, dtype=weights[0].dtype)
    width = weights[0].shape[-1]
    if a.ndim != 2 or a.shape[1] != width:
        raise ContractError(f"input of shape {a.shape} is not a batch of width {width}")
    kept = [a]
    for w, b, act in zip(weights, biases, activations):
        z = a @ np.swapaxes(w, -1, -2)
        z += b[..., None, :]
        a = act.apply(z)
        kept.append(a)
    return kept if keep else a


class MlpModel:
    """Mutable network state; one instance is owned by one trainer.

    ``params``, ``m`` and ``v`` must each be a writable, contiguous
    floating vector of ``arch.num_params`` in ``params``' dtype, the dtype
    the model computes in; ``m`` and ``v`` start at zero when not given.
    The model keeps the three vectors as they are.
    """

    def __init__(self, arch: MlpArch, params, m=None, v=None):
        self.arch = arch
        m = np.zeros_like(params) if m is None else m
        v = np.zeros_like(params) if v is None else v
        for a in (params, m, v):
            if not (
                isinstance(a, np.ndarray) and a.shape == (arch.num_params,)
                and np.issubdtype(a.dtype, np.floating) and a.dtype == params.dtype
                and a.flags.c_contiguous and a.flags.writeable
            ):
                raise ContractError(
                    f"params, m and v of a {arch.sizes} network must be writable contiguous "
                    f"vectors of {arch.num_params} values of one floating dtype"
                )
        self.params, self.m, self.v = params, m, v
        # per-layer views into the flat parameters, in the order w0, b0, w1, b1, ...
        self.weights, self.biases = layer_views(self.arch, self.params)

    def __reduce__(self):
        # copies (pickle, copy.copy, copy.deepcopy) get fresh vectors
        return type(self), (self.arch, self.params.copy(), self.m.copy(), self.v.copy())

    @property
    def dtype(self) -> np.dtype:
        return self.params.dtype

    def forward(self, x, keep: bool = False):
        """Output for a ``(batch, in)`` batch.

        With ``keep`` the result is ``(output, activations)``, where the
        activations are what ``backward_from_output`` needs for this batch.
        """
        kept = feed_forward(x, self.weights, self.biases, self.arch.activations, keep)
        return (kept[-1], kept) if keep else kept

    def _backprop(self, post, delta):
        """Flat gradient for the output residual ``delta``, and the first layer's residual."""
        gradient = np.empty_like(self.params)
        d_ws, d_bs = layer_views(self.arch, gradient)
        for i in range(len(d_ws) - 1, -1, -1):
            np.matmul(delta.T, post[i], out=d_ws[i])
            delta.sum(axis=0, out=d_bs[i])
            if i > 0:
                act = self.arch.activations[i - 1]
                delta = (delta @ self.weights[i]) * act.derivative(post[i])
        return gradient, delta

    def backward(self, x, targets) -> BackwardResult:
        """Gradient of the mean binary cross-entropy over the batch.

        Targets must be 0/1 and the output activation sigmoid, which makes
        the output-layer residual the plain ``(prediction - target) / batch``.
        """
        if self.arch.activations[-1] is not Activation.SIGMOID:
            raise ContractError("cross-entropy backward requires a sigmoid output layer")
        post = feed_forward(x, self.weights, self.biases, self.arch.activations, keep=True)
        f = post[-1]
        t = np.asarray(targets, dtype=self.dtype)
        if not ((t == 0.0) | (t == 1.0)).all():
            raise ContractError("targets must be 0 or 1")
        if t.shape != f.shape:
            raise ContractError("target shape does not match input batch and output width")

        u = f.shape[0]
        clamped = np.clip(f, LOSS_CLAMP, 1.0 - LOSS_CLAMP)
        loss = float(-(t * np.log(clamped) + (1.0 - t) * np.log(1.0 - clamped)).sum() / u)
        gradient, delta = self._backprop(post, (f - t) / u)
        return BackwardResult(gradient, delta @ self.weights[0], loss)

    def backward_from_output(self, output_gradient, activations) -> np.ndarray:
        """Parameter gradient, shaped like ``params``, for an upstream gradient on the identity head.

        ``activations`` are what ``forward(x, keep=True)`` returned for the
        batch ``x``.  The input is taken to be data, so no gradient is
        computed for it.
        """
        if self.arch.activations[-1] is not Activation.IDENTITY:
            raise ContractError("backward_from_output requires an identity output layer")
        g = np.asarray(output_gradient, dtype=self.dtype)
        if g.shape != activations[-1].shape:
            raise ContractError("output gradient shape does not match the forward batch")
        return self._backprop(activations, g)[0]

    def adam_step(self, gradient, step: int, learning_rate: float) -> None:
        """Adam update number ``step`` (counted from 1), with bias correction; mutates the model.

        ``gradient`` is an array shaped like ``params``, in its layout, so the
        update is one pass over the flat parameter, moment and gradient vectors.
        """
        if step < 1:
            raise ContractError("Adam steps are counted from 1")
        if not (isinstance(gradient, np.ndarray) and gradient.shape == self.params.shape):
            raise ContractError(f"the gradient must be an array of shape {self.params.shape}")
        correct1 = 1.0 - BETA1 ** step
        correct2 = 1.0 - BETA2 ** step
        m, v = self.m, self.v
        m *= BETA1
        m += (1.0 - BETA1) * gradient
        v *= BETA2
        v += (1.0 - BETA2) * gradient * gradient
        self.params -= learning_rate * (m / correct1) / (np.sqrt(v / correct2) + EPS)


def init_random(arch: MlpArch, seed: int) -> MlpModel:
    """Fresh model with N(0, 1/fan_in) weights and zero biases."""
    rng = np.random.default_rng(seed)
    params = np.zeros(arch.num_params)
    for w in layer_views(arch, params)[0]:
        w[...] = rng.normal(0.0, 1.0 / np.sqrt(w.shape[1]), size=w.shape)
    return MlpModel(arch, params)
