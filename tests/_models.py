"""Models built layer by layer, for tests that spell out their weights."""

import numpy as np

from dtplace.neural import AdamHyper, MlpModel


def from_layers(arch, weights, biases, hyper=AdamHyper(), dtype=None) -> MlpModel:
    """A model whose flat parameters are ``weights`` and ``biases`` laid out as w0, b0, w1, b1, ...

    ``dtype`` converts them; by default they keep NumPy's common dtype.
    """
    layers = [np.ravel(p) for pair in zip(weights, biases) for p in pair]
    params = np.concatenate(layers, dtype=dtype)
    model = MlpModel(arch, params, hyper)
    assert all(np.shape(w) == v.shape for w, v in zip(weights, model.weights))
    return model
