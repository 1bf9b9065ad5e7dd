"""Models built layer by layer, for tests that spell out their weights."""

import numpy as np

from dtplace.neural import MlpModel, layer_views


def from_layers(arch, weights, biases, dtype=None) -> MlpModel:
    """A model whose flat parameters are ``weights`` and ``biases`` laid out as w0, b0, w1, b1, ...

    ``dtype`` converts them; by default they keep NumPy's common dtype.
    """
    layers = [np.ravel(p) for pair in zip(weights, biases) for p in pair]
    params = np.concatenate(layers, dtype=dtype)
    model = MlpModel(arch, params)
    assert all(np.shape(w) == v.shape for w, v in zip(weights, model.weights))
    return model


def named_layers(model: MlpModel) -> dict:
    """A model's per-layer weights, biases and Adam moments, each a list of views by name."""
    (m_w, m_b), (v_w, v_b) = layer_views(model.arch, model.m), layer_views(model.arch, model.v)
    return {"weights": model.weights, "biases": model.biases,
            "m_w": m_w, "v_w": v_w, "m_b": m_b, "v_b": v_b}
