import copy
import pickle
import warnings

import numpy as np
import pytest
from _models import from_layers, named_layers

from dtplace.errors import ContractError
from dtplace.neural import Activation, MlpArch, MlpModel, init_random, layer_views

SIG = Activation.SIGMOID
RELU = Activation.RELU
IDENT = Activation.IDENTITY


def bce_loss(model, x, t):
    f = np.clip(model.forward(x), 1e-7, 1 - 1e-7)
    return float(-(t * np.log(f) + (1 - t) * np.log(1 - f)).sum() / f.shape[0])


def finite_difference_grads(model, x, t, h=1e-6):
    """Central differences on every parameter, laid out like ``params``; the analytic-gradient oracle."""
    grad = np.zeros_like(model.params)
    for j in range(model.params.size):
        orig = model.params[j]
        model.params[j] = orig + h
        up = bce_loss(model, x, t)
        model.params[j] = orig - h
        down = bce_loss(model, x, t)
        model.params[j] = orig
        grad[j] = (up - down) / (2 * h)
    return grad


def cast(model, dtype):
    """The same network with its weights and biases converted to ``dtype``."""
    return from_layers(model.arch, model.weights, model.biases, dtype)


def max_relative_error(analytic, numeric):
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float((np.abs(analytic - numeric) / scale).max())


class TestForward:
    def test_zero_weights_sigmoid_gives_half(self):
        arch = MlpArch((4, 3, 2), (RELU, SIG))
        model = from_layers(arch, [np.zeros((3, 4)), np.zeros((2, 3))], [np.zeros(3), np.zeros(2)])
        out = model.forward(np.ones((1, 4)))
        assert out.shape == (1, 2) and np.allclose(out, 0.5)

    def test_identity_single_layer_is_affine(self):
        arch = MlpArch((2, 2), (IDENT,))
        w = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([0.5, -0.5])
        model = from_layers(arch, [w], [b])
        x = np.array([[1.0, 1.0], [2.0, -1.0]])
        assert np.allclose(model.forward(x), x @ w.T + b)

    def test_outputs_stay_in_unit_interval(self):
        model = init_random(MlpArch((10, 32, 16, 4), (RELU, RELU, SIG)), seed=3)
        x = np.random.default_rng(4).normal(size=(1000, 10)) * 5
        out = model.forward(x)
        assert np.isfinite(out).all()
        assert ((out > 0) & (out < 1)).all()

    def test_width_mismatch_rejected(self):
        # a single vector, even of the right width, or a stack of batches is not a batch
        model = init_random(MlpArch((5, 3), (SIG,)), seed=0)
        for bad in (np.ones((2, 4)), np.ones(4), np.ones(5), np.ones((1, 2, 5))):
            with pytest.raises(ContractError):
                model.forward(bad)
            with pytest.raises(ContractError):
                model.forward(bad, keep=True)

    def test_bad_arch_rejected(self):
        with pytest.raises(ContractError):
            MlpArch((4,), (SIG,))
        with pytest.raises(ContractError):
            MlpArch((4, 2), (SIG, SIG))


class TestBackward:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        model = init_random(MlpArch((4, 6, 3), (RELU, SIG)), seed=11)
        x = rng.normal(size=(5, 4))
        t = rng.integers(0, 2, size=(5, 3)).astype(float)
        result = model.backward(x, t)
        numeric = finite_difference_grads(model, x, t)
        assert max_relative_error(result.gradient, numeric) < 1e-4

    def test_matches_finite_differences_identity_hidden(self):
        rng = np.random.default_rng(8)
        model = init_random(MlpArch((3, 5, 2), (IDENT, SIG)), seed=12)
        x = rng.normal(size=(4, 3))
        t = rng.integers(0, 2, size=(4, 2)).astype(float)
        result = model.backward(x, t)
        numeric = finite_difference_grads(model, x, t)
        assert max_relative_error(result.gradient, numeric) < 1e-4

    def test_perfect_prediction_zeroes_output_bias_gradient(self):
        # With zero weights the output is sigmoid(bias); picking the target
        # at that value makes (prediction - target) vanish.
        arch = MlpArch((2, 2), (SIG,))
        bias = np.array([0.3, -0.7])
        model = from_layers(arch, [np.zeros((2, 2))], [bias])
        target = 1.0 / (1.0 + np.exp(-bias))
        # targets must be 0/1 for the loss; use the raw residual path instead
        f = model.forward(np.array([[0.5, 0.5]]))
        assert np.allclose(f, target)

    def test_zero_target_residual_means_zero_gradient(self):
        arch = MlpArch((2, 1), (SIG,))
        model = from_layers(arch, [np.zeros((1, 2))], [np.zeros(1)])
        # prediction is exactly 0.5 everywhere; average of targets 0 and 1
        # over a duplicated input cancels the residual.
        x = np.array([[1.0, 2.0], [1.0, 2.0]])
        t = np.array([[0.0], [1.0]])
        d_ws, d_bs = layer_views(arch, model.backward(x, t).gradient)
        assert np.allclose(d_bs[-1], 0.0)
        assert np.allclose(d_ws[-1], 0.0)

    def test_duplicated_batch_keeps_mean_gradient(self):
        rng = np.random.default_rng(9)
        model = init_random(MlpArch((4, 5, 2), (RELU, SIG)), seed=13)
        x = rng.normal(size=(3, 4))
        t = rng.integers(0, 2, size=(3, 2)).astype(float)
        once = model.backward(x, t)
        twice = model.backward(np.vstack([x, x]), np.vstack([t, t]))
        assert np.allclose(once.gradient, twice.gradient)
        assert twice.loss == pytest.approx(once.loss, rel=1e-12)

    def test_non_binary_targets_rejected(self):
        model = init_random(MlpArch((2, 1), (SIG,)), seed=1)
        for bad in (0.5, np.nan):
            with pytest.raises(ContractError):
                model.backward(np.ones((3, 2)), np.array([[0.0], [bad], [1.0]]))

    def test_non_sigmoid_head_rejected(self):
        model = init_random(MlpArch((2, 1), (IDENT,)), seed=1)
        with pytest.raises(ContractError):
            model.backward(np.ones((1, 2)), np.array([[1.0]]))
        # and the chain-rule pass refuses any head but the identity
        for head in (SIG, RELU):
            model = init_random(MlpArch((2, 1), (head,)), seed=1)
            _, activations = model.forward(np.ones((1, 2)), keep=True)
            with pytest.raises(ContractError, match="identity"):
                model.backward_from_output(np.ones((1, 1)), activations)

    def test_chained_backward_matches_joint_network(self):
        # Splitting a network into an identity-headed front half and a back
        # half, and chaining the upstream gradient through
        # backward_from_output, must reproduce the joint gradients of the
        # full network, whose hidden layer is then an identity layer.
        rng = np.random.default_rng(10)
        front = init_random(MlpArch((3, 5, 4), (RELU, IDENT)), seed=21)
        back = init_random(MlpArch((4, 2), (SIG,)), seed=22)
        x = rng.normal(size=(6, 3))
        t = rng.integers(0, 2, size=(6, 2)).astype(float)

        joint = from_layers(
            MlpArch((3, 5, 4, 2), (RELU, IDENT, SIG)),
            [w.copy() for w in (*front.weights, *back.weights)],
            [b.copy() for b in (*front.biases, *back.biases)],
        )
        joint_result = joint.backward(x, t)

        hidden, activations = front.forward(x, keep=True)
        back_result = back.backward(hidden, t)
        front_gradient = front.backward_from_output(back_result.input_gradient, activations)

        # the joint layout is the front's layers followed by the back's
        chained = np.concatenate([front_gradient, back_result.gradient])
        assert chained.shape == joint_result.gradient.shape == joint.params.shape
        assert np.allclose(chained, joint_result.gradient)


class TestDtype:
    ARCH = MlpArch((5, 4, 3), (RELU, SIG))

    def arrays(self, result):
        return result.gradient, result.input_gradient

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_computes_in_parameter_dtype(self, dtype):
        # Inputs, targets and upstream gradients arrive in the other dtype.
        other = np.float32 if dtype == np.float64 else np.float64
        model = cast(init_random(self.ARCH, seed=4), dtype)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(6, 5)).astype(other)
        t = rng.integers(0, 2, size=(6, 3)).astype(other)
        assert model.dtype == dtype
        assert model.forward(x).dtype == dtype
        result = model.backward(x, t)
        assert type(result.loss) is float
        assert all(a.dtype == dtype for a in self.arrays(result))
        extractor = cast(init_random(MlpArch((5, 4, 3), (RELU, IDENT)), seed=4), dtype)
        _, activations = extractor.forward(x, keep=True)
        upstream = extractor.backward_from_output(np.ones((6, 3), dtype=other), activations)
        assert upstream.dtype == dtype
        model.adam_step(result.gradient, 1, 1e-3)
        for views in named_layers(model).values():
            assert all(a.dtype == dtype for a in views)

    def test_float32_agrees_with_float64_to_its_precision(self):
        wide = init_random(self.ARCH, seed=4)
        narrow = cast(wide, np.float32)
        rng = np.random.default_rng(6)
        x = rng.normal(size=(6, 5))
        t = rng.integers(0, 2, size=(6, 3)).astype(float)
        assert np.allclose(narrow.forward(x), wide.forward(x), rtol=1e-5, atol=1e-6)
        got, want = narrow.backward(x, t), wide.backward(x, t)
        assert got.loss == pytest.approx(want.loss, rel=1e-5)
        for g, w in zip(self.arrays(got), self.arrays(want)):
            assert np.allclose(g, w, rtol=1e-4, atol=1e-6)

    def test_float32_sigmoid_saturates_without_warning(self):
        model = from_layers(MlpArch((1, 1), (SIG,)), [[[1.0]]], [[0.0]], dtype=np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = model.forward(np.array([-200.0, 200.0])[:, None])
        assert out.ravel().tolist() == [0.0, 1.0]

    def test_mixed_dtypes_rejected(self):
        # moments must be in the dtype of the parameters
        model = init_random(self.ARCH, seed=4)
        narrow = model.params.astype(np.float32)
        for m, v in ((model.m, None), (None, model.v), (model.m, model.v)):
            with pytest.raises(ContractError):
                MlpModel(self.ARCH, narrow, m, v)


class TestAdam:
    def test_first_step_closed_form(self):
        arch = MlpArch((1, 1), (SIG,))
        model = from_layers(arch, [np.array([[2.0]])], [np.array([1.0])])
        # the flat layout is w0 then b0
        model.adam_step(np.array([0.5, 0.25]), 1, 0.01)
        # First bias-corrected step is lr * g / (|g| + eps), i.e. nearly lr.
        expected_w = 2.0 - 0.01 * 0.5 / (0.5 + 1e-8)
        expected_b = 1.0 - 0.01 * 0.25 / (0.25 + 1e-8)
        assert model.weights[0][0, 0] == pytest.approx(expected_w, rel=1e-9)
        assert model.biases[0][0] == pytest.approx(expected_b, rel=1e-9)

    def test_zero_gradient_keeps_parameters(self):
        model = init_random(MlpArch((3, 2), (SIG,)), seed=5)
        w_before = model.weights[0].copy()
        model.adam_step(np.zeros_like(model.params), 1, 1e-3)
        assert np.array_equal(model.weights[0], w_before)

    def test_moments_decay_after_real_step(self):
        model = init_random(MlpArch((3, 2), (SIG,)), seed=5)
        model.adam_step(np.ones_like(model.params), 1, 1e-3)
        m_w, _ = layer_views(model.arch, model.m)
        m_after_first = m_w[0].copy()
        model.adam_step(np.zeros_like(model.params), 2, 1e-3)
        assert np.allclose(m_w[0], 0.9 * m_after_first)

    def test_identical_models_stay_identical(self):
        a = init_random(MlpArch((4, 3), (SIG,)), seed=6)
        b = copy.deepcopy(a)
        g = np.empty_like(a.params)
        g_w, g_b = layer_views(a.arch, g)
        g_w[0][...], g_b[0][...] = 0.1, -0.2
        a.adam_step(g, 1, 1e-3)
        b.adam_step(g, 1, 1e-3)
        assert np.array_equal(a.weights[0], b.weights[0])
        assert np.array_equal(a.biases[0], b.biases[0])

    def test_gradient_shape_mismatch_rejected(self):
        model = init_random(MlpArch((4, 3), (SIG,)), seed=6)
        n = model.params.size
        # per-layer pairs of the right shapes, a short, a long and a 2-D vector, and a list
        pairs = [(np.zeros_like(model.weights[0]), np.zeros_like(model.biases[0]))]
        for bad in (pairs, np.zeros(n - 1), np.zeros(n + 1), np.zeros((1, n)), [0.0] * n):
            with pytest.raises(ContractError, match="the gradient must be an array"):
                model.adam_step(bad, 1, 1e-3)
        # steps count from 1: step 0 would divide the moments by a zero bias correction
        with pytest.raises(ContractError, match="counted from 1"):
            model.adam_step(np.zeros(n), 0, 1e-3)

    def test_training_reduces_loss(self):
        rng = np.random.default_rng(30)
        model = init_random(MlpArch((6, 16, 4), (RELU, SIG)), seed=31)
        x = rng.normal(size=(64, 6))
        t = (rng.random((64, 4)) < 0.5).astype(float)
        first = model.backward(x, t).loss
        for step in range(1, 201):
            model.adam_step(model.backward(x, t).gradient, step, 1e-3)
        last = model.backward(x, t).loss
        assert last < first


class TestFlatBuffers:
    ARCH = MlpArch((5, 4, 3), (RELU, SIG))

    def assert_views_share_flat_buffers(self, model):
        for flat in (model.params, model.m, model.v):
            assert flat.ndim == 1 and flat.flags.c_contiguous
        assert all(np.shares_memory(a, model.params) for a in model.weights + model.biases)
        layers = zip(model.weights, model.biases)
        assert sum(w.size + b.size for w, b in layers) == model.params.size

    def trained(self):
        model = init_random(self.ARCH, seed=4)
        rng = np.random.default_rng(5)
        for step in range(1, 4):
            x = rng.normal(size=(6, 5))
            t = rng.integers(0, 2, size=(6, 3)).astype(float)
            model.adam_step(model.backward(x, t).gradient, step, 1e-3)
        return model

    def test_views_share_the_flat_buffers(self):
        self.assert_views_share_flat_buffers(init_random(self.ARCH, seed=4))
        model = self.trained()
        self.assert_views_share_flat_buffers(model)
        clone = copy.deepcopy(model)
        self.assert_views_share_flat_buffers(clone)
        for flat in ("params", "m", "v"):
            assert np.array_equal(getattr(clone, flat), getattr(model, flat))

    def test_adam_step_writes_through_the_views(self):
        model = self.trained()
        before = [w.copy() for w in model.weights]
        views = model.weights
        rng = np.random.default_rng(6)
        x = rng.normal(size=(6, 5))
        model.adam_step(model.backward(x, np.ones((6, 3))).gradient, 4, 1e-3)
        assert model.weights is views
        assert all(not np.array_equal(w, b) for w, b in zip(model.weights, before))

    def test_kept_forward_matches_plain_forward(self):
        model = self.trained()
        x = np.random.default_rng(7).normal(size=(6, 5))
        out, _ = model.forward(x, keep=True)
        assert np.array_equal(out, model.forward(x))

    def test_activations_of_another_batch_rejected(self):
        model = init_random(MlpArch((5, 4, 3), (RELU, IDENT)), seed=4)
        _, activations = model.forward(np.ones((4, 5)), keep=True)
        with pytest.raises(ContractError, match="forward batch"):
            model.backward_from_output(np.ones((6, 3)), activations)

    def test_moment_of_another_shape_rejected(self):
        model = self.trained()
        # also a moment of another dtype, and parameters of another length
        for key, bad in (("m", model.m[:-1]), ("v", model.v.astype(np.float32)),
                         ("params", model.params[:-1])):
            vectors = {"params": model.params, "m": model.m, "v": model.v, key: bad}
            with pytest.raises(ContractError):
                MlpModel(model.arch, **vectors)

    def stack(self, count=3, dtype=np.float64):
        return tuple(np.zeros((count, self.ARCH.num_params), dtype) for _ in range(3))

    def test_given_buffers_hold_the_model(self):
        model = self.trained()
        stack = self.stack()
        for buf, flat in zip(stack, (model.params, model.m, model.v)):
            buf[1] = flat
        params, m, v = (buf[1] for buf in stack)
        held = MlpModel(self.ARCH, params, m, v)
        assert all(a is b for a, b in zip((held.params, held.m, held.v), (params, m, v)))
        self.assert_views_share_flat_buffers(held)
        # construction writes nothing: the moments given stay as they were
        for flat in ("params", "m", "v"):
            assert np.array_equal(getattr(held, flat), getattr(model, flat))
        assert not stack[0][[0, 2]].any()
        x = np.random.default_rng(9).normal(size=(4, 5))
        assert np.array_equal(held.forward(x), model.forward(x))
        # without moments the model gets zeroed ones of its own, in the parameters' dtype
        fresh = MlpModel(self.ARCH, stack[0][0])
        assert not (fresh.m.any() or fresh.v.any() or np.shares_memory(fresh.m, fresh.v))
        assert fresh.m.dtype == fresh.v.dtype == np.float64

    @pytest.mark.parametrize(
        "copier", [copy.copy, copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_of_a_row_own_fresh_vectors_with_the_whole_state(self, copier):
        trained = cast(self.trained(), np.float32)
        trained.adam_step(trained.backward(np.ones((2, 5)), np.ones((2, 3))).gradient, 1, 1e-3)
        stack = self.stack(dtype=np.float32)
        for buf, flat in zip(stack, (trained.params, trained.m, trained.v)):
            buf[1] = flat
        model = MlpModel(self.ARCH, stack[0][1], stack[1][1], stack[2][1])
        clone = copier(model)
        self.assert_views_share_flat_buffers(clone)
        assert clone.arch == model.arch
        for flat in ("params", "m", "v"):
            got, want = getattr(clone, flat), getattr(model, flat)
            assert not np.shares_memory(got, stack[0]) and not np.shares_memory(got, want)
            assert got.dtype == want.dtype == np.float32
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("bad", ["size", "dtype", "strided", "read-only", "integer", "list"])
    def test_unfit_buffers_rejected(self, bad):
        n = self.ARCH.num_params

        def unfit():
            if bad == "read-only":
                a = np.zeros(n)
                a.flags.writeable = False
                return a
            return {
                "size": np.zeros(n + 1),
                "dtype": np.zeros(n, np.float32),
                "strided": np.zeros(2 * n)[::2],
                "integer": np.zeros(n, np.int64),
                "list": [0.0] * n,
            }[bad]

        # the fault on params, m and v in turn, then on params given alone
        for k in range(3):
            vectors = [np.zeros(n) for _ in range(3)]
            vectors[k] = unfit()
            params, m, v = vectors
            with pytest.raises(ContractError):
                MlpModel(self.ARCH, params, m, v)
        if bad != "dtype":
            with pytest.raises(ContractError):
                MlpModel(self.ARCH, unfit())

    def test_layer_views_of_a_stack_are_each_rows_layers(self):
        stack = self.stack()
        models = []
        for k in range(3):
            stack[0][k] = init_random(self.ARCH, seed=k).params
            models.append(MlpModel(self.ARCH, stack[0][k], stack[1][k], stack[2][k]))
        weights, biases = layer_views(self.ARCH, stack[0])
        for i in range(len(models[0].weights)):
            assert weights[i].shape == (3, *models[0].weights[i].shape)
            assert np.shares_memory(weights[i], stack[0]) and np.shares_memory(biases[i], stack[0])
            for k, model in enumerate(models):
                assert np.array_equal(weights[i][k], model.weights[i])
                assert np.array_equal(biases[i][k], model.biases[i])


class TestInit:
    def test_deterministic(self):
        a = init_random(MlpArch((8, 4), (SIG,)), seed=42)
        b = init_random(MlpArch((8, 4), (SIG,)), seed=42)
        assert np.array_equal(a.weights[0], b.weights[0])

    def test_seeds_differ(self):
        a = init_random(MlpArch((8, 4), (SIG,)), seed=42)
        b = init_random(MlpArch((8, 4), (SIG,)), seed=43)
        assert not np.array_equal(a.weights[0], b.weights[0])

    def test_biases_start_zero(self):
        model = init_random(MlpArch((8, 4, 2), (RELU, SIG)), seed=1)
        assert all(np.array_equal(b, np.zeros_like(b)) for b in model.biases)

    def test_weight_scale_matches_fan_in(self):
        model = init_random(MlpArch((100, 100), (SIG,)), seed=2)
        w = model.weights[0].ravel()
        sigma = 1.0 / np.sqrt(100)
        assert abs(w.mean()) < 3 * sigma / np.sqrt(w.size)
        assert w.std() == pytest.approx(sigma, rel=0.05)


class TestCheckpoint:
    def test_round_trip_bit_exact(self):
        # A pickle holds the architecture and the three vectors, so training resumes exactly.
        # np.array_equal ignores dtype, so the dtype is compared on its own.
        for dtype in (np.float64, np.float32):
            model = cast(init_random(MlpArch((6, 5, 3), (RELU, SIG)), seed=9), dtype)
            rng = np.random.default_rng(10)
            for step in range(1, 4):
                x = rng.normal(size=(4, 6))
                t = rng.integers(0, 2, size=(4, 3)).astype(float)
                model.adam_step(model.backward(x, t).gradient, step, 0.005)

            loaded = pickle.loads(pickle.dumps(model))
            assert loaded.arch == model.arch
            for got_views, want_views in zip(named_layers(loaded).values(), named_layers(model).values()):
                for got, want in zip(got_views, want_views, strict=True):
                    assert got.dtype == want.dtype == dtype
                    assert np.array_equal(got, want)

            x = rng.normal(size=(2, 6))
            out = loaded.forward(x)
            assert out.dtype == dtype
            assert np.array_equal(out, model.forward(x))
            t = rng.integers(0, 2, size=(2, 3)).astype(float)
            for net in (model, loaded):
                net.adam_step(net.backward(x, t).gradient, 4, 0.005)
            for flat in ("params", "m", "v"):
                assert np.array_equal(getattr(loaded, flat), getattr(model, flat))
