"""Layer forward/backward correctness, including numeric gradient checks."""

import numpy as np
import pytest

from repro.nn import (
    BatchNorm2d,
    Conv2d,
    Dense,
    Dropout,
    Flatten,
    GlobalAvgPool,
    Layer,
    MaxPool2d,
    ReLU,
)


def numeric_gradient(fn, x, eps=1e-5):
    """Central-difference gradient of a scalar function of an array."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = fn(x)
        flat[i] = original - eps
        minus = fn(x)
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2 * eps)
    return grad


class TestConv2d:
    def test_forward_matches_direct_convolution(self):
        rng = np.random.default_rng(0)
        conv = Conv2d(2, 3, kernel_size=3, stride=1, padding=1, rng=rng)
        x = rng.standard_normal((2, 2, 5, 5))
        out = conv.forward(x)
        assert out.shape == (2, 3, 5, 5)
        # Check one output element against the definition: output (i, j)
        # covers padded rows i:i+3 and cols j:j+3 at stride 1.
        padded = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        expected = np.sum(padded[0, :, 2:5, 3:6] * conv.weights[1]) + conv.bias[1]
        assert out[0, 1, 2, 3] == pytest.approx(expected)

    def test_stride_and_padding_shapes(self):
        rng = np.random.default_rng(1)
        conv = Conv2d(1, 4, kernel_size=3, stride=2, padding=1, rng=rng)
        out = conv.forward(rng.standard_normal((1, 1, 8, 8)))
        assert out.shape == (1, 4, 4, 4)
        conv1x1 = Conv2d(4, 2, kernel_size=1, stride=1, padding=0, rng=rng)
        assert conv1x1.forward(out).shape == (1, 2, 4, 4)

    def test_input_gradient_matches_numeric(self):
        rng = np.random.default_rng(2)
        conv = Conv2d(1, 2, kernel_size=3, stride=1, padding=1, rng=rng)
        x = rng.standard_normal((1, 1, 4, 4))

        def loss(x_in):
            return float(np.sum(conv.forward(x_in, training=True) ** 2))

        conv.forward(x, training=True)
        analytic = conv.backward(2.0 * conv.forward(x, training=True))
        numeric = numeric_gradient(loss, x.copy())
        np.testing.assert_allclose(analytic, numeric, atol=1e-4)

    def test_weight_gradient_matches_numeric(self):
        rng = np.random.default_rng(3)
        conv = Conv2d(1, 1, kernel_size=3, stride=1, padding=1, rng=rng)
        x = rng.standard_normal((1, 1, 4, 4))

        def loss(weights):
            conv.weights = weights
            return float(np.sum(conv.forward(x, training=True) ** 2))

        out = conv.forward(x, training=True)
        conv.backward(2.0 * out)
        analytic = conv.grad_weights.copy()
        numeric = numeric_gradient(loss, conv.weights.copy())
        np.testing.assert_allclose(analytic, numeric, atol=1e-4)

    def test_unpadded_input_gradient_matches_numeric(self):
        rng = np.random.default_rng(11)
        conv = Conv2d(2, 2, kernel_size=3, stride=1, padding=0, rng=rng)
        x = rng.standard_normal((1, 2, 5, 5))

        def loss(x_in):
            return float(np.sum(conv.forward(x_in, training=True) ** 2))

        analytic = conv.backward(2.0 * conv.forward(x, training=True))
        assert analytic.shape == x.shape
        numeric = numeric_gradient(loss, x.copy())
        np.testing.assert_allclose(analytic, numeric, atol=1e-4)

    def test_kernel_larger_than_the_padded_input_rejected(self):
        conv = Conv2d(1, 1, kernel_size=5, padding=1)
        with pytest.raises(ValueError, match="does not fit input 2x2"):
            conv.forward(np.ones((1, 1, 2, 2)))

    def test_validation(self):
        with pytest.raises(ValueError):
            Conv2d(0, 1)
        with pytest.raises(ValueError):
            Conv2d(1, 1, stride=0)
        conv = Conv2d(2, 2)
        with pytest.raises(ValueError):
            conv.forward(np.ones((1, 3, 4, 4)))  # wrong channels
        with pytest.raises(RuntimeError):
            Conv2d(1, 1).backward(np.ones((1, 1, 4, 4)))


class TestDense:
    def test_forward(self):
        rng = np.random.default_rng(4)
        dense = Dense(3, 2, rng=rng)
        x = rng.standard_normal((5, 3))
        np.testing.assert_allclose(
            dense.forward(x), x @ dense.weights + dense.bias, atol=1e-12
        )

    def test_gradients_match_numeric(self):
        rng = np.random.default_rng(5)
        dense = Dense(4, 3, rng=rng)
        x = rng.standard_normal((2, 4))

        def loss_x(x_in):
            return float(np.sum(dense.forward(x_in, training=True) ** 2))

        out = dense.forward(x, training=True)
        analytic_x = dense.backward(2.0 * out)
        np.testing.assert_allclose(
            analytic_x, numeric_gradient(loss_x, x.copy()), atol=1e-5
        )
        np.testing.assert_allclose(
            dense.grad_weights,
            numeric_gradient(
                lambda w: float(
                    np.sum((x @ w + dense.bias) ** 2)
                ),
                dense.weights.copy(),
            ),
            atol=1e-5,
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            Dense(0, 2)
        dense = Dense(3, 2)
        with pytest.raises(ValueError):
            dense.forward(np.ones((2, 4)))

    def test_gradients_are_the_last_backward_products(self):
        rng = np.random.default_rng(12)
        dense = Dense(3, 2, rng=rng)
        x = rng.standard_normal((4, 3))
        grad = rng.standard_normal((4, 2))
        dense.forward(x, training=True)
        dense.backward(grad)
        grad_weights, grad_bias = dense.gradients()
        np.testing.assert_allclose(grad_weights, x.T @ grad, atol=1e-12)
        np.testing.assert_allclose(grad_bias, grad.sum(axis=0), atol=1e-12)
        assert [g.shape for g in dense.gradients()] == [
            p.shape for p in dense.parameters()
        ]


class TestActivationsAndPools:
    def test_relu(self):
        relu = ReLU()
        x = np.array([[-1.0, 2.0], [0.0, -3.0]])
        np.testing.assert_array_equal(
            relu.forward(x, training=True), [[0.0, 2.0], [0.0, 0.0]]
        )
        grad = relu.backward(np.ones_like(x))
        np.testing.assert_array_equal(grad, [[0.0, 1.0], [0.0, 0.0]])

    def test_maxpool_forward(self):
        pool = MaxPool2d(2)
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = pool.forward(x, training=True)
        np.testing.assert_array_equal(out[0, 0], [[5.0, 7.0], [13.0, 15.0]])

    def test_maxpool_backward_routes_to_argmax(self):
        pool = MaxPool2d(2)
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        pool.forward(x, training=True)
        grad = pool.backward(np.ones((1, 1, 2, 2)))
        assert grad[0, 0, 1, 1] == 1.0  # position of 5
        assert grad.sum() == 4.0

    def test_maxpool_tie_breaking_single_route(self):
        pool = MaxPool2d(2)
        x = np.zeros((1, 1, 2, 2))  # all equal: gradient must not duplicate
        pool.forward(x, training=True)
        grad = pool.backward(np.ones((1, 1, 1, 1)))
        assert grad.sum() == 1.0

    def test_maxpool_requires_tiling(self):
        with pytest.raises(ValueError):
            MaxPool2d(2).forward(np.ones((1, 1, 5, 5)))

    def test_global_avg_pool_round_trip(self):
        gap = GlobalAvgPool()
        x = np.arange(8.0).reshape(1, 2, 2, 2)
        out = gap.forward(x, training=True)
        np.testing.assert_allclose(out, [[1.5, 5.5]])
        grad = gap.backward(np.ones((1, 2)))
        np.testing.assert_allclose(grad, np.full((1, 2, 2, 2), 0.25))

    def test_flatten_round_trip(self):
        flatten = Flatten()
        x = np.arange(12.0).reshape(1, 3, 2, 2)
        out = flatten.forward(x, training=True)
        assert out.shape == (1, 12)
        assert flatten.backward(out).shape == x.shape


class TestBatchNorm:
    def test_training_normalizes_batch(self):
        rng = np.random.default_rng(6)
        bn = BatchNorm2d(3)
        x = rng.standard_normal((8, 3, 4, 4)) * 5 + 2
        out = bn.forward(x, training=True)
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-7)
        np.testing.assert_allclose(out.std(axis=(0, 2, 3)), 1.0, atol=1e-3)

    def test_inference_uses_running_stats(self):
        rng = np.random.default_rng(7)
        bn = BatchNorm2d(2, momentum=0.0)  # running stats = last batch
        x = rng.standard_normal((16, 2, 4, 4))
        bn.forward(x, training=True)
        out = bn.forward(x, training=False)
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=0.05)

    def test_gradient_matches_numeric(self):
        rng = np.random.default_rng(8)
        bn = BatchNorm2d(1)
        x = rng.standard_normal((3, 1, 2, 2))

        def loss(x_in):
            return float(np.sum(bn.forward(x_in, training=True) ** 3))

        out = bn.forward(x, training=True)
        analytic = bn.backward(3.0 * out**2)
        numeric = numeric_gradient(loss, x.copy())
        np.testing.assert_allclose(analytic, numeric, atol=1e-4)

    def test_validation(self):
        with pytest.raises(ValueError):
            BatchNorm2d(0)
        with pytest.raises(ValueError):
            BatchNorm2d(2, momentum=1.0)
        with pytest.raises(ValueError):
            BatchNorm2d(2).forward(np.ones((1, 3, 2, 2)))

    def test_gradients_are_the_last_backward_products(self):
        rng = np.random.default_rng(13)
        bn = BatchNorm2d(2)
        x = rng.standard_normal((3, 2, 2, 2))
        grad = rng.standard_normal(x.shape)
        # gamma = 1 and beta = 0 at construction, so the output is the
        # normalized batch itself.
        normalized = bn.forward(x, training=True)
        bn.backward(grad)
        grad_gamma, grad_beta = bn.gradients()
        np.testing.assert_allclose(
            grad_gamma, (grad * normalized).sum(axis=(0, 2, 3)), atol=1e-12
        )
        np.testing.assert_allclose(grad_beta, grad.sum(axis=(0, 2, 3)), atol=1e-12)


class TestDropout:
    def test_inference_is_identity(self):
        dropout = Dropout(0.5)
        x = np.ones((4, 4))
        np.testing.assert_array_equal(dropout.forward(x, training=False), x)

    def test_training_preserves_expectation(self):
        dropout = Dropout(0.5, rng=np.random.default_rng(9))
        x = np.ones((200, 200))
        out = dropout.forward(x, training=True)
        assert out.mean() == pytest.approx(1.0, abs=0.05)

    def test_backward_applies_same_mask(self):
        dropout = Dropout(0.5, rng=np.random.default_rng(10))
        x = np.ones((8, 8))
        out = dropout.forward(x, training=True)
        grad = dropout.backward(np.ones_like(x))
        np.testing.assert_array_equal(grad == 0, out == 0)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            Dropout(1.0)

    def test_backward_after_inference_passes_the_gradient_through(self):
        dropout = Dropout(0.5, rng=np.random.default_rng(14))
        dropout.forward(np.ones((4, 4)), training=True)
        dropout.forward(np.ones((4, 4)), training=False)
        grad = np.arange(16.0).reshape(4, 4)
        np.testing.assert_array_equal(dropout.backward(grad), grad)


class TestLayerProtocol:
    def test_base_layer_has_no_passes_and_no_parameters(self):
        layer = Layer()
        assert layer.parameters() == [] and layer.gradients() == []
        with pytest.raises(NotImplementedError):
            layer.forward(np.ones(2))
        with pytest.raises(NotImplementedError):
            layer.backward(np.ones(2))

    def test_call_forwards_the_training_flag(self):
        x = np.array([[-1.0, 2.0]])
        relu = ReLU()
        np.testing.assert_array_equal(relu(x), [[0.0, 2.0]])
        with pytest.raises(RuntimeError):
            relu.backward(np.ones_like(x))  # an inference call caches nothing
        relu(x, training=True)
        np.testing.assert_array_equal(relu.backward(np.ones_like(x)), [[0.0, 1.0]])

    @pytest.mark.parametrize(
        "make, shape",
        [
            (lambda: Dense(3, 2), (2, 3)),
            (ReLU, (2, 3)),
            (lambda: BatchNorm2d(2), (1, 2, 4, 4)),
            (MaxPool2d, (1, 2, 4, 4)),
            (GlobalAvgPool, (1, 2, 4, 4)),
            (Flatten, (1, 2, 4, 4)),
        ],
        ids=["Dense", "ReLU", "BatchNorm2d", "MaxPool2d", "GlobalAvgPool", "Flatten"],
    )
    def test_backward_after_only_an_inference_forward_raises(self, make, shape):
        layer = make()
        out = layer.forward(np.ones(shape), training=False)
        with pytest.raises(RuntimeError, match="backward before forward"):
            layer.backward(np.ones_like(out))

    def test_maxpool_size_must_be_positive(self):
        with pytest.raises(ValueError, match="pool size must be positive"):
            MaxPool2d(0)
