"""ConvolutionDistiller: fit / predict / residual behaviour."""

import numpy as np
import pytest

from repro.core import ConvolutionDistiller, NotFittedError, OutputEmbedding
from repro.fft import fft2_matmul, fft_circular_convolve2d
from repro.hw import CpuDevice


def conditioned(shape, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape)
    x[0, 0] += 5.0 * np.prod(shape) ** 0.5
    return x


class TestFit:
    def test_recovers_planted_kernel(self):
        x = conditioned((8, 8), 0)
        kernel_true = np.random.default_rng(1).standard_normal((8, 8))
        y = fft_circular_convolve2d(x, kernel_true)
        distiller = ConvolutionDistiller(eps=0.0).fit(x, y)
        np.testing.assert_allclose(distiller.kernel_, kernel_true, atol=1e-7)

    def test_predict_reproduces_training_output(self):
        x = conditioned((6, 6), 2)
        y = np.random.default_rng(3).standard_normal((6, 6))
        distiller = ConvolutionDistiller(eps=0.0).fit(x, y)
        np.testing.assert_allclose(distiller.predict(x), y, atol=1e-7)

    def test_batch_fit_and_residual(self):
        rng = np.random.default_rng(4)
        kernel_true = rng.standard_normal((6, 6))
        xs = np.stack([conditioned((6, 6), s) for s in range(4)])
        ys = np.stack([fft_circular_convolve2d(x, kernel_true) for x in xs])
        distiller = ConvolutionDistiller(eps=1e-10).fit(xs, ys)
        assert distiller.residual(xs, ys) < 1e-6

    def test_vector_outputs_are_embedded(self):
        rng = np.random.default_rng(5)
        xs = np.stack([conditioned((8, 8), s + 10) for s in range(3)])
        logits = rng.standard_normal((3, 4))
        distiller = ConvolutionDistiller(
            eps=1e-8, embedding=OutputEmbedding("spatial")
        ).fit(xs, logits)
        assert distiller.kernel_.shape == (8, 8)
        assert distiller.predict(xs[0]).shape == (8, 8)

    def test_single_pair_single_vector(self):
        x = conditioned((4, 4), 6)
        logits = np.array([1.0, -1.0])
        distiller = ConvolutionDistiller(eps=1e-8).fit(x, logits)
        # Perfect fit is possible with one pair: the prediction matches
        # the embedded plane.
        np.testing.assert_allclose(
            distiller.predict(x), OutputEmbedding().embed(logits, (4, 4)), atol=1e-5
        )

    def test_frequency_kernel_property(self):
        x = conditioned((4, 4), 7)
        y = np.random.default_rng(8).standard_normal((4, 4))
        distiller = ConvolutionDistiller(eps=0.0).fit(x, y)
        np.testing.assert_allclose(
            distiller.frequency_kernel_, fft2_matmul(distiller.kernel_), atol=1e-8
        )

    def test_device_prediction_matches_the_host_path(self):
        x = conditioned((8, 8), 12)
        y = np.random.default_rng(13).standard_normal((8, 8))
        device = CpuDevice()
        distiller = ConvolutionDistiller(device=device, eps=1e-8).fit(x, y)
        device.reset_stats()
        np.testing.assert_array_equal(
            distiller.predict(x), fft_circular_convolve2d(x, distiller.kernel_)
        )
        assert device.stats.op_counts["ifft2"] == 1  # one accounted convolution
        assert device.stats.seconds > 0

    def test_device_accumulates_time(self):
        device = CpuDevice()
        x = conditioned((8, 8), 9)
        y = np.random.default_rng(10).standard_normal((8, 8))
        ConvolutionDistiller(device=device, eps=1e-8).fit(x, y)
        assert device.stats.seconds > 0
        assert device.stats.op_counts["fft2"] >= 2


class TestValidation:
    def test_not_fitted_errors(self):
        distiller = ConvolutionDistiller()
        with pytest.raises(NotFittedError):
            _ = distiller.kernel_
        with pytest.raises(NotFittedError):
            distiller.predict(np.ones((4, 4)))

    def test_lift_outputs_before_fit_needs_an_explicit_shape(self):
        distiller = ConvolutionDistiller()
        with pytest.raises(NotFittedError, match="pass an explicit shape"):
            distiller.lift_outputs(np.ones((4, 4)))
        lifted = distiller.lift_outputs(np.arange(16.0).reshape(4, 4), shape=(4, 4))
        np.testing.assert_array_equal(lifted, np.arange(16.0).reshape(1, 4, 4))

    def test_empty_input_batch_rejected(self):
        with pytest.raises(ValueError, match="inputs batch is empty"):
            ConvolutionDistiller().fit(np.ones((0, 4, 4)), np.ones((0, 4, 4)))

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError):
            ConvolutionDistiller(eps=-1e-3)

    def test_misaligned_batch_rejected(self):
        with pytest.raises(ValueError):
            ConvolutionDistiller().fit(np.ones((2, 4, 4)), np.ones((3, 4, 4)))

    def test_wrong_output_vector_count_rejected(self):
        with pytest.raises(ValueError):
            ConvolutionDistiller().fit(np.ones((2, 4, 4)), np.ones((3, 5)))

    def test_predict_shape_mismatch_rejected(self):
        distiller = ConvolutionDistiller(eps=1e-8).fit(
            conditioned((4, 4), 11), np.ones((4, 4))
        )
        with pytest.raises(ValueError):
            distiller.predict(np.ones((5, 5)))

    def test_bad_output_shape_rejected(self):
        with pytest.raises(ValueError):
            ConvolutionDistiller().fit(np.ones((2, 4, 4)), np.ones((2, 4, 5)))

    def test_4d_outputs_rejected(self):
        with pytest.raises(ValueError):
            ConvolutionDistiller().fit(np.ones((2, 4, 4)), np.ones((2, 2, 2, 2)))


class TestDistillationQuality:
    def test_linear_model_distills_exactly(self):
        """A model that *is* a circular convolution distills with zero
        residual -- the compatibility argument of Section III-B."""
        rng = np.random.default_rng(12)
        kernel_true = rng.standard_normal((8, 8))

        def model(x):
            return fft_circular_convolve2d(x, kernel_true)

        xs = np.stack([conditioned((8, 8), s + 20) for s in range(6)])
        ys = np.stack([model(x) for x in xs])
        distiller = ConvolutionDistiller(eps=1e-12).fit(xs, ys)
        fresh = conditioned((8, 8), 99)
        np.testing.assert_allclose(distiller.predict(fresh), model(fresh), atol=1e-6)

    def test_mildly_nonlinear_model_distills_approximately(self):
        rng = np.random.default_rng(13)
        kernel_true = rng.standard_normal((8, 8)) / 8.0

        def model(x):
            linear = fft_circular_convolve2d(x, kernel_true)
            return linear + 0.01 * np.tanh(linear)

        xs = np.stack([conditioned((8, 8), s + 40) for s in range(8)])
        ys = np.stack([model(x) for x in xs])
        distiller = ConvolutionDistiller(eps=1e-8).fit(xs, ys)
        assert distiller.residual(xs, ys) < 0.05
