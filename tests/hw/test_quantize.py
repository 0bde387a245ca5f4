"""Tests for symmetric quantization -- the TPU's first speed mechanism."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw import (
    BF16,
    FP64,
    INT8,
    PrecisionSpec,
    dequantize,
    precision_spec,
    quantization_error_bound,
    quantization_scale,
    quantize,
    quantize_dequantize,
    quantized_complex_matmul,
    quantized_conv_error_bound,
    quantized_matmul,
    resolve_precision,
    to_bfloat16,
)


class TestQuantizeRoundTrip:
    def test_round_trip_error_within_half_step(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((16, 16))
        q = quantize(x, bits=8)
        bound = quantization_error_bound(x, bits=8)
        np.testing.assert_array_less(np.abs(dequantize(q) - x), bound + 1e-12)

    def test_zero_maps_to_zero_exactly(self):
        x = np.array([[0.0, 1.0], [-1.0, 0.0]])
        q = quantize(x)
        assert q.values[0, 0] == 0
        assert q.values[1, 1] == 0
        np.testing.assert_allclose(dequantize(q)[0, 0], 0.0)

    def test_all_zero_tensor(self):
        q = quantize(np.zeros((4, 4)))
        assert q.scale == 1.0
        np.testing.assert_array_equal(dequantize(q), np.zeros((4, 4)))

    def test_max_value_maps_to_qmax(self):
        x = np.array([3.0, -3.0, 1.0])
        q = quantize(x, bits=8)
        assert q.values.max() == 127
        assert q.values.min() == -127

    def test_qmax_is_the_largest_symmetric_integer(self):
        x = np.linspace(-2.0, 3.0, 11)
        for bits, qmax in ((4, 7), (8, 127), (16, 32767)):
            q = quantize(x, bits=bits)
            assert q.qmax == qmax
            assert np.abs(q.values).max() == qmax

    def test_int8_storage_dtype(self):
        q = quantize(np.ones(5), bits=8)
        assert q.values.dtype == np.int8

    def test_int16_storage_dtype(self):
        q = quantize(np.ones(5), bits=16)
        assert q.values.dtype == np.int16

    def test_complex_input_rejected(self):
        with pytest.raises(TypeError):
            quantize(np.ones(3) + 1j)

    def test_too_few_bits_rejected(self):
        with pytest.raises(ValueError):
            quantization_scale(np.ones(3), bits=1)

    def test_scale_positive_for_tiny_values(self):
        scale = quantization_scale(np.array([1e-30]), bits=8)
        assert scale > 0


class TestQuantizedMatmul:
    def test_close_to_float_matmul(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((8, 8))
        b = rng.standard_normal((8, 8))
        exact = a @ b
        approx = quantized_matmul(a, b, bits=8)
        # Error scales with sqrt(k) * step sizes; 8-bit on unit-scale data
        # keeps relative error within a few percent.
        assert np.max(np.abs(exact - approx)) < 0.15 * np.max(np.abs(exact)) + 0.1

    def test_higher_bits_reduce_error(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((16, 16))
        b = rng.standard_normal((16, 16))
        exact = a @ b
        err8 = np.max(np.abs(exact - quantized_matmul(a, b, bits=8)))
        err16 = np.max(np.abs(exact - quantized_matmul(a, b, bits=16)))
        assert err16 < err8

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            quantized_matmul(np.ones((2, 3)), np.ones((2, 3)))
        with pytest.raises(ValueError):
            quantized_matmul(np.ones(3), np.ones((3, 2)))

    def test_identity_times_identity(self):
        eye = np.eye(4)
        np.testing.assert_allclose(quantized_matmul(eye, eye), eye, atol=1e-6)

    def test_complex_decomposition(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        b = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        exact = a @ b
        approx = quantized_complex_matmul(a, b, bits=16)
        assert np.max(np.abs(exact - approx)) < 0.01 * np.max(np.abs(exact)) + 0.01


class TestBfloat16:
    def test_relative_error_bound(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(1000) * 100
        rounded = to_bfloat16(x)
        # bf16 has 8 mantissa bits total (7 stored): rel err <= 2^-8.
        rel = np.abs(rounded - x) / np.maximum(np.abs(x), 1e-30)
        assert np.max(rel) <= 2.0**-8

    def test_exact_for_small_integers(self):
        x = np.array([0.0, 1.0, 2.0, -3.0, 128.0])
        np.testing.assert_array_equal(to_bfloat16(x), x)

    def test_complex_passthrough(self):
        x = np.array([1.0 + 2.0j, -0.5 + 0.25j])
        rounded = to_bfloat16(x)
        np.testing.assert_allclose(rounded, x, rtol=2.0**-7)

    def test_handles_zero(self):
        np.testing.assert_array_equal(to_bfloat16(np.zeros(3)), np.zeros(3))


class TestPrecisionSpec:
    def test_lookup(self):
        assert precision_spec("int8").bytes_per_element == 1
        assert precision_spec("bf16").bytes_per_element == 2
        assert precision_spec("fp32").bytes_per_element == 4
        assert precision_spec("fp64").bytes_per_element == 8

    def test_unknown_rejected_with_vocabulary_listed(self):
        """The single parsing point's error names every valid mode."""
        with pytest.raises(ValueError, match="fp16"):
            precision_spec("fp16")
        for name in ("int8", "bf16", "fp32", "fp64"):
            with pytest.raises(ValueError, match=name):
                precision_spec("not-a-precision")
        with pytest.raises(ValueError):
            precision_spec(8)  # wrong type, same helpful error

    def test_spec_instances_pass_through(self):
        assert precision_spec(INT8) is INT8
        assert resolve_precision(BF16) is BF16

    def test_resolve_none_means_no_precision_handling(self):
        assert resolve_precision(None) is None
        assert resolve_precision("fp64") is FP64

    def test_fp32_apply_is_identity(self):
        x = np.array([1.234567891234])
        np.testing.assert_array_equal(precision_spec("fp32").apply(x), x)

    def test_fp64_apply_is_identity_and_exact(self):
        x = np.array([1.234567891234])
        np.testing.assert_array_equal(FP64.apply(x), x)
        assert FP64.is_exact and precision_spec("fp32").is_exact
        assert not INT8.is_exact and not BF16.is_exact

    def test_int8_apply_round_trips_per_plane(self):
        rng = np.random.default_rng(7)
        stack = rng.standard_normal((5, 6, 6)) * np.array(
            [1.0, 10.0, 0.1, 100.0, 3.0]
        ).reshape(5, 1, 1)
        applied = INT8.apply(stack)
        for plane, rounded in zip(stack, applied):
            np.testing.assert_array_equal(
                rounded, dequantize(quantize(plane, bits=8))
            )

    def test_apply_rejects_unimplemented_lossy_spec(self):
        """A hand-built spec with no rounding semantics must raise at
        apply() rather than silently executing exact numerics while
        being priced as lossy."""
        fake = PrecisionSpec(name="int4", bytes_per_element=1, macs_per_pe_per_cycle=1.0)
        assert not fake.is_exact
        with pytest.raises(ValueError, match="int4"):
            fake.apply(np.ones((2, 2)))

    def test_fp64_slower_than_fp32_on_mxu(self):
        from repro.hw import MxuConfig, matmul_cycles

        fp32 = matmul_cycles(256, 256, 256, MxuConfig(precision="fp32")).cycles
        fp64 = matmul_cycles(256, 256, 256, MxuConfig(precision="fp64")).cycles
        assert fp64 > fp32


class TestQuantizeDequantize:
    def test_stack_matches_per_plane_round_trips(self):
        """The bit-identity that makes streamed == dense == loop hold at
        int8: quantizing a stack per plane equals quantizing each plane
        alone."""
        rng = np.random.default_rng(11)
        stack = rng.standard_normal((9, 8, 8)) * rng.uniform(0.01, 50.0, (9, 1, 1))
        batched = quantize_dequantize(stack, bits=8)
        for i in range(stack.shape[0]):
            np.testing.assert_array_equal(
                batched[i], quantize_dequantize(stack[i], bits=8)
            )

    def test_complex_rounds_components_independently(self):
        rng = np.random.default_rng(12)
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) * 40.0
        rounded = quantize_dequantize(z)
        np.testing.assert_array_equal(rounded.real, quantize_dequantize(z.real))
        np.testing.assert_array_equal(rounded.imag, quantize_dequantize(z.imag))

    def test_round_trip_error_within_per_plane_bound(self):
        rng = np.random.default_rng(13)
        stack = rng.standard_normal((6, 8, 8)) * rng.uniform(0.1, 20.0, (6, 1, 1))
        rounded = quantize_dequantize(stack, bits=8)
        for plane, out in zip(stack, rounded):
            bound = quantization_error_bound(plane, bits=8)
            assert np.max(np.abs(out - plane)) <= bound + 1e-12

    def test_all_zero_plane_exact(self):
        stack = np.zeros((2, 3, 3))
        stack[1] = 1.5
        rounded = quantize_dequantize(stack)
        np.testing.assert_array_equal(rounded[0], np.zeros((3, 3)))

    def test_preserves_hermitian_symmetry(self):
        """Spectra of real signals stay Hermitian through quantization,
        so quantized convolutions of real planes stay real."""
        from repro.fft import fft2

        rng = np.random.default_rng(14)
        spectrum = fft2(rng.standard_normal((8, 8)))
        rounded = quantize_dequantize(spectrum)
        m, n = spectrum.shape
        conj_flip = np.conj(rounded[(-np.arange(m)) % m][:, (-np.arange(n)) % n])
        np.testing.assert_allclose(rounded, conj_flip, atol=0)

    def test_too_few_bits_rejected(self):
        with pytest.raises(ValueError):
            quantize_dequantize(np.ones((2, 3, 3)), bits=1)


class TestQuantizedConvErrorBound:
    def setup_method(self):
        rng = np.random.default_rng(21)
        self.x = rng.standard_normal((8, 8))
        self.kernel = rng.standard_normal((8, 8))

    def test_bound_monotone_in_bits(self):
        bounds = [
            quantized_conv_error_bound(self.x, self.kernel, bits=b)
            for b in (4, 8, 16)
        ]
        assert bounds[0] > bounds[1] > bounds[2] > 0

    def test_quantized_convolution_respects_bound(self):
        from repro.fft import fft_circular_convolve2d

        exact = fft_circular_convolve2d(self.x, self.kernel)
        quantized = fft_circular_convolve2d(self.x, self.kernel, precision=INT8)
        bound = quantized_conv_error_bound(self.x, self.kernel, bits=8)
        assert np.max(np.abs(quantized - exact)) <= bound

    def test_bound_holds_for_masked_variants(self):
        """Masking only shrinks the input's l1 mass, so one bound covers
        every zero-fill masked plane of the batched path."""
        from repro.fft import fft_circular_convolve2d

        bound = quantized_conv_error_bound(self.x, self.kernel, bits=8)
        masked = self.x.copy()
        masked[:4, :4] = 0.0
        exact = fft_circular_convolve2d(masked, self.kernel)
        quantized = fft_circular_convolve2d(masked, self.kernel, precision=INT8)
        assert np.max(np.abs(quantized - exact)) <= bound

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            quantized_conv_error_bound(np.ones((2, 2)), np.ones((3, 3)))


class TestProperties:
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        scale=st.floats(min_value=1e-3, max_value=1e3),
        bits=st.sampled_from([4, 8, 16]),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_bound_holds(self, seed, scale, bits):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(64) * scale
        q = quantize(x, bits=bits)
        bound = quantization_error_bound(x, bits=bits)
        assert np.max(np.abs(dequantize(q) - x)) <= bound + 1e-9 * scale

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_quantize_is_idempotent_on_grid(self, seed):
        """Quantizing an already-quantized tensor is exact."""
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(32)
        once = dequantize(quantize(x))
        twice = dequantize(quantize(once))
        np.testing.assert_allclose(once, twice, atol=1e-12)

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        factor=st.floats(min_value=0.1, max_value=10.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_scale_equivariance(self, seed, factor):
        """Scaling the input scales the quantization scale linearly."""
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(32)
        s1 = quantization_scale(x)
        s2 = quantization_scale(x * factor)
        np.testing.assert_allclose(s2, s1 * factor, rtol=1e-9)
