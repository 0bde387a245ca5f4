"""Tests for convolution: the convolution theorem is the paper's Eq. 3."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fft import fft2, fft_circular_convolve2d, fft_circular_convolve2d_chunks
from repro.fft.convolution import _bin_major, _convolve_bin_major
from repro.fft.fft import fft, rfft
from repro.fft.fft2d import fft2_batch, ifft2_batch, irfft2_batch, rfft2_batch
from repro.fft.spectra import KernelSpectrum
from repro.hw import CpuDevice
from tests.fft.convolution_oracle import circular_convolve2d


class TestCircular2D:
    @pytest.mark.parametrize("shape", [(1, 1), (2, 2), (4, 4), (3, 5), (4, 6), (8, 8)])
    def test_fft_path_matches_direct(self, shape):
        rng = np.random.default_rng(shape[0] * 10 + shape[1])
        x = rng.standard_normal(shape)
        k = rng.standard_normal(shape)
        np.testing.assert_allclose(
            fft_circular_convolve2d(x, k), circular_convolve2d(x, k), atol=1e-8
        )

    def test_convolution_theorem_explicitly(self):
        """F(X (*) K) == F(X) o F(K) -- paper Eq. 3 verbatim."""
        rng = np.random.default_rng(9)
        x = rng.standard_normal((6, 6))
        k = rng.standard_normal((6, 6))
        left = fft2(circular_convolve2d(x, k))
        right = fft2(x) * fft2(k)
        np.testing.assert_allclose(left, right, atol=1e-8)

    def test_identity_kernel_2d(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((5, 5))
        delta = np.zeros((5, 5))
        delta[0, 0] = 1.0
        np.testing.assert_allclose(circular_convolve2d(x, delta), x, atol=1e-12)

    def test_shift_kernel_2d(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 4))
        kernel = np.zeros((4, 4))
        kernel[1, 2] = 1.0
        expected = np.roll(np.roll(x, 1, axis=0), 2, axis=1)
        np.testing.assert_allclose(circular_convolve2d(x, kernel), expected, atol=1e-12)

    def test_mismatched_shapes_raise(self):
        with pytest.raises(ValueError):
            circular_convolve2d(np.ones((2, 3)), np.ones((3, 2)))
        with pytest.raises(ValueError):
            fft_circular_convolve2d(np.ones((2, 3)), np.ones((3, 2)))

    def test_vectors_and_empty_planes_raise(self):
        with pytest.raises(ValueError, match="expects a 2-D array, got shape \\(4,\\)"):
            fft_circular_convolve2d(np.ones(4), np.ones(4))
        with pytest.raises(ValueError, match="of an empty matrix is undefined"):
            fft_circular_convolve2d(np.ones((0, 3)), np.ones((0, 3)))


class TestProperties:
    @given(
        m=st.integers(min_value=1, max_value=8),
        n=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_theorem_any_shape_2d(self, m, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((m, n))
        k = rng.standard_normal((m, n))
        np.testing.assert_allclose(
            fft_circular_convolve2d(x, k), circular_convolve2d(x, k), atol=1e-7
        )

    @given(
        n=st.sampled_from([4, 8, 6]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_linearity_in_input(self, n, seed):
        """Linearity of X -> X (*) K underpins the fast contribution-factor
        path in repro.core.interpretation."""
        rng = np.random.default_rng(seed)
        x1 = rng.standard_normal((n, n))
        x2 = rng.standard_normal((n, n))
        k = rng.standard_normal((n, n))
        combined = fft_circular_convolve2d(x1 + x2, k)
        separate = fft_circular_convolve2d(x1, k) + fft_circular_convolve2d(x2, k)
        np.testing.assert_allclose(combined, separate, atol=1e-7)


CHUNK = 64  # planes per streamed chunk in the batch helper below


def convolve_batch(stack, kernel, **options):
    """A ``(batch, M, N)`` stack convolved through the chunk stream."""
    stack = np.asarray(stack)
    chunks = (
        (stack[start : start + CHUNK], range(start, min(start + CHUNK, len(stack))))
        for start in range(0, len(stack), CHUNK)
    )
    parts = [
        convolved
        for convolved, _ in fft_circular_convolve2d_chunks(
            chunks, kernel, num_rows=len(stack), **options
        )
    ]
    return np.concatenate(parts)


class TestBatchedCircular2D:
    """The chunk stream as a batch: one kernel spectrum, many inputs."""

    @pytest.mark.parametrize("shape", [(4, 4), (3, 5), (8, 8), (4, 8)])
    def test_matches_per_plane_convolution(self, shape):
        rng = np.random.default_rng(shape[0] + shape[1])
        stack = rng.standard_normal((6,) + shape)
        kernel = rng.standard_normal(shape)
        batched = convolve_batch(stack, kernel)
        for plane, result in zip(stack, batched):
            np.testing.assert_array_equal(result, fft_circular_convolve2d(plane, kernel))

    def test_precomputed_kernel_spectrum_reused(self):
        from repro.fft import kernel_spectrum

        rng = np.random.default_rng(3)
        stack = rng.standard_normal((4, 8, 8))
        kernel = rng.standard_normal((8, 8))
        spectrum = kernel_spectrum(kernel, real=True)
        np.testing.assert_array_equal(
            convolve_batch(stack, kernel, kernel_spectrum=spectrum),
            convolve_batch(stack, kernel),
        )

    def test_complex_inputs_stay_complex(self):
        rng = np.random.default_rng(4)
        stack = rng.standard_normal((2, 4, 4)) + 1j * rng.standard_normal((2, 4, 4))
        kernel = rng.standard_normal((4, 4))
        assert np.iscomplexobj(convolve_batch(stack, kernel))

    def test_validation(self):
        with pytest.raises(ValueError):
            convolve_batch(np.ones((4, 4)), np.ones((4, 4)))
        with pytest.raises(ValueError):
            convolve_batch(np.ones((2, 4, 4)), np.ones((5, 5)))
        with pytest.raises(ValueError):
            CpuDevice().conv2d_circular_batch_chunks([], np.ones((4, 4)), num_rows=0)

    def test_chunked_batches_bit_identical(self):
        """Batches larger than the internal chunk size must not change
        any per-plane result."""

        rng = np.random.default_rng(5)
        batch = CHUNK + 7
        stack = rng.standard_normal((batch, 8, 8))
        kernel = rng.standard_normal((8, 8))
        batched = convolve_batch(stack, kernel)
        for plane, result in zip(stack, batched):
            np.testing.assert_array_equal(result, fft_circular_convolve2d(plane, kernel))


class TestMultiKernelBatch:
    """Per-row kernel stacks: the cross-pair wave convolution substrate."""

    def test_row_kernel_matches_per_row_convolution(self):
        rng = np.random.default_rng(6)
        stack = rng.standard_normal((7, 8, 8))
        kernels = rng.standard_normal((3, 8, 8))
        row_kernel = np.array([0, 1, 2, 0, 2, 1, 0])
        fused = convolve_batch(stack, kernels, row_kernel=row_kernel)
        for row, (plane, which) in enumerate(zip(stack, row_kernel)):
            np.testing.assert_array_equal(
                fused[row], fft_circular_convolve2d(plane, kernels[which])
            )

    def test_row_kernel_spans_chunk_boundaries(self):
        """Rows mapping to different kernels must stay aligned when the
        stack is transformed in internal chunks."""

        rng = np.random.default_rng(7)
        batch = CHUNK + 5
        stack = rng.standard_normal((batch, 4, 4))
        kernels = rng.standard_normal((2, 4, 4))
        row_kernel = np.arange(batch) % 2
        fused = convolve_batch(stack, kernels, row_kernel=row_kernel)
        for row in (0, CHUNK - 1, CHUNK, batch - 1):
            np.testing.assert_array_equal(
                fused[row],
                fft_circular_convolve2d(stack[row], kernels[row_kernel[row]]),
            )

    def test_validation(self):
        stack = np.ones((3, 4, 4))
        kernels = np.ones((2, 4, 4))
        with pytest.raises(ValueError):  # stack without row map
            convolve_batch(stack, kernels)
        with pytest.raises(ValueError):  # row map without stack
            convolve_batch(stack, np.ones((4, 4)), row_kernel=[0, 0, 0])
        with pytest.raises(ValueError):  # wrong length
            convolve_batch(stack, kernels, row_kernel=[0, 1])
        with pytest.raises(ValueError):  # out of range
            convolve_batch(stack, kernels, row_kernel=[0, 1, 2])
        with pytest.raises(ValueError):  # empty kernel stack
            convolve_batch(stack, np.ones((0, 4, 4)), row_kernel=[0, 0, 0])

    def test_row_map_must_be_flat(self):
        stack = np.ones((4, 4, 4))
        with pytest.raises(ValueError, match="must be a flat row map"):
            convolve_batch(stack, np.ones((2, 4, 4)), row_kernel=[[0, 1], [1, 0]])

    def test_stream_past_the_row_map_raises_at_the_chunk(self):
        rng = np.random.default_rng(8)
        stack = rng.standard_normal((5, 4, 4))
        kernels = rng.standard_normal((2, 4, 4))
        chunks = iter([(stack[:3], range(0, 3)), (stack[3:], range(3, 5))])
        stream = fft_circular_convolve2d_chunks(chunks, kernels, row_kernel=[0, 1, 0])
        first, rows = next(stream)
        assert rows == range(0, 3)
        np.testing.assert_array_equal(
            first[1], fft_circular_convolve2d(stack[1], kernels[1])
        )
        with pytest.raises(ValueError, match="overrun the 3-row row_kernel map"):
            next(stream)

    def test_spectrum_must_cover_the_kernel_planes_and_stack(self):
        stack = np.ones((3, 4, 4))
        kernels = np.ones((2, 4, 4))
        wrong_plane = KernelSpectrum(rfft2_batch(np.ones((2, 8, 8))), "half", (8, 8))
        with pytest.raises(ValueError, match=r"covers \(8, 8\) planes"):
            convolve_batch(stack, kernels, row_kernel=[0, 1, 0], kernel_spectrum=wrong_plane)
        wrong_stack = KernelSpectrum(rfft2_batch(np.ones((3, 4, 4))), "half", (4, 4))
        with pytest.raises(ValueError, match="does not match kernel stack shape"):
            convolve_batch(stack, kernels, row_kernel=[0, 1, 0], kernel_spectrum=wrong_stack)


class TestRealPathRouting:
    """The half-spectrum real path vs the full complex path."""

    @pytest.mark.parametrize("shape", [(8, 8), (7, 5), (6, 9), (16, 16), (9, 9)])
    def test_real_path_agrees_with_complex_path(self, shape):
        """Complex-typed operands take the full complex path."""
        rng = np.random.default_rng(shape[0] * 17 + shape[1])
        x = rng.standard_normal(shape)
        k = rng.standard_normal(shape)
        real_path = fft_circular_convolve2d(x, k)
        complex_path = fft_circular_convolve2d(x.astype(np.complex128), k)
        assert real_path.dtype == np.float64
        assert complex_path.dtype == np.complex128
        np.testing.assert_allclose(real_path, complex_path.real, atol=1e-10)
        np.testing.assert_allclose(complex_path.imag, 0.0, atol=1e-10)

    def test_complex_typed_operands_keep_legacy_bits(self):
        """Complex-typed operands are bit-identical to the full-complex
        implementation."""
        from repro.fft import ifft2

        rng = np.random.default_rng(11)
        x = rng.standard_normal((16, 16))
        k = rng.standard_normal((16, 16))
        result = fft_circular_convolve2d(
            x.astype(np.complex128), k.astype(np.complex128)
        )
        np.testing.assert_array_equal(result.real, np.real(ifft2(fft2(x) * fft2(k))))

    def test_complex_operands_always_use_complex_path(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        k = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        from repro.fft import ifft2

        result = fft_circular_convolve2d(x, k)
        assert np.iscomplexobj(result)
        np.testing.assert_array_equal(result, ifft2(fft2(x) * fft2(k)))

    def test_loop_dense_streamed_bit_identical_on_real_path(self):
        rng = np.random.default_rng(13)
        batch = rng.standard_normal((10, 12, 12))
        k = rng.standard_normal((12, 12))
        dense = convolve_batch(batch, k)
        looped = np.stack([fft_circular_convolve2d(p, k) for p in batch])
        np.testing.assert_array_equal(dense, looped)
        for chunk_rows in (1, 3, 10):
            streamed = np.empty_like(dense)
            chunks = (
                (batch[i : i + chunk_rows], range(i, min(i + chunk_rows, 10)))
                for i in range(0, 10, chunk_rows)
            )
            for convolved, rows in fft_circular_convolve2d_chunks(
                chunks, k, num_rows=10
            ):
                streamed[rows.start : rows.stop] = convolved
            np.testing.assert_array_equal(streamed, dense)

    def test_raw_spectrum_is_quantized_like_the_cached_one(self):
        """A raw spectrum handed in at ``int8`` is rounded by the stream
        once, exactly as the cache rounds the spectrum it computes."""
        from repro.hw.quantize import resolve_precision

        rng = np.random.default_rng(15)
        stack = rng.standard_normal((2, 8, 8))
        k = rng.standard_normal((8, 8))
        spec = resolve_precision("int8")
        raw = KernelSpectrum(rfft2_batch(k), "half", k.shape)
        np.testing.assert_array_equal(
            convolve_batch(stack, k, kernel_spectrum=raw, precision=spec),
            convolve_batch(stack, k, precision=spec),
        )

    def test_spectrum_other_than_a_raw_kernel_spectrum_raises(self):
        from repro.fft import kernel_spectrum
        from repro.hw.quantize import resolve_precision

        rng = np.random.default_rng(14)
        stack = rng.standard_normal((2, 8, 8))
        k = rng.standard_normal((8, 8))
        quantized = kernel_spectrum(k, real=True, precision=resolve_precision("int8"))
        for spectrum in (fft2(k), quantized):
            with pytest.raises(ValueError, match="raw KernelSpectrum"):
                convolve_batch(stack, k, kernel_spectrum=spectrum)


class TestBinMajorTail:
    """The convolution tail on bin-major ``(bins, rows, M)`` row spectra
    equals the C-order 2-D round trip byte for byte, and writes C-order
    ``(rows, M, N)`` planes."""

    @staticmethod
    def window(row_spectra, width):
        """``(rows, M, bins)`` row spectra moved into the first ``rows``
        columns of a ``(bins, width, M)`` buffer: a strided slice when
        ``rows < width``, as a wave's last window is."""
        rows, m, bins = row_spectra.shape
        buffer = np.empty((bins, width, m), row_spectra.dtype)
        buffer[:, :rows] = np.moveaxis(row_spectra, -1, 0)
        return buffer[:, :rows]

    @pytest.mark.parametrize(
        "case",
        ["partial window", "unsorted map", "one pair", "one kernel", "odd N", "float32 pair"],
    )
    def test_half_path_equals_the_2d_round_trip(self, case):
        rng = np.random.default_rng(11)
        m, n = (6, 7) if case == "odd N" else (6, 8)
        planes = rng.standard_normal((5, m, n))
        kernels = rng.standard_normal((3, m, n))
        if case == "float32 pair":
            planes, kernels = planes.astype(np.float32), kernels.astype(np.float32)
        row_map = np.array({"unsorted map": [2, 0, 1, 0, 2], "one pair": [1] * 5}.get(
            case, [0, 0, 1, 2, 2]
        ))
        half = rfft2_batch(kernels)
        if case == "one kernel":
            half, row_map, rows_half = half[1], None, half[1]
        else:
            rows_half = half[row_map]
        expected = irfft2_batch(rfft2_batch(planes) * rows_half, n=n)
        width = 8 if case == "partial window" else 5
        window = self.window(rfft(planes, axis=-1), width)
        convolved = _convolve_bin_major(window, _bin_major(half), row_map, n)
        assert convolved.flags.c_contiguous
        assert convolved.tobytes() == expected.tobytes()

    def test_full_path_equals_the_2d_round_trip(self):
        rng = np.random.default_rng(12)
        planes = rng.standard_normal((5, 6, 7)) + 1j * rng.standard_normal((5, 6, 7))
        full = fft2_batch(rng.standard_normal((3, 6, 7)) + 1j)
        row_map = np.array([1, 0, 0, 2, 1])
        expected = ifft2_batch(fft2_batch(planes) * full[row_map])
        window = self.window(fft(planes, axis=-1), 7)
        convolved = _convolve_bin_major(window, _bin_major(full), row_map, None)
        assert convolved.flags.c_contiguous
        assert convolved.tobytes() == expected.tobytes()
