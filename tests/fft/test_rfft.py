"""Tests for the real-input half-spectrum transforms (rfft/irfft and 2-D forms).

The oracle is the DFT definition (Eq. 10 and Eq. 13) through
:mod:`tests.fft.dft_oracle` and :func:`repro.fft.fft2_matmul`, which
share no code with ``numpy.fft``.  Test names that mention numpy name
the convention matched -- numpy's sign, scaling and bin layout.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fft import (
    fft,
    fft2_matmul,
    irfft,
    irfft2,
    irfft2_batch,
    rfft,
    rfft2,
    rfft2_batch,
)
from repro.fft.fft2d import fft2_batch
from tests.fft.dft_oracle import irdft, rdft

POWER_OF_TWO_SIZES = [1, 2, 4, 8, 16, 32, 64, 128, 256]
BLUESTEIN_SIZES = [3, 5, 6, 7, 9, 10, 12, 15, 17, 31, 33, 100]
NORMS = ["backward", "ortho", "forward"]


class TestRfftForward:
    @pytest.mark.parametrize("n", POWER_OF_TWO_SIZES + BLUESTEIN_SIZES)
    def test_matches_numpy_rfft(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n)
        np.testing.assert_allclose(rfft(x), rdft(x), atol=1e-9)

    @pytest.mark.parametrize("n", [8, 12, 64, 100])
    @pytest.mark.parametrize("norm", NORMS)
    def test_norms_match_numpy(self, n, norm):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n)
        np.testing.assert_allclose(
            rfft(x, norm=norm), rdft(x, norm=norm), atol=1e-9
        )

    @pytest.mark.parametrize("n", [4, 7, 16, 30])
    def test_matches_full_fft_head(self, n):
        """The half spectrum is the first ``n//2 + 1`` bins of the full DFT."""
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n)
        np.testing.assert_allclose(rfft(x), fft(x)[: n // 2 + 1], atol=1e-9)

    def test_output_bin_count(self):
        for n in [1, 2, 3, 8, 9, 100]:
            assert rfft(np.ones(n)).shape == (n // 2 + 1,)

    def test_batched_rows_bit_identical_to_single(self):
        """Vectorizing over a batch axis must not change any bits --
        the loop/dense/streamed equivalence rests on this."""
        rng = np.random.default_rng(0)
        stack = rng.standard_normal((5, 32))
        batched = rfft(stack, axis=-1)
        for row, expected in zip(stack, batched):
            np.testing.assert_array_equal(rfft(row), expected)

    def test_axis_zero(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((16, 3))
        np.testing.assert_allclose(
            rfft(x, axis=0), rdft(x, axis=0), atol=1e-9
        )

    def test_rejects_complex_input(self):
        with pytest.raises(ValueError, match="rfft requires real input"):
            rfft(np.ones(8, dtype=np.complex128))

    def test_rejects_empty_axis(self):
        with pytest.raises(ValueError):
            rfft(np.ones((2, 0)))

    def test_rejects_bad_norm(self):
        with pytest.raises(ValueError):
            rfft(np.ones(8), norm="sideways")


class TestIrfftInverse:
    @pytest.mark.parametrize("n", POWER_OF_TWO_SIZES + BLUESTEIN_SIZES)
    def test_round_trip_even_and_odd(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n)
        recovered = irfft(rfft(x), n=n)
        assert recovered.dtype == np.float64
        np.testing.assert_allclose(recovered, x, atol=1e-9)

    @pytest.mark.parametrize("norm", NORMS)
    @pytest.mark.parametrize("n", [8, 15, 64])
    def test_round_trip_every_norm(self, n, norm):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n)
        np.testing.assert_allclose(irfft(rfft(x, norm=norm), n=n, norm=norm), x, atol=1e-9)

    @pytest.mark.parametrize("n", [8, 13, 100])
    def test_matches_numpy_irfft(self, n):
        rng = np.random.default_rng(n)
        spectrum = rdft(rng.standard_normal(n))
        np.testing.assert_allclose(
            irfft(spectrum, n=n), irdft(spectrum, n=n), atol=1e-9
        )

    @pytest.mark.parametrize("norm", NORMS)
    @pytest.mark.parametrize("n", [8, 15, 17])
    def test_every_norm_matches_definition(self, n, norm):
        rng = np.random.default_rng(n)
        spectrum = rdft(rng.standard_normal(n))
        np.testing.assert_allclose(
            irfft(spectrum, n=n, norm=norm), irdft(spectrum, n=n, norm=norm), atol=1e-9
        )

    def test_batched_rows_match_definition(self):
        rng = np.random.default_rng(11)
        spectrum = rdft(rng.standard_normal((4, 9)))
        np.testing.assert_allclose(
            irfft(spectrum, n=9), irdft(spectrum, n=9), atol=1e-9
        )

    def test_default_length_is_even(self):
        """Without ``n`` the inverse assumes an even signal, like numpy."""
        x = np.arange(10.0)
        np.testing.assert_allclose(irfft(rfft(x)), x, atol=1e-9)

    def test_odd_length_needs_explicit_n(self):
        x = np.arange(9.0)
        np.testing.assert_allclose(irfft(rfft(x), n=9), x, atol=1e-9)

    def test_rejects_inconsistent_n(self):
        with pytest.raises(ValueError, match="inconsistent"):
            irfft(np.ones(5, dtype=np.complex128), n=12)

    def test_rejects_empty_axis(self):
        with pytest.raises(ValueError):
            irfft(np.ones((2, 0), dtype=np.complex128))

    def test_length_one(self):
        np.testing.assert_allclose(irfft(rfft(np.array([4.25])), n=1), [4.25])


class TestRfftProperties:
    @given(
        n=st.integers(min_value=1, max_value=96),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_numpy_for_any_length(self, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n)
        np.testing.assert_allclose(rfft(x), rdft(x), atol=1e-7)

    @given(
        n=st.integers(min_value=1, max_value=96),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_any_length(self, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n)
        np.testing.assert_allclose(irfft(rfft(x), n=n), x, atol=1e-7)

    @given(
        n=st.integers(min_value=2, max_value=64),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_hermitian_packing(self, n, seed):
        """The bins rfft drops are exactly the conjugate mirror of the
        bins it keeps: X[n-k] == conj(X[k])."""
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n)
        full = fft(x)
        half = rfft(x)
        reconstructed = np.empty(n, dtype=np.complex128)
        reconstructed[: n // 2 + 1] = half
        reconstructed[n // 2 + 1 :] = np.conj(half[1 : (n + 1) // 2][::-1])
        np.testing.assert_allclose(reconstructed, full, atol=1e-7)


class TestRfft2d:
    @pytest.mark.parametrize("shape", [(8, 8), (8, 7), (7, 8), (5, 9), (16, 12)])
    def test_matches_numpy_rfft2(self, shape):
        rng = np.random.default_rng(shape[0] * 31 + shape[1])
        x = rng.standard_normal(shape)
        expected = fft2_matmul(x)[:, : shape[1] // 2 + 1]
        np.testing.assert_allclose(rfft2(x), expected, atol=1e-8)

    @pytest.mark.parametrize("shape", [(8, 8), (6, 9), (5, 4)])
    def test_round_trip(self, shape):
        rng = np.random.default_rng(shape[0])
        x = rng.standard_normal(shape)
        np.testing.assert_allclose(irfft2(rfft2(x), n=shape[1]), x, atol=1e-9)

    def test_matches_full_fft2_head(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((8, 8))
        np.testing.assert_allclose(
            rfft2(x), fft2_batch(x)[:, : 8 // 2 + 1], atol=1e-9
        )

    def test_batch_planes_bit_identical_to_single(self):
        rng = np.random.default_rng(6)
        stack = rng.standard_normal((4, 8, 6))
        batched = rfft2_batch(stack)
        for plane, expected in zip(stack, batched):
            np.testing.assert_array_equal(rfft2(plane), expected)

    def test_batch_round_trip(self):
        rng = np.random.default_rng(7)
        stack = rng.standard_normal((3, 6, 7))
        np.testing.assert_allclose(
            irfft2_batch(rfft2_batch(stack), n=7), stack, atol=1e-9
        )

    def test_rejects_complex_plane(self):
        with pytest.raises(ValueError):
            rfft2(np.ones((4, 4), dtype=np.complex128))

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            rfft2(np.ones(8))
        with pytest.raises(ValueError):
            rfft2_batch(np.ones(8))
