"""Independent-oracle checks at large and awkward transform sizes.

The DFT definition (:mod:`tests.fft.dft_oracle`, ``fft2_matmul``) is the
oracle everywhere; ``scipy.fft`` is a second one where it is installed.
"""

import numpy as np
import pytest

from repro.fft import (
    clear_dft_matrix_cache,
    fft,
    fft2,
    fft2_matmul,
    fft_circular_convolve2d,
    ifft,
    irfft,
    rfft,
    rfft2,
)
from tests.fft.dft_oracle import dft, dft_bins, irdft, rdft

try:
    import scipy.fft as scipy_fft
except ImportError:  # scipy is optional
    scipy_fft = None


@pytest.fixture(autouse=True)
def drop_large_dft_matrices():
    """The oracle's matrices reach 16 MB here; do not keep them cached."""
    yield
    clear_dft_matrix_cache()


@pytest.mark.skipif(scipy_fft is None, reason="scipy is not installed")
class TestScipyOracle:
    @pytest.mark.parametrize("n", [64, 100, 127, 128, 243, 251, 256, 1000])
    def test_1d_matches_scipy(self, n):
        """Primes (127, 251), prime powers (243) and composites agree
        with an independent library."""
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        np.testing.assert_allclose(fft(x), scipy_fft.fft(x), atol=1e-7)

    @pytest.mark.parametrize("shape", [(64, 64), (100, 50), (127, 128), (31, 37)])
    def test_2d_matches_scipy(self, shape):
        rng = np.random.default_rng(shape[0])
        x = rng.standard_normal(shape)
        np.testing.assert_allclose(fft2(x), scipy_fft.fft2(x), atol=1e-7)

    @pytest.mark.parametrize("n", [128, 251, 500])
    def test_inverse_matches_scipy(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        np.testing.assert_allclose(ifft(x), scipy_fft.ifft(x), atol=1e-9)

    def test_large_power_of_two(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(4096)
        np.testing.assert_allclose(fft(x), scipy_fft.fft(x), atol=1e-6)

    def test_conv_against_scipy_fftconvolve_circular(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((32, 32))
        k = rng.standard_normal((32, 32))
        expected = np.real(scipy_fft.ifft2(scipy_fft.fft2(x) * scipy_fft.fft2(k)))
        np.testing.assert_allclose(fft_circular_convolve2d(x, k), expected, atol=1e-8)


class TestRealTransformOracles:
    """The half-spectrum hot path against the DFT definition (and scipy)."""

    @pytest.mark.parametrize("n", [64, 100, 127, 128, 243, 251, 256, 1000])
    def test_rfft_matches_numpy_and_scipy(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n)
        ours = rfft(x)
        np.testing.assert_allclose(ours, rdft(x), atol=1e-7)
        if scipy_fft is not None:
            np.testing.assert_allclose(ours, scipy_fft.rfft(x), atol=1e-7)

    @pytest.mark.parametrize("shape", [(64, 64), (100, 50), (127, 128), (31, 37)])
    def test_rfft2_matches_numpy(self, shape):
        rng = np.random.default_rng(shape[0])
        x = rng.standard_normal(shape)
        expected = fft2_matmul(x)[:, : shape[1] // 2 + 1]
        np.testing.assert_allclose(rfft2(x), expected, atol=1e-7)

    @pytest.mark.parametrize("n", [128, 251, 500, 501])
    def test_irfft_matches_numpy(self, n):
        rng = np.random.default_rng(n)
        spectrum = rdft(rng.standard_normal(n))
        np.testing.assert_allclose(
            irfft(spectrum, n=n), irdft(spectrum, n=n), atol=1e-9
        )

    def test_large_power_of_two_rfft(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(4096)
        bins = rng.choice(4096 // 2 + 1, size=64, replace=False)
        np.testing.assert_allclose(rfft(x)[bins], dft_bins(x, bins), atol=1e-6)


class TestNumericalStability:
    def test_large_dynamic_range(self):
        x = np.array([1e12, 1e-12, -1e12, 1e-12] * 8)
        spectrum = fft(x)
        np.testing.assert_allclose(ifft(spectrum), x, rtol=1e-9)

    def test_long_bluestein_accuracy(self):
        """Accuracy must not degrade for long prime lengths."""
        n = 1009  # prime
        rng = np.random.default_rng(2)
        x = rng.standard_normal(n)
        np.testing.assert_allclose(fft(x), dft(x), atol=1e-6)

    def test_dc_only_signal(self):
        x = np.full(64, 3.0)
        spectrum = fft(x)
        assert spectrum[0] == pytest.approx(192.0)
        np.testing.assert_allclose(spectrum[1:], 0.0, atol=1e-10)

    def test_single_tone(self):
        n = 128
        tone = np.exp(2j * np.pi * 5 * np.arange(n) / n)
        spectrum = fft(tone)
        assert abs(spectrum[5]) == pytest.approx(n, rel=1e-10)
        mask = np.ones(n, dtype=bool)
        mask[5] = False
        np.testing.assert_allclose(spectrum[mask], 0.0, atol=1e-9)
