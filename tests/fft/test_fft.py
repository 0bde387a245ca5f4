"""Unit and property tests for the 1-D host transforms.

The oracle is the DFT definition (Eq. 10), ``x @ dft_matrix(n, norm)``
(:mod:`tests.fft.dft_oracle`), which shares no code with ``numpy.fft``.
Test names that mention numpy name the convention matched -- numpy's
sign, scaling and bin layout.  ``TestPowersOfTwoPath`` and
``TestBluesteinPath`` split the lengths into powers of two and the rest
(odd, even and prime).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fft import fft, ifft, irfft, rfft
from tests.fft.dft_oracle import dft, idft

POWER_OF_TWO_SIZES = [1, 2, 4, 8, 16, 32, 64, 128, 256]
BLUESTEIN_SIZES = [3, 5, 6, 7, 9, 10, 12, 15, 17, 31, 33, 100]
NORMS = ["backward", "ortho", "forward"]


class TestPowersOfTwoPath:
    @pytest.mark.parametrize("n", POWER_OF_TWO_SIZES)
    def test_matches_numpy_real_input(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n)
        np.testing.assert_allclose(fft(x), dft(x), atol=1e-9)

    @pytest.mark.parametrize("n", POWER_OF_TWO_SIZES)
    def test_matches_numpy_complex_input(self, n):
        rng = np.random.default_rng(n + 1)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        np.testing.assert_allclose(fft(x), dft(x), atol=1e-9)

    def test_batched_input_along_last_axis(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((5, 3, 16))
        np.testing.assert_allclose(fft(x), dft(x), atol=1e-9)

    def test_axis_argument(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((8, 5))
        np.testing.assert_allclose(fft(x, axis=0), dft(x, axis=0), atol=1e-9)


class TestBluesteinPath:
    @pytest.mark.parametrize("n", BLUESTEIN_SIZES)
    def test_matches_numpy_real_input(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n)
        np.testing.assert_allclose(fft(x), dft(x), atol=1e-8)

    @pytest.mark.parametrize("n", BLUESTEIN_SIZES)
    def test_matches_numpy_complex_input(self, n):
        rng = np.random.default_rng(n + 7)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        np.testing.assert_allclose(fft(x), dft(x), atol=1e-8)

    def test_batched_bluestein(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((4, 12))
        np.testing.assert_allclose(fft(x), dft(x), atol=1e-8)

    @pytest.mark.parametrize("n", [7, 12, 31])
    def test_batched_along_axis_zero(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal((n, 3, 2)) + 1j * rng.standard_normal((n, 3, 2))
        np.testing.assert_allclose(fft(x, axis=0), dft(x, axis=0), atol=1e-8)
        np.testing.assert_allclose(ifft(x, axis=0), idft(x, axis=0), atol=1e-8)


class TestInverse:
    @pytest.mark.parametrize("n", POWER_OF_TWO_SIZES + BLUESTEIN_SIZES)
    @pytest.mark.parametrize("norm", ["backward", "ortho", "forward"])
    def test_round_trip(self, n, norm):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        np.testing.assert_allclose(ifft(fft(x, norm=norm), norm=norm), x, atol=1e-8)

    @pytest.mark.parametrize("n", [4, 12, 16])
    def test_matches_numpy_ifft(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        np.testing.assert_allclose(ifft(x), idft(x), atol=1e-9)


class TestNormalization:
    @pytest.mark.parametrize("norm", NORMS)
    def test_matches_numpy_norm(self, norm):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(16)
        np.testing.assert_allclose(fft(x, norm=norm), dft(x, norm=norm), atol=1e-9)

    @pytest.mark.parametrize("n", [9, 16, 17])
    @pytest.mark.parametrize("norm", NORMS)
    def test_both_directions_match_definition(self, n, norm):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        np.testing.assert_allclose(fft(x, norm=norm), dft(x, norm=norm), atol=1e-9)
        np.testing.assert_allclose(ifft(x, norm=norm), idft(x, norm=norm), atol=1e-9)

    def test_ortho_preserves_energy(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(64)
        spectrum = fft(x, norm="ortho")
        np.testing.assert_allclose(
            np.sum(np.abs(spectrum) ** 2), np.sum(np.abs(x) ** 2), rtol=1e-10
        )


class TestValidation:
    def test_empty_axis_raises(self):
        with pytest.raises(ValueError):
            fft(np.zeros((3, 0)))
        with pytest.raises(ValueError):
            ifft(np.zeros(0))

    def test_scalar_raises(self):
        with pytest.raises(ValueError):
            fft(np.float64(3.0))

    def test_bad_norm_raises(self):
        with pytest.raises(ValueError):
            fft(np.ones(4), norm="unitary")
        with pytest.raises(ValueError):
            ifft(np.ones(4), norm="unitary")

    @pytest.mark.parametrize("transform", [fft, ifft, rfft, irfft])
    def test_every_transform_checks_its_input(self, transform):
        with pytest.raises(ValueError, match="at least a 1-D"):
            transform(np.float64(3.0))
        with pytest.raises(ValueError, match="empty axis"):
            transform(np.ones((3, 0)))
        with pytest.raises(ValueError, match="norm must be one of"):
            transform(np.ones(4), norm=None)

    @pytest.mark.parametrize("axis", [-1, -2])
    def test_out_and_in_place_give_the_same_bits(self, axis):
        """``out=`` -- a separate array, a transposed view of a bin-major
        buffer or the input itself -- changes where a result lands,
        never its bits."""
        rng = np.random.default_rng(6)
        x = rng.standard_normal((3, 10, 12))
        spectrum = x + 1j * rng.standard_normal(x.shape)
        cases = [(rfft, x), (irfft, spectrum), (fft, spectrum), (ifft, spectrum)]
        for transform, operand in cases:
            expected = transform(operand, axis=axis)
            out = np.empty_like(expected)
            assert transform(operand, axis=axis, out=out) is out
            assert out.tobytes() == expected.tobytes()
            bin_major = np.empty(np.roll(expected.shape, 1), expected.dtype)
            view = bin_major.transpose(1, 2, 0)
            assert transform(operand, axis=axis, out=view) is view
            assert view.tobytes() == expected.tobytes()
            if operand.shape == expected.shape and operand.dtype == expected.dtype:
                in_place = operand.copy()
                assert transform(in_place, axis=axis, out=in_place) is in_place
                assert in_place.tobytes() == expected.tobytes()

    def test_single_precision_input_returns_double(self):
        x = np.random.default_rng(5).standard_normal(12).astype(np.float32)
        assert fft(x).dtype == np.complex128
        assert ifft(x.astype(np.complex64)).dtype == np.complex128
        assert rfft(x).dtype == np.complex128
        assert irfft(rfft(x).astype(np.complex64), n=12).dtype == np.float64
        np.testing.assert_allclose(fft(x), dft(x.astype(np.float64)), atol=1e-9)


class TestProperties:
    @given(
        n=st.integers(min_value=1, max_value=96),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_numpy_for_any_length(self, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        np.testing.assert_allclose(fft(x), dft(x), atol=1e-7)

    @given(
        n=st.integers(min_value=1, max_value=96),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_for_any_length(self, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        np.testing.assert_allclose(ifft(fft(x)), x, atol=1e-7)

    @given(
        n=st.sampled_from([4, 8, 16, 12, 20]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_linearity(self, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        alpha, beta = rng.standard_normal(2)
        np.testing.assert_allclose(
            fft(alpha * x + beta * y), alpha * fft(x) + beta * fft(y), atol=1e-8
        )

    @given(
        n=st.sampled_from([4, 8, 16, 32, 12, 30]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_parseval(self, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n)
        spectrum = fft(x)
        np.testing.assert_allclose(
            np.sum(np.abs(spectrum) ** 2) / n, np.sum(x**2), rtol=1e-8
        )

    @given(
        n=st.sampled_from([8, 16, 12, 24]),
        shift=st.integers(min_value=0, max_value=23),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_shift_theorem(self, n, shift, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n)
        shifted_spectrum = fft(np.roll(x, shift % n))
        phase = np.exp(-2j * np.pi * np.arange(n) * (shift % n) / n)
        np.testing.assert_allclose(shifted_spectrum, fft(x) * phase, atol=1e-8)

    @given(
        n=st.sampled_from([4, 8, 16, 10, 18]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_real_input_conjugate_symmetry(self, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n)
        spectrum = fft(x)
        # X[n-k] == conj(X[k]) for real input.
        for k in range(1, n):
            np.testing.assert_allclose(
                spectrum[n - k], np.conj(spectrum[k]), atol=1e-8
            )
