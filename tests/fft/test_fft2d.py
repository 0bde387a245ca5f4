"""Tests for the 2-D transforms: row-column FFT vs matmul (MXU) form.

The oracle is the matmul form of the DFT definition (Eq. 13),
``fft2_matmul`` / ``ifft2_matmul``, which shares no code with
``numpy.fft``.  Test names that mention numpy name the convention
matched -- numpy's sign, scaling and bin layout.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fft import fft2, fft2_matmul, ifft2, ifft2_matmul

SHAPES = [(1, 1), (2, 2), (4, 4), (8, 8), (4, 8), (8, 4), (3, 5), (6, 9), (16, 16)]


@pytest.mark.parametrize("shape", SHAPES)
def test_fft2_matches_numpy(shape):
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    x = rng.standard_normal(shape)
    np.testing.assert_allclose(fft2(x), fft2_matmul(x), atol=1e-8)
    np.testing.assert_allclose(ifft2(x), ifft2_matmul(x), atol=1e-8)


@pytest.mark.parametrize("shape", SHAPES)
def test_matmul_form_matches_fft_form(shape):
    """Paper Eq. 13: (W_M . x) . W_N equals the row-column FFT."""
    rng = np.random.default_rng(shape[0] * 100 + shape[1] + 1)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    np.testing.assert_allclose(fft2_matmul(x), fft2(x), atol=1e-8)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("norm", ["backward", "ortho"])
def test_round_trip(shape, norm):
    rng = np.random.default_rng(3)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    np.testing.assert_allclose(ifft2(fft2(x, norm=norm), norm=norm), x, atol=1e-8)


@pytest.mark.parametrize("shape", SHAPES)
def test_matmul_round_trip(shape):
    rng = np.random.default_rng(4)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    np.testing.assert_allclose(ifft2_matmul(fft2_matmul(x)), x, atol=1e-8)


def test_ortho_norm_matches_paper_definition():
    # Paper Eq. 6 normalizes by 1/sqrt(MN).
    rng = np.random.default_rng(5)
    x = rng.standard_normal((4, 6))
    np.testing.assert_allclose(
        fft2(x, norm="ortho"), fft2_matmul(x, norm="ortho"), atol=1e-9
    )


def test_non_2d_input_raises():
    with pytest.raises(ValueError):
        fft2(np.zeros(4))
    with pytest.raises(ValueError):
        fft2_matmul(np.zeros((2, 3, 4)))
    with pytest.raises(ValueError):
        ifft2(np.zeros((0, 4)))
    with pytest.raises(ValueError):
        ifft2_matmul(np.zeros(7))


class TestProperties:
    @given(
        m=st.integers(min_value=1, max_value=24),
        n=st.integers(min_value=1, max_value=24),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_agrees_with_numpy_any_shape(self, m, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((m, n))
        np.testing.assert_allclose(fft2(x), fft2_matmul(x), atol=1e-7)

    @given(
        m=st.integers(min_value=1, max_value=16),
        n=st.integers(min_value=1, max_value=16),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_two_paths_agree_any_shape(self, m, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        np.testing.assert_allclose(fft2_matmul(x), fft2(x), atol=1e-7)

    @given(
        m=st.sampled_from([2, 4, 8, 3, 6]),
        n=st.sampled_from([2, 4, 8, 5, 7]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_parseval_2d(self, m, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((m, n))
        spectrum = fft2(x)
        np.testing.assert_allclose(
            np.sum(np.abs(spectrum) ** 2) / (m * n), np.sum(x**2), rtol=1e-8
        )

    @given(
        m=st.sampled_from([4, 8]),
        n=st.sampled_from([4, 8]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_separability_rows_then_columns(self, m, n, seed):
        """The two-stage order in Algorithm 1 (rows first) is immaterial."""
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((m, n))
        rows_then_cols = fft2(x)
        cols_then_rows = fft2(x.T).T
        np.testing.assert_allclose(rows_then_cols, cols_then_rows, atol=1e-8)


class TestBatchTransforms:
    """fft2_batch / ifft2_batch: per-plane bit-identity with fft2/ifft2."""

    @pytest.mark.parametrize("shape", SHAPES)
    def test_fft2_batch_matches_per_plane(self, shape):
        from repro.fft import fft2_batch

        rng = np.random.default_rng(shape[0] * 10 + shape[1])
        stack = rng.standard_normal((5,) + shape)
        batched = fft2_batch(stack)
        for plane, result in zip(stack, batched):
            np.testing.assert_array_equal(result, fft2(plane))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_ifft2_batch_round_trip(self, shape):
        from repro.fft import fft2_batch, ifft2_batch

        rng = np.random.default_rng(shape[0] * 10 + shape[1] + 1)
        stack = rng.standard_normal((3,) + shape) + 1j * rng.standard_normal(
            (3,) + shape
        )
        np.testing.assert_allclose(ifft2_batch(fft2_batch(stack)), stack, atol=1e-8)

    def test_ifft2_batch_matches_per_plane(self):
        from repro.fft import ifft2_batch

        rng = np.random.default_rng(7)
        stack = rng.standard_normal((4, 8, 8)) + 1j * rng.standard_normal((4, 8, 8))
        batched = ifft2_batch(stack)
        for plane, result in zip(stack, batched):
            np.testing.assert_array_equal(result, ifft2(plane))

    def test_plain_matrix_is_zero_axis_batch(self):
        from repro.fft import fft2_batch

        x = np.random.default_rng(8).standard_normal((4, 6))
        np.testing.assert_array_equal(fft2_batch(x), fft2(x))

    def test_multi_axis_batch(self):
        from repro.fft import fft2_batch

        stack = np.random.default_rng(9).standard_normal((2, 3, 4, 4))
        batched = fft2_batch(stack)
        assert batched.shape == (2, 3, 4, 4)
        np.testing.assert_array_equal(batched[1, 2], fft2(stack[1, 2]))

    def test_batch_norms_follow_fft2(self):
        from repro.fft import fft2_batch

        x = np.random.default_rng(10).standard_normal((2, 4, 4))
        np.testing.assert_array_equal(
            fft2_batch(x, norm="ortho")[0], fft2(x[0], norm="ortho")
        )

    @pytest.mark.parametrize("norm", ["backward", "ortho", "forward"])
    def test_batch_matches_matmul_form_every_norm(self, norm):
        from repro.fft import fft2_batch, ifft2_batch

        rng = np.random.default_rng(11)
        stack = rng.standard_normal((3, 5, 6)) + 1j * rng.standard_normal((3, 5, 6))
        forward = fft2_batch(stack, norm=norm)
        inverse = ifft2_batch(stack, norm=norm)
        for plane, spectrum, signal in zip(stack, forward, inverse):
            np.testing.assert_allclose(spectrum, fft2_matmul(plane, norm=norm), atol=1e-9)
            np.testing.assert_allclose(signal, ifft2_matmul(plane, norm=norm), atol=1e-9)

    def test_invalid_batch_inputs_rejected(self):
        from repro.fft import fft2_batch, ifft2_batch

        with pytest.raises(ValueError):
            fft2_batch(np.ones(4))
        with pytest.raises(ValueError):
            ifft2_batch(np.zeros((2, 0, 4)))
