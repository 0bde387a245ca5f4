"""Task transformation: Eq. 4 recovery, Wiener extension, embeddings."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import OutputEmbedding, TpuBackend, frequency_solve, make_tpu_chip
from repro.fft import fft2, fft_circular_convolve2d
from repro.hw import CpuDevice, GpuDevice
from tests import reference
from tests.fft.convolution_oracle import circular_convolve2d


def well_conditioned_input(shape, seed):
    """An input whose spectrum is bounded away from zero."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape)
    x[0, 0] += 5.0 * np.prod(shape) ** 0.5  # boost the DC component
    return x


class TestExactRecovery:
    @pytest.mark.parametrize("shape", [(4, 4), (8, 8), (6, 10), (5, 7)])
    def test_single_pair_recovers_planted_kernel(self, shape):
        """Eq. 4: with Y generated by a known K, the solve returns K."""
        rng = np.random.default_rng(shape[0])
        x = well_conditioned_input(shape, seed=1)
        kernel_true = rng.standard_normal(shape)
        y = fft_circular_convolve2d(x, kernel_true)
        kernel = frequency_solve(x, y, eps=0.0)
        np.testing.assert_allclose(kernel, kernel_true, atol=1e-7)

    def test_solution_satisfies_equation_2(self):
        """X (*) K == Y for the fitted kernel (paper Eq. 2)."""
        x = well_conditioned_input((8, 8), seed=2)
        rng = np.random.default_rng(3)
        y = rng.standard_normal((8, 8))
        kernel = frequency_solve(x, y, eps=0.0)
        np.testing.assert_allclose(circular_convolve2d(x, kernel), y, atol=1e-7)

    def test_multi_pair_recovers_shared_kernel(self):
        rng = np.random.default_rng(4)
        kernel_true = rng.standard_normal((6, 6))
        xs = np.stack([well_conditioned_input((6, 6), seed=s) for s in range(5)])
        ys = np.stack([fft_circular_convolve2d(x, kernel_true) for x in xs])
        kernel = frequency_solve(xs, ys, eps=1e-12)
        np.testing.assert_allclose(kernel, kernel_true, atol=1e-6)

    def test_multi_pair_is_least_squares(self):
        """With inconsistent pairs the solution minimizes total residual:
        perturbing the kernel in any direction cannot reduce the loss."""
        rng = np.random.default_rng(5)
        xs = np.stack([well_conditioned_input((4, 4), seed=s) for s in range(3)])
        ys = rng.standard_normal((3, 4, 4))
        kernel = frequency_solve(xs, ys, eps=0.0)

        def loss(k):
            return sum(
                np.sum((fft_circular_convolve2d(x, k) - y) ** 2)
                for x, y in zip(xs, ys)
            )

        base = loss(kernel)
        for trial in range(5):
            direction = np.random.default_rng(trial).standard_normal((4, 4))
            assert loss(kernel + 1e-3 * direction) >= base - 1e-9

    def test_real_inputs_give_real_kernel(self):
        x = well_conditioned_input((8, 8), seed=6)
        y = np.random.default_rng(7).standard_normal((8, 8))
        kernel = frequency_solve(x, y)
        assert np.isrealobj(kernel)

    def test_regularization_bounds_solution_on_singular_spectrum(self):
        """An input with an exactly-zero spectral bin explodes without eps."""
        x = np.ones((4, 4))  # all spectrum mass in the DC bin; rest zero
        y = np.random.default_rng(8).standard_normal((4, 4))
        kernel = frequency_solve(x, y, eps=1e-3)
        assert np.all(np.isfinite(kernel))
        assert np.max(np.abs(kernel)) < 1e4

    @pytest.mark.parametrize("priced", [False, True], ids=["numpy", "device"])
    @pytest.mark.parametrize("fill", [0.0, 1.0], ids=["zero", "constant"])
    def test_zero_bin_at_eps_zero_raises(self, fill, priced):
        """Eq. 4 divides by the zero bins; the result used to be NaN or inf
        with only a RuntimeWarning."""
        device = CpuDevice() if priced else None
        y = np.random.default_rng(8).standard_normal((4, 4))
        with pytest.raises(ValueError, match="kernel 0: the spectrum of x has a zero bin"):
            frequency_solve(np.full((4, 4), fill), y, eps=0.0, device=device)
        assert device is None or not device.stats.op_counts

    def test_zero_bin_names_its_kernel_in_a_stack(self):
        rng = np.random.default_rng(11)
        xs = np.stack([well_conditioned_input((4, 4), seed=12), np.ones((4, 4))])
        ys = rng.standard_normal((2, 4, 4))
        with pytest.raises(ValueError, match="kernel 1:"):
            frequency_solve(xs[:, np.newaxis], ys[:, np.newaxis], eps=0.0)
        assert np.isfinite(frequency_solve(xs[:, np.newaxis], ys[:, np.newaxis], eps=1e-3)).all()

    def test_device_path_matches_numpy_path(self):
        device = CpuDevice()
        x = well_conditioned_input((8, 8), seed=9)
        y = np.random.default_rng(10).standard_normal((8, 8))
        kernel_numpy = frequency_solve(x, y, eps=1e-6)
        kernel_device = frequency_solve(x, y, eps=1e-6, device=device)
        np.testing.assert_allclose(kernel_device, kernel_numpy, atol=1e-8)
        assert device.stats.seconds > 0  # timing was accounted

    def test_validation(self):
        with pytest.raises(ValueError):
            frequency_solve(np.ones((2, 2)), np.ones((3, 3)))
        for eps in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                frequency_solve(np.ones((2, 2)), np.ones((2, 2)), eps=eps)
        with pytest.raises(ValueError):
            frequency_solve(np.ones(4), np.ones(4))


class TestOneArithmetic:
    """Eq. 4 has one arithmetic: a solve without a device computes what
    a solve with one does, bit for bit -- the device chain's numbers
    (complex denominator, eps added in place), on half spectra for real
    pairs, within the derived bound of the literal full-spectrum chain."""

    @pytest.mark.parametrize("eps", [0.0, 1e-6, 0.3])
    @pytest.mark.parametrize("pairs", [1, 3])
    @pytest.mark.parametrize("shape", [(8, 8), (9, 7), (16, 16)])
    def test_device_less_solve_equals_the_device_chain(self, shape, pairs, eps):
        xs = np.stack([well_conditioned_input(shape, seed) for seed in range(pairs)])
        ys = np.random.default_rng(pairs).standard_normal((pairs, *shape))
        kernel = frequency_solve(xs, ys, eps=eps)
        np.testing.assert_array_equal(
            kernel, frequency_solve(xs, ys, eps=eps, device=CpuDevice())
        )
        literal = reference.solve(xs, ys, eps, CpuDevice())
        assert reference.norm(kernel - literal) <= reference.kernel_bound(xs, ys, eps)

    def test_complex_pair(self):
        rng = np.random.default_rng(5)
        x = well_conditioned_input((6, 5), seed=6) + 1j * rng.standard_normal((6, 5))
        y = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
        kernel = frequency_solve(x, y, eps=1e-6)
        assert np.iscomplexobj(kernel)
        np.testing.assert_array_equal(
            kernel, frequency_solve(x, y, eps=1e-6, device=CpuDevice())
        )
        np.testing.assert_array_equal(kernel, reference.solve([x], [y], 1e-6, CpuDevice()))


class TestStackedSolve:
    """One solve over a ``(P, B, M, N)`` stack: ``P`` kernels from ``B`` pairs each."""

    DEVICES = {
        "cpu": CpuDevice,
        "gpu": GpuDevice,
        "tpu": lambda: TpuBackend(
            make_tpu_chip(num_cores=4, precision="fp32", mxu_rows=8, mxu_cols=8)
        ),
    }

    @pytest.mark.parametrize("shape", [(8, 8), (5, 7)])
    @pytest.mark.parametrize("kernels,pairs", [(3, 1), (1, 3)])
    @pytest.mark.parametrize("device", sorted(DEVICES))
    def test_matches_reference_loop(self, device, kernels, pairs, shape):
        """Kernels within the derived bound, and exactly the ledger of the
        per-op loop."""
        rng = np.random.default_rng(10 * kernels + pairs)
        xs = rng.standard_normal((kernels, pairs, *shape))
        ys = rng.standard_normal((kernels, pairs, *shape))
        stacked_device, looped_device = self.DEVICES[device](), self.DEVICES[device]()
        stacked = frequency_solve(xs, ys, eps=1e-6, device=stacked_device)
        looped = [reference.solve(x, y, 1e-6, looped_device) for x, y in zip(xs, ys)]
        assert stacked.shape == (kernels, *shape)
        for kernel, literal, x, y in zip(stacked, looped, xs, ys):
            assert reference.norm(kernel - literal) <= reference.kernel_bound(x, y, 1e-6)
        got, want = stacked_device.stats, looped_device.stats
        assert (got.seconds, got.macs, got.bytes_moved) == (
            want.seconds, want.macs, want.bytes_moved
        )
        assert got.op_counts == want.op_counts
        assert got.op_seconds == want.op_seconds

    @pytest.mark.parametrize("complex_inputs", [False, True])
    def test_each_kernel_equals_its_own_solve(self, complex_inputs):
        rng = np.random.default_rng(4)
        xs = rng.standard_normal((3, 2, 6, 5))
        if complex_inputs:
            xs = xs + 1j * rng.standard_normal(xs.shape)
        ys = rng.standard_normal((3, 2, 6, 5))
        for device in (None, CpuDevice()):
            stacked = frequency_solve(xs, ys, eps=1e-6, device=device)
            assert np.iscomplexobj(stacked) == complex_inputs
            for kernel, x, y in zip(stacked, xs, ys):
                np.testing.assert_array_equal(
                    kernel, frequency_solve(x, y, eps=1e-6, device=device)
                )


class TestOutputEmbedding:
    def test_identity_requires_matching_shape(self):
        embedding = OutputEmbedding("identity")
        y = np.ones((4, 4))
        np.testing.assert_array_equal(embedding.embed(y, (4, 4)), y)
        with pytest.raises(ValueError):
            embedding.embed(np.ones((2, 2)), (4, 4))

    def test_spatial_partitions_plane_into_class_bands(self):
        embedding = OutputEmbedding("spatial")
        plane = embedding.embed(np.array([1.0, 2.0]), (4, 4))
        assert plane.shape == (4, 4)
        flat = plane.reshape(-1)
        np.testing.assert_array_equal(flat[:8], np.full(8, 1.0))
        np.testing.assert_array_equal(flat[8:], np.full(8, 2.0))

    def test_spatial_bands_split_evenly(self):
        embedding = OutputEmbedding("spatial")
        y = np.array([0.5, -1.0, 2.0])
        plane = embedding.embed(y, (6, 5))
        np.testing.assert_array_equal(plane.reshape(3, 10), np.repeat(y, 10).reshape(3, 10))

    def test_onehot_row_embed(self):
        embedding = OutputEmbedding("onehot-row")
        y = np.array([3.0, 1.0, 4.0])
        plane = embedding.embed(y, (4, 6))
        np.testing.assert_array_equal(plane[0, :3], y)
        assert np.all(plane[0, 3:] == 0)
        assert np.all(plane[1:] == 0)

    def test_tile_embed(self):
        embedding = OutputEmbedding("tile")
        y = np.array([1.0, 2.0])
        plane = embedding.embed(y, (2, 4))
        np.testing.assert_array_equal(plane.reshape(-1), [1.0, 2.0] * 4)

    def test_too_many_classes_rejected(self):
        with pytest.raises(ValueError):
            OutputEmbedding("spatial").embed(np.ones(100), (3, 3))

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            OutputEmbedding("fourier")

    def test_vector_required_for_non_identity(self):
        with pytest.raises(ValueError):
            OutputEmbedding("spatial").embed(np.ones((2, 2)), (4, 4))

    def test_empty_vector_rejected(self):
        with pytest.raises(ValueError):
            OutputEmbedding("spatial").embed(np.zeros(0), (4, 4))


class TestProperties:
    @given(
        m=st.sampled_from([4, 8, 6]),
        n=st.sampled_from([4, 8, 10]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_planted_kernel_recovery_property(self, m, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((m, n))
        x[0, 0] += 5.0 * (m * n) ** 0.5
        kernel_true = rng.standard_normal((m, n))
        y = fft_circular_convolve2d(x, kernel_true)
        kernel = frequency_solve(x, y, eps=0.0)
        power = np.abs(fft2(x)) ** 2
        condition = power.max() / power.min() if power.min() > 0 else np.inf
        if condition < 1e8:  # recovery is only guaranteed when well-posed
            np.testing.assert_allclose(kernel, kernel_true, atol=1e-5)

    @given(
        classes=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        strategy=st.sampled_from(["spatial", "onehot-row", "tile"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_embed_places_every_class_score(self, classes, seed, strategy):
        rng = np.random.default_rng(seed)
        y = rng.standard_normal(classes)
        flat = OutputEmbedding(strategy).embed(y, (12, 12)).reshape(-1)
        if strategy == "onehot-row":
            np.testing.assert_array_equal(flat[:classes], y)
            assert not flat[classes:].any()
        elif strategy == "tile":
            np.testing.assert_array_equal(flat, np.resize(y, flat.size))
        else:  # contiguous bands; the last takes the remainder
            counts = np.full(classes, flat.size // classes)
            counts[-1] += flat.size % classes
            np.testing.assert_array_equal(flat, np.repeat(y, counts))
