"""Algorithm 1: sharded 2-D Fourier transform across TPU cores."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DecomposedFourier, make_tpu_chip, shard_slices
from repro.core.backend import TpuBackend
from repro.fft import fft2
from repro.hw import InterconnectConfig


def small_chip(num_cores=4, precision="fp32"):
    return make_tpu_chip(
        num_cores=num_cores, precision=precision, mxu_rows=8, mxu_cols=8
    )


class TestShardSlices:
    def test_even_split(self):
        assert shard_slices(8, 4) == [slice(0, 2), slice(2, 4), slice(4, 6), slice(6, 8)]

    def test_remainder_goes_to_early_shards(self):
        pieces = shard_slices(10, 4)
        lengths = [p.stop - p.start for p in pieces]
        assert lengths == [3, 3, 2, 2]

    def test_covers_everything_without_overlap(self):
        pieces = shard_slices(17, 5)
        covered = []
        for piece in pieces:
            covered.extend(range(piece.start, piece.stop))
        assert covered == list(range(17))

    def test_more_shards_than_elements(self):
        pieces = shard_slices(2, 5)
        lengths = [p.stop - p.start for p in pieces]
        assert lengths == [1, 1, 0, 0, 0]

    def test_paper_bound_holds(self):
        """No core gets more than ceil(max{M,N}/p) 1-D transforms."""
        import math

        for total, cores in [(64, 4), (100, 8), (31, 7)]:
            pieces = shard_slices(total, cores)
            biggest = max(p.stop - p.start for p in pieces)
            assert biggest <= math.ceil(total / cores)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            shard_slices(0, 4)
        with pytest.raises(ValueError):
            shard_slices(4, 0)


class TestDecomposedTransform:
    @pytest.mark.parametrize("shape", [(8, 8), (16, 8), (8, 16), (12, 12)])
    @pytest.mark.parametrize("cores", [1, 2, 4])
    def test_merge_equals_direct_fft2(self, shape, cores):
        """The paper's central correctness claim: merging per-core results
        'exactly matches the desired 2-D Fourier transform result'."""
        chip = small_chip(num_cores=4)
        rng = np.random.default_rng(shape[0] * 10 + cores)
        x = rng.standard_normal(shape)
        result, _ = DecomposedFourier(chip, cores=cores).fft2(x)
        np.testing.assert_allclose(result, fft2(x), atol=1e-6)

    def test_inverse_round_trip(self):
        chip = small_chip()
        rng = np.random.default_rng(0)
        x = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        forward, _ = DecomposedFourier(chip).fft2(x)
        back, _ = DecomposedFourier(chip).ifft2(forward)
        np.testing.assert_allclose(back, x, atol=1e-6)

    def test_report_structure(self):
        chip = small_chip()
        x = np.random.default_rng(1).standard_normal((8, 8))
        _, report = DecomposedFourier(chip, cores=4).fft2(x)
        assert report.shape == (8, 8)
        assert report.cores_used == 4
        assert [stage.name for stage in report.stages] == ["rows", "columns"]
        assert report.elapsed_seconds > 0
        assert report.elapsed_seconds == pytest.approx(
            report.compute_seconds + report.communication_seconds
        )

    def test_more_cores_reduce_elapsed_time(self):
        """Scalability: the whole point of Algorithm 1."""
        x = np.random.default_rng(2).standard_normal((64, 64))
        chip = make_tpu_chip(num_cores=8, precision="fp32", mxu_rows=8, mxu_cols=8)
        _, report_1 = DecomposedFourier(chip, cores=1).fft2(x)
        chip.reset()
        _, report_8 = DecomposedFourier(chip, cores=8).fft2(x)
        assert report_8.compute_seconds < report_1.compute_seconds

    def test_single_core_has_no_communication(self):
        chip = small_chip(num_cores=1)
        x = np.random.default_rng(3).standard_normal((8, 8))
        _, report = DecomposedFourier(chip).fft2(x)
        assert report.communication_seconds == 0.0

    def test_stage_balance(self):
        """Balanced shards: core times within a stage are comparable."""
        chip = small_chip(num_cores=4)
        x = np.random.default_rng(4).standard_normal((16, 16))
        _, report = DecomposedFourier(chip, cores=4).fft2(x)
        for stage in report.stages:
            times = np.array(stage.per_core_seconds)
            assert times.max() <= 2.0 * times.min() + 1e-12

    def test_cores_bounded_by_extent(self):
        """A 4x4 transform on 8 cores uses at most 4 per stage."""
        chip = small_chip(num_cores=8)
        x = np.random.default_rng(5).standard_normal((4, 4))
        result, report = DecomposedFourier(chip).fft2(x)
        np.testing.assert_allclose(result, fft2(x), atol=1e-6)
        for stage in report.stages:
            assert len(stage.per_core_seconds) <= 4

    def test_bf16_chip_close_to_exact(self):
        chip = small_chip(precision="bf16")
        x = np.random.default_rng(6).standard_normal((8, 8))
        result, _ = DecomposedFourier(chip).fft2(x)
        exact = fft2(x)
        assert np.max(np.abs(result - exact)) < 0.05 * np.max(np.abs(exact)) + 0.05

    def test_validation(self):
        chip = small_chip(num_cores=2)
        with pytest.raises(ValueError):
            DecomposedFourier(chip, cores=5)
        with pytest.raises(ValueError):
            DecomposedFourier(chip).fft2(np.ones(4))
        with pytest.raises(ValueError):
            DecomposedFourier(chip).ifft2(np.ones((2, 2, 2)))


#: Square, odd, 1xN and Nx1 planes, wider and narrower than the chips.
PRICED_SHAPES = [(16, 16), (64, 64), (100, 100), (9, 7), (13, 13), (1, 8), (8, 1)]


class TestOnePrice:
    """The executed schedule reports the backend's formula, bit for bit."""

    @pytest.mark.parametrize(
        "cores, mxu, precision, topology",
        [
            (1, 8, "fp32", "ring"),
            (1, 256, "int8", "torus2d"),
            (2, 16, "bf16", "ring"),
            (2, 8, "int8", "torus2d"),
            (3, 256, "fp32", "ring"),
            (3, 16, "bf16", "torus2d"),
            (8, 16, "fp32", "ring"),
            (8, 256, "bf16", "torus2d"),
            (16, 8, "bf16", "ring"),
            (16, 16, "int8", "torus2d"),
            (128, 256, "bf16", "ring"),
            (128, 8, "fp32", "torus2d"),
        ],
    )
    def test_report_equals_fft2_seconds(self, cores, mxu, precision, topology):
        chip = make_tpu_chip(
            num_cores=cores, precision=precision, mxu_rows=mxu, mxu_cols=mxu,
            interconnect=InterconnectConfig(topology=topology),
        )
        executor = DecomposedFourier(chip)
        rng = np.random.default_rng(cores)
        for shape in PRICED_SHAPES:
            formula = TpuBackend(chip).fft2_seconds(*shape)
            x = rng.standard_normal(shape)
            for transform in (executor.fft2, executor.ifft2):
                _, report = transform(x)
                assert report.elapsed_seconds == formula, (shape, transform.__name__)

    @pytest.mark.parametrize("cores", [1, 2, 3, 5, 8])
    def test_a_core_subset_prices_like_a_smaller_chip(self, cores):
        chip = make_tpu_chip(num_cores=8, precision="fp32", mxu_rows=16, mxu_cols=16)
        smaller = TpuBackend(
            make_tpu_chip(num_cores=cores, precision="fp32", mxu_rows=16, mxu_cols=16)
        )
        executor = DecomposedFourier(chip, cores=cores)
        rng = np.random.default_rng(cores)
        for shape in PRICED_SHAPES:
            x = rng.standard_normal(shape)
            for transform in (executor.fft2, executor.ifft2):
                _, report = transform(x)
                assert report.elapsed_seconds == smaller.fft2_seconds(*shape), shape

    def test_each_core_ledger_holds_its_shard_price(self):
        chip = make_tpu_chip(num_cores=3, precision="fp32", mxu_rows=8, mxu_cols=8)
        x = np.random.default_rng(7).standard_normal((10, 7))
        _, report = DecomposedFourier(chip).fft2(x)
        rows, columns = report.stages
        for core, row_seconds, column_seconds in zip(
            chip.cores, rows.per_core_seconds, columns.per_core_seconds
        ):
            assert core.stats.seconds == row_seconds + column_seconds
        assert [len(stage.per_core_seconds) for stage in report.stages] == [3, 3]
        assert rows.per_core_seconds[0] > rows.per_core_seconds[2]


class TestProperties:
    @given(
        m=st.sampled_from([4, 8, 12, 16]),
        n=st.sampled_from([4, 8, 12, 16]),
        cores=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=20, deadline=None)
    def test_merge_matches_fft2_property(self, m, n, cores, seed):
        chip = small_chip(num_cores=4)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((m, n))
        result, _ = DecomposedFourier(chip, cores=cores).fft2(x)
        np.testing.assert_allclose(result, fft2(x), atol=1e-5)
