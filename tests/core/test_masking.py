"""Batched occlusion engine: mask plan semantics and batched == the looped reference."""

import re

import numpy as np
import pytest

from repro.core import (
    FleetExecutor,
    MaskSpec,
    MaskStackBudgetError,
    TpuBackend,
    check_stack_budget,
    make_tpu_chip,
    reduce_batch,
    score_plan,
)
from repro.core.fleet import wave_row_map
from repro.core.masking import DEFAULT_CHUNK_ROWS, fill_for, fill_sources, masked_windows
from repro.core.pipeline import ExplanationPipeline
from repro.fft import fft_circular_convolve2d, kernel_spectrum_cache_info
from repro.hw import CpuDevice, GpuDevice
from tests import reference


def fitted_setup(shape=(8, 8), seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape)
    x[0, 0] += 5.0 * np.prod(shape) ** 0.5
    kernel = rng.standard_normal(shape)
    y = fft_circular_convolve2d(x, kernel)
    return x, kernel, y


def small_backend(num_cores=4):
    return TpuBackend(
        make_tpu_chip(num_cores=num_cores, precision="fp32", mxu_rows=8, mxu_cols=8)
    )


PLANS = [
    ("elements", lambda shape: MaskSpec.elements(shape)),
    ("blocks", lambda shape: MaskSpec.blocks(shape, (2, 2))),
    ("columns", lambda shape: MaskSpec.columns(shape)),
    ("rows", lambda shape: MaskSpec.rows(shape)),
]


def expand_bands(plan, index):
    """The bool masks ``index`` of ``plan``, each its
    :meth:`MaskSpec.bands_at` band of rows times its columns."""
    start, height, cols = plan.bands_at(index)
    masks = np.zeros((start.size, *plan.plane_shape), dtype=bool)
    for i, row in enumerate(start):
        masks[i, row : row + height] = cols[i]
    return masks


def all_masks(plan):
    return expand_bands(plan, np.arange(plan.num_masks))


def device_scores(device, x, kernel, y, plan, chunk_rows=DEFAULT_CHUNK_ROWS, precision=None):
    """Eq. 5's l2 scores on ``device``: ``plan``'s
    :meth:`MaskSpec.apply_chunks` through its
    :meth:`~repro.hw.device.Device.conv2d_circular_batch_chunks`."""
    scores = np.empty(plan.num_masks)
    for convolved, rows in device.conv2d_circular_batch_chunks(
        plan.apply_chunks(x, chunk_rows=chunk_rows), kernel,
        num_rows=plan.num_masks, precision=precision,
    ):
        scores[rows.start : rows.stop] = reduce_batch(y - convolved, "l2")
    return plan.reshape_scores(scores)


def looped(x, kernel, y, plan, device=None, **options):
    """The reference loop: one masked re-convolution per feature."""
    return reference.occlusion_scores(
        x, kernel, y, plan.granularity, plan.block_shape, device=device, **options
    )


class TestMaskPlanConstruction:
    def test_elements_plan_shape_and_labels(self):
        plan = MaskSpec.elements((3, 4))
        assert plan.num_masks == 12
        assert plan.output_shape == (3, 4)
        assert plan.plane_shape == (3, 4)
        assert plan.labels[5] == (1, 1)  # row-major ordering
        # Each mask occludes exactly its one element.
        masks = all_masks(plan)
        assert masks.sum() == 12
        assert masks[5, 1, 1]

    def test_blocks_plan_tiles_exactly_once(self):
        plan = MaskSpec.blocks((8, 8), (2, 4))
        assert plan.output_shape == (4, 2)
        assert plan.granularity == "blocks"
        # The union of all masks covers the plane exactly once.
        np.testing.assert_array_equal(
            all_masks(plan).sum(axis=0), np.ones((8, 8), dtype=int)
        )

    def test_columns_and_rows_plans(self):
        cols = all_masks(MaskSpec.columns((3, 5)))
        assert len(cols) == 5
        assert cols[2, :, 2].all() and cols[2].sum() == 3
        rows = all_masks(MaskSpec.rows((3, 5)))
        assert len(rows) == 3
        assert rows[1, 1, :].all() and rows[1].sum() == 5

    def test_for_granularity_dispatch(self):
        assert MaskSpec.for_granularity("columns", (4, 6)).num_masks == 6
        assert MaskSpec.for_granularity("blocks", (4, 4), (2, 2)).num_masks == 4
        with pytest.raises(ValueError):
            MaskSpec.for_granularity("blocks", (4, 4))
        with pytest.raises(ValueError):
            MaskSpec.for_granularity("pixels", (4, 4))

    def test_invalid_plans_rejected(self):
        with pytest.raises(ValueError):
            MaskSpec.blocks((8, 8), (3, 3))  # does not tile
        with pytest.raises(ValueError):
            MaskSpec.blocks((8, 8), (0, 2))
        with pytest.raises(ValueError):
            MaskSpec.rows((0, 4))
        with pytest.raises(ValueError, match="mask indices"):
            MaskSpec.rows((4, 4)).bands_at(np.arange(2, 9))

    def test_apply_fills_masked_features(self):
        plan = MaskSpec.columns((2, 3))
        x = np.arange(6.0).reshape(2, 3)
        stacked = np.concatenate(
            [chunk for chunk, _ in plan.apply_chunks(x, fill_value=-1.0)]
        )
        assert stacked.shape == (3, 2, 3)
        np.testing.assert_array_equal(stacked[1][:, 1], [-1.0, -1.0])
        np.testing.assert_array_equal(stacked[1][:, 0], x[:, 0])

    def test_apply_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MaskSpec.rows((4, 4)).apply_chunks(np.ones((5, 5)))

    @pytest.mark.parametrize(
        "plan",
        [
            MaskSpec.elements((5, 7)),
            MaskSpec.blocks((6, 9), (3, 3)),
            MaskSpec.blocks((8, 8), (1, 8)),
            MaskSpec.columns((5, 7)),
            MaskSpec.rows((5, 7)),
        ],
        ids=lambda plan: f"{plan.granularity}{plan.block_shape or ''}",
    )
    def test_windows_at_any_indices_match_the_definition(self, plan):
        """The one builder of masked planes equals each mask built from
        its definition, for indices in any order and with repeats."""
        defined = [mask for _, mask in reference.masks(
            plan.granularity, plan.plane_shape, plan.block_shape
        )]
        x = np.arange(float(np.prod(plan.plane_shape))).reshape(plan.plane_shape)
        sources, fills = fill_sources(x[np.newaxis], [fill_for(x.dtype, -1.5)])

        def windows(index):
            index = np.asarray(index, dtype=np.intp)
            return list(masked_windows(
                sources, fills, plan, np.zeros_like(index), index,
                np.ones(index.size, bool), 3,
            ))

        index = np.array([plan.num_masks - 1, 0, plan.num_masks // 2, 0])
        built = np.concatenate([planes for planes, _ in windows(index)])
        assert built.dtype == x.dtype and built.shape == (4, *plan.plane_shape)
        np.testing.assert_array_equal(
            built, np.stack([np.where(defined[i], -1.5, x) for i in index])
        )
        assert windows([]) == []
        with pytest.raises(ValueError, match="mask indices"):
            windows([plan.num_masks])

    @pytest.mark.parametrize(
        "plan",
        [
            MaskSpec.elements((5, 7)),
            MaskSpec.elements((7, 7)),
            MaskSpec.blocks((6, 9), (3, 3)),
            MaskSpec.blocks((8, 8), (1, 8)),
            MaskSpec.blocks((13, 11), (13, 1)),
            MaskSpec.columns((5, 7)),
            MaskSpec.columns((11, 13)),
            MaskSpec.rows((5, 7)),
            MaskSpec.rows((13, 1)),
        ],
        ids=lambda plan: f"{plan.granularity}{plan.block_shape or ''}{plan.plane_shape}",
    )
    def test_bands_reproduce_masks_and_the_definition(self, plan):
        """Each mask is its band of rows times its column set: expanding
        the bands gives the reference masks, for indices in any order
        and with repeats, and no mask reaches a row outside its band."""
        defined = [mask for _, mask in reference.masks(
            plan.granularity, plan.plane_shape, plan.block_shape
        )]
        rng = np.random.default_rng(plan.num_masks)
        index = np.concatenate([
            [plan.num_masks - 1, 0, plan.num_masks // 2, 0],
            rng.integers(0, plan.num_masks, 6),
        ])
        start, height, cols = plan.bands_at(index)
        m, n = plan.plane_shape
        assert cols.dtype == bool and cols.shape == (index.size, 1, n)
        assert 1 <= height <= m and ((start >= 0) & (start + height <= m)).all()
        expanded = expand_bands(plan, index)
        np.testing.assert_array_equal(expanded, np.stack([defined[i] for i in index]))
        empty_start, _, empty_cols = plan.bands_at([])
        assert empty_start.shape == (0,) and empty_cols.shape == (0, 1, n)
        with pytest.raises(ValueError, match="mask indices"):
            plan.bands_at([-1])

    def test_reshape_scores_round_trip(self):
        plan = MaskSpec.blocks((4, 4), (2, 2))
        grid = plan.reshape_scores(np.arange(4.0))
        assert grid.shape == (2, 2)
        with pytest.raises(ValueError):
            plan.reshape_scores(np.arange(5.0))


class TestReduceBatch:
    """``reduce_batch`` equals the reference's one-plane reduction bit for bit."""

    @staticmethod
    def special_planes(dtype):
        info = np.finfo(dtype)
        tiny = info.smallest_subnormal
        near = np.sqrt(info.max)  # squares to just under the largest finite value
        with np.errstate(invalid="ignore"):  # the hardware's default NaN
            nan = np.array(np.inf, dtype) - np.array(np.inf, dtype)
        planes = [
            [[-0.0, -0.0, 0.0], [-0.0, 0.0, -0.0]],
            [[tiny, -tiny, 3 * tiny], [info.tiny, -info.tiny / 4, 1.0]],
            [[0.999 * near, -0.7 * near, 1.0], [0.5 * near, -2.0, 0.25]],
            [[near, near, -near], [near, -near, near]],
            [[info.max, -info.max, 1.0], [0.0, 1.0, 2.0]],
            [[np.inf, 1.0, -2.0], [3.0, -4.0, 5.0]],
            [[-np.inf, np.inf, 0.0], [1.0, 1.0, 1.0]],
            [[np.nan, 1.0, 2.0], [-3.0, np.inf, 0.0]],
            [[nan, -1.0, 2.0], [0.0, -0.0, 1.5]],
            [[-np.nan, nan, -np.inf], [info.eps, -1 / info.eps, 7.0]],
        ]
        return np.array(planes, dtype=dtype)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.longdouble])
    @pytest.mark.parametrize("reduction", ["l2", "l1", "mean_abs", "max_abs"])
    def test_real_deltas_match_reference_bit_for_bit(self, dtype, reduction):
        deltas = self.special_planes(dtype)
        with np.errstate(over="ignore", invalid="ignore"):
            batched = reduce_batch(deltas, reduction)
            expected = np.array([reference.reduce(plane, reduction) for plane in deltas])
        assert batched.dtype == expected.dtype
        if dtype == np.longdouble:  # padding bytes carry no value
            np.testing.assert_array_equal(batched, expected)
            np.testing.assert_array_equal(np.signbit(batched), np.signbit(expected))
        else:
            assert batched.tobytes() == expected.tobytes()


class TestBatchedEqualsLooped:
    @pytest.mark.parametrize("name,make_plan", PLANS)
    @pytest.mark.parametrize("reduction", ["l2", "l1", "mean_abs", "max_abs"])
    def test_all_granularities_and_reductions(self, name, make_plan, reduction):
        x, kernel, y = fitted_setup(seed=3)
        plan = make_plan(x.shape)
        batched = score_plan(x, kernel, y, plan, reduction=reduction)
        np.testing.assert_array_equal(
            batched, looped(x, kernel, y, plan, reduction=reduction)
        )
        assert batched.shape == plan.output_shape

    def test_non_zero_fill_value_under_batching(self):
        x, kernel, y = fitted_setup(seed=4)
        plan = MaskSpec.blocks(x.shape, (4, 4))
        fill = float(x.mean())
        batched = score_plan(x, kernel, y, plan, fill_value=fill)
        np.testing.assert_array_equal(
            batched, looped(x, kernel, y, plan, fill_value=fill)
        )
        # A non-zero baseline genuinely changes the scores.
        zero_fill = score_plan(x, kernel, y, plan)
        assert not np.allclose(batched, zero_fill)

    def test_non_square_plane(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 8))
        kernel = rng.standard_normal((4, 8))
        y = fft_circular_convolve2d(x, kernel)
        plan = MaskSpec.columns(x.shape)
        np.testing.assert_array_equal(
            score_plan(x, kernel, y, plan), looped(x, kernel, y, plan)
        )

    def test_device_and_pure_numpy_agree(self):
        x, kernel, y = fitted_setup(seed=6)
        plan = MaskSpec.rows(x.shape)
        pure = score_plan(x, kernel, y, plan)
        on_cpu = device_scores(CpuDevice(), x, kernel, y, plan)
        np.testing.assert_array_equal(pure, on_cpu)

    def test_validation(self):
        x, kernel, y = fitted_setup(seed=7)
        plan = MaskSpec.columns(x.shape)
        with pytest.raises(ValueError):
            score_plan(x, kernel, y, plan, reduction="median")
        with pytest.raises(ValueError):
            score_plan(x, kernel, np.ones((4, 4)), plan)
        with pytest.raises(ValueError):
            score_plan(x, kernel, y, MaskSpec.columns((4, 4)))


class TestOneBuilder:
    """``score_plan``, ``apply_chunks`` and a fleet's windows build their
    masked planes with one builder, so each equals the materialized
    ``np.where(mask, fill, x)`` planes with ``==``, dtype included."""

    @pytest.mark.parametrize("fill_value", [0.0, 0.1, -2.5, 3, np.float32(0.7)], ids=repr)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int32, np.complex128])
    def test_planes_and_scores_equal_the_masked_planes(self, dtype, fill_value):
        rng = np.random.default_rng(31)
        plan = MaskSpec.blocks((6, 10), (3, 5))
        x = (4 * rng.standard_normal(plan.plane_shape)).astype(dtype)
        if dtype == np.complex128:
            x += 1j * rng.standard_normal(plan.plane_shape)
        kernel = rng.standard_normal(plan.plane_shape)
        y = fft_circular_convolve2d(x, kernel)
        masks = [mask for _, mask in reference.masks("blocks", plan.plane_shape, (3, 5))]
        expected = np.stack([np.where(mask, fill_value, x) for mask in masks])

        chunks = list(plan.apply_chunks(x, fill_value, 3))
        assert [rows for _, rows in chunks] == [range(0, 3), range(3, 4)]
        planes = np.concatenate([chunk for chunk, _ in chunks])
        assert planes.dtype == expected.dtype and planes.tobytes() == expected.tobytes()

        executor = FleetExecutor(CpuDevice(), granularity="rows", fill_value=fill_value)
        row_pair, row_slot, is_mask = wave_row_map([plan.num_masks] * 2)
        sources, fills = fill_sources(
            np.stack([x, x]), [executor._fill_for(x.dtype)] * 2
        )
        windows = np.concatenate([planes for planes, _ in masked_windows(
            sources, fills, plan, row_pair, row_slot, is_mask, 3
        )])
        stacked = np.concatenate([expected, x[np.newaxis]] * 2)
        assert windows.dtype == stacked.dtype and windows.tobytes() == stacked.tobytes()

        for reduction in ("l2", "l1"):
            scores = score_plan(x, kernel, y, plan, reduction=reduction, fill_value=fill_value)
            looped_scores = reference.occlusion_scores(
                x, kernel, y, "blocks", (3, 5), reduction=reduction, fill_value=fill_value
            )
            assert scores.tobytes() == looped_scores.tobytes()


class TestScorePlanLeavesKernelSpectrumCache:
    """``score_plan`` of real planes transforms its kernel itself, as a
    fleet wave does, so it neither reads nor fills the kernel-spectrum
    cache; complex planes under a real kernel still take the full
    spectrum from it."""

    @pytest.mark.parametrize("precision", [None, "bf16", "int8"])
    @pytest.mark.parametrize("name,make_plan", PLANS)
    def test_real_planes(self, name, make_plan, precision):
        x, kernel, y = fitted_setup(seed=12)
        plan = make_plan(x.shape)
        before = kernel_spectrum_cache_info()
        scores = score_plan(x, kernel, y, plan, precision=precision)
        assert kernel_spectrum_cache_info() == before
        np.testing.assert_array_equal(
            scores, looped(x, kernel, y, plan, precision=precision)
        )

    def test_complex_planes_read_the_full_spectrum(self):
        x, kernel, y = fitted_setup(seed=13)
        x = x + 1j * np.ones_like(x)
        plan = MaskSpec.columns(x.shape)
        before = kernel_spectrum_cache_info()
        score_plan(x, kernel, y, plan)
        after = kernel_spectrum_cache_info()
        assert after["hits"] + after["misses"] == before["hits"] + before["misses"] + 1


def convolve_stack(device, stack, kernel, row_kernel=None):
    """The whole stack as one chunk through the device's batched convolution."""
    stack = np.asarray(stack)
    (convolved, _), = device.conv2d_circular_batch_chunks(
        [(stack, range(len(stack)))], kernel, num_rows=len(stack),
        row_kernel=row_kernel,
    )
    return convolved


class TestBatchedDeviceAccounting:
    """The acceptance contract: kernel spectrum once per plan, one TPU
    dispatch per standalone plan, per-op records on eager backends."""

    def test_kernel_spectrum_computed_once_per_plan(self):
        x, kernel, y = fitted_setup()
        for device in (CpuDevice(), GpuDevice(), small_backend()):
            plan = MaskSpec.blocks(x.shape, (2, 2))
            device_scores(device, x, kernel, y, plan)
            assert device.stats.op_counts["fft2"] == 1

    def test_cpu_and_gpu_record_per_op_batch_entries(self):
        x, kernel, y = fitted_setup(seed=1)
        plan = MaskSpec.blocks(x.shape, (2, 2))
        for device in (CpuDevice(), GpuDevice()):
            device_scores(device, x, kernel, y, plan)
            counts = device.stats.op_counts
            assert counts["fft2_batch"] == plan.num_masks
            assert counts["ifft2_batch"] == plan.num_masks
            assert counts["hadamard_mul_batch"] == plan.num_masks
            assert "dispatch" not in counts

    def test_tpu_standalone_plan_records_one_dispatch(self):
        x, kernel, y = fitted_setup(seed=2)
        backend = small_backend()
        plan = MaskSpec.columns(x.shape)
        device_scores(backend, x, kernel, y, plan)
        counts = backend.stats.op_counts
        assert counts["dispatch"] == 1
        assert counts["conv2d_batch"] == 1
        assert counts["infeed"] == 1 and counts["outfeed"] == 1
        assert "fft2_batch" not in counts

    def test_tpu_plan_inside_program_adds_no_dispatch(self):
        x, kernel, y = fitted_setup(seed=3)
        backend = small_backend()
        plan = MaskSpec.columns(x.shape)
        with backend.program(infeed_bytes=x.nbytes):
            device_scores(backend, x, kernel, y, plan)
        counts = backend.stats.op_counts
        assert counts["dispatch"] == 1  # the program's own dispatch only
        assert counts["conv2d_batch"] == 1

    def test_loop_mode_still_pays_per_mask_round_trips(self):
        x, kernel, y = fitted_setup(seed=4)
        backend = small_backend()
        plan = MaskSpec.columns(x.shape)
        looped(x, kernel, y, plan, device=backend)
        assert backend.stats.op_counts["conv_round_trip"] == plan.num_masks

    def test_batched_cheaper_than_looped_on_every_backend(self):
        for device_factory in (CpuDevice, GpuDevice, small_backend):
            x, kernel, y = fitted_setup(seed=5)
            plan = MaskSpec.elements(x.shape)
            looped_device = device_factory()
            looped(x, kernel, y, plan, device=looped_device)
            batched_device = device_factory()
            device_scores(batched_device, x, kernel, y, plan)
            assert batched_device.stats.seconds < looped_device.stats.seconds

    def test_batch_conv_seconds_validation(self):
        with pytest.raises(ValueError):
            CpuDevice().batch_conv_seconds(0, 8, 8)
        with pytest.raises(ValueError):
            small_backend().batch_conv_seconds(-1, 8, 8)

    def test_conv2d_circular_batch_validation(self):
        device = CpuDevice()
        with pytest.raises(ValueError):
            convolve_stack(device, np.ones((4, 4)), np.ones((4, 4)))
        with pytest.raises(ValueError):
            convolve_stack(device, np.ones((2, 4, 4)), np.ones((5, 5)))

    def test_conv2d_circular_batch_kernel_stack_matches_per_kernel(self):
        """The wave form: per-row kernels, bit-identical to convolving
        each row against its own kernel separately."""
        rng = np.random.default_rng(12)
        stack = rng.standard_normal((5, 6, 6))
        kernels = rng.standard_normal((2, 6, 6))
        row_kernel = np.array([0, 1, 1, 0, 1])
        fused = convolve_stack(CpuDevice(), stack, kernels, row_kernel=row_kernel)
        for row, (plane, which) in enumerate(zip(stack, row_kernel)):
            np.testing.assert_array_equal(
                fused[row],
                fft_circular_convolve2d(plane, kernels[which]),
            )

    def test_kernel_stack_requires_row_map(self):
        device = CpuDevice()
        with pytest.raises(ValueError):
            convolve_stack(device, np.ones((2, 4, 4)), np.ones((2, 4, 4)))
        with pytest.raises(ValueError):
            convolve_stack(
                device, np.ones((2, 4, 4)), np.ones((4, 4)), row_kernel=np.array([0, 0])
            )
        with pytest.raises(ValueError):
            convolve_stack(
                device, np.ones((2, 4, 4)), np.ones((2, 4, 4)), row_kernel=np.array([0, 5])
            )

    def test_kernel_spectrum_batch_accounting(self):
        """Eager backends record one fft2 launch per kernel; the TPU
        records one fused spectrum-batch program."""
        stack = np.ones((3, 4, 4))
        kernels = np.ones((3, 4, 4))
        rows = np.arange(3)
        cpu = CpuDevice()
        convolve_stack(cpu, stack, kernels, row_kernel=rows)
        assert cpu.stats.op_counts["fft2_kernel"] == 3
        tpu = small_backend()
        convolve_stack(tpu, stack, kernels, row_kernel=rows)
        assert tpu.stats.op_counts["fft2_kernel_batch"] == 1
        assert tpu.stats.op_seconds["fft2_kernel_batch"] == pytest.approx(
            tpu.kernel_spectrum_batch_seconds(3, 4, 4)
        )

    def test_kernel_spectrum_batch_seconds_validation(self):
        with pytest.raises(ValueError):
            CpuDevice().kernel_spectrum_batch_seconds(0, 4, 4)
        with pytest.raises(ValueError):
            small_backend().kernel_spectrum_batch_seconds(-1, 4, 4)

    def test_conv2d_circular_batch_matches_looped_convolutions(self):
        rng = np.random.default_rng(8)
        stack = rng.standard_normal((5, 6, 6))
        kernel = rng.standard_normal((6, 6))
        batched = convolve_stack(CpuDevice(), stack, kernel)
        for plane, expected in zip(stack, batched):
            np.testing.assert_array_equal(fft_circular_convolve2d(plane, kernel), expected)


class TestPipelineMethods:
    @pytest.mark.parametrize("granularity,kwargs", [
        ("blocks", {"block_shape": (2, 2)}),
        ("columns", {}),
        ("rows", {}),
        ("elements", {}),
    ])
    def test_batched_and_loop_pipelines_agree(self, granularity, kwargs):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((8, 8))
        x[0, 0] += 40.0
        kernel = rng.standard_normal((8, 8))
        y = fft_circular_convolve2d(x, kernel)
        run = ExplanationPipeline(
            CpuDevice(), granularity=granularity, eps=1e-8, **kwargs
        ).run([(x, y)])
        (expected,) = reference.explain_all(
            [(x, y)], device=CpuDevice(), granularity=granularity, eps=1e-8, **kwargs
        )
        np.testing.assert_allclose(
            run.explanations[0].scores, expected.scores, rtol=1e-9, atol=0
        )

    def test_batched_pipeline_simulated_faster(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((16, 16))
        x[0, 0] += 80.0
        kernel = rng.standard_normal((16, 16))
        y = fft_circular_convolve2d(x, kernel)
        batched = ExplanationPipeline(
            small_backend(), granularity="blocks", block_shape=(2, 2), eps=1e-8,
        ).run([(x, y)]).simulated_seconds
        backend = small_backend()
        reference.explain_all(
            [(x, y)], device=backend, granularity="blocks", block_shape=(2, 2), eps=1e-8
        )
        assert batched < backend.stats.seconds

    def test_tpu_batched_pipeline_one_dispatch_per_pair(self):
        rng = np.random.default_rng(11)
        pairs = []
        for _ in range(2):
            x = rng.standard_normal((8, 8))
            x[0, 0] += 40.0
            kernel = rng.standard_normal((8, 8))
            pairs.append((x, fft_circular_convolve2d(x, kernel)))
        pipeline = ExplanationPipeline(
            small_backend(), granularity="blocks", block_shape=(4, 4), eps=1e-8,
            max_pairs_per_wave=1,
        )
        run = pipeline.run(pairs)
        # One program dispatch per one-pair wave; the batched plan and
        # the residual row (fused into the wave) add none.
        assert run.stats.op_counts["dispatch"] == 2
        assert "conv_round_trip" not in run.stats.op_counts


class TestMaskPlanConcat:
    """Several pairs' plans fused into one wave stack."""

    def test_concat_prefixes_labels_with_plan_index(self):
        plans = [MaskSpec.columns((2, 3)), MaskSpec.columns((2, 3))]
        row_pair, row_slot, is_mask = wave_row_map([plan.num_masks for plan in plans])
        fused = [
            (int(pair), *plans[pair].labels[slot])
            for pair, slot in zip(row_pair[is_mask], row_slot[is_mask])
        ]
        assert fused[0] == (0, 0)
        assert fused[3] == (1, 0)
        assert fused[5] == (1, 2)

    def test_concat_scores_equal_individual_plans(self):
        pairs = [fitted_setup(seed=seed)[::2] for seed in (0, 1)]
        executor = FleetExecutor(CpuDevice(), granularity="columns")
        fleet = executor.run(pairs)
        assert fleet.num_waves == 1
        for (x, y), result in zip(pairs, fleet.results):
            (alone,) = executor.run([(x, y)]).results
            np.testing.assert_array_equal(result.scores, alone.scores)
            exact = score_plan(x, result.kernel, y, MaskSpec.columns(x.shape))
            assert reference.relative_error(result.scores, exact) <= reference.SCORE_TOLERANCE


class TestStackBudget:
    def test_check_stack_budget_passes_and_raises(self):
        check_stack_budget(100, 100)
        check_stack_budget(10**12, None)  # None disables the guard
        with pytest.raises(MaskStackBudgetError, match="max_stack_bytes"):
            check_stack_budget(101, 100)

    def test_score_plan_honors_budget(self):
        x, kernel, y = fitted_setup()
        plan = MaskSpec.columns(x.shape)
        plane_bytes = x.size * 8
        with pytest.raises(MaskStackBudgetError, match="single plane"):
            score_plan(x, kernel, y, plan, max_stack_bytes=plane_bytes - 1)
        # A budget of one plane streams one mask at a time, unchanged.
        scores = score_plan(x, kernel, y, plan, max_stack_bytes=plane_bytes)
        np.testing.assert_array_equal(scores, looped(x, kernel, y, plan))


#: One of each kind of fill that is not a finite real number: complex
#: (even with a zero imaginary part), NaN, +-inf, and non-numbers.
BAD_FILLS = (1j, np.complex128(0.5), np.nan, np.inf, -np.inf, "0.0", None, True)


def _fill_entry_points():
    """Each place a fill enters, as ``name -> call(fill_value)``."""
    from repro.baselines import (
        occlusion_column_saliency,
        occlusion_plan_saliency,
        occlusion_saliency,
    )
    from repro.core import (
        block_contributions,
        column_contributions,
        row_contributions,
    )
    from repro.serve import ExplanationService

    x, kernel, y = fitted_setup()
    plan = MaskSpec.columns(x.shape)

    def model(plane):
        raise AssertionError("the model was queried before the fill was checked")

    return {
        "FleetExecutor": lambda fill: FleetExecutor(
            CpuDevice(), granularity="columns", fill_value=fill
        ),
        "ExplanationService": lambda fill: ExplanationService(
            CpuDevice(), granularity="columns", fill_value=fill, metrics_name=None
        ),
        "apply_chunks": lambda fill: plan.apply_chunks(x, fill_value=fill),
        "score_plan": lambda fill: score_plan(x, kernel, y, plan, fill_value=fill),
        "block_contributions": lambda fill: block_contributions(
            x, kernel, y, (2, 2), fill_value=fill
        ),
        "column_contributions": lambda fill: column_contributions(
            x, kernel, y, fill_value=fill
        ),
        "row_contributions": lambda fill: row_contributions(x, kernel, y, fill_value=fill),
        "occlusion_plan_saliency": lambda fill: occlusion_plan_saliency(
            model, x, plan, fill_value=fill
        ),
        "occlusion_saliency": lambda fill: occlusion_saliency(
            model, x, (2, 2), fill_value=fill
        ),
        "occlusion_column_saliency": lambda fill: occlusion_column_saliency(
            model, x, fill_value=fill
        ),
    }


class TestFillValueCheck:
    @pytest.mark.parametrize("entry", sorted(_fill_entry_points()))
    def test_entry_point_refuses_every_bad_fill_naming_it(self, entry):
        call = _fill_entry_points()[entry]
        for fill in BAD_FILLS:
            with pytest.raises(ValueError, match=re.escape(f"got {fill!r}")):
                call(fill)

    def test_finite_real_fills_pass_unchanged(self):
        from repro.core.masking import check_fill_value

        x, kernel, y = fitted_setup()
        plan = MaskSpec.blocks(x.shape, (2, 2))
        for fill in (0, 0.0, 0.1, 0.37, -2.5, np.float32(0.5), np.int64(-3)):
            check_fill_value(fill)
            chunk, _ = next(plan.apply_chunks(x, fill_value=fill))
            assert (chunk[0][:2, :2] == fill).all()
            assert chunk.dtype == np.result_type(x, fill)
