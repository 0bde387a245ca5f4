"""Streaming fleet executor: lazy MaskSpec chunks + pipelined waves.

The contracts:

* lazy chunk generation is bit-identical to the masks' definition (the
  literal reference) at every chunk size;
* streamed chunked scoring equals the reference loop bit-identically,
  for real and complex operands, with a ledger independent of chunk
  size; fleet scores are bit-identical at every chunk size and match
  the loop as :func:`tests.reference.assert_matches` requires;
* a plan whose whole stack exceeds ``max_stack_bytes`` streams to
  completion (the budget bounds the chunk only);
* double-buffered waves finish no later than the same waves run one
  after another, with identical per-device compute stats and dispatch
  counts, strictly earlier once waves overlap.
"""

import numpy as np
import pytest

from repro.core import (
    DEFAULT_CHUNK_ROWS,
    ExplanationPipeline,
    FleetExecutor,
    FleetSchedule,
    MaskSpec,
    MaskStackBudgetError,
    TpuBackend,
    effective_chunk_rows,
    make_tpu_chip,
    score_plan,
)
from repro.fft import fft, fft_circular_convolve2d, ifft, irfft2_batch, rfft, rfft2_batch
from repro.fft.convolution import (
    _bin_major,
    _convolve_bin_major,
    fft_circular_convolve2d_chunks,
)
from repro.fft.spectra import value_buffer
from repro.hw.cpu import CpuDevice
from repro.hw.device import PipelineStage, pipelined_elapsed_seconds
from repro.hw.gpu import GpuDevice
from tests import reference

SPECS = [
    ("elements", lambda shape: MaskSpec.elements(shape)),
    ("blocks", lambda shape: MaskSpec.blocks(shape, (2, 2))),
    ("columns", lambda shape: MaskSpec.columns(shape)),
    ("rows", lambda shape: MaskSpec.rows(shape)),
]


def small_backend(num_cores=4):
    return TpuBackend(
        make_tpu_chip(num_cores=num_cores, precision="fp32", mxu_rows=8, mxu_cols=8)
    )


def fitted_setup(shape=(8, 8), seed=0, complex_input=False):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape)
    if complex_input:
        x = x + 1j * rng.standard_normal(shape)
    else:
        x[0, 0] += 5.0 * np.prod(shape) ** 0.5
    kernel = rng.standard_normal(shape)
    return x, kernel, fft_circular_convolve2d(x, kernel)


def looped(x, kernel, y, spec, **options):
    """The reference loop: one masked re-convolution per feature."""
    return reference.occlusion_scores(
        x, kernel, y, spec.granularity, spec.block_shape, **options
    )


def convolve_stack(stack, kernel, row_kernel=None):
    """The whole stack as one chunk (the unchunked batch)."""
    (convolved, _), = fft_circular_convolve2d_chunks(
        [(stack, range(len(stack)))], kernel, row_kernel=row_kernel,
        num_rows=len(stack),
    )
    return convolved


def assert_same_explanations(results, expected):
    for a, b in zip(results, expected):
        np.testing.assert_array_equal(a.scores, b.scores)
        np.testing.assert_array_equal(a.kernel, b.kernel)
        assert a.residual == b.residual


def planted_pairs(count, shape=(8, 8), seed=0):
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(count):
        x = rng.standard_normal(shape)
        x[0, 0] += 5.0 * np.prod(shape) ** 0.5
        kernel = rng.standard_normal(shape)
        pairs.append((x, fft_circular_convolve2d(x, kernel)))
    return pairs


class TestMaskSpecGeneration:
    @pytest.mark.parametrize("name,make_spec", SPECS)
    @pytest.mark.parametrize("chunk_rows", [1, 3, DEFAULT_CHUNK_ROWS, 10_000])
    def test_chunks_bit_identical_to_dense_constructor(
        self, name, make_spec, chunk_rows
    ):
        spec = make_spec((6, 8))
        dense = np.stack(
            [mask for _, mask in reference.masks(name, (6, 8), spec.block_shape)]
        )
        chunks = list(spec.iter_chunks(chunk_rows))
        np.testing.assert_array_equal(
            np.concatenate([chunk for chunk, _ in chunks]), dense
        )
        # Row ranges tile [0, num_masks) in order, chunk sizes bounded.
        next_row = 0
        for chunk, rows in chunks:
            assert rows.start == next_row and len(rows) == chunk.shape[0]
            assert chunk.shape[0] <= chunk_rows
            next_row = rows.stop
        assert next_row == spec.num_masks

    @pytest.mark.parametrize("name,make_spec", SPECS)
    def test_spec_metadata_matches_dense_plan(self, name, make_spec):
        spec = make_spec((6, 8))
        labels = tuple(
            label for label, _ in reference.masks(name, (6, 8), spec.block_shape)
        )
        assert spec.num_masks == len(labels) == len(spec)
        assert spec.plane_shape == (6, 8)
        assert spec.output_shape == reference.score_shape(name, (6, 8), spec.block_shape)
        assert spec.labels == labels

    def test_apply_chunks_matches_dense_apply(self):
        spec = MaskSpec.blocks((8, 8), (2, 2))
        x = np.arange(64.0).reshape(8, 8)
        dense = np.stack([
            np.where(mask, -2.0, x)
            for _, mask in reference.masks("blocks", (8, 8), (2, 2))
        ])
        streamed = np.concatenate(
            [chunk for chunk, _ in spec.apply_chunks(x, fill_value=-2.0, chunk_rows=5)]
        )
        np.testing.assert_array_equal(streamed, dense)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            MaskSpec("pixels", (4, 4))
        with pytest.raises(ValueError):
            MaskSpec("blocks", (4, 4))  # needs a block shape
        with pytest.raises(ValueError):
            MaskSpec.blocks((4, 4), (3, 3))  # does not tile
        with pytest.raises(ValueError):
            MaskSpec("columns", (4, 4), block_shape=(2, 2))
        with pytest.raises(ValueError):
            MaskSpec.columns((0, 4))
        with pytest.raises(ValueError):
            list(MaskSpec.columns((4, 4)).iter_chunks(0))
        with pytest.raises(ValueError):
            list(MaskSpec.rows((4, 4)).apply_chunks(np.ones((5, 5))))


class TestStreamedScoringEquivalence:
    @pytest.mark.parametrize("name,make_spec", SPECS)
    @pytest.mark.parametrize("complex_input", [False, True], ids=["real", "complex"])
    def test_streamed_equals_dense_equals_loop(self, name, make_spec, complex_input):
        x, kernel, y = fitted_setup(seed=3, complex_input=complex_input)
        spec = make_spec(x.shape)
        streamed = score_plan(x, kernel, y, spec)
        one_chunk = score_plan(x, kernel, y, spec, chunk_rows=spec.num_masks)
        np.testing.assert_array_equal(streamed, one_chunk)
        np.testing.assert_array_equal(streamed, looped(x, kernel, y, spec))

    @pytest.mark.parametrize("chunk_rows", [1, 2, 7, 64])
    def test_chunk_size_never_changes_bits(self, chunk_rows):
        x, kernel, y = fitted_setup(seed=4)
        spec = MaskSpec.elements(x.shape)
        np.testing.assert_array_equal(
            score_plan(x, kernel, y, spec, chunk_rows=chunk_rows),
            looped(x, kernel, y, spec),
        )

    @pytest.mark.parametrize(
        "device_factory", [CpuDevice, GpuDevice, small_backend],
        ids=["cpu", "gpu", "tpu"],
    )
    def test_streamed_device_ledger_identical_to_dense(self, device_factory):
        """Streaming in small chunks costs exactly what one chunk holding
        the whole stack costs."""
        x, kernel, y = fitted_setup(seed=5)
        spec = MaskSpec.columns(x.shape)
        dense_device = device_factory()
        dense = score_plan(
            x, kernel, y, spec, device=dense_device, chunk_rows=spec.num_masks
        )
        streamed_device = device_factory()
        streamed = score_plan(x, kernel, y, spec, device=streamed_device, chunk_rows=3)
        np.testing.assert_array_equal(streamed, dense)
        assert streamed_device.stats.op_counts == dense_device.stats.op_counts
        assert streamed_device.stats.seconds == dense_device.stats.seconds

    def test_over_budget_plan_streams_to_completion(self):
        """The acceptance scenario: num_masks * M * N exceeds the budget
        yet streaming succeeds, bit-identical to the reference loop."""
        x, kernel, y = fitted_setup(seed=6, shape=(16, 16))
        spec = MaskSpec.elements(x.shape)  # 256 masks: 512 KiB whole stack
        budget = spec.num_masks * x.size  # an eighth of it
        streamed = score_plan(x, kernel, y, spec, max_stack_bytes=budget)
        np.testing.assert_array_equal(streamed, looped(x, kernel, y, spec))

    def test_budget_below_one_plane_still_raises(self):
        x, kernel, y = fitted_setup(seed=7)
        plane_bytes = x.size * 8
        with pytest.raises(MaskStackBudgetError, match="single plane"):
            score_plan(
                x, kernel, y, MaskSpec.columns(x.shape),
                max_stack_bytes=plane_bytes - 1,
            )

    def test_effective_chunk_rows_clamps_to_budget(self):
        assert effective_chunk_rows((4, 4), None, None) == DEFAULT_CHUNK_ROWS
        assert effective_chunk_rows((4, 4), 7, None) == 7
        # Budget holds 3 planes of 128 bytes: chunk clamps to 3 rows.
        assert effective_chunk_rows((4, 4), None, 3 * 128) == 3
        with pytest.raises(MaskStackBudgetError):
            effective_chunk_rows((4, 4), None, 127)
        with pytest.raises(ValueError):
            effective_chunk_rows((4, 4), 0, None)


class TestChunkedConvolution:
    def test_chunk_stream_equals_dense_batch(self):
        rng = np.random.default_rng(8)
        stack = rng.standard_normal((9, 5, 6))
        kernels = rng.standard_normal((3, 5, 6))
        row_kernel = np.array([0, 0, 0, 1, 1, 2, 2, 2, 2])
        dense = convolve_stack(stack, kernels, row_kernel=row_kernel)
        chunks = ((stack[s : s + 2], range(s, min(s + 2, 9))) for s in range(0, 9, 2))
        streamed = np.empty_like(dense)
        for convolved, rows in fft_circular_convolve2d_chunks(
            chunks, kernels, row_kernel=row_kernel, num_rows=9
        ):
            streamed[rows.start : rows.stop] = convolved
        np.testing.assert_array_equal(streamed, dense)

    def test_row_map_order_never_changes_bits(self):
        """A shuffled row map gives each row the bits of the sorted one:
        the kernel gather serves any order."""
        rng = np.random.default_rng(9)
        stack = rng.standard_normal((6, 4, 4))
        kernels = rng.standard_normal((2, 4, 4))
        sorted_map = np.array([0, 0, 0, 1, 1, 1])
        permutation = np.array([3, 0, 4, 1, 5, 2])
        shuffled = convolve_stack(
            stack[permutation], kernels, row_kernel=sorted_map[permutation]
        )
        ordered = convolve_stack(stack, kernels, row_kernel=sorted_map)
        np.testing.assert_array_equal(shuffled[np.argsort(permutation)], ordered)

    def test_hadamard_product_keeps_the_wider_kernel_dtype(self):
        """A complex128 window times a clongdouble kernel spectrum is a
        clongdouble product, as ``spectra * kernel`` is: the tail gives
        it its own array and leaves the window at its column FFT.  With
        a kernel spectrum of the window's dtype the product and the
        inverse column FFT run in place in the window."""
        rng = np.random.default_rng(10)
        planes = rng.standard_normal((5, 4, 6))
        half = rfft2_batch(rng.standard_normal((2, 4, 6)))
        row_map = np.array([0, 0, 1, 1, 1])
        for kernel in (half.astype(np.clongdouble), half):
            window = _bin_major(rfft(planes, axis=-1))
            columns = fft(window, axis=-1)
            convolved = _convolve_bin_major(window, _bin_major(kernel), row_map, 6)
            product = rfft2_batch(planes) * kernel[row_map]
            expected = irfft2_batch(product, n=6)
            assert convolved.dtype == expected.dtype == np.finfo(kernel.dtype).dtype
            assert value_buffer(convolved).tobytes() == value_buffer(expected).tobytes()
            if kernel.dtype == np.clongdouble:
                assert window.tobytes() == columns.tobytes()
            else:
                in_place = np.moveaxis(window, 0, -1)
                assert in_place.tobytes() == ifft(product, axis=-2).tobytes()

    def test_desynchronized_chunk_stream_raises(self):
        kernel = np.ones((4, 4))
        with pytest.raises(ValueError, match="desynchronized"):
            list(
                fft_circular_convolve2d_chunks(
                    [(np.ones((2, 4, 4)), range(1, 3))], kernel, num_rows=3
                )
            )
        with pytest.raises(ValueError, match="expected 3 rows"):
            list(
                fft_circular_convolve2d_chunks(
                    [(np.ones((2, 4, 4)), range(0, 2))], kernel, num_rows=3
                )
            )

    def test_device_chunk_stream_validation(self):
        device = CpuDevice()
        with pytest.raises(ValueError):
            device.conv2d_circular_batch_chunks([], np.ones((2, 4, 4)), num_rows=2)
        with pytest.raises(ValueError):
            device.conv2d_circular_batch_chunks(
                [], np.ones((4, 4)), num_rows=0
            )
        with pytest.raises(ValueError):
            device.conv2d_circular_batch_chunks(
                [], np.ones((2, 4, 4)), num_rows=2, row_kernel=np.array([0, 5])
            )
        with pytest.raises(ValueError):
            device.conv2d_circular_batch_chunks(
                [], np.ones((4, 4)), num_rows=2, row_kernel=np.array([0, 0])
            )


class TestPipelinedElapsedFormula:
    def test_single_stage_degenerates_to_serial(self):
        stage = PipelineStage(prologue=2.0, body=5.0, epilogue=1.0)
        assert pipelined_elapsed_seconds([stage]) == stage.total
        assert pipelined_elapsed_seconds([]) == 0.0

    def test_compute_bound_hides_all_infeed(self):
        # infeed_0 + compute_0 + compute_1 + outfeed_1: stage 1's
        # prologue (1.0) hides entirely under stage 0's compute (10.0).
        stages = [
            PipelineStage(1.0, 10.0, 0.5),
            PipelineStage(1.0, 10.0, 0.5),
        ]
        assert pipelined_elapsed_seconds(stages) == 1.0 + 10.5 + 10.0 + 0.5

    def test_infeed_bound_exposes_link_time(self):
        # Infeed dominates: elapsed collapses to the transfer chain.
        stages = [
            PipelineStage(10.0, 1.0, 0.0),
            PipelineStage(10.0, 1.0, 0.0),
        ]
        assert pipelined_elapsed_seconds(stages) == 10.0 + 10.0 + 1.0

    def test_never_exceeds_serial(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            stages = [
                PipelineStage(*rng.uniform(0.0, 3.0, size=3)) for _ in range(5)
            ]
            serial = sum(stage.total for stage in stages)
            assert pipelined_elapsed_seconds(stages) <= serial + 1e-12


class TestPipelinedExecution:
    def _runs(self, device_factory, count=12, wave_width=4):
        """The fleet double-buffered, and its waves run one at a time."""
        pairs = planted_pairs(count)
        options = dict(granularity="columns", eps=1e-8)
        pipelined = ExplanationPipeline(
            device_factory(), max_pairs_per_wave=wave_width, **options
        ).run(pairs)
        waves = [
            ExplanationPipeline(device_factory(), **options).run(
                pairs[start : start + wave_width]
            )
            for start in range(0, count, wave_width)
        ]
        return pairs, pipelined, waves

    @pytest.mark.parametrize(
        "device_factory", [CpuDevice, GpuDevice, small_backend],
        ids=["cpu", "gpu", "tpu"],
    )
    def test_pipelined_at_most_serial_with_identical_compute(self, device_factory):
        pairs, pipelined, waves = self._runs(device_factory)
        serial_seconds = sum(run.simulated_seconds for run in waves)
        assert pipelined.simulated_seconds <= serial_seconds
        serial_ops = {}
        for run in waves:
            for op, count in run.stats.op_counts.items():
                serial_ops[op] = serial_ops.get(op, 0) + count
        pipelined_ops = dict(pipelined.stats.op_counts)
        pipelined_ops.pop("infeed_overlap", None)
        assert pipelined_ops == serial_ops
        assert_same_explanations(
            pipelined.explanations, [e for run in waves for e in run.explanations]
        )
        options = dict(granularity="columns", eps=1e-8)
        expected = reference.explain_all(pairs, device=device_factory(), **options)
        reference.assert_matches(pipelined.explanations, expected, pairs, **options)

    def test_multi_wave_tpu_fleet_strictly_faster_pipelined(self):
        _, pipelined, waves = self._runs(small_backend)
        assert pipelined.simulated_seconds < sum(run.simulated_seconds for run in waves)
        assert pipelined.stats.op_counts["dispatch"] == len(waves) == 3
        # The credited time is exposed on the ledger, once per run.
        assert pipelined.stats.op_counts["infeed_overlap"] == 1
        assert pipelined.stats.op_seconds["infeed_overlap"] < 0

    def test_single_wave_times_identically_either_way(self):
        """One wave has nothing to overlap: no credit, serial cost."""
        run = ExplanationPipeline(
            small_backend(), granularity="columns", eps=1e-8,
        ).run(planted_pairs(4))
        assert run.num_programs == 1
        assert "infeed_overlap" not in run.stats.op_counts
        assert run.simulated_seconds == pytest.approx(
            sum(run.stats.op_seconds.values()), rel=1e-12
        )

    def test_pipeline_scopes_do_not_nest(self):
        device = CpuDevice()
        with device.pipeline():
            with pytest.raises(RuntimeError, match="nest"):
                with device.pipeline():
                    pass

    def test_empty_pipeline_scope_is_free(self):
        device = CpuDevice()
        with device.pipeline():
            pass
        assert device.stats.seconds == 0.0
        assert not device.stats.op_counts

    def test_stats_credit_validation(self):
        device = CpuDevice()
        with pytest.raises(ValueError):
            device.stats.credit("infeed_overlap", -1.0)


class TestStreamingFleet:
    def test_over_budget_pairs_fuse_into_one_wave_and_stream(self):
        """A budget below one pair's whole stack bounds the streamed
        chunk only: all three pairs fuse into one wave, matching the
        unbudgeted fleet bit for bit and the reference."""
        pairs = planted_pairs(3)
        pair_bytes = (8 + 1) * 8 * 8 * 8  # 8 column masks + residual, float64
        fleet = FleetExecutor(
            CpuDevice(), granularity="columns", max_stack_bytes=pair_bytes - 1
        ).run(pairs)
        assert fleet.num_waves == 1
        unbudgeted = FleetExecutor(CpuDevice(), granularity="columns").run(pairs)
        assert_same_explanations(fleet.results, unbudgeted.results)
        expected = reference.explain_all(pairs, device=CpuDevice(), granularity="columns")
        reference.assert_matches(fleet.results, expected, pairs, granularity="columns")

    def test_chunk_adaptive_planning_shrinks_dispatch_count_at_100_pairs(self):
        """The chunk-adaptive acceptance contract: at 100 pairs under a
        budget of four pairs' whole stacks, the fleet still fuses into
        one dispatch -- 25 if the budget capped waves at four pairs --
        with bit-identical scores."""
        pairs = planted_pairs(100)
        pair_bytes = (8 + 1) * 8 * 8 * 8
        runs = {}
        for cap in (4, None):
            runs[cap] = ExplanationPipeline(
                small_backend(), granularity="columns", eps=1e-8,
                max_stack_bytes=4 * pair_bytes, max_pairs_per_wave=cap,
            ).run(pairs)
        assert runs[4].stats.op_counts["dispatch"] == 25  # 4-pair waves
        assert runs[None].stats.op_counts["dispatch"] == 1  # one fused wave
        assert runs[None].simulated_seconds < runs[4].simulated_seconds
        assert_same_explanations(runs[None].explanations, runs[4].explanations)

    def test_streaming_plane_too_large_still_raises(self):
        with pytest.raises(MaskStackBudgetError, match="single plane"):
            FleetSchedule.plan([(8, 8)], [4], max_stack_bytes=100)

    def test_tiny_chunks_bit_identical_at_fleet_scale(self):
        pairs = planted_pairs(5)
        options = dict(granularity="blocks", block_shape=(2, 2), eps=1e-8)
        chunked = ExplanationPipeline(small_backend(), chunk_rows=1, **options).run(pairs)
        default = ExplanationPipeline(small_backend(), **options).run(pairs)
        assert_same_explanations(chunked.explanations, default.explanations)
        expected = reference.explain_all(pairs, device=CpuDevice(), **options)
        reference.assert_matches(chunked.explanations, expected, pairs, **options)

    def test_wave_ledger_unchanged_by_chunk_size(self):
        """Streaming is a memory optimization, not a cost change: the
        simulated ledger is invariant to chunk_rows."""
        pairs = planted_pairs(4)
        stats = {}
        for chunk_rows in (1, 3, 64):
            run = ExplanationPipeline(
                small_backend(), granularity="columns", eps=1e-8,
                chunk_rows=chunk_rows,
            ).run(pairs)
            stats[chunk_rows] = run.stats
        assert stats[1].op_counts == stats[64].op_counts == stats[3].op_counts
        assert stats[1].seconds == stats[3].seconds == stats[64].seconds


class TestQuantizedStreaming:
    """The precision axis quantizes per plane, so streamed execution
    stays bit-identical to the reference loop at bf16 and int8, with the
    documented error bound holding for batched runs."""

    MASK_SPECS = [spec for spec in SPECS if spec[0] != "elements"]

    @pytest.mark.parametrize("name,make_spec", MASK_SPECS)
    @pytest.mark.parametrize("precision", ["bf16", "int8"])
    def test_streamed_equals_dense_equals_loop_quantized(
        self, name, make_spec, precision
    ):
        x, kernel, y = fitted_setup(seed=6)
        spec = make_spec(x.shape)
        one_chunk = score_plan(
            x, kernel, y, spec, precision=precision, chunk_rows=spec.num_masks
        )
        streamed = score_plan(x, kernel, y, spec, precision=precision)
        np.testing.assert_array_equal(streamed, one_chunk)
        np.testing.assert_array_equal(
            streamed, looped(x, kernel, y, spec, precision=precision)
        )

    @pytest.mark.parametrize("chunk_rows", [1, 3, 64])
    def test_quantized_chunk_size_never_changes_bits(self, chunk_rows):
        x, kernel, y = fitted_setup(seed=7)
        spec = MaskSpec.columns(x.shape)
        np.testing.assert_array_equal(
            score_plan(x, kernel, y, spec, precision="int8", chunk_rows=chunk_rows),
            looped(x, kernel, y, spec, precision="int8"),
        )

    @pytest.mark.parametrize(
        "device_factory", [CpuDevice, GpuDevice, small_backend],
        ids=["cpu", "gpu", "tpu"],
    )
    def test_quantized_device_paths_match_no_device_paths(self, device_factory):
        x, kernel, y = fitted_setup(seed=8)
        spec = MaskSpec.blocks(x.shape, (2, 2))
        no_device = score_plan(x, kernel, y, spec, precision="int8")
        np.testing.assert_array_equal(
            score_plan(x, kernel, y, spec, device=device_factory(), precision="int8"),
            no_device,
        )
        np.testing.assert_array_equal(
            looped(x, kernel, y, spec, device=device_factory(), precision="int8"),
            no_device,
        )

    def test_fp64_precision_matches_unquantized_execution(self):
        x, kernel, y = fitted_setup(seed=9)
        spec = MaskSpec.rows(x.shape)
        np.testing.assert_array_equal(
            score_plan(x, kernel, y, spec, precision="fp64"),
            score_plan(x, kernel, y, spec),
        )

    def test_quantized_wave_fleet_matches_quantized_loop(self):
        """The acceptance contract: ExplanationPipeline(precision="int8")
        scores match the reference loop at int8 bit for bit, in one
        fused wave and in one-pair waves."""
        pairs = planted_pairs(5, seed=10)
        options = dict(granularity="blocks", block_shape=(2, 2), eps=1e-8, precision="int8")
        expected = reference.explain_all(pairs, device=small_backend(), **options)
        for cap in (None, 1):
            run = ExplanationPipeline(
                small_backend(), max_pairs_per_wave=cap, **options
            ).run(pairs)
            assert_same_explanations(run.explanations, expected)

    def test_monotone_error_bound_holds_for_batched_execution(self):
        """quantization_error_bound's conv extension bounds executed
        batched scores, monotonically in bits."""
        from repro.hw.quantize import quantized_score_error_bound

        x, kernel, y = fitted_setup(seed=11)
        spec = MaskSpec.blocks(x.shape, (2, 2))
        exact = score_plan(x, kernel, y, spec)
        quantized = score_plan(x, kernel, y, spec, precision="int8")
        score_bound = quantized_score_error_bound(x, kernel, bits=8)
        assert np.max(np.abs(quantized - exact)) <= score_bound
        bounds = [quantized_score_error_bound(x, kernel, bits=b) for b in (4, 8, 16)]
        assert bounds[0] > bounds[1] > bounds[2]

    def test_precision_error_ladder_is_monotone(self):
        x, kernel, y = fitted_setup(seed=12)
        spec = MaskSpec.columns(x.shape)
        exact = score_plan(x, kernel, y, spec)
        errors = {
            name: np.max(np.abs(
                score_plan(x, kernel, y, spec, precision=name)
                - exact
            ))
            for name in ("fp64", "bf16", "int8")
        }
        assert errors["fp64"] == 0.0
        assert errors["int8"] > errors["bf16"] > 0.0

    def test_quantized_dispatch_counts_match_fp64(self):
        """Precision changes numerics and per-op seconds, never the
        launch structure: dispatch and op counts are identical across
        the ladder."""
        pairs = planted_pairs(4, seed=13)
        counts = {}
        for name in ("fp64", "int8"):
            run = ExplanationPipeline(
                small_backend(), granularity="blocks", block_shape=(2, 2),
                eps=1e-8, precision=name,
            ).run(pairs)
            counts[name] = run.stats.op_counts
        assert counts["fp64"] == counts["int8"]

    def test_quantized_wave_cheaper_than_fp64_wave_on_tpu(self):
        """The speed side of the trade-off: int8 waves price below fp64
        waves (MXU rate + 1-byte infeed) with identical structure."""
        pairs = planted_pairs(4, seed=14)
        seconds = {}
        for name in ("int8", "fp64"):
            run = ExplanationPipeline(
                small_backend(), granularity="blocks", block_shape=(2, 2),
                eps=1e-8, precision=name,
            ).run(pairs)
            seconds[name] = run.simulated_seconds
        assert seconds["int8"] < seconds["fp64"]

    def test_quantizing_precision_rejects_elements_granularity(self):
        with pytest.raises(ValueError, match="linearity"):
            ExplanationPipeline(
                small_backend(), granularity="elements", precision="int8"
            )
        with pytest.raises(ValueError, match="linearity"):
            FleetExecutor(small_backend(), granularity="elements", precision="bf16")

    def test_unknown_precision_rejected_with_vocabulary(self):
        with pytest.raises(ValueError, match="int8"):
            ExplanationPipeline(
                small_backend(), granularity="columns", precision="fp16"
            )
