"""Fleet-scale wave fusion: schedule planning, slice tables, execution."""

import dataclasses
import warnings

import numpy as np
import pytest

from repro.core import (
    ExplanationPipeline,
    FleetExecutor,
    FleetSchedule,
    MaskSpec,
    MaskStackBudgetError,
    TpuBackend,
    make_tpu_chip,
)
from repro.core import fleet
from repro.core.distillation import ConvolutionDistiller
from repro.core.fleet import wave_dtype_key, wave_row_map
from repro.core.interpretation import feature_contributions, l2_scores_by_linearity
from repro.core.masking import DEFAULT_CHUNK_ROWS
from repro.core.transform import OutputEmbedding, frequency_solve
from repro.fft import fft, fft_circular_convolve2d, rfft, rfft2_batch
from repro.hw.cpu import CpuDevice
from repro.hw.pod import TpuPod
from repro.obs.tracer import tracer
from repro.serve import ExplanationService
from tests import reference


def small_backend(num_cores=4, precision="fp32"):
    return TpuBackend(
        make_tpu_chip(num_cores=num_cores, precision=precision, mxu_rows=8, mxu_cols=8)
    )


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


class TestFleetSchedule:
    def test_equal_shape_pairs_fuse_into_one_wave(self):
        schedule = FleetSchedule.plan([(8, 8)] * 5, [4] * 5)
        assert schedule.num_waves == 1
        assert schedule.waves[0].pair_indices == (0, 1, 2, 3, 4)
        assert schedule.waves[0].num_rows == 5 * (4 + 1)

    def test_mixed_shapes_split_by_first_seen_order(self):
        shapes = [(8, 8), (4, 4), (8, 8), (4, 4)]
        schedule = FleetSchedule.plan(shapes, [2, 2, 2, 2])
        assert schedule.num_waves == 2
        assert schedule.waves[0].pair_indices == (0, 2)
        assert schedule.waves[0].plane_shape == (8, 8)
        assert schedule.waves[1].pair_indices == (1, 3)

    def test_max_pairs_per_wave(self):
        schedule = FleetSchedule.plan(
            [(4, 4)] * 5, [1] * 5, max_pairs_per_wave=2
        )
        assert [w.pair_indices for w in schedule.waves] == [(0, 1), (2, 3), (4,)]

    def test_single_pair_over_budget_raises(self):
        # One 4x4 float64 plane is 128 bytes: the budget cannot hold it.
        with pytest.raises(MaskStackBudgetError, match="single plane"):
            FleetSchedule.plan([(4, 4)], [100], max_stack_bytes=127)

    def test_none_budget_never_splits(self):
        schedule = FleetSchedule.plan([(4, 4)] * 10, [1000] * 10, max_stack_bytes=None)
        assert schedule.num_waves == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            FleetSchedule.plan([(4, 4)], [1, 2])
        with pytest.raises(ValueError):
            FleetSchedule.plan([(4, 4)], [1], max_pairs_per_wave=0)
        with pytest.raises(ValueError):
            FleetSchedule.plan([(4, 4)], [1], dtypes=[np.float64, np.float64])
        with pytest.raises(TypeError):
            FleetSchedule.plan([(4, 4)], [1], dtypes=["not a dtype"])
        # Spellings of one key group together, bare dtypes or key tuples.
        float64 = np.zeros(1)
        spellings = [
            np.float64, "float64", np.dtype("f8"), ("f8", np.float64, "float64"),
            wave_dtype_key(float64, float64),
        ]
        schedule = FleetSchedule.plan([(4, 4)] * 5, [1] * 5, dtypes=spellings)
        assert schedule.num_waves == 1

    def test_empty_fleet_plans_empty_schedule(self):
        """The service's idle drain path: nothing to plan is not an error."""
        schedule = FleetSchedule.plan([], [])
        assert schedule.num_waves == 0
        assert schedule.num_pairs == 0

    def test_streaming_chunk_budget_fuses_what_dense_budget_splits(self):
        """Chunk-adaptive planning: the budget bounds the streamed
        chunk, which does not grow with the fused pairs, so a budget
        holding only two pairs' whole (2+1)-row 4x4 float64 stacks
        still fuses all eight pairs into one wave."""
        schedule = FleetSchedule.plan([(4, 4)] * 8, [2] * 8, max_stack_bytes=800)
        assert schedule.num_waves == 1
        assert schedule.waves[0].pair_indices == tuple(range(8))

    def test_num_pairs(self):
        schedule = FleetSchedule.plan([(4, 4), (8, 8)], [1, 1])
        assert schedule.num_pairs == 2


class TestSliceTable:
    """The paper's reassembly table, as the wave row map's three arrays."""

    def test_rows_interleave_masks_and_residuals(self):
        plans = [MaskSpec.columns((4, 4)), MaskSpec.rows((4, 4))]
        row_pair, row_slot, is_mask = wave_row_map([plan.num_masks for plan in plans])
        assert row_pair.size == 4 + 1 + 4 + 1
        masks_of = [np.flatnonzero(is_mask & (row_pair == pair)) for pair in (0, 1)]
        np.testing.assert_array_equal(masks_of[0], [0, 1, 2, 3])
        np.testing.assert_array_equal(masks_of[1], [5, 6, 7, 8])
        # One residual row per pair, after its masks, slotted at its mask count.
        np.testing.assert_array_equal(np.flatnonzero(~is_mask), [4, 9])
        np.testing.assert_array_equal(row_slot, [0, 1, 2, 3, 4, 0, 1, 2, 3, 4])

    def test_none_plan_contributes_only_residual(self):
        row_pair, row_slot, is_mask = wave_row_map([0, 4])
        np.testing.assert_array_equal(row_pair, [0, 1, 1, 1, 1, 1])
        np.testing.assert_array_equal(is_mask, [False, True, True, True, True, False])
        assert row_slot[0] == 0

    def test_row_pair_indices_is_conv_kernel_map(self):
        row_pair, _, _ = wave_row_map([MaskSpec.columns((2, 2)).num_masks, 0])
        np.testing.assert_array_equal(row_pair, [0, 0, 0, 1])

    def test_labels_survive_fusion(self):
        plan = MaskSpec.blocks((4, 4), (2, 2))
        _, row_slot, is_mask = wave_row_map([plan.num_masks])
        labels = [plan.labels[slot] for slot in row_slot[is_mask]]
        assert labels == [(0, 0), (0, 1), (1, 0), (1, 1)]


class TestFleetExecutorEquivalence:
    @pytest.mark.parametrize("granularity,kwargs,shape", [
        ("blocks", {"block_shape": (4, 4)}, (8, 8)),
        ("columns", {}, (8, 8)),
        ("rows", {}, (8, 8)),
        ("elements", {}, (8, 8)),
    ])
    @pytest.mark.parametrize(
        "device_factory", [CpuDevice, small_backend], ids=["cpu", "tpu"]
    )
    def test_wave_bitwise_equals_pair(self, device_factory, granularity, kwargs, shape):
        """One fused wave equals one-pair waves bit for bit, and the
        per-pair reference loop (within the linearity bound)."""
        pairs = planted_pairs(3, shape=shape)
        options = dict(granularity=granularity, eps=1e-8, **kwargs)
        run = ExplanationPipeline(device_factory(), **options).run(pairs)
        single = ExplanationPipeline(
            device_factory(), max_pairs_per_wave=1, **options
        ).run(pairs)
        assert run.num_programs == 1 and single.num_programs == 3
        assert_same_explanations(run.explanations, single.explanations)
        expected = reference.explain_all(pairs, device=device_factory(), **options)
        reference.assert_matches(run.explanations, expected, pairs, **options)
        if granularity == "elements":  # each element to 1e-9 of itself, too
            for a, b in zip(run.explanations, expected):
                np.testing.assert_allclose(a.scores, b.scores, rtol=1e-9, atol=0)

    def test_hundred_pair_fleet_one_dispatch_per_wave(self):
        """The acceptance scenario at test scale: a 100-pair fleet costs
        one dispatch and one batched-conv record per wave instead of one
        program plus a round trip per masked convolution per pair."""
        pairs = planted_pairs(100)
        options = dict(granularity="blocks", block_shape=(4, 4), eps=1e-8)
        run = ExplanationPipeline(small_backend(), **options).run(pairs)
        looped_device = small_backend()
        expected = reference.explain_all(pairs, device=looped_device, **options)
        reference.assert_matches(run.explanations, expected, pairs, **options)
        wave_stats = run.stats
        assert run.num_programs == 1
        assert wave_stats.op_counts["dispatch"] == 1
        assert wave_stats.op_counts["conv2d_batch"] == 1
        assert "conv_round_trip" not in wave_stats.op_counts
        looped_stats = looped_device.take_stats()
        assert looped_stats.op_counts["conv_round_trip"] == 100 * (4 + 1)
        assert run.simulated_seconds < looped_stats.seconds

    def test_mixed_shape_fleet_runs_wave_per_shape(self):
        pairs = planted_pairs(2, shape=(8, 8)) + planted_pairs(2, shape=(4, 4), seed=1)
        pipeline = ExplanationPipeline(
            small_backend(), granularity="columns", eps=1e-8
        )
        run = pipeline.run(pairs)
        assert run.num_programs == 2
        assert run.stats.op_counts["dispatch"] == 2
        # Results stay in input order and match per-pair execution.
        options = dict(granularity="columns", eps=1e-8)
        expected = reference.explain_all(pairs, device=CpuDevice(), **options)
        reference.assert_matches(run.explanations, expected, pairs, **options)

    def test_budget_split_waves_still_bitwise_identical(self):
        pairs = planted_pairs(4)
        fleet = FleetExecutor(
            CpuDevice(), granularity="columns", max_pairs_per_wave=2
        ).run(pairs)
        assert fleet.num_waves == 2
        whole = FleetExecutor(CpuDevice(), granularity="columns").run(pairs)
        assert whole.num_waves == 1
        assert_same_explanations(fleet.results, whole.results)
        expected = reference.explain_all(pairs, device=CpuDevice(), granularity="columns")
        reference.assert_matches(fleet.results, expected, pairs, granularity="columns")

    def test_chunk_windows_span_pairs(self):
        """The wave's row space streams in ``rows_per_chunk`` windows, so
        pairs smaller than a chunk share one convolution step; the rows
        are each pair's masked variants, then its unmasked plane, and a
        float32 pair fills with the float32-rounded value."""
        executor = FleetExecutor(
            CpuDevice(), granularity="blocks", block_shape=(4, 4), fill_value=0.1
        )
        xs = [x for x, _ in planted_pairs(4)]
        xs[1] = xs[1].astype(np.float32)
        plans = [executor.plan_for(x) for x in xs]
        row_pair, row_slot, is_mask = wave_row_map([plan.num_masks for plan in plans])
        sources, fills = executor._fill_sources(np.stack(xs), xs)
        bands = executor._band_windows(
            sources, fills, plans, row_pair, row_slot, is_mask, rows_per_chunk=8
        )
        chunks = list(executor._masked_chunks(sources, bands, row_pair))
        assert [rows for _, rows in chunks] == [range(0, 8), range(8, 16), range(16, 20)]
        per_pair = [
            np.concatenate([
                *(masked for masked, _ in plan.apply_chunks(x, fill_value=0.1)),
                x[np.newaxis],
            ])
            for x, plan in zip(xs, plans)
        ]
        np.testing.assert_array_equal(
            np.concatenate([chunk for chunk, _ in chunks]), np.concatenate(per_pair)
        )
        assert np.float32(0.1) in chunks[0][0][5] and 0.1 not in chunks[0][0][5]

    def test_over_budget_plane_raises_with_budget_hint(self):
        executor = FleetExecutor(
            CpuDevice(), granularity="columns", max_stack_bytes=100
        )
        with pytest.raises(MaskStackBudgetError, match="max_stack_bytes"):
            executor.run(planted_pairs(1))


class TestFleetExecutorValidation:
    def test_empty_fleet_returns_empty_run(self):
        """The service's idle drain calls run([]) constantly: it must
        cost zero waves and zero simulated seconds, not raise."""
        device = CpuDevice()
        fleet = FleetExecutor(device, granularity="columns").run([])
        assert fleet.results == ()
        assert fleet.num_waves == 0
        assert device.stats.seconds == 0.0
        assert not device.stats.op_counts

    @pytest.mark.parametrize("name", ["x", "y"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_pair_raises_naming_it(self, name, value):
        """A NaN or inf would score its pair NaN everywhere, silently."""
        pairs = planted_pairs(3)
        x, y = (plane.copy() for plane in pairs[1])
        (x if name == "x" else y)[2, 3] = value
        pairs[1] = (x, y)
        device = CpuDevice()
        with pytest.raises(ValueError, match=f"pair 1: {name} holds non-finite values"):
            FleetExecutor(device, granularity="columns").run(pairs)
        assert not device.stats.op_counts

    @pytest.mark.parametrize("fill", [0.0, 2.0], ids=["zero", "constant"])
    def test_zero_bin_at_eps_zero_raises_naming_the_pair(self, fill):
        """At eps=0 a zero spectrum bin of x scored the pair NaN everywhere,
        with only a RuntimeWarning."""
        pairs = planted_pairs(3)
        pairs[2] = (np.full((8, 8), fill), pairs[2][1])
        device = CpuDevice()
        executor = FleetExecutor(device, granularity="columns", eps=0.0)
        with pytest.raises(ValueError, match="pair 2: the spectrum of x has a zero bin"):
            executor.run(pairs)
        assert not device.stats.op_counts
        # Any positive eps regularizes the same pair.
        run = FleetExecutor(device, granularity="columns", eps=1e-6).run(pairs)
        assert all(np.isfinite(result.scores).all() for result in run.results)

    def test_unliftable_y_raises_naming_the_pair_before_any_work(self):
        """An 8x8 y under a 16x16 x used to raise from the middle of the
        run, after earlier waves were priced, without naming the pair."""
        pairs = planted_pairs(5, shape=(16, 16))
        pairs[3] = (pairs[3][0], pairs[3][1][:8, :8].copy())
        device = small_backend()
        executor = FleetExecutor(device, granularity="columns", max_pairs_per_wave=2)
        with pytest.raises(
            ValueError, match=r"pair 3: y of shape \(8, 8\) cannot lift onto x's \(16, 16\)"
        ):
            executor.run(pairs)
        assert device.stats.seconds == 0.0
        assert not device.stats.op_counts

    def test_lift_output_is_the_plane_the_waves_score_against(self):
        """Vector outputs lift once, before the waves, to the plane the
        distiller's embedding gives them."""
        pairs = planted_pairs(3)
        embedding = OutputEmbedding("spatial")
        vectors = [(x, np.arange(1.0, 5.0) * (index + 1)) for index, (x, _) in enumerate(pairs)]
        executor = FleetExecutor(CpuDevice(), granularity="columns", embedding=embedding)
        lifter = ConvolutionDistiller(embedding=embedding)
        planes = []
        for x, vector in vectors:
            plane = executor.check_pair(x, vector).y_plane
            np.testing.assert_array_equal(plane, lifter.lift_outputs(vector, 1, x.shape)[0])
            planes.append((x, plane))
        assert_same_explanations(
            executor.run(vectors).results,
            FleetExecutor(CpuDevice(), granularity="columns", embedding=embedding)
            .run(planes).results,
        )

    def test_non_matrix_pair(self):
        with pytest.raises(ValueError):
            FleetExecutor(CpuDevice(), granularity="columns").run(
                [(np.ones(4), np.ones(4))]
            )

    def test_unknown_granularity(self):
        with pytest.raises(ValueError):
            FleetExecutor(CpuDevice(), granularity="pixels")

    def test_blocks_needs_block_shape(self):
        with pytest.raises(ValueError):
            FleetExecutor(CpuDevice(), granularity="blocks")

    def test_unknown_reduction(self):
        with pytest.raises(ValueError):
            FleetExecutor(CpuDevice(), granularity="columns", reduction="magic")


class TestPairContract:
    """``check_pair`` is the one input check: once per pair, anywhere."""

    def test_plan_for_builds_one_spec_per_shape(self):
        executor = FleetExecutor(CpuDevice(), granularity="blocks", block_shape=(2, 2))
        plan = executor.plan_for(np.ones((8, 8)))
        assert executor.plan_for(np.zeros((8, 8))) is plan
        assert executor.plan_for(np.ones((4, 4))) is not plan
        assert executor.check_pair(*planted_pairs(1)[0]).plan is plan
        assert FleetExecutor(CpuDevice(), granularity="elements").plan_for(np.ones((8, 8))) is None

    def test_own_checked_pairs_run_without_a_second_check(self, check_pair_calls):
        pairs = planted_pairs(3)
        executor = FleetExecutor(CpuDevice(), granularity="columns")
        run = executor.run([executor.check_pair(x, y) for x, y in pairs])
        assert check_pair_calls == [executor] * 3
        fresh = FleetExecutor(CpuDevice(), granularity="columns").run(pairs)
        assert len(check_pair_calls) == 6
        assert_same_explanations(run.results, fresh.results)

    def test_checked_pair_of_another_executor_is_checked_again(self, check_pair_calls):
        """At eps=1e-6 a constant x passes; an eps=0 executor refuses it."""
        (pair,) = planted_pairs(1)
        other = FleetExecutor(CpuDevice(), granularity="columns")
        foreign = other.check_pair(np.full((8, 8), 2.0), pair[1])
        device = CpuDevice()
        executor = FleetExecutor(device, granularity="columns", eps=0.0)
        with pytest.raises(ValueError, match="pair 1: the spectrum of x has a zero bin"):
            executor.run([executor.check_pair(*pair), foreign])
        assert check_pair_calls == [other, executor, executor]
        assert not device.stats.op_counts

    @pytest.mark.parametrize("dtype", [str, object])
    def test_non_numeric_x_raises_naming_the_pair_before_any_work(self, dtype):
        """np.isfinite used to raise TypeError on such a plane."""
        pairs = planted_pairs(3)
        pairs[2] = (pairs[2][0].astype(dtype), pairs[2][1])
        device = small_backend()
        reason = "pair 2: x has dtype .*, not bool, integer, floating or complex"
        with pytest.raises(ValueError, match=reason):
            FleetExecutor(device, granularity="columns").run(pairs)
        assert device.stats.seconds == 0.0
        assert not device.stats.op_counts


class TestNonFiniteExplanations:
    """A finite pair whose solve or reduction overflows is named, not served."""

    PROBES = {"x1e200": (1e200, 1.0), "x1e150-y1e200": (1e150, 1e200), "y1e154": (1.0, 1e154)}

    @pytest.mark.parametrize(
        "num_chips,placement", [(None, "data"), (2, "data"), (2, "chunk"), (2, "wave")]
    )
    @pytest.mark.parametrize("probe", sorted(PROBES))
    def test_overflowing_pair_is_named_and_its_wave_mates_are_unmoved(
        self, probe, num_chips, placement
    ):
        pairs = planted_pairs(4)
        x_scale, y_scale = self.PROBES[probe]
        bad = (pairs[1][0] * x_scale, pairs[1][1] * y_scale)
        options = dict(
            granularity="blocks", block_shape=(4, 4), eps=1e-8, num_chips=num_chips,
            placement=placement,
        )
        with np.errstate(over="ignore", invalid="ignore"):
            run = FleetExecutor(small_backend(), **options).run([pairs[0], bad, *pairs[2:]])
        assert list(run.problems) == [1]
        assert run.problems[1].startswith("the explanation holds non-finite values (")
        assert not np.isfinite(run.results[1].scores).all()  # kept in place
        clean = FleetExecutor(small_backend(), **options).run([pairs[0], *pairs[2:]])
        assert clean.problems == {}
        assert_same_explanations([run.results[0], *run.results[2:]], clean.results)

    @pytest.mark.parametrize("scale", [1e200, 1e250, 1e300])
    def test_a_residual_whose_squares_overflow_stays_finite(self, scale):
        """At l1 the scores of y*1e200 stay finite, and so does the
        residual, though its squares overflow: it is the RMS of the
        plane scaled by its peak, as in the reference."""
        pairs = planted_pairs(3)
        pairs[1] = (pairs[1][0], pairs[1][1] * scale)
        options = dict(granularity="columns", reduction="l1")
        with np.errstate(over="ignore"):
            run = FleetExecutor(CpuDevice(), **options).run(pairs)
            expected = reference.explain_all(pairs, device=CpuDevice(), **options)
        assert run.problems == {}
        # Above 1e155 its square would pass the float range.
        assert 1e155 < run.results[1].residual < np.inf
        reference.assert_matches(run.results, expected, pairs, **options)

    def test_each_pairs_mask_rows_are_its_scores(self):
        """The check reads each pair's mask rows of the wave's flat
        scores: a NaN in pair 1's first mask row names pair 1, and one in
        pair 0's residual row, which is no score, names no pair."""
        executor = FleetExecutor(CpuDevice(), granularity="columns")
        pairs = executor._checked_pairs(planted_pairs(2))
        (wave,) = executor.schedule(pairs).waves
        numbers = executor._compute_wave(wave, pairs)
        masks = numbers.layout.num_masks
        scores = numbers.scores.copy()
        scores[masks] = scores[masks + 1] = np.nan
        problems = {}
        FleetExecutor._check_wave(dataclasses.replace(numbers, scores=scores), [], problems)
        assert problems == {1: "the explanation holds non-finite values (scores)"}

    def test_elements_scores_made_at_assembly_are_checked(self, monkeypatch):
        """A complex y keeps elements off the l2 scorer: its scores are
        made at assembly, and only they overflow."""
        assembled = []
        element_scores = fleet.FleetExecutor._element_scores

        def spied(self, x, *args):
            assembled.append(x)
            return element_scores(self, x, *args)

        monkeypatch.setattr(fleet.FleetExecutor, "_element_scores", spied)
        pairs = planted_pairs(3)
        pairs[1] = (pairs[1][0], pairs[1][1] * 1e154 + 0j)
        with warnings.catch_warnings():
            # The fast path casts complex operands to float64 (numpy's
            # ComplexWarning), and the cast pair overflows.
            warnings.simplefilter("ignore")
            run = FleetExecutor(CpuDevice(), granularity="elements").run(pairs)
        assert [x is pairs[1][0] for x in assembled] == [True]
        assert run.problems == {1: "the explanation holds non-finite values (scores)"}

    def test_pipeline_raises_naming_the_first_such_pair(self):
        pairs = planted_pairs(4)
        for index in (3, 1):
            pairs[index] = (pairs[index][0] * 1e200, pairs[index][1])
        pipeline = ExplanationPipeline(small_backend(), granularity="columns")
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            ValueError, match=r"pair 1: the explanation holds non-finite values \(kernel"
        ):
            pipeline.run(pairs)
        assert pipeline.device.stats.seconds == 0.0


class TestOneEntryPoint:
    """The pipeline runs the executor it builds; planning needs no run."""

    def test_pipeline_runs_its_executor(self):
        pairs = planted_pairs(3)
        options = dict(granularity="blocks", block_shape=(4, 4), eps=1e-8)
        pipeline = ExplanationPipeline(small_backend(), **options)
        assert pipeline.device is pipeline.executor.device
        run = pipeline.run(pairs)
        assert run.stats.op_counts["dispatch"] == 1
        assert all(isinstance(e, fleet.PairResult) for e in run.explanations)
        # The run harvested the ledger it recorded.
        assert pipeline.device.stats.seconds == 0.0
        direct = FleetExecutor(small_backend(), **options).run(pairs)
        assert_same_explanations(run.explanations, direct.results)

    def test_schedule_plans_without_running(self):
        pairs = planted_pairs(4)
        device = small_backend()
        executor = FleetExecutor(device, granularity="columns")
        schedule = executor.schedule(pairs)
        assert schedule.num_waves == 1
        assert schedule.num_pairs == 4
        assert device.stats.seconds == 0.0
        assert not device.stats.op_counts
        assert executor.run(pairs).schedule == schedule


class TestComplexOperands:
    """Bit-identity must survive complex-valued pairs (review findings)."""

    def _complex_pairs(self, count=2, shape=(6, 6), seed=30):
        rng = np.random.default_rng(seed)
        pairs = []
        for _ in range(count):
            x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            kernel = rng.standard_normal(shape)
            pairs.append((x, fft_circular_convolve2d(x, kernel)))
        return pairs

    @pytest.mark.parametrize("granularity,kwargs", [
        ("columns", {}),
        ("elements", {}),
    ])
    def test_complex_pairs_wave_equals_pair(self, granularity, kwargs):
        pairs = self._complex_pairs()
        with warnings.catch_warnings():
            # The elements fast path casts complex operands to float64
            # (numpy ComplexWarning), in the wave and in
            # feature_contributions alike; equivalence is what this
            # test asserts.
            warnings.simplefilter("ignore")
            run = ExplanationPipeline(
                CpuDevice(), granularity=granularity, eps=1e-8, **kwargs,
            ).run(pairs)
            if granularity == "elements":
                expected = []
                for x, y in pairs:
                    (pair,) = reference.explain_all(
                        [(x, y)], device=CpuDevice(), granularity="columns", eps=1e-8
                    )
                    scores = feature_contributions(x, pair.kernel, y, device=CpuDevice())
                    expected.append(reference.Explanation(pair.kernel, scores, pair.residual))
            else:
                expected = reference.explain_all(
                    pairs, device=CpuDevice(), granularity=granularity, eps=1e-8
                )
        assert_same_explanations(run.explanations, expected)

    def test_real_and_complex_pairs_never_share_a_wave(self):
        """Mixing would upcast real rows to complex128 and keep inverse
        -transform roundoff imaginaries that per-pair execution drops."""
        rng = np.random.default_rng(31)
        real = planted_pairs(2, shape=(6, 6), seed=32)
        cplx = self._complex_pairs(2)
        pairs = [real[0], cplx[0], real[1], cplx[1]]
        executor = FleetExecutor(CpuDevice(), granularity="columns")
        schedule = executor.schedule(pairs)
        assert schedule.num_waves == 2
        assert schedule.waves[0].pair_indices == (0, 2)
        assert schedule.waves[1].pair_indices == (1, 3)
        # And the fused results still match per-pair execution: the
        # complex pairs bit for bit, the real ones within the l2 bound.
        options = dict(granularity="columns", eps=1e-8)
        run_wave = ExplanationPipeline(CpuDevice(), **options).run(pairs)
        expected = reference.explain_all(pairs, device=CpuDevice(), **options)
        reference.assert_matches(run_wave.explanations, expected, pairs, **options)


    @pytest.mark.parametrize("precision", [None, "int8"])
    def test_real_input_rows_share_chunks_with_complex_rows(self, precision):
        """A real ``x`` with a complex ``y`` promotes to complex128: its
        real rows join complex pairs' rows in one chunk bit for bit."""
        (x, y), = planted_pairs(1, shape=(6, 6), seed=33)
        pairs = [(x, y + 0.5j * y), *self._complex_pairs(2)]
        options = dict(granularity="columns", eps=1e-8, precision=precision)
        executor = FleetExecutor(CpuDevice(), chunk_rows=64, **options)
        assert executor.schedule(pairs).num_waves == 1
        expected = reference.explain_all(pairs, device=CpuDevice(), **options)
        assert_same_explanations(executor.run(pairs).results, expected)


class TestRowSharedWindows:
    """A real wave's bin-major windows, built from each pair's row
    spectra plus the transforms of only the rows a mask touches, equal
    the transforms of the materialized masked planes bit for bit."""

    PLAN_SETS = {
        "blocks": [MaskSpec.blocks((8, 8), (2, 2))] * 3,
        "rows": [MaskSpec.rows((8, 8))] * 3,
        "columns": [MaskSpec.columns((8, 8))] * 3,
        "mixed": [
            MaskSpec.blocks((8, 8), (2, 2)), MaskSpec.blocks((8, 8), (4, 4)),
            MaskSpec.columns((8, 8)), MaskSpec.rows((8, 8)),
        ],
        "odd": [
            MaskSpec.blocks((9, 7), (3, 7)), MaskSpec.columns((9, 7)),
            MaskSpec.rows((9, 7)),
        ],
    }

    @pytest.mark.parametrize("fill_value", [0.0, 0.1, -2.5])
    @pytest.mark.parametrize("plans", list(PLAN_SETS), ids=str)
    def test_window_equals_rfft2_of_masked_planes(self, plans, fill_value):
        plans = self.PLAN_SETS[plans]
        executor = FleetExecutor(CpuDevice(), granularity="rows", fill_value=fill_value)
        xs = [x for x, _ in planted_pairs(len(plans), shape=plans[0].plane_shape)]
        xs[1] = xs[1].astype(np.float32)
        row_pair, row_slot, is_mask = wave_row_map([plan.num_masks for plan in plans])
        sources, fills = executor._fill_sources(np.stack(xs), xs)
        bands = executor._band_windows(
            sources, fills, plans, row_pair, row_slot, is_mask, rows_per_chunk=7
        )
        m, n = plans[0].plane_shape
        base = np.empty((n // 2 + 1, len(xs), m), complex)
        rfft(sources, axis=-1, out=base.transpose(1, 2, 0))
        buffer = np.empty((n // 2 + 1, 7, m), complex)
        windows = [
            spectra.copy()
            for spectra, _ in executor._row_spectra(base, bands, row_pair, buffer)
        ]
        widths = [window.shape[1] for window in windows]
        assert widths[:-1] == [7] * (len(windows) - 1) and 0 < widths[-1] <= 7
        planes = np.concatenate([
            np.stack([
                *(np.where(mask, fill_value, x) for _, mask in reference.masks(
                    plan.granularity, plan.plane_shape, plan.block_shape
                )),
                x,
            ])
            for x, plan in zip(xs, plans)
        ])
        row_spectra = np.concatenate(windows, axis=1)  # (bins, rows, M)
        rows_last = np.moveaxis(row_spectra, 0, -1)
        assert rows_last.tobytes() == rfft(planes, axis=-1).tobytes()
        columns = np.moveaxis(fft(row_spectra, axis=-1), 0, -1)
        assert columns.tobytes() == rfft2_batch(planes).tobytes()


class TestSpatialWaves:
    """Quantized and complex waves stream spatial windows; exact real
    waves share their pairs' row spectra.  Both match the reference."""

    @pytest.mark.parametrize("precision,complex_pairs,streams", [
        (None, False, False),
        ("fp32", False, False),
        ("bf16", False, True),
        ("int8", False, True),
        (None, True, True),
        ("int8", True, True),
    ])
    def test_each_wave_takes_its_path_and_matches_the_reference(
        self, monkeypatch, precision, complex_pairs, streams
    ):
        calls = []
        stream = fleet.fft_circular_convolve2d_chunks

        def counted(*args, **kwargs):
            calls.append(args)
            return stream(*args, **kwargs)

        monkeypatch.setattr(fleet, "fft_circular_convolve2d_chunks", counted)
        pairs = planted_pairs(4)
        if complex_pairs:
            rng = np.random.default_rng(40)
            xs = [x + 1j * rng.standard_normal(x.shape) for x, _ in pairs]
            pairs = [
                (x, fft_circular_convolve2d(x, rng.standard_normal(x.shape))) for x in xs
            ]
        options = dict(granularity="blocks", block_shape=(2, 2), eps=1e-8, precision=precision)
        run = FleetExecutor(small_backend(), chunk_rows=7, **options).run(pairs)
        assert run.num_waves == 1
        assert bool(calls) == streams
        expected = reference.explain_all(pairs, device=CpuDevice(), **options)
        reference.assert_matches(run.results, expected, pairs, **options)


class TestElementsFillValue:
    """The ``elements`` fast path replaces each element with ``fill_value``."""

    @pytest.mark.parametrize("fill_value", [0.5, -2.0])
    def test_scores_match_reference(self, fill_value):
        pairs = planted_pairs(2, shape=(6, 6), seed=4)
        options = dict(granularity="elements", eps=1e-8, fill_value=fill_value)
        run = FleetExecutor(CpuDevice(), **options).run(pairs)
        expected = reference.explain_all(pairs, device=CpuDevice(), **options)
        for result, want in zip(run.results, expected):
            error = np.max(np.abs(result.scores - want.scores))
            assert error <= 1e-9 * np.max(np.abs(want.scores))


class TestPromotedDtypeWaves:
    """Waves group pairs by ``np.result_type(x, y, np.float64)``."""

    def test_longdouble_pairs_do_not_widen_float64_co_pairs(self):
        pairs = planted_pairs(4)
        for i in (1, 3):
            pairs[i] = tuple(np.asarray(a, dtype=np.longdouble) for a in pairs[i])
        options = dict(granularity="blocks", block_shape=(2, 2), eps=1e-6)
        executor = FleetExecutor(CpuDevice(), **options)
        expected = reference.explain_all(pairs, device=CpuDevice(), **options)
        run = executor.run(pairs)
        reference.assert_matches(run.results, expected, pairs, **options)
        # The float64 pairs score as they do without longdouble co-pairs.
        alone = executor.run([pairs[0], pairs[2]])
        assert_same_explanations([run.results[0], run.results[2]], alone.results)
        waves = executor.schedule(pairs).waves
        assert [wave.pair_indices for wave in waves] == [(0, 2), (1, 3)]

    @pytest.mark.parametrize("num_chips", [None, 2])
    @pytest.mark.parametrize("dtypes", [
        [("float64", "longdouble")],
        [("longdouble", "float32"), ("longdouble", "longdouble")],
        [
            ("float64", "longdouble"), ("longdouble", "longdouble"),
            ("float32", "float64"), ("longdouble", "float32"),
        ],
    ], ids=["f64-x-ld-y-alone", "ld-x-f32-y-beside-ld", "four-widths"])
    def test_pairs_with_different_float_widths_match_the_reference(
        self, dtypes, num_chips
    ):
        """A float64-``x``/longdouble-``y`` pair gets a clongdouble
        Hadamard product, and a pair whose ``x`` or ``y`` is narrower
        than its co-pairs' gets its own wave."""
        pairs = [
            (x.astype(x_dtype), y.astype(y_dtype))
            for (x, y), (x_dtype, y_dtype) in zip(planted_pairs(len(dtypes)), dtypes)
        ]
        options = dict(granularity="blocks", block_shape=(2, 2), eps=1e-6)
        executor = FleetExecutor(small_backend(), num_chips=num_chips, **options)
        expected = reference.explain_all(pairs, device=CpuDevice(), **options)
        reference.assert_matches(executor.run(pairs).results, expected, pairs, **options)
        keys = [wave_dtype_key(x, y) for x, y in pairs]
        for wave in executor.schedule(pairs).waves:
            assert len({keys[i] for i in wave.pair_indices}) == 1
        assert executor.schedule(pairs).num_waves == len(set(keys))

    def test_float32_integer_and_float64_pairs_share_a_wave(self):
        pairs = planted_pairs(3)
        pairs[0] = (pairs[0][0].astype(np.float32), pairs[0][1])
        pairs[1] = (np.round(4 * pairs[1][0]).astype(np.int64), pairs[1][1])
        options = dict(granularity="columns", eps=1e-8)
        executor = FleetExecutor(CpuDevice(), **options)
        assert executor.schedule(pairs).num_waves == 1
        expected = reference.explain_all(pairs, device=CpuDevice(), **options)
        run = executor.run(pairs)
        reference.assert_matches(run.results, expected, pairs, **options)
        # Sharing the wave changes no pair's bits.
        for pair, result in zip(pairs, run.results):
            assert_same_explanations([result], executor.run([pair]).results)


class TestL2ByLinearity:
    """Real float64 l2 waves at exact precision score masks by linearity."""

    def _spy(self, monkeypatch):
        calls = []

        def spied(*args, **kwargs):
            calls.append(args)
            return l2_scores_by_linearity(*args, **kwargs)

        monkeypatch.setattr(fleet, "l2_scores_by_linearity", spied)
        return calls

    def test_planted_cancellation_is_rescored_exactly(self, monkeypatch):
        """``y = x_masked (*) K`` for block (1, 2): that block's three
        terms cancel (unguarded it reads 9.5e-7, 3.3e-9 of the largest
        score), so the guard hands it to one masked convolution, which
        reads 0.0, and a ``fleet.rescore`` instant counts it."""
        rng = np.random.default_rng(8)
        x = rng.standard_normal((16, 16))
        x[0, 0] += 20.0
        kernel = rng.standard_normal((16, 16))
        masked = x.copy()
        masked[4:8, 8:12] = 0.0
        y = fft_circular_convolve2d(masked, kernel)
        residual = y - fft_circular_convolve2d(x, kernel)
        _, rescore = l2_scores_by_linearity(
            x[np.newaxis], np.zeros(1), residual[np.newaxis],
            rfft2_batch(kernel[np.newaxis]), [MaskSpec.blocks((16, 16), (4, 4))],
            DEFAULT_CHUNK_ROWS * 16 * 16,
        )
        assert np.flatnonzero(rescore[0]).tolist() == [6]
        # Plant the kernel the wave scores with (Eq. 4 would fit its own).
        monkeypatch.setattr(
            fleet, "_solve_stack", lambda *args, **kwargs: kernel[np.newaxis]
        )
        tracer.clear()
        with tracer.tracing():
            run = FleetExecutor(CpuDevice(), granularity="blocks", block_shape=(4, 4)).run(
                [(x, y)]
            )
        rescores = [event.args for event in tracer.events if event.name == "fleet.rescore"]
        tracer.clear()
        scores = run.results[0].scores
        assert scores[1, 2] == 0.0
        assert rescores == [{"masks": 1, "pairs": 1}]
        looped = reference.occlusion_scores(x, kernel, y, "blocks", (4, 4))
        assert reference.relative_error(scores, looped) <= reference.SCORE_TOLERANCE

    @pytest.mark.parametrize("block_shape,planes,chunk_rows,linear", [
        ((8, 8), None, None, True),  # s * s = 4096 <= 64 planes of 256 floats
        ((8, 8), None, 1, True),  # chunk_rows does not choose the path
        ((8, 8), 8, None, False),  # a budget of 8 planes: 2048 floats
        ((16, 16), None, None, False),  # s * s = 65536
    ])
    def test_plan_wider_than_window_memory_takes_exact_path(
        self, monkeypatch, block_shape, planes, chunk_rows, linear
    ):
        calls = self._spy(monkeypatch)
        pairs = planted_pairs(2, shape=(16, 16))
        options = dict(granularity="blocks", block_shape=block_shape)
        budget = None if planes is None else planes * 16 * 16 * 8
        run = FleetExecutor(
            CpuDevice(), max_stack_bytes=budget, chunk_rows=chunk_rows, **options
        ).run(pairs)
        assert bool(calls) == linear
        expected = reference.explain_all(pairs, device=CpuDevice(), **options)
        if linear:
            reference.assert_matches(run.results, expected, pairs, **options)
        else:
            assert_same_explanations(run.results, expected)

    @pytest.mark.parametrize("reduction,precision,dtype", [
        ("l1", None, np.float64),
        ("l2", "int8", np.float64),
        ("l2", None, np.longdouble),
    ])
    def test_other_waves_stay_on_the_exact_path(
        self, monkeypatch, reduction, precision, dtype
    ):
        calls = self._spy(monkeypatch)
        pairs = [(x.astype(dtype), y.astype(dtype)) for x, y in planted_pairs(2)]
        options = dict(
            granularity="blocks", block_shape=(2, 2), reduction=reduction,
            precision=precision,
        )
        run = FleetExecutor(CpuDevice(), **options).run(pairs)
        assert not calls
        expected = reference.explain_all(pairs, device=CpuDevice(), **options)
        assert_same_explanations(run.results, expected)

    def test_elements_score_through_the_l2_scorer(self, monkeypatch):
        """``elements`` at l2 takes the scorer instead of the per-element
        loop, and keeps that loop's elementwise ledger row."""
        calls = self._spy(monkeypatch)
        looped = []
        element_scores = fleet.FleetExecutor._element_scores

        def spied(self, *args):
            looped.append(args)
            return element_scores(self, *args)

        monkeypatch.setattr(fleet.FleetExecutor, "_element_scores", spied)
        pairs = planted_pairs(2)
        stats = {}
        for reduction in ("l2", "l1"):
            device = small_backend()
            FleetExecutor(device, granularity="elements", reduction=reduction).run(pairs)
            stats[reduction] = device.take_stats()
        assert len(calls) == 1 and len(looped) == 2  # the l1 run's pairs
        assert stats["l2"].op_counts == stats["l1"].op_counts
        assert stats["l2"].op_seconds == stats["l1"].op_seconds
        assert stats["l2"].op_counts["elementwise_accounted"] == 2


class TestEpsValidation:
    """A bad ``eps`` fails when the object is built (or the solve is
    called), not mid-run."""

    BUILDERS = {
        "executor": lambda eps: FleetExecutor(CpuDevice(), granularity="columns", eps=eps),
        "pipeline": lambda eps: ExplanationPipeline(
            CpuDevice(), granularity="columns", eps=eps
        ).executor,
        "service": lambda eps: ExplanationService(CpuDevice(), granularity="columns", eps=eps),
        "distiller": lambda eps: ConvolutionDistiller(eps=eps),
        "frequency_solve": lambda eps: frequency_solve(
            *planted_pairs(1, shape=(4, 4))[0], eps=eps
        ),
    }

    @pytest.mark.parametrize("eps", [-1.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("builder", sorted(BUILDERS))
    def test_negative_or_non_finite_eps_rejected(self, builder, eps):
        with pytest.raises(ValueError, match="eps must be finite and non-negative"):
            self.BUILDERS[builder](eps)

    @pytest.mark.parametrize("builder", sorted(BUILDERS))
    def test_zero_eps_is_eq4_verbatim(self, builder):
        built = self.BUILDERS[builder](0.0)
        if isinstance(built, np.ndarray):  # frequency_solve's kernel
            assert np.isfinite(built).all()
        else:
            assert built.eps == 0.0


class TestOptionValidation:
    """Bad pod and wave options fail when the executor is built; the
    pipeline and the service inherit the check through theirs."""

    BUILDERS = {
        "executor": lambda **options: FleetExecutor(
            CpuDevice(), granularity="columns", **options
        ),
        "pipeline": lambda **options: ExplanationPipeline(
            CpuDevice(), granularity="columns", **options
        ),
        "service": lambda **options: ExplanationService(
            CpuDevice(), granularity="columns", **options
        ),
    }

    @pytest.mark.parametrize("options, message", [
        ({"num_chips": 0}, "num_chips must be an integer >= 1"),
        ({"num_chips": -3}, "num_chips must be an integer >= 1"),
        ({"num_chips": 2.7}, "num_chips must be an integer >= 1"),
        ({"max_pairs_per_wave": 0}, "max_pairs_per_wave must be positive"),
        ({"chunk_rows": 0}, "chunk_rows must be positive"),
        ({"max_stack_bytes": -5}, "max_stack_bytes must be positive"),
    ])
    @pytest.mark.parametrize("builder", sorted(BUILDERS))
    def test_bad_option_rejected_at_construction(self, builder, options, message):
        with pytest.raises(ValueError, match=message):
            self.BUILDERS[builder](**options)

    @pytest.mark.parametrize("value", [True, 2.5, 0, "2"], ids=repr)
    @pytest.mark.parametrize("option", [
        "max_pairs_per_wave", "chunk_rows", "max_stack_bytes", "num_chips", "hbm_bytes",
    ])
    @pytest.mark.parametrize("builder", sorted(BUILDERS))
    def test_a_count_option_is_an_integer_of_at_least_one(self, builder, option, value):
        """``True`` used to run as 1, 2.5 to build and then raise
        ``TypeError`` at the first dispatch, and "2" to raise ``TypeError``
        here: each is a ``ValueError`` naming the value now."""
        with pytest.raises(ValueError, match=f"{option} must be .* got {value!r}"):
            self.BUILDERS[builder](**{option: value})

    @pytest.mark.parametrize("builder", sorted(BUILDERS))
    def test_none_and_integer_options_build(self, builder):
        defaults = self.BUILDERS[builder](
            num_chips=None, max_pairs_per_wave=None, chunk_rows=None, max_stack_bytes=None
        )
        assert not isinstance(defaults.device, TpuPod)
        pod = self.BUILDERS[builder](
            num_chips=np.int64(2), max_pairs_per_wave=1, chunk_rows=1, max_stack_bytes=1
        )
        assert isinstance(pod.device, TpuPod) and pod.device.num_chips == 2


class TestLedgerHygiene:
    def test_invalid_row_kernel_leaves_stats_clean(self):
        """A rejected multi-kernel call must not record phantom
        kernel-spectrum entries (review finding)."""
        device = CpuDevice()
        stack = [(np.ones((2, 4, 4)), range(2))]
        with pytest.raises(ValueError):
            device.conv2d_circular_batch_chunks(stack, np.ones((2, 4, 4)), num_rows=2)
        with pytest.raises(ValueError):
            device.conv2d_circular_batch_chunks(
                stack, np.ones((2, 4, 4)), num_rows=2, row_kernel=np.array([0, 9])
            )
        assert device.stats.seconds == 0.0
        assert not device.stats.op_counts
