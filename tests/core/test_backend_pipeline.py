"""TpuBackend device semantics and the end-to-end explanation pipeline."""

import numpy as np
import pytest

from repro.core import (
    ExplanationPipeline,
    OutputEmbedding,
    TpuBackend,
    make_tpu_chip,
)
from repro.core.decomposition import shard_slices
from repro.fft import fft2_matmul, fft_circular_convolve2d
from repro.hw import CpuDevice, GpuDevice
from tests import reference


def small_backend(num_cores=4, precision="fp32"):
    return TpuBackend(
        make_tpu_chip(num_cores=num_cores, precision=precision, mxu_rows=8, mxu_cols=8)
    )


def planted_pair(shape=(8, 8), seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape)
    x[0, 0] += 5.0 * np.prod(shape) ** 0.5
    kernel = rng.standard_normal(shape)
    y = fft_circular_convolve2d(x, kernel)
    return x, y


class TestTpuBackend:
    def test_matmul_functional(self):
        backend = small_backend()
        rng = np.random.default_rng(1)
        a = rng.standard_normal((8, 8))
        b = rng.standard_normal((8, 8))
        np.testing.assert_allclose(backend.matmul(a, b), a @ b, atol=1e-6)

    def test_fft2_functional(self):
        backend = small_backend()
        x = np.random.default_rng(2).standard_normal((8, 8))
        np.testing.assert_allclose(backend.fft2(x), fft2_matmul(x), atol=1e-6)

    def test_sharded_matmul_faster_than_single_core(self):
        many = small_backend(num_cores=8)
        one = small_backend(num_cores=1)
        assert many.matmul_seconds(512, 64, 64) < one.matmul_seconds(512, 64, 64)

    def test_fft2_cost_scales_with_cores(self):
        many = small_backend(num_cores=8)
        one = small_backend(num_cores=1)
        assert many.fft2_seconds(256, 256) < one.fft2_seconds(256, 256)

    @pytest.mark.parametrize("num_cores", [1, 4, 7, 128])
    def test_fft2_seconds_prices_each_stage_by_its_first_shard(self, num_cores):
        """Algorithm 1 per stage: the first balanced shard's matmul plus
        the stage's all-reduce, bit for bit, on square and odd planes."""
        backend = TpuBackend(make_tpu_chip(num_cores=num_cores))
        core = backend._core
        interconnect = backend.chip.interconnect
        factor = backend.complex_matmul_real_products
        for m in (1, 2, 3, 7, 8, 31, 64, 127, 129, 300):
            for n in (1, 5, 16, 33, 130):
                payload = m * n * 16
                rows = shard_slices(m, min(num_cores, m))[0]
                cols = shard_slices(n, min(num_cores, n))[0]
                expected = (
                    factor * core.matmul_seconds(rows.stop - rows.start, n, n)
                    + interconnect.all_reduce_seconds(payload, min(num_cores, m))
                ) + (
                    factor * core.matmul_seconds(m, m, cols.stop - cols.start)
                    + interconnect.all_reduce_seconds(payload, min(num_cores, n))
                )
                assert backend.fft2_seconds(m, n) == expected

    @pytest.mark.parametrize("m, n", [(0, 8), (8, 0), (-1, 8)])
    def test_fft2_seconds_rejects_an_empty_plane(self, m, n):
        with pytest.raises(ValueError):
            small_backend().fft2_seconds(m, n)

    def test_program_scope_charges_dispatch_and_feeds(self):
        backend = small_backend()
        with backend.program(infeed_bytes=1000, outfeed_bytes=500):
            pass
        stats = backend.take_stats()
        assert stats.op_counts["dispatch"] == 1
        assert stats.op_counts["infeed"] == 1
        assert stats.op_counts["outfeed"] == 1
        assert stats.seconds >= backend.chip.config.dispatch_latency_sec

    def test_program_scope_without_feeds(self):
        backend = small_backend()
        with backend.program():
            pass
        stats = backend.take_stats()
        assert stats.op_counts["dispatch"] == 1
        assert "infeed" not in stats.op_counts

    def test_int8_backend_quantizes(self):
        from repro.hw import quantized_matmul

        backend = small_backend(precision="int8")
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4))
        np.testing.assert_allclose(
            backend.matmul(a, b), quantized_matmul(a, b), atol=1e-12
        )

    def test_energy_model_scales_with_cores(self):
        assert small_backend(num_cores=8).energy_joules(1.0) == pytest.approx(
            8 * small_backend(num_cores=1).energy_joules(1.0)
        )


class TestExplanationPipeline:
    @pytest.mark.parametrize(
        "device_factory",
        [CpuDevice, GpuDevice, small_backend],
        ids=["cpu", "gpu", "tpu"],
    )
    def test_runs_on_every_backend(self, device_factory):
        device = device_factory()
        pipeline = ExplanationPipeline(
            device, granularity="blocks", block_shape=(2, 2), eps=1e-8
        )
        pairs = [planted_pair(seed=s) for s in range(2)]
        run = pipeline.run(pairs)
        assert len(run.explanations) == 2
        assert run.simulated_seconds > 0
        assert run.seconds_per_pair == pytest.approx(run.simulated_seconds / 2)
        for explanation in run.explanations:
            assert explanation.scores.shape == (4, 4)
            assert explanation.residual < 1e-4  # consistent pair distills exactly

    def test_column_granularity_for_traces(self):
        pipeline = ExplanationPipeline(CpuDevice(), granularity="columns")
        run = pipeline.run([planted_pair(seed=7)])
        assert run.explanations[0].scores.shape == (8,)

    def test_rows_and_elements_granularities(self):
        for granularity, shape in [("rows", (8,)), ("elements", (8, 8))]:
            pipeline = ExplanationPipeline(CpuDevice(), granularity=granularity)
            run = pipeline.run([planted_pair(seed=8)])
            assert run.explanations[0].scores.shape == shape

    def test_vector_outputs_with_embedding(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((8, 8))
        x[0, 0] += 40.0
        logits = rng.standard_normal(4)
        pipeline = ExplanationPipeline(
            CpuDevice(),
            granularity="blocks",
            block_shape=(4, 4),
            embedding=OutputEmbedding("spatial"),
        )
        run = pipeline.run([(x, logits)])
        assert run.explanations[0].scores.shape == (2, 2)

    def test_tpu_pays_one_dispatch_per_pair_under_pair_fusion(self):
        """One-pair waves: one program and one dispatch per pair."""
        backend = small_backend()
        pipeline = ExplanationPipeline(
            backend, granularity="blocks", block_shape=(4, 4), eps=1e-8,
            max_pairs_per_wave=1,
        )
        run = pipeline.run([planted_pair(seed=s) for s in range(3)])
        assert run.stats.op_counts["dispatch"] == 3
        assert run.num_programs == 3

    def test_tpu_pays_one_dispatch_per_wave_under_wave_fusion(self):
        backend = small_backend()
        pipeline = ExplanationPipeline(
            backend, granularity="blocks", block_shape=(4, 4), eps=1e-8
        )
        run = pipeline.run([planted_pair(seed=s) for s in range(3)])
        # Equal-shape pairs fuse into one wave: one program, one dispatch,
        # and no per-pair residual round trips.
        assert run.stats.op_counts["dispatch"] == 1
        assert "conv_round_trip" not in run.stats.op_counts
        assert run.num_programs == 1

    def test_wave_and_pair_fusion_agree_bitwise(self):
        pairs = [planted_pair(seed=s) for s in range(3)]
        options = dict(granularity="blocks", block_shape=(4, 4), eps=1e-8)
        run = ExplanationPipeline(small_backend(), **options).run(pairs)
        per_pair = ExplanationPipeline(
            small_backend(), max_pairs_per_wave=1, **options
        ).run(pairs)
        for a, b in zip(per_pair.explanations, run.explanations):
            np.testing.assert_array_equal(a.scores, b.scores)
            np.testing.assert_array_equal(a.kernel, b.kernel)
            assert a.residual == b.residual
        expected = reference.explain_all(pairs, device=small_backend(), **options)
        reference.assert_matches(run.explanations, expected, pairs, **options)

    def test_speedup_ordering_cpu_slowest_tpu_fastest(self):
        """The structural Table II property, asserted at the workload
        scale the paper measures (large transforms).  At tiny sizes the
        GPU's kernel-launch overhead makes it *slower* than the CPU --
        also physically correct, and covered by the Figure 4 benches."""
        cpu = CpuDevice()
        gpu = GpuDevice()
        tpu = TpuBackend(make_tpu_chip(num_cores=128))
        size = 1024
        t_cpu = cpu.fft2_seconds(size, size)
        t_gpu = gpu.fft2_seconds(size, size)
        t_tpu = tpu.fft2_seconds(size, size)
        assert t_cpu > t_gpu > t_tpu

    def test_validation(self):
        with pytest.raises(ValueError):
            ExplanationPipeline(CpuDevice(), granularity="pixels")
        with pytest.raises(ValueError):
            ExplanationPipeline(CpuDevice(), granularity="blocks")  # no block_shape
        with pytest.raises(ValueError, match="hbm_bytes"):
            ExplanationPipeline(CpuDevice(), granularity="columns", hbm_bytes=0)

    def test_empty_batch_returns_empty_run(self):
        """The serving layer's idle drain path: an empty batch is a
        zero-cost run, not an error."""
        for granularity in ("columns", "elements"):
            pipeline = ExplanationPipeline(CpuDevice(), granularity=granularity)
            run = pipeline.run([])
            assert run.explanations == []
            assert run.simulated_seconds == 0.0
            assert run.num_programs == 0
            assert not run.stats.op_counts
