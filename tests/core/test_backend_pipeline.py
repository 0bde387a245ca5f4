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
from repro.hw import CpuDevice, GpuDevice, TpuChip, TpuCore, TpuPod
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
        core = backend.chip.cores[0]
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


#: Chips of the pinned-price grid: the paper's configuration and a small one.
PRICED_CHIPS = {
    "paper": {},
    "small": {"num_cores": 4, "precision": "fp32", "mxu_rows": 8, "mxu_cols": 8},
}

#: ``(chip, hook, arguments, float.hex of the price)``.  These five hooks
#: price the compute rows of every TPU ledger, so their bits are pinned:
#: a formula that moves one bit fails here.
PINNED_PRICES = [
    ("paper", "matmul_seconds", (1, 1, 1, None), "0x1.2620e990d8ee5p-20"),
    ("paper", "matmul_seconds", (1, 1, 1, "int8"), "0x1.2620e990d8ee5p-20"),
    ("paper", "matmul_seconds", (1, 1, 1, "bf16"), "0x1.2620e990d8ee5p-20"),
    ("paper", "matmul_seconds", (1, 1, 1, "fp32"), "0x1.b900488064f68p-19"),
    ("paper", "matmul_seconds", (1, 1, 1, "fp64"), "0x1.a0755c102d7adp-18"),
    ("paper", "matmul_seconds", (7, 33, 5, None), "0x1.dc37c18b8b8b6p-18"),
    ("paper", "matmul_seconds", (7, 33, 5, "int8"), "0x1.dc37c18b8b8b6p-18"),
    ("paper", "matmul_seconds", (7, 33, 5, "bf16"), "0x1.dc37c18b8b8b6p-18"),
    ("paper", "matmul_seconds", (7, 33, 5, "fp32"), "0x1.3797d5b3c3e58p-17"),
    ("paper", "matmul_seconds", (7, 33, 5, "fp64"), "0x1.9992719bc1655p-17"),
    ("paper", "matmul_seconds", (300, 64, 257, None), "0x1.10c4271019d37p-13"),
    ("paper", "matmul_seconds", (300, 64, 257, "int8"), "0x1.10c4271019d37p-13"),
    ("paper", "matmul_seconds", (300, 64, 257, "bf16"), "0x1.10c4271019d37p-13"),
    ("paper", "matmul_seconds", (300, 64, 257, "fp32"), "0x1.19fcd9c683ac3p-13"),
    ("paper", "matmul_seconds", (300, 64, 257, "fp64"), "0x1.264872b9bb77fp-13"),
    ("paper", "elementwise_seconds", (1, 1.0), "0x1.88aec70377bb0p-30"),
    ("paper", "elementwise_seconds", (1000, 4.0), "0x1.88aec70377bb0p-30"),
    ("paper", "elementwise_seconds", (65537, 2.5), "0x1.2683154299cc4p-27"),
    ("paper", "fft2_seconds", (1, 1), "0x1.2620e990d8ee5p-17"),
    ("paper", "fft2_seconds", (36, 36), "0x1.38bea4c9d22d6p-13"),
    ("paper", "fft2_seconds", (129, 64), "0x1.9986fcd6a77dfp-12"),
    ("paper", "batch_conv_seconds", (1, 8, 8, None), "0x1.0fae2e8a5e961p-13"),
    ("paper", "batch_conv_seconds", (1, 8, 8, "int8"), "0x1.0fae2e8a5e961p-13"),
    ("paper", "batch_conv_seconds", (1, 8, 8, "bf16"), "0x1.0fae2e8a5e961p-13"),
    ("paper", "batch_conv_seconds", (1, 8, 8, "fp32"), "0x1.592a23785cb5ep-13"),
    ("paper", "batch_conv_seconds", (1, 8, 8, "fp64"), "0x1.bb24bf605a35ap-13"),
    ("paper", "batch_conv_seconds", (37, 48, 40, None), "0x1.7def24d563d31p-10"),
    ("paper", "batch_conv_seconds", (37, 48, 40, "int8"), "0x1.7def24d563d31p-10"),
    ("paper", "batch_conv_seconds", (37, 48, 40, "bf16"), "0x1.7def24d563d31p-10"),
    ("paper", "batch_conv_seconds", (37, 48, 40, "fp32"), "0x1.9e33494dabc4ap-10"),
    ("paper", "batch_conv_seconds", (37, 48, 40, "fp64"), "0x1.c938cf436106bp-10"),
    ("paper", "kernel_spectrum_batch_seconds", (1, 8, 8, None), "0x1.0fad6a32fb145p-14"),
    ("paper", "kernel_spectrum_batch_seconds", (1, 8, 8, "int8"), "0x1.0fad6a32fb145p-14"),
    ("paper", "kernel_spectrum_batch_seconds", (1, 8, 8, "bf16"), "0x1.0fad6a32fb145p-14"),
    ("paper", "kernel_spectrum_batch_seconds", (1, 8, 8, "fp32"), "0x1.59295f20f9342p-14"),
    ("paper", "kernel_spectrum_batch_seconds", (1, 8, 8, "fp64"), "0x1.bb23fb08f6b3ep-14"),
    ("paper", "kernel_spectrum_batch_seconds", (37, 48, 40, None), "0x1.7dee47f313e12p-11"),
    ("paper", "kernel_spectrum_batch_seconds", (37, 48, 40, "int8"), "0x1.7dee47f313e12p-11"),
    ("paper", "kernel_spectrum_batch_seconds", (37, 48, 40, "bf16"), "0x1.7dee47f313e12p-11"),
    ("paper", "kernel_spectrum_batch_seconds", (37, 48, 40, "fp32"), "0x1.9e326c6b5bd2bp-11"),
    ("paper", "kernel_spectrum_batch_seconds", (37, 48, 40, "fp64"), "0x1.c937f2611114cp-11"),
    ("small", "matmul_seconds", (1, 1, 1, None), "0x1.a139b373af36bp-24"),
    ("small", "matmul_seconds", (1, 1, 1, "int8"), "0x1.1a3d9f0a7e0e6p-25"),
    ("small", "matmul_seconds", (1, 1, 1, "bf16"), "0x1.1a3d9f0a7e0e6p-25"),
    ("small", "matmul_seconds", (1, 1, 1, "fp32"), "0x1.a139b373af36bp-24"),
    ("small", "matmul_seconds", (1, 1, 1, "fp64"), "0x1.88aec70377bb0p-23"),
    ("small", "matmul_seconds", (7, 33, 5, None), "0x1.d199c11798c4ap-19"),
    ("small", "matmul_seconds", (7, 33, 5, "int8"), "0x1.a39545c530bccp-19"),
    ("small", "matmul_seconds", (7, 33, 5, "bf16"), "0x1.a39545c530bccp-19"),
    ("small", "matmul_seconds", (7, 33, 5, "fp32"), "0x1.d199c11798c4ap-19"),
    ("small", "matmul_seconds", (7, 33, 5, "fp64"), "0x1.077a881811bcfp-18"),
    ("small", "matmul_seconds", (300, 64, 257, None), "0x1.21d74a28abef8p-13"),
    ("small", "matmul_seconds", (300, 64, 257, "int8"), "0x1.3aa7b0e86a200p-15"),
    ("small", "matmul_seconds", (300, 64, 257, "bf16"), "0x1.3aa7b0e86a200p-15"),
    ("small", "matmul_seconds", (300, 64, 257, "fp32"), "0x1.21d74a28abef8p-13"),
    ("small", "matmul_seconds", (300, 64, 257, "fp64"), "0x1.1db48e5e0c3ccp-12"),
    ("small", "elementwise_seconds", (1, 1.0), "0x1.88aec70377bb0p-30"),
    ("small", "elementwise_seconds", (1000, 4.0), "0x1.88aec70377bb0p-28"),
    ("small", "elementwise_seconds", (65537, 2.5), "0x1.edebd6525c993p-23"),
    ("small", "fft2_seconds", (1, 1), "0x1.a139b373af36bp-21"),
    ("small", "fft2_seconds", (36, 36), "0x1.349a38e33501ap-15"),
    ("small", "fft2_seconds", (129, 64), "0x1.9447e2e527e2bp-13"),
    ("small", "batch_conv_seconds", (1, 8, 8, None), "0x1.a093074e9ed6bp-15"),
    ("small", "batch_conv_seconds", (1, 8, 8, "int8"), "0x1.975eeea48a085p-15"),
    ("small", "batch_conv_seconds", (1, 8, 8, "bf16"), "0x1.975eeea48a085p-15"),
    ("small", "batch_conv_seconds", (1, 8, 8, "fp32"), "0x1.a093074e9ed6bp-15"),
    ("small", "batch_conv_seconds", (1, 8, 8, "fp64"), "0x1.acd87d86ba949p-15"),
    ("small", "batch_conv_seconds", (37, 48, 40, None), "0x1.f36740ee08093p-10"),
    ("small", "batch_conv_seconds", (37, 48, 40, "int8"), "0x1.1235f0057bfdep-11"),
    ("small", "batch_conv_seconds", (37, 48, 40, "bf16"), "0x1.1235f0057bfdep-11"),
    ("small", "batch_conv_seconds", (37, 48, 40, "fp32"), "0x1.f36740ee08093p-10"),
    ("small", "batch_conv_seconds", (37, 48, 40, "fp64"), "0x1.eb3bd113e00b8p-9"),
    ("small", "kernel_spectrum_batch_seconds", (1, 8, 8, None), "0x1.a08ff5f110cfcp-16"),
    ("small", "kernel_spectrum_batch_seconds", (1, 8, 8, "int8"), "0x1.975bdd46fc016p-16"),
    ("small", "kernel_spectrum_batch_seconds", (1, 8, 8, "bf16"), "0x1.975bdd46fc016p-16"),
    ("small", "kernel_spectrum_batch_seconds", (1, 8, 8, "fp32"), "0x1.a08ff5f110cfcp-16"),
    ("small", "kernel_spectrum_batch_seconds", (1, 8, 8, "fp64"), "0x1.acd56c292c8dap-16"),
    ("small", "kernel_spectrum_batch_seconds", (37, 48, 40, None), "0x1.f34c9a11462cfp-11"),
    ("small", "kernel_spectrum_batch_seconds", (37, 48, 40, "int8"), "0x1.1200a24bf8456p-12"),
    ("small", "kernel_spectrum_batch_seconds", (37, 48, 40, "bf16"), "0x1.1200a24bf8456p-12"),
    ("small", "kernel_spectrum_batch_seconds", (37, 48, 40, "fp32"), "0x1.f34c9a11462cfp-11"),
    ("small", "kernel_spectrum_batch_seconds", (37, 48, 40, "fp64"), "0x1.eb2e7da57f1d6p-10"),
]


def count_core_builds(monkeypatch):
    """A list that collects every :class:`TpuCore` built from now on."""
    built = []
    init = TpuCore.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(TpuCore, "__init__", counting_init)
    return built


class TestPricingFromConfiguration:
    @pytest.mark.parametrize("chip, hook, arguments, expected", PINNED_PRICES)
    def test_cost_hooks_keep_their_bits(self, chip, hook, arguments, expected):
        backend = TpuBackend(make_tpu_chip(**PRICED_CHIPS[chip]))
        assert getattr(backend, hook)(*arguments).hex() == expected

    def test_pricing_builds_no_core(self, monkeypatch):
        built = count_core_builds(monkeypatch)
        backend = TpuBackend(make_tpu_chip())
        for chip, hook, arguments, _ in PINNED_PRICES:
            if chip == "paper":
                getattr(backend, hook)(*arguments)
        TpuPod.like(backend, 3)
        pipeline = ExplanationPipeline(
            small_backend(), granularity="blocks", block_shape=(4, 4), num_chips=2
        )
        pipeline.run([planted_pair(seed=seed) for seed in range(3)])
        assert built == []

    def test_cores_are_built_on_first_read(self, monkeypatch):
        built = count_core_builds(monkeypatch)
        chip = make_tpu_chip(num_cores=3, precision="fp32")
        traced = TpuChip(chip.config, trace=True)
        assert built == []
        cores = traced.cores
        assert len(built) == 3 and cores == built
        assert [core.core_id for core in cores] == [0, 1, 2]
        assert all(isinstance(core, TpuCore) and core.trace_enabled for core in cores)
        assert all(core.config is chip.config.core for core in cores)
        assert traced.cores is cores
        assert len(built) == 3
        assert not any(core.trace_enabled for core in chip.cores)

    def test_unbuilt_chip_prices_and_resets_without_building_a_core(self, monkeypatch):
        built = count_core_builds(monkeypatch)
        chip = make_tpu_chip(num_cores=4)
        assert chip.cross_replica_sum_seconds(1 << 20) > 0.0
        chip.reset()
        assert built == []

    @pytest.mark.parametrize("trace", [False, True])
    def test_clone_carries_the_trace_flag_and_builds_no_core(self, monkeypatch, trace):
        built = count_core_builds(monkeypatch)
        backend = TpuBackend(TpuChip(make_tpu_chip(num_cores=4).config, trace=trace))
        for clone in (backend.clone(), backend.clone(hbm_bytes=1 << 20)):
            assert clone.chip.trace is trace and clone.chip is not backend.chip
        assert built == []
        assert clone.chip.cores[0].trace_enabled is trace
        assert clone.chip.cores[0].config.hbm_capacity_bytes == (1 << 20) // 4


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
