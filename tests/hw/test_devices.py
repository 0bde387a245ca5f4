"""Device backends: functional correctness, stats ledgers, timing order."""

import numpy as np
import pytest

from repro.fft import fft2_matmul
from repro.hw import (
    CpuConfig,
    CpuDevice,
    DeviceStats,
    GpuConfig,
    GpuDevice,
    MxuConfig,
    TpuChip,
    TpuChipConfig,
    TpuCore,
    TpuCoreConfig,
)


def tiny_tpu_core(precision="fp32", **kwargs):
    return TpuCore(
        TpuCoreConfig(mxu=MxuConfig(rows=8, cols=8, precision=precision), **kwargs)
    )


DEVICES = [
    ("cpu", lambda: CpuDevice()),
    ("gpu", lambda: GpuDevice()),
    ("tpu", lambda: tiny_tpu_core()),
]


@pytest.mark.parametrize("name,factory", DEVICES)
class TestFunctionalAcrossBackends:
    def test_matmul_matches_numpy(self, name, factory):
        device = factory()
        rng = np.random.default_rng(0)
        a = rng.standard_normal((6, 8))
        b = rng.standard_normal((8, 4))
        np.testing.assert_allclose(device.matmul(a, b), a @ b, atol=1e-9)

    def test_complex_matmul(self, name, factory):
        device = factory()
        rng = np.random.default_rng(1)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        np.testing.assert_allclose(device.matmul(a, b), a @ b, atol=1e-9)

    def test_fft2_matches_numpy(self, name, factory):
        device = factory()
        rng = np.random.default_rng(2)
        x = rng.standard_normal((8, 8))
        np.testing.assert_allclose(device.fft2(x), fft2_matmul(x), atol=1e-8)

    def test_ifft2_round_trip(self, name, factory):
        device = factory()
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        np.testing.assert_allclose(device.ifft2(device.fft2(x)), x, atol=1e-8)

    def test_conv2d_circular_matches_direct(self, name, factory):
        from repro.fft import circular_convolve2d

        device = factory()
        rng = np.random.default_rng(4)
        x = rng.standard_normal((5, 5))
        k = rng.standard_normal((5, 5))
        np.testing.assert_allclose(
            device.conv2d_circular(x, k), circular_convolve2d(x, k), atol=1e-8
        )

    def test_hadamard_ops(self, name, factory):
        device = factory()
        a = np.array([[2.0, 4.0]])
        b = np.array([[1.0, 2.0]])
        np.testing.assert_allclose(device.hadamard(a, b, "mul"), [[2.0, 8.0]])
        np.testing.assert_allclose(device.hadamard(a, b, "div"), [[2.0, 2.0]])
        np.testing.assert_allclose(device.hadamard(a, b, "add"), [[3.0, 6.0]])
        np.testing.assert_allclose(device.hadamard(a, b, "sub"), [[1.0, 2.0]])

    def test_transpose(self, name, factory):
        device = factory()
        x = np.arange(6.0).reshape(2, 3)
        np.testing.assert_array_equal(device.transpose(x), x.T)

    def test_stats_accumulate_and_reset(self, name, factory):
        device = factory()
        device.matmul(np.ones((4, 4)), np.ones((4, 4)))
        assert device.stats.seconds > 0
        assert device.stats.op_counts["matmul"] == 1
        harvested = device.take_stats()
        assert harvested.seconds > 0
        assert device.stats.seconds == 0.0

    def test_validation(self, name, factory):
        device = factory()
        with pytest.raises(ValueError):
            device.matmul(np.ones((2, 3)), np.ones((2, 3)))
        with pytest.raises(ValueError):
            device.hadamard(np.ones((2, 2)), np.ones((3, 3)))
        with pytest.raises(ValueError):
            device.hadamard(np.ones((2, 2)), np.ones((2, 2)), op="pow")
        with pytest.raises(ValueError):
            device.transpose(np.ones(3))
        with pytest.raises(ValueError):
            device.fft2(np.ones(3))

    def test_account_only_paths(self, name, factory):
        device = factory()
        seconds = device.account_matmul(64, 64, 64, count=3)
        assert seconds > 0
        assert device.stats.op_counts["matmul_accounted"] == 1
        assert device.account_elementwise(1000, count=2) > 0
        assert device.account_transfer(10_000) > 0


class TestDeviceStats:
    def test_merge(self):
        a = DeviceStats()
        a.record("x", 1.0, macs=10)
        b = DeviceStats()
        b.record("x", 2.0, macs=5)
        b.record("y", 0.5)
        a.merge(b)
        assert a.seconds == pytest.approx(3.5)
        assert a.macs == 15
        assert a.op_counts["x"] == 2
        assert a.op_seconds["y"] == pytest.approx(0.5)

    def test_copy_is_independent(self):
        a = DeviceStats()
        a.record("x", 1.0)
        c = a.copy()
        c.record("x", 1.0)
        assert a.seconds == 1.0
        assert c.seconds == 2.0

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            DeviceStats().record("x", -1.0)


class TestTimingOrder:
    """The structural claim behind every table: CPU > GPU > TPU compute."""

    def test_matmul_cost_ordering_at_scale(self):
        cpu = CpuDevice()
        gpu = GpuDevice()
        tpu = TpuCore()  # full 256x256 MXU
        m = k = n = 1024
        assert cpu.matmul_seconds(m, k, n) > gpu.matmul_seconds(m, k, n)
        assert gpu.matmul_seconds(m, k, n) > tpu.matmul_seconds(m, k, n)

    def test_tpu_core_int8_beats_fp32_mode(self):
        int8 = TpuCore(TpuCoreConfig(mxu=MxuConfig(precision="int8")))
        fp32 = TpuCore(TpuCoreConfig(mxu=MxuConfig(precision="fp32")))
        assert int8.matmul_seconds(512, 512, 512) < fp32.matmul_seconds(512, 512, 512)

    def test_gpu_overhead_dominates_small_ops(self):
        gpu = GpuDevice()
        tiny = gpu.matmul_seconds(2, 2, 2)
        assert tiny == pytest.approx(gpu.config.kernel_launch_sec, rel=0.1)

    def test_cpu_energy_model(self):
        cpu = CpuDevice()
        assert cpu.energy_joules(2.0) == pytest.approx(2.0 * cpu.config.tdp_watts)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CpuConfig(efficiency=0.0)
        with pytest.raises(ValueError):
            GpuConfig(efficiency=1.5)
        with pytest.raises(ValueError):
            CpuConfig(cores=0)
        with pytest.raises(ValueError):
            GpuConfig(kernel_launch_sec=-1)


class TestTpuCore:
    def test_int8_core_quantizes_matmuls(self):
        from repro.hw import quantized_matmul

        core = tiny_tpu_core(precision="int8")
        rng = np.random.default_rng(5)
        a = rng.standard_normal((8, 8))
        b = rng.standard_normal((8, 8))
        np.testing.assert_allclose(
            core.matmul(a, b), quantized_matmul(a, b, bits=8), atol=1e-12
        )

    def test_trace_program_collects_instructions(self):
        from repro.hw import Opcode

        core = TpuCore(
            TpuCoreConfig(mxu=MxuConfig(rows=8, cols=8, precision="fp32")), trace=True
        )
        core.matmul(np.ones((4, 16)), np.ones((16, 8)))
        histogram = core.trace_program.opcode_histogram()
        assert histogram[Opcode.MATMUL] == 2  # two k-tiles
        assert histogram[Opcode.LOAD_WEIGHTS] == 2

    def test_utilization_bounded(self):
        core = tiny_tpu_core()
        core.matmul(np.ones((32, 8)), np.ones((8, 8)))
        assert 0.0 < core.utilization() <= 1.0


class TestTpuChip:
    def test_chip_has_configured_cores(self):
        chip = TpuChip(TpuChipConfig(num_cores=4))
        assert chip.num_cores == 4
        assert len(chip.cores) == 4

    def test_dispatch_and_feeds_accumulate(self):
        chip = TpuChip(TpuChipConfig(num_cores=2, dispatch_latency_sec=0.01,
                                     host_bandwidth_bytes_per_sec=1000.0))
        chip.dispatch()
        chip.infeed_seconds(500)
        chip.outfeed_seconds(250)
        assert chip.stats_seconds == pytest.approx(0.01 + 0.5 + 0.25)
        events = [name for name, _ in chip.event_log]
        assert events == ["dispatch", "infeed", "outfeed"]

    def test_cross_replica_sum_uses_all_cores_by_default(self):
        chip = TpuChip(TpuChipConfig(num_cores=8))
        t_all = chip.cross_replica_sum_seconds(1 << 20)
        chip.reset()
        t_two = chip.cross_replica_sum_seconds(1 << 20, num_cores=2)
        assert t_all != t_two

    def test_reset_clears_everything(self):
        chip = TpuChip(TpuChipConfig(num_cores=2))
        chip.dispatch()
        chip.cores[0].matmul(np.ones((4, 4)), np.ones((4, 4)))
        chip.reset()
        assert chip.stats_seconds == 0.0
        assert chip.total_core_seconds() == 0.0
        assert chip.event_log == []

    def test_core_second_aggregates(self):
        chip = TpuChip(TpuChipConfig(num_cores=2))
        chip.cores[0].matmul(np.ones((4, 4)), np.ones((4, 4)))
        assert chip.max_core_seconds() == chip.cores[0].stats.seconds
        assert chip.total_core_seconds() == chip.cores[0].stats.seconds

    def test_negative_feed_rejected(self):
        chip = TpuChip(TpuChipConfig(num_cores=1))
        with pytest.raises(ValueError):
            chip.infeed_seconds(-1)
        with pytest.raises(ValueError):
            chip.outfeed_seconds(-1)

    def test_invalid_chip_config(self):
        with pytest.raises(ValueError):
            TpuChipConfig(num_cores=0)
        with pytest.raises(ValueError):
            TpuChipConfig(dispatch_latency_sec=-1.0)

    @pytest.mark.parametrize("value", [0, -1])
    @pytest.mark.parametrize("field, message", [
        ("hbm_capacity_bytes", "hbm: capacity must be positive"),
        ("hbm_bandwidth_bytes_per_sec", "hbm: bandwidth must be positive"),
        ("unified_buffer_bytes", "unified_buffer: capacity must be positive"),
    ])
    def test_invalid_core_memory_fails_in_the_config(self, field, message, value):
        """The chip builds its cores on first read, so the core config
        itself rejects a memory its cores could not hold."""
        with pytest.raises(ValueError, match=message):
            TpuCoreConfig(**{field: value})


class TestHadamardCostModel:
    """Complex point-wise flops are op-dependent: mul/div cost 4 real
    flops per element, add/sub only 2 (two real adds)."""

    @pytest.mark.parametrize("name,factory", DEVICES)
    def test_complex_add_cheaper_than_complex_mul(self, name, factory):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        b = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        device = factory()
        device.hadamard(a, b, op="mul")
        mul_seconds = device.take_stats().seconds
        device.hadamard(a, b, op="add")
        add_seconds = device.take_stats().seconds
        if name == "cpu":
            # The CPU roofline is memory-bound at these intensities, so
            # the cheaper flop count is hidden behind bandwidth.
            assert add_seconds <= mul_seconds
        else:
            assert add_seconds < mul_seconds
        device.hadamard(a, b, op="sub")
        assert device.take_stats().seconds == pytest.approx(add_seconds)
        device.hadamard(a, b, op="div")
        assert device.take_stats().seconds == pytest.approx(mul_seconds)

    def test_real_ops_unaffected(self):
        device = CpuDevice()
        a = np.ones((32, 32))
        device.hadamard(a, a, op="add")
        add_seconds = device.take_stats().seconds
        device.hadamard(a, a, op="mul")
        assert device.take_stats().seconds == pytest.approx(add_seconds)
