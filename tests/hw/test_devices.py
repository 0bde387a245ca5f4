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
        from tests.fft.convolution_oracle import circular_convolve2d

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

    def test_scale_multiplies_in_one_elementwise_pass(self, name, factory):
        device = factory()
        a = np.arange(6.0).reshape(2, 3)
        np.testing.assert_array_equal(device.scale(a, 2.5), a * 2.5)
        assert device.stats.op_counts["scale"] == 1
        assert device.stats.op_seconds["scale"] == device.elementwise_seconds(6)

    def test_matrix_operations_reject_other_ranks(self, name, factory):
        device = factory()
        with pytest.raises(ValueError, match="matmul expects 2-D operands"):
            device.matmul(np.ones(3), np.ones((3, 3)))
        with pytest.raises(ValueError, match="ifft2 expects a matrix"):
            device.ifft2(np.ones(3))
        with pytest.raises(ValueError, match="operands must share a shape"):
            device.conv2d_circular(np.ones((2, 2)), np.ones((3, 3)))
        with pytest.raises(ValueError, match="fft2 expects a matrix"):
            device.conv2d_circular(np.ones(4), np.ones(4))
        assert not device.stats.op_counts

    def test_eager_kernel_stack_pays_one_transform_per_kernel(self, name, factory):
        device = factory()
        assert device.kernel_spectrum_batch_seconds(3, 8, 8) == 3 * device.fft2_seconds(8, 8)
        with pytest.raises(ValueError, match="batch must be positive"):
            device.kernel_spectrum_batch_seconds(0, 8, 8)

    def test_chunk_stream_rejects_a_kernel_that_is_not_a_plane_or_stack(
        self, name, factory
    ):
        device = factory()
        with pytest.raises(ValueError, match=r"expects a \(M, N\) or \(P, M, N\) kernel"):
            device.conv2d_circular_batch_chunks(iter(()), np.ones(4), num_rows=1)
        assert not device.stats.op_counts


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

    def test_gpu_energy_model(self):
        gpu = GpuDevice()
        assert gpu.energy_joules(2.0) == pytest.approx(2.0 * gpu.config.tdp_watts)

    def test_cpu_config_rejects_a_bandwidth_or_overhead_it_cannot_price(self):
        with pytest.raises(ValueError, match="memory bandwidth must be positive"):
            CpuConfig(memory_bandwidth_bytes_per_sec=0.0)
        with pytest.raises(ValueError, match="op overhead cannot be negative"):
            CpuConfig(op_overhead_sec=-1e-6)

    def test_gpu_config_rejects_a_bad_clock_or_bandwidth(self):
        with pytest.raises(ValueError, match="clock and core count must be positive"):
            GpuConfig(clock_hz=0.0)
        with pytest.raises(ValueError, match="clock and core count must be positive"):
            GpuConfig(cuda_cores=0)
        with pytest.raises(ValueError, match="memory bandwidth must be positive"):
            GpuConfig(memory_bandwidth_bytes_per_sec=-1.0)

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

    def test_utilization_bounded(self):
        core = tiny_tpu_core()
        core.matmul(np.ones((32, 8)), np.ones((8, 8)))
        assert 0.0 < core.utilization() <= 1.0

    def test_idle_core_reports_zero_utilization(self):
        core = tiny_tpu_core()
        assert core.utilization() == 0.0
        core.matmul(np.ones((8, 8)), np.ones((8, 8)))
        core.reset_stats()
        assert core.utilization() == 0.0

    def test_core_energy_model(self):
        core = tiny_tpu_core()
        assert core.energy_joules(2.0) == pytest.approx(2.0 * core.config.tdp_watts)

    def test_core_config_rejects_a_bad_clock_or_vector_unit(self):
        with pytest.raises(ValueError, match="clock must be positive"):
            TpuCoreConfig(clock_hz=0.0)
        with pytest.raises(ValueError, match="VPU geometry must be positive"):
            TpuCoreConfig(vpu_lanes=0)
        with pytest.raises(ValueError, match="VPU geometry must be positive"):
            TpuCoreConfig(vpu_ops_per_lane_per_cycle=0.0)


class TestTpuChip:
    def test_chip_has_configured_cores(self):
        chip = TpuChip(TpuChipConfig(num_cores=4))
        assert chip.num_cores == 4
        assert len(chip.cores) == 4

    def test_cross_replica_sum_uses_all_cores_by_default(self):
        chip = TpuChip(TpuChipConfig(num_cores=8))
        t_all = chip.cross_replica_sum_seconds(1 << 20)
        chip.reset()
        t_two = chip.cross_replica_sum_seconds(1 << 20, num_cores=2)
        assert t_all != t_two

    def test_reset_clears_the_core_ledgers(self):
        chip = TpuChip(TpuChipConfig(num_cores=2))
        chip.cores[0].matmul(np.ones((4, 4)), np.ones((4, 4)))
        assert chip.cores[0].stats.seconds > 0.0
        chip.reset()
        assert [core.stats.seconds for core in chip.cores] == [0.0, 0.0]

    def test_invalid_chip_config(self):
        with pytest.raises(ValueError):
            TpuChipConfig(num_cores=0)
        with pytest.raises(ValueError):
            TpuChipConfig(dispatch_latency_sec=-1.0)

    def test_chip_config_rejects_a_host_link_without_bandwidth(self):
        with pytest.raises(ValueError, match="host bandwidth must be positive"):
            TpuChipConfig(host_bandwidth_bytes_per_sec=0.0)

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
