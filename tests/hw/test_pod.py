"""TpuPod: device cloning, ledger roll-up, and commit reconciliation."""

import re

import numpy as np
import pytest

from repro.core import FleetExecutor, TpuBackend, make_tpu_chip, make_tpu_pod
from repro.hw import CpuConfig, CpuDevice, Interconnect, InterconnectConfig
from repro.hw.device import pipelined_elapsed_seconds
from repro.hw.pod import PodWaveStats, TpuPod, clone_device


def small_backend():
    return TpuBackend(make_tpu_chip(num_cores=4))


def wave(index, chip_seconds, scatter=0.0, broadcast=0.0, gather=0.0):
    return PodWaveStats(
        wave_index=index,
        placement="data",
        num_pairs=len(chip_seconds),
        num_rows=10,
        active_chips=len(chip_seconds),
        chip_seconds=tuple(chip_seconds),
        scatter_seconds=scatter,
        scatter_bytes=int(scatter * 1e6),
        broadcast_seconds=broadcast,
        broadcast_bytes=int(broadcast * 1e6),
        gather_seconds=gather,
        gather_bytes=int(gather * 1e6),
    )


class TestCloneDevice:
    def test_tpu_backend_clone_is_isolated(self):
        original = small_backend()
        original.stats.record("warmup", 1.0)
        clone = clone_device(original)
        assert isinstance(clone, TpuBackend)
        assert clone is not original
        assert clone.chip is not original.chip
        assert clone.chip.config == original.chip.config
        assert clone.stats.seconds == 0.0

    def test_config_rebuild_fallback(self):
        cpu = CpuDevice(CpuConfig())
        clone = clone_device(cpu)
        assert isinstance(clone, CpuDevice)
        assert clone is not cpu

    def test_unreplicable_device_raises(self):
        class Bare:
            pass

        with pytest.raises(TypeError):
            clone_device(Bare())

    def test_capacity_override_needs_a_clone_that_takes_it(self):
        class FixedClone:
            def clone(self):
                return FixedClone()

        assert isinstance(clone_device(FixedClone()), FixedClone)
        with pytest.raises(TypeError, match="FixedClone.clone\\(\\) does not take hbm_bytes"):
            clone_device(FixedClone(), hbm_bytes=1 << 20)


#: The pod constructors that take a chip count (``FleetExecutor``, the
#: third, is checked with the other fleet options in tests/core/test_fleet.py).
POD_BUILDERS = {
    "make_tpu_pod": lambda num_chips: make_tpu_pod(num_chips, num_cores=4),
    "TpuPod.like": lambda num_chips: TpuPod.like(small_backend(), num_chips),
}


class TestChipCount:
    @pytest.mark.parametrize("num_chips", (2.7, 3.9, 2.0, 0, -1, "2", True))
    @pytest.mark.parametrize("builder", sorted(POD_BUILDERS))
    def test_anything_but_an_integer_of_at_least_one_raises(self, builder, num_chips):
        with pytest.raises(ValueError, match="num_chips must be an integer >= 1"):
            POD_BUILDERS[builder](num_chips)

    @pytest.mark.parametrize("builder", sorted(POD_BUILDERS))
    def test_numpy_integers_build_that_many_chips(self, builder):
        pod = POD_BUILDERS[builder](np.int64(3))
        assert isinstance(pod, TpuPod)
        assert pod.num_chips == 3


#: Every constructor that takes an HBM budget, with the budget it kept.
HBM_BUILDERS = {
    "FleetExecutor": lambda hbm: FleetExecutor(
        CpuDevice(), granularity="columns", hbm_bytes=hbm
    ).hbm_bytes,
    "FleetExecutor-pod": lambda hbm: FleetExecutor(
        small_backend(), granularity="columns", num_chips=2, hbm_bytes=hbm
    ).pod.chip_hbm_bytes[1],
    "TpuPod": lambda hbm: TpuPod(
        [small_backend(), small_backend()], hbm_bytes=hbm
    ).chip_hbm_bytes[1],
    "TpuPod-per-chip": lambda hbm: TpuPod(
        [small_backend(), small_backend()], hbm_bytes=[1 << 20, hbm]
    ).chip_hbm_bytes[1],
    "TpuBackend.clone": lambda hbm: small_backend().clone(hbm_bytes=hbm).hbm_capacity_bytes,
}


class TestHbmBudget:
    @pytest.mark.parametrize("hbm_bytes", (2.7, 0.5, 0, -1, "2", True))
    @pytest.mark.parametrize("builder", sorted(HBM_BUILDERS))
    def test_anything_but_none_or_an_integer_of_at_least_one_raises(
        self, builder, hbm_bytes
    ):
        """The error names the value passed: 2.7 used to run as 2,
        0.5 on a pod to raise "got 0", and True to build a 1-byte budget."""
        message = f"hbm_bytes must be None or an integer >= 1, got {hbm_bytes!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            HBM_BUILDERS[builder](hbm_bytes)

    @pytest.mark.parametrize("builder", sorted(HBM_BUILDERS))
    def test_numpy_integers_are_kept_whole(self, builder):
        # A 4-core clone splits its budget across cores, so use a multiple.
        kept = HBM_BUILDERS[builder](np.int64(4096))
        assert kept == 4096 and type(kept) is int


class TestPodConstruction:
    def test_like_builds_fresh_clones(self):
        template = small_backend()
        template.stats.record("warmup", 2.0)
        pod = TpuPod.like(template, 4)
        assert pod.num_chips == 4
        assert all(d is not template for d in pod.devices)
        assert all(d.stats.seconds == 0.0 for d in pod.devices)
        # The template's ledger is never aliased by the pod.
        assert template.stats.seconds == 2.0

    def test_make_tpu_pod_factory(self):
        pod = make_tpu_pod(2, num_cores=4)
        assert pod.num_chips == 2
        assert all(isinstance(d, TpuBackend) for d in pod.devices)
        with pytest.raises(ValueError):
            make_tpu_pod(0)

    def test_pods_do_not_nest(self):
        pod = make_tpu_pod(2, num_cores=4)
        with pytest.raises(TypeError):
            TpuPod([pod])
        with pytest.raises(TypeError):
            TpuPod.like(pod, 2)

    def test_empty_and_non_device_members_rejected(self):
        with pytest.raises(ValueError):
            TpuPod([])
        with pytest.raises(TypeError):
            TpuPod([object()])

    def test_one_hbm_budget_per_chip(self):
        with pytest.raises(ValueError, match="1 hbm_bytes entries for 2 chips"):
            TpuPod([small_backend(), small_backend()], hbm_bytes=[1 << 20])
        with pytest.raises(ValueError, match="3 hbm_bytes entries for 2 chips"):
            TpuPod([small_backend(), small_backend()], hbm_bytes=[1 << 20] * 3)

    def test_interconnect_config_accepted(self):
        config = InterconnectConfig(topology="torus2d")
        pod = TpuPod([small_backend()], interconnect=config)
        assert isinstance(pod.interconnect, Interconnect)
        assert pod.interconnect.config.topology == "torus2d"


class TestCommitRun:
    def test_row_sum_identity(self):
        """stats.seconds must equal the sum of its op rows after commit."""
        pod = make_tpu_pod(2, num_cores=4)
        for device in pod.devices:
            device.stats.record("conv2d_batch", 0.5)
        pod.commit_run([wave(0, [0.5, 0.5], scatter=0.1, gather=0.05)])
        assert pod.stats.seconds == pytest.approx(
            sum(pod.stats.op_seconds.values())
        )

    def test_elapsed_reconstruction(self):
        """Elapsed = pipelined stage model over the committed waves."""
        pod = make_tpu_pod(2, num_cores=4)
        for device, s in zip(pod.devices, (0.4, 0.6)):
            device.stats.record("conv2d_batch", s)
        waves = [wave(0, [0.4, 0.6], scatter=0.1, broadcast=0.02, gather=0.05)]
        elapsed = pod.commit_run(waves)
        assert elapsed == pytest.approx(0.1 + 0.02 + 0.6 + 0.05)
        assert pod.stats.seconds == pytest.approx(elapsed)
        # Work (sum over chips) survives in the audit rows + credits.
        assert pod.stats.op_seconds["conv2d_batch"] == pytest.approx(1.0)
        assert pod.stats.op_seconds["pod_compute_overlap"] == pytest.approx(-0.4)

    def test_serial_vs_pipelined_overlap_credit(self):
        waves = [
            wave(0, [0.5, 0.5], scatter=0.2, gather=0.1),
            wave(1, [0.5, 0.5], scatter=0.2, gather=0.1),
        ]
        pod = make_tpu_pod(2, num_cores=4)
        for device in pod.devices:
            device.stats.record("conv2d_batch", 1.0)
        piped = pod.commit_run(waves)
        serial = pod.commit_log[-1].serial

        assert serial == pytest.approx(sum(w.stage.total for w in waves))
        assert piped == pytest.approx(
            pipelined_elapsed_seconds([w.stage for w in waves])
        )
        assert piped < serial
        assert pod.stats.op_seconds["collective_overlap"] == pytest.approx(
            piped - serial
        )

    def test_chip_stats_harvested(self):
        pod = make_tpu_pod(2, num_cores=4)
        pod.devices[0].stats.record("conv2d_batch", 0.3, macs=100)
        pod.devices[1].stats.record("conv2d_batch", 0.7, macs=200)
        pod.commit_run([wave(0, [0.3, 0.7])])
        assert pod.chip_stats[0].seconds == pytest.approx(0.3)
        assert pod.chip_stats[1].seconds == pytest.approx(0.7)
        assert pod.stats.macs == 300
        # Chips were drained into the pod ledger.
        assert all(d.stats.seconds == 0.0 for d in pod.devices)

    def test_collective_log_extends(self):
        pod = make_tpu_pod(2, num_cores=4)
        pod.commit_run([wave(0, [0.1, 0.1])])
        pod.commit_run([wave(0, [0.2, 0.2]), wave(1, [0.2, 0.2])])
        assert len(pod.collective_log) == 3

    def test_reset_stats_clears_everything(self):
        pod = make_tpu_pod(2, num_cores=4)
        pod.devices[0].stats.record("conv2d_batch", 0.3)
        pod.commit_run([wave(0, [0.3, 0.0], scatter=0.1)])
        pod.reset_stats()
        assert pod.stats.seconds == 0.0
        assert pod.collective_log == []
        assert all(s.seconds == 0.0 for s in pod.chip_stats)
        assert all(d.stats.seconds == 0.0 for d in pod.devices)


class TestPodAsDevice:
    def test_unsharded_ops_price_like_root(self):
        pod = make_tpu_pod(2, num_cores=4)
        root = small_backend()
        assert pod.matmul_seconds(8, 8, 8) == root.matmul_seconds(8, 8, 8)
        assert pod.fft2_seconds(8, 8) == root.fft2_seconds(8, 8)
        assert pod.transfer_seconds(1000) == root.transfer_seconds(1000)

    def test_elementwise_and_batched_transforms_price_like_root(self):
        pod = make_tpu_pod(2, num_cores=4)
        root = small_backend()
        assert pod.elementwise_seconds(1000, 2.0) == root.elementwise_seconds(1000, 2.0)
        for precision in (None, "int8"):
            assert pod.batch_conv_seconds(5, 8, 8, precision=precision) == (
                root.batch_conv_seconds(5, 8, 8, precision=precision)
            )
            assert pod.kernel_spectrum_batch_seconds(3, 8, 8, precision=precision) == (
                root.kernel_spectrum_batch_seconds(3, 8, 8, precision=precision)
            )

    def test_functional_ops_work(self):
        pod = make_tpu_pod(2, num_cores=4)
        a = np.eye(4)
        b = np.arange(16.0).reshape(4, 4)
        product = pod.matmul(a, b)
        assert np.allclose(product, small_backend().matmul(a, b))
        assert pod.stats.seconds > 0.0
