"""Workload definitions and device-time arithmetic."""

import pytest

from repro.bench.workloads import (
    FIGURE4_SIZES,
    ClassificationWorkload,
    InterpretationWorkload,
    cpu_classification_times,
    default_devices,
    figure4_solve_seconds,
    gpu_classification_times,
    interpretation_seconds,
    planted_interpretation_pairs,
    resnet50_interpretation_workload,
    resnet50_workload,
    tpu_classification_times,
    vgg19_interpretation_workload,
    vgg19_workload,
)
from repro.core.backend import TpuBackend, make_tpu_chip
from repro.core.pipeline import ExplanationPipeline
from repro.hw import CpuDevice, GpuDevice
from tests import reference


class TestWorkloadDefinitions:
    def test_vgg_workload_shape(self):
        workload = vgg19_workload()
        assert workload.name == "VGG19"
        assert workload.census.input_shape == (3, 32, 32)
        assert workload.batch_size == 128
        assert workload.epochs_per_report == 10
        assert workload.steps_per_epoch == 391  # ceil(50000 / 128)
        assert workload.sample_bytes == 3 * 32 * 32 * 4

    def test_resnet_workload_shape(self):
        workload = resnet50_workload()
        assert workload.census.input_shape == (1, 32, 32)
        assert workload.test_steps == 79  # ceil(10000 / 128)

    def test_census_scale_sanity(self):
        # Full VGG19 at 32x32 is ~400M MACs; ResNet50 trace variant ~325M.
        assert 3e8 < vgg19_workload().census.forward_macs < 5e8
        assert 2e8 < resnet50_workload().census.forward_macs < 5e8

    def test_interpretation_workloads(self):
        vgg = vgg19_interpretation_workload()
        resnet = resnet50_interpretation_workload()
        assert vgg.plane == (1024, 1024)
        assert resnet.num_features > vgg.num_features
        assert vgg.pairs == 10

    def test_invalid_interpretation_workload(self):
        with pytest.raises(ValueError):
            InterpretationWorkload(name="x", plane=(0, 4), num_features=4)
        with pytest.raises(ValueError):
            InterpretationWorkload(name="x", plane=(4, 4), num_features=0)


class TestClassificationTimes:
    @pytest.fixture(scope="class")
    def workload(self):
        return vgg19_workload()

    def test_cpu_ordering(self, workload):
        times = cpu_classification_times(workload)
        assert times.train_seconds > times.test_seconds > 0

    def test_gpu_faster_than_cpu(self, workload):
        cpu = cpu_classification_times(workload)
        gpu = gpu_classification_times(workload)
        assert gpu.train_seconds < cpu.train_seconds
        assert gpu.test_seconds < cpu.test_seconds

    def test_tpu_fastest(self, workload):
        gpu = gpu_classification_times(workload)
        tpu = tpu_classification_times(workload)
        assert tpu.train_seconds < gpu.train_seconds
        assert tpu.test_seconds < gpu.test_seconds

    def test_training_scales_with_epochs(self):
        short = ClassificationWorkload(
            name="x",
            census=vgg19_workload().census,
            train_samples=50_000,
            test_samples=10_000,
            epochs_per_report=1,
        )
        long = vgg19_workload()  # 10 epochs
        assert cpu_classification_times(long).train_seconds == pytest.approx(
            10 * cpu_classification_times(short).train_seconds
        )

    def test_tpu_training_is_transfer_bound(self, workload):
        """The optimizer round trip dominates the simulated TPU step --
        the structural reason measured speedups are 40-70x, not 1000x."""
        backend = TpuBackend(make_tpu_chip(precision="int8"))
        times = tpu_classification_times(workload, backend)
        steps = workload.steps_per_epoch * workload.epochs_per_report
        per_step = times.train_seconds / steps
        chip = backend.chip
        round_trip = (
            2 * workload.census.parameter_count * 2
            / chip.config.host_bandwidth_bytes_per_sec
        )
        assert round_trip > 0.5 * per_step


class TestInterpretationSeconds:
    def test_device_ordering_at_paper_scale(self):
        devices = default_devices()
        workload = vgg19_interpretation_workload()
        cpu = interpretation_seconds(devices["CPU"], workload)
        gpu = interpretation_seconds(devices["GPU"], workload)
        tpu = interpretation_seconds(devices["TPU"], workload)
        assert cpu > gpu > tpu

    def test_scales_linearly_with_pairs(self):
        device = CpuDevice()
        one = interpretation_seconds(device, vgg19_interpretation_workload(pairs=1))
        ten = interpretation_seconds(device, vgg19_interpretation_workload(pairs=10))
        assert ten == pytest.approx(10 * one)

    def test_more_features_cost_more(self):
        device = GpuDevice()
        few = InterpretationWorkload(name="x", plane=(256, 256), num_features=16)
        many = InterpretationWorkload(name="x", plane=(256, 256), num_features=64)
        assert interpretation_seconds(device, many) > interpretation_seconds(device, few)


class TestFigure4Solve:
    def test_monotone_in_size(self):
        device = CpuDevice()
        times = [figure4_solve_seconds(device, s) for s in FIGURE4_SIZES]
        assert times == sorted(times)

    def test_tpu_overhead_floor(self):
        """At tiny sizes the TPU cost approaches dispatch + transfer."""
        backend = TpuBackend(make_tpu_chip())
        tiny = figure4_solve_seconds(backend, 8)
        assert tiny >= backend.chip.config.dispatch_latency_sec

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            figure4_solve_seconds(CpuDevice(), 0)

    def test_default_devices_complete(self):
        devices = default_devices()
        assert set(devices) == {"CPU", "GPU", "TPU"}
        assert isinstance(devices["TPU"], TpuBackend)


class TestFleetInterpretationSeconds:
    """Executed fleet runs against the Table II loop model."""

    BLOCK = (8, 4)  # 8 block features on the 16x16 plane

    def _mini(self, pairs=4):
        return InterpretationWorkload(
            name="mini", plane=(16, 16), num_features=8, pairs=pairs
        )

    def _wave_seconds(self, device, pairs, **options):
        run = ExplanationPipeline(
            device, granularity="blocks", block_shape=self.BLOCK, **options
        ).run(planted_interpretation_pairs(pairs, shape=(16, 16)))
        return run.simulated_seconds, run.stats.op_counts.get("dispatch", 0)

    def test_pair_fusion_reduces_to_table2_model(self):
        """The per-pair reference loop costs what the loop model prices
        (to the feed width: the model streams x/y as fp32, the executed
        loop as float64)."""
        pairs = planted_interpretation_pairs(4, shape=(16, 16))
        for device in (CpuDevice(), GpuDevice(), TpuBackend(make_tpu_chip())):
            reference.explain_all(
                pairs, device=device, granularity="blocks", block_shape=self.BLOCK
            )
            assert device.stats.seconds == pytest.approx(
                interpretation_seconds(device, self._mini()), rel=0.01
            )

    def test_wave_fusion_cheaper_on_every_device(self):
        for device in (CpuDevice(), GpuDevice(), TpuBackend(make_tpu_chip())):
            wave, _ = self._wave_seconds(device, 10)
            assert wave < interpretation_seconds(device, self._mini(pairs=10))

    def test_tpu_wave_gain_grows_with_fleet_size(self):
        """Dispatch amortization: the loop-vs-wave factor at 100 pairs
        must beat the factor at 1 pair on the TPU."""

        def factor(pairs):
            device = TpuBackend(make_tpu_chip())
            wave, _ = self._wave_seconds(device, pairs)
            return interpretation_seconds(device, self._mini(pairs)) / wave

        assert factor(100) > factor(1)

    def test_wave_splitting_adds_dispatches(self):
        whole, whole_dispatches = self._wave_seconds(TpuBackend(make_tpu_chip()), 8)
        split, split_dispatches = self._wave_seconds(
            TpuBackend(make_tpu_chip()), 8, max_pairs_per_wave=2
        )
        assert (whole_dispatches, split_dispatches) == (1, 4)
        assert split > whole

    def test_validation(self):
        with pytest.raises(ValueError):
            self._wave_seconds(CpuDevice(), 2, max_pairs_per_wave=0)
