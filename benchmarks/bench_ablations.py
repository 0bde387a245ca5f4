"""Ablation benches for the design choices DESIGN.md calls out.

Not in the paper -- these isolate each mechanism's contribution so the
speedup story is explainable rather than monolithic:

* int8 quantization vs bf16 vs fp32 MXU modes;
* the quantized **batched** path: precision-axis waves vs fp64 waves
  (error bounded, dispatch structure unchanged, MXU-rate speedup);
* data decomposition (Algorithm 1) on vs off (core-count sweep);
* scheduler overlap (double-buffered weights, DMA overlap) on vs off;
* complex-matmul decomposition: 4 real products vs 3 (Karatsuba);
* multi-input parallelism (Section III-D) vs serial pair processing.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from repro.core import DecomposedFourier, MultiInputScheduler, make_tpu_chip  # noqa: E402
from repro.core.backend import TpuBackend  # noqa: E402
from repro.hw import (  # noqa: E402
    Instruction,
    MxuConfig,
    Opcode,
    Program,
    Scheduler,
    TpuChip,
    TpuChipConfig,
    TpuCore,
    TpuCoreConfig,
    matmul_cycles,
)
from tests import reference  # noqa: E402


class TestQuantizationAblation:
    """Quantization is one of the TPU's two speed mechanisms (Sec II-A)."""

    @pytest.mark.parametrize("m,k,n", [(256, 256, 256), (1024, 1024, 1024)])
    def test_int8_beats_fp32_cycles(self, m, k, n):
        int8 = matmul_cycles(m, k, n, MxuConfig(precision="int8"))
        fp32 = matmul_cycles(m, k, n, MxuConfig(precision="fp32"))
        assert fp32.cycles > 2 * int8.cycles

    def test_bf16_between_int8_and_fp32(self):
        shapes = (512, 512, 512)
        int8 = matmul_cycles(*shapes, MxuConfig(precision="int8")).cycles
        bf16 = matmul_cycles(*shapes, MxuConfig(precision="bf16")).cycles
        fp32 = matmul_cycles(*shapes, MxuConfig(precision="fp32")).cycles
        assert int8 <= bf16 < fp32

    def test_quantization_accuracy_cost_is_bounded(self):
        """The speed win must not destroy numerics: int8 matmul error
        stays within a few percent on unit-scale data."""
        from repro.hw import quantized_matmul

        rng = np.random.default_rng(0)
        a = rng.standard_normal((64, 64))
        b = rng.standard_normal((64, 64))
        exact = a @ b
        approx = quantized_matmul(a, b)
        rel = np.abs(exact - approx).max() / np.abs(exact).max()
        assert rel < 0.05


class TestQuantizedBatchAblation:
    """The precision axis of the batched/wave convolution stack: int8 and
    bf16 waves must be cheaper than fp32/fp64 waves with the *same*
    launch structure, quantization error must respect the documented
    bound, and batched quantization must add no error over the looped
    reference at the same precision (bit-identical scores)."""

    SHAPE = (16, 16)
    BLOCK = (4, 4)

    def _backend(self):
        return TpuBackend(
            make_tpu_chip(num_cores=8, precision="fp32", mxu_rows=8, mxu_cols=8)
        )

    def _pairs(self, count=4, seed=0):
        from repro.bench.workloads import planted_interpretation_pairs

        return planted_interpretation_pairs(count, shape=self.SHAPE, seed=seed)

    def _run(self, precision, **kwargs):
        from repro.core.pipeline import ExplanationPipeline

        return ExplanationPipeline(
            self._backend(), granularity="blocks", block_shape=self.BLOCK,
            eps=1e-8, precision=precision, **kwargs,
        ).run(self._pairs())

    def test_precision_ladder_prices_batched_conv(self):
        backend = self._backend()
        seconds = {
            name: backend.batch_conv_seconds(64, 256, 256, precision=name)
            for name in ("int8", "bf16", "fp32", "fp64")
        }
        assert seconds["int8"] <= seconds["bf16"] < seconds["fp32"] < seconds["fp64"]

    def test_quantized_wave_beats_fp64_wave_with_same_structure(self):
        int8 = self._run("int8")
        fp64 = self._run("fp64")
        assert int8.simulated_seconds < fp64.simulated_seconds
        assert int8.stats.op_counts == fp64.stats.op_counts  # launch parity

    def test_batched_quantization_adds_no_error_over_loop(self):
        int8_wave = self._run("int8")
        int8_loop = reference.explain_all(
            self._pairs(), device=self._backend(), granularity="blocks",
            block_shape=self.BLOCK, eps=1e-8, precision="int8",
        )
        for a, b in zip(int8_wave.explanations, int8_loop):
            np.testing.assert_array_equal(a.scores, b.scores)

    def test_int8_batched_error_within_documented_bound(self):
        from repro.hw.quantize import quantized_score_error_bound

        exact = self._run("fp64")
        int8 = self._run("int8")
        for (x, _), a, b in zip(self._pairs(), int8.explanations, exact.explanations):
            bound = quantized_score_error_bound(x, b.kernel, bits=8)
            assert np.max(np.abs(a.scores - b.scores)) <= bound

    def test_precision_error_monotone(self):
        exact = self._run("fp64")

        def err(run):
            return max(
                float(np.max(np.abs(a.scores - b.scores)))
                for a, b in zip(run.explanations, exact.explanations)
            )

        int8_err = err(self._run("int8"))
        bf16_err = err(self._run("bf16"))
        assert int8_err > bf16_err > 0.0

    def test_executed_quantized_fleet_speedup(self):
        """At 100 pairs an executed quantized wave fleet is strictly
        faster than an fp64 one on the full-size chip."""
        from repro.core.pipeline import ExplanationPipeline

        pairs = self._pairs(count=100)
        seconds = {
            name: ExplanationPipeline(
                TpuBackend(make_tpu_chip()), granularity="blocks",
                block_shape=self.BLOCK, eps=1e-8, precision=name,
            ).run(pairs).simulated_seconds
            for name in ("int8", "bf16", "fp64")
        }
        assert seconds["int8"] < seconds["bf16"] < seconds["fp64"]


class TestDecompositionAblation:
    """Algorithm 1 on/off: the core-count sweep of the sharded solve."""

    @pytest.fixture(scope="class")
    def chip(self):
        return make_tpu_chip(num_cores=16, precision="fp32", mxu_rows=16, mxu_cols=16)

    def test_decomposition_scales_compute(self, chip, benchmark):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((128, 128))

        def sweep():
            times = {}
            for cores in (1, 4, 16):
                chip.reset()
                _, report = DecomposedFourier(chip, cores=cores).fft2(x)
                times[cores] = report.compute_seconds
            return times

        times = benchmark(sweep)
        assert times[16] < times[4] < times[1]
        # Strong scaling is sublinear (fixed pipeline fill per shard).
        assert times[1] / times[16] > 4.0

    def test_communication_grows_with_cores(self, chip):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((64, 64))
        comm = {}
        for cores in (2, 8, 16):
            chip.reset()
            _, report = DecomposedFourier(chip, cores=cores).fft2(x)
            comm[cores] = report.communication_seconds
        assert comm[16] > comm[2]

    def test_backend_cost_model_crossover(self):
        """Sharding pays only when per-core compute amortizes the
        reassembly collective: at 4096x4096 eight cores beat one, while
        at 256x256 they lose to the all-reduce latency.  Both directions
        are the physics Algorithm 1 lives with."""
        one = TpuBackend(make_tpu_chip(num_cores=1))
        eight = TpuBackend(make_tpu_chip(num_cores=8))
        assert eight.fft2_seconds(4096, 4096) < one.fft2_seconds(4096, 4096)
        assert eight.fft2_seconds(256, 256) > one.fft2_seconds(256, 256)


class TestSchedulerOverlapAblation:
    """The ISA scheduler's overlap features, priced on one instruction mix."""

    def make_program(self):
        program = Program()
        for _ in range(8):
            program.emit(Instruction(Opcode.LOAD_WEIGHTS, cycles=256))
            program.emit(Instruction(Opcode.MATMUL, cycles=1024))
            program.emit(Instruction(Opcode.READ_HOST, seconds=1e-6))
        return program

    def test_weight_load_overlap_saves_cycles(self):
        program = self.make_program()
        with_overlap = Scheduler(700e6, overlap_weight_load=True).run(program)
        without = Scheduler(700e6, overlap_weight_load=False).run(program)
        assert with_overlap.seconds < without.seconds
        assert with_overlap.hidden_weight_load_cycles == 7 * 256

    def test_dma_overlap_saves_time(self):
        program = self.make_program()
        with_overlap = Scheduler(700e6, overlap_dma=True).run(program)
        without = Scheduler(700e6, overlap_dma=False).run(program)
        assert with_overlap.seconds < without.seconds

    def test_benchmark_scheduler(self, benchmark):
        program = self.make_program()
        scheduler = Scheduler(700e6)
        result = benchmark(scheduler.run, program)
        assert result.seconds > 0


class TestComplexMatmulAblation:
    """4 real products (naive) vs 3 (Karatsuba-style) per complex matmul."""

    def test_three_product_decomposition_saves_a_quarter(self):
        backend = TpuBackend(make_tpu_chip(num_cores=8))
        naive = backend.fft2_seconds(512, 512)
        backend.complex_matmul_real_products = 3
        karatsuba = backend.fft2_seconds(512, 512)
        # Communication is unchanged; compute drops by 1/4.
        assert karatsuba < naive
        assert karatsuba > 0.7 * naive


class TestMultiInputAblation:
    """Section III-D: concurrent pairs vs one-at-a-time."""

    def test_parallel_batch_beats_serial(self, benchmark):
        chip = make_tpu_chip(num_cores=8, precision="fp32", mxu_rows=16, mxu_cols=16)
        rng = np.random.default_rng(3)
        inputs = [rng.standard_normal((64, 64)) for _ in range(8)]

        def run():
            chip.reset()
            return MultiInputScheduler(chip).fft2_batch(inputs)

        batch = benchmark(run)
        assert batch.elapsed_seconds < 0.5 * batch.serial_seconds

    def test_speedup_saturates_at_core_count(self):
        chip = make_tpu_chip(num_cores=4, precision="fp32", mxu_rows=16, mxu_cols=16)
        rng = np.random.default_rng(4)
        inputs = [rng.standard_normal((32, 32)) for _ in range(16)]
        batch = MultiInputScheduler(chip).fft2_batch(inputs)
        # 16 inputs on 4 cores: at most ~4x parallel speedup.
        assert batch.serial_seconds / batch.elapsed_seconds < 5.0


class TestTopologyAblation:
    """Ring vs 2-D torus reassembly for Algorithm 1's collectives."""

    def test_torus_cuts_reassembly_latency_at_128_cores(self):
        from repro.hw import Interconnect, InterconnectConfig

        payload = 1024 * 1024 * 16  # one complex 1024x1024 intermediate
        ring = Interconnect(InterconnectConfig(topology="ring"))
        torus = Interconnect(InterconnectConfig(topology="torus2d"))
        ring_time = ring.all_reduce_seconds(payload, 128)
        torus_time = torus.all_reduce_seconds(payload, 128)
        assert torus_time < ring_time
        # At 128 cores the hop-latency term dominates: expect >2x.
        assert ring_time / torus_time > 2.0

    def test_topology_choice_propagates_to_decomposition(self):
        from repro.core import DecomposedFourier
        from repro.hw import InterconnectConfig, MxuConfig, TpuChip, TpuChipConfig, TpuCoreConfig
        import numpy as np

        def chip_with(topology):
            return TpuChip(
                TpuChipConfig(
                    num_cores=16,
                    core=TpuCoreConfig(mxu=MxuConfig(rows=16, cols=16, precision="fp32")),
                    interconnect=InterconnectConfig(topology=topology),
                )
            )

        x = np.random.default_rng(0).standard_normal((64, 64))
        ring_chip = chip_with("ring")
        _, ring_report = DecomposedFourier(ring_chip).fft2(x)
        torus_chip = chip_with("torus2d")
        _, torus_report = DecomposedFourier(torus_chip).fft2(x)
        assert torus_report.communication_seconds < ring_report.communication_seconds
        assert torus_report.compute_seconds == pytest.approx(
            ring_report.compute_seconds
        )


class TestProgramFusionAblation:
    """Compiled one-dispatch programs vs eager per-op launches -- the
    quantitative form of 'a simple computation equivalent to one
    forward pass'."""

    def test_fused_solve_beats_eager_solve(self, benchmark):
        from repro.hw import compiled_seconds, eager_seconds, solve_graph
        from repro.hw.mxu import MxuConfig
        from repro.hw.tpu import TpuCoreConfig

        core = TpuCoreConfig(mxu=MxuConfig(rows=64, cols=64, precision="bf16"))
        graph = solve_graph(size=256, pairs=2)

        def run():
            fused = compiled_seconds(graph, core, 0.6e9, dispatch_latency_sec=26e-3)
            eager = eager_seconds(graph, core, 0.6e9, dispatch_latency_sec=26e-3)
            return fused, eager

        fused, eager = benchmark(run)
        assert fused < eager
        # ~25 ops: per-op dispatch alone costs ~0.6 s extra.
        assert eager - fused > 0.4

    def test_fusion_saving_scales_with_graph_size(self):
        from repro.hw import compiled_seconds, eager_seconds, solve_graph
        from repro.hw.mxu import MxuConfig
        from repro.hw.tpu import TpuCoreConfig

        core = TpuCoreConfig(mxu=MxuConfig(rows=32, cols=32, precision="bf16"))
        gaps = []
        for pairs in (1, 4):
            graph = solve_graph(size=64, pairs=pairs)
            gaps.append(
                eager_seconds(graph, core, 0.6e9, 26e-3)
                - compiled_seconds(graph, core, 0.6e9, 26e-3)
            )
        assert gaps[1] > 2.0 * gaps[0]


class TestLibraryFftThreat:
    """Threat-to-validity probe: the paper deploys its matmul-form
    algorithm on the CPU/GPU baselines.  Repricing those baselines with
    O(n log n) library FFTs shrinks the TPU's interpretation advantage
    substantially -- reported honestly in EXPERIMENTS.md."""

    def test_library_fft_is_much_faster_baseline(self):
        from repro.hw import CpuConfig, CpuDevice

        matmul_form = CpuDevice()
        library = CpuDevice(CpuConfig(use_library_fft=True))
        assert library.fft2_seconds(1024, 1024) < 0.05 * matmul_form.fft2_seconds(
            1024, 1024
        )

    def test_strong_baselines_flip_the_table2_result(self):
        """The decisive finding: against library-FFT baselines the
        deployed TPU path (per-feature host round trips) *loses* Table
        II outright -- its measured advantage is an artifact of both
        baselines running the matmul-form algorithm.  The compute-only
        TPU path (no host overheads) still wins, so the claim survives
        only for fused, on-device interpretation loops."""
        from repro.bench.workloads import (
            interpretation_seconds,
            vgg19_interpretation_workload,
        )
        from repro.hw import CpuConfig, CpuDevice

        workload = vgg19_interpretation_workload()
        tpu_deployed = interpretation_seconds(TpuBackend(make_tpu_chip()), workload)
        strong_cpu = interpretation_seconds(
            CpuDevice(CpuConfig(use_library_fft=True)), workload
        )
        assert strong_cpu < tpu_deployed  # the deployed path loses

        tpu_fused = interpretation_seconds(
            TpuBackend(
                make_tpu_chip(
                    dispatch_latency_sec=0.0, host_bandwidth_bytes_per_sec=1e18
                )
            ),
            workload,
        )
        assert tpu_fused < strong_cpu  # silicon still wins when fused


class TestEnergyFootprint:
    """The paper claims 'significant energy savings'.  Two accounting
    models bracket the truth: *reserved-fleet* (every reserved core
    burns TDP for the elapsed time -- pessimistic for a 128-core slice
    that idles through host round trips) and *active-compute* (silicon
    burns TDP only while computing).  The paper's claim holds under
    active-compute accounting; the reserved-fleet numbers are reported
    in EXPERIMENTS.md as the honest counterpoint."""

    def test_tpu_wins_under_active_compute_accounting(self):
        from repro.bench.workloads import (
            interpretation_seconds,
            vgg19_interpretation_workload,
        )
        from repro.hw import CpuDevice, GpuDevice

        workload = vgg19_interpretation_workload()
        cpu = CpuDevice()
        gpu = GpuDevice()
        # CPU/GPU are compute-bound here: elapsed ~ busy.
        cpu_energy = cpu.energy_joules(interpretation_seconds(cpu, workload))
        gpu_energy = gpu.energy_joules(interpretation_seconds(gpu, workload))
        # TPU active-compute seconds: the same workload on a chip with
        # host overheads zeroed out (what the silicon actually executes).
        tpu_active = TpuBackend(
            make_tpu_chip(
                dispatch_latency_sec=0.0, host_bandwidth_bytes_per_sec=1e18
            )
        )
        tpu_energy = tpu_active.energy_joules(
            interpretation_seconds(tpu_active, workload)
        )
        assert tpu_energy < gpu_energy < cpu_energy

    def test_reserved_fleet_accounting_reverses_the_claim(self):
        """Honesty check: if all 128 reserved cores burn TDP for the
        whole elapsed time, the TPU does NOT save energy -- the claim
        depends on the accounting model."""
        from repro.bench.workloads import (
            interpretation_seconds,
            vgg19_interpretation_workload,
        )
        from repro.hw import GpuDevice

        workload = vgg19_interpretation_workload()
        gpu = GpuDevice()
        gpu_energy = gpu.energy_joules(interpretation_seconds(gpu, workload))
        tpu = TpuBackend(make_tpu_chip())
        tpu_energy = tpu.energy_joules(interpretation_seconds(tpu, workload))
        assert tpu_energy > gpu_energy
