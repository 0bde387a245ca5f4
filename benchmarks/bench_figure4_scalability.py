"""Figure 4: scalability of the interpretation solve with matrix size.

Regenerates the paper's Figure 4: time of one distillation solve at
matrix sizes 64..1024 on CPU / GPU / TPU.  Shape contract:

* every device's time grows with matrix size;
* the TPU's advantage *grows* with size (the scalability claim);
* at 1024x1024 the TPU is >30x faster than the CPU baseline (paper:
  "more than 30x");
* at small sizes the TPU is overhead-bound and the gap closes or
  inverts -- the crossover the decomposition argument predicts.
"""

import numpy as np
import pytest

from repro.bench.harness import format_figure4, run_figure4
from repro.bench.workloads import FIGURE4_SIZES
from repro.core.decomposition import DecomposedFourier
from repro.core import make_tpu_chip
from repro.core.backend import TpuBackend
from repro.fft import fft2


@pytest.fixture(scope="module")
def figure4():
    return run_figure4()


def test_print_figure4(figure4, capsys):
    with capsys.disabled():
        print()
        print(format_figure4(figure4))


def test_times_grow_with_size(figure4):
    for series in ("cpu_seconds", "gpu_seconds", "tpu_seconds"):
        values = [getattr(point, series) for point in figure4.points]
        assert values == sorted(values), f"{series} not monotone"


def test_tpu_advantage_grows_with_size(figure4):
    ratios = [p.cpu_seconds / p.tpu_seconds for p in figure4.points]
    assert ratios == sorted(ratios)


def test_paper_claim_at_1024(figure4):
    assert figure4.speedup_vs_cpu(1024) > 30.0


def test_small_sizes_are_overhead_bound(figure4):
    """At 64x64 the dispatch/transfer overhead dominates and the TPU
    should NOT win -- the honest flip side of the scalability story."""
    first = figure4.points[0]
    assert first.size == 64
    assert first.tpu_seconds > first.cpu_seconds


def test_gpu_between_cpu_and_tpu_at_scale(figure4):
    last = figure4.points[-1]
    assert last.cpu_seconds > last.gpu_seconds > last.tpu_seconds


def test_benchmark_figure4(benchmark):
    result = benchmark(run_figure4)
    assert len(result.points) == len(FIGURE4_SIZES)


class TestDecompositionExecutesFaithfully:
    """Figure 4's timing model is backed by an executable Algorithm 1:
    the sharded transform really runs on the simulated cores, merges
    to the exact transform, and reports the backend's price."""

    def test_sharded_execution_matches_direct(self, benchmark):
        chip = make_tpu_chip(num_cores=8, precision="fp32", mxu_rows=16, mxu_cols=16)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((64, 64))

        def run():
            chip.reset()
            return DecomposedFourier(chip).fft2(x)

        result, report = benchmark(run)
        np.testing.assert_allclose(result, fft2(x), atol=1e-6)
        assert report.elapsed_seconds == TpuBackend(chip).fft2_seconds(64, 64)

    def test_core_sweep_strong_scaling(self):
        """Doubling cores keeps shrinking per-stage compute time."""
        chip = make_tpu_chip(num_cores=16, precision="fp32", mxu_rows=16, mxu_cols=16)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((128, 128))
        compute_times = []
        for cores in (1, 2, 4, 8, 16):
            chip.reset()
            _, report = DecomposedFourier(chip, cores=cores).fft2(x)
            compute_times.append(report.compute_seconds)
            priced = TpuBackend(make_tpu_chip(
                num_cores=cores, precision="fp32", mxu_rows=16, mxu_cols=16
            ))
            assert report.elapsed_seconds == priced.fft2_seconds(128, 128)
        assert compute_times == sorted(compute_times, reverse=True)
