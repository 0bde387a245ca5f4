"""Table II: outcome-interpretation time per 10 input-output pairs.

Regenerates the paper's Table II: simulated seconds to distill and
compute contribution factors for 10 pairs on CPU / GPU / TPU, for the
VGG19 (image blocks) and ResNet50 (trace columns) workloads.  Shape
contract:

* ordering CPU > GPU > TPU;
* TPU-vs-CPU improvement in the ~33-42x band (paper: 36.2x / 39.5x);
* TPU-vs-GPU improvement in the ~10-15x band (paper: 11x / 13.6x);
* the cost model agrees with the executed looped reference
  (``tests/reference.py``) at small scale.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from repro.bench.harness import format_table2, run_table2  # noqa: E402
from repro.bench.workloads import (  # noqa: E402
    InterpretationWorkload,
    interpretation_seconds,
)
from repro.core.backend import TpuBackend, make_tpu_chip  # noqa: E402
from repro.fft import fft_circular_convolve2d  # noqa: E402
from repro.hw.cpu import CpuDevice  # noqa: E402
from repro.hw.gpu import GpuDevice  # noqa: E402
from tests import reference  # noqa: E402


@pytest.fixture(scope="module")
def table2():
    return run_table2()


def test_print_table2(table2, capsys):
    with capsys.disabled():
        print()
        print(format_table2(table2))


@pytest.mark.parametrize("row_index, model", [(0, "VGG19"), (1, "ResNet50")])
def test_device_ordering(table2, row_index, model):
    row = table2.rows[row_index]
    assert row.model == model
    assert row.cpu_seconds > row.gpu_seconds > row.tpu_seconds


@pytest.mark.parametrize("row_index", [0, 1])
def test_improvement_bands(table2, row_index):
    row = table2.rows[row_index]
    assert 33.0 < row.improvement_vs_cpu < 42.0
    assert 10.0 < row.improvement_vs_gpu < 15.0


def test_vgg_row_near_paper(table2):
    """Paper: 36.2x vs CPU for VGG19 interpretation."""
    assert table2.rows[0].improvement_vs_cpu == pytest.approx(36.2, rel=0.15)


def test_resnet_row_near_paper(table2):
    """Paper: 39.5x vs CPU for ResNet50 interpretation."""
    assert table2.rows[1].improvement_vs_cpu == pytest.approx(39.5, rel=0.15)


def test_resnet_absolutely_slower_than_vgg(table2):
    """The paper's ResNet row is uniformly costlier on every device."""
    vgg, resnet = table2.rows
    assert resnet.cpu_seconds > vgg.cpu_seconds
    assert resnet.gpu_seconds > vgg.gpu_seconds
    assert resnet.tpu_seconds > vgg.tpu_seconds


def test_benchmark_table2(benchmark):
    result = benchmark(run_table2)
    assert len(result.rows) == 2


class TestCostModelMatchesPipeline:
    """The Table II cost arithmetic must mirror the paper's looped
    execution: the literal reference run on the device."""

    @pytest.mark.parametrize(
        "device_factory",
        [
            CpuDevice,
            GpuDevice,
            lambda: TpuBackend(
                make_tpu_chip(num_cores=8, precision="fp32", mxu_rows=8, mxu_cols=8)
            ),
        ],
        ids=["cpu", "gpu", "tpu"],
    )
    def test_cost_only_equals_executed_pipeline(self, device_factory):
        rng = np.random.default_rng(0)
        shape = (16, 16)
        pairs = []
        for seed in range(2):
            x = rng.standard_normal(shape)
            x[0, 0] += 5.0 * 16
            kernel = rng.standard_normal(shape)
            pairs.append((x, fft_circular_convolve2d(x, kernel)))

        device = device_factory()
        reference.explain_all(
            pairs, device=device, granularity="blocks", block_shape=(8, 8), eps=1e-8
        )
        executed = device.stats.seconds

        workload = InterpretationWorkload(
            name="mini", plane=shape, num_features=4, pairs=2
        )
        modeled = interpretation_seconds(device_factory(), workload)
        assert modeled == pytest.approx(executed, rel=0.05)
