"""Table I: accuracy and classification time for VGG19 and ResNet50.

Regenerates both rows of the paper's Table I: simulated training and
testing time per 10 epochs on CPU / GPU / TPU, plus real accuracy from
training the CI-scale model variants.  The shape contract asserted here:

* ordering CPU > GPU > TPU on both train and test time;
* TPU-vs-CPU speedup in the ~40-70x band (paper: 65x / 44.5x);
* TPU-vs-GPU speedup in the ~15-30x band (paper: 25.7x / 23.9x);
* trained models genuinely classify (accuracy well above chance).
"""

import pytest

from repro.bench.harness import format_table1, run_table1


@pytest.fixture(scope="module")
def table1_times():
    """Simulated-time rows only (accuracy exercised in the slow bench)."""
    return run_table1(with_accuracy=False)


def test_print_table1_times(table1_times, capsys):
    with capsys.disabled():
        print()
        print(format_table1(table1_times))


@pytest.mark.parametrize("row_index, bench", [(0, "VGG19"), (1, "ResNet50")])
def test_device_ordering(table1_times, row_index, bench):
    row = table1_times.rows[row_index]
    assert row.bench == bench
    assert row.cpu_train > row.gpu_train > row.tpu_train
    assert row.cpu_test > row.gpu_test > row.tpu_test


@pytest.mark.parametrize("row_index", [0, 1])
def test_speedup_bands(table1_times, row_index):
    row = table1_times.rows[row_index]
    assert 40.0 < row.speedup_vs_cpu < 70.0
    assert 15.0 < row.speedup_vs_gpu < 30.0


def test_vgg_row_near_paper_ratios(table1_times):
    """Paper: VGG19 65x vs CPU, 25.7x vs GPU."""
    row = table1_times.rows[0]
    assert row.speedup_vs_cpu == pytest.approx(65.0, rel=0.25)
    assert row.speedup_vs_gpu == pytest.approx(25.7, rel=0.25)


def test_resnet_row_near_paper_cpu_ratio(table1_times):
    """Paper: ResNet50 44.5x vs CPU."""
    row = table1_times.rows[1]
    assert row.speedup_vs_cpu == pytest.approx(44.5, rel=0.30)


def test_benchmark_table1_simulation(benchmark):
    """Wall-time of regenerating the simulated-time half of Table I."""
    result = benchmark(lambda: run_table1(with_accuracy=False))
    assert len(result.rows) == 2


@pytest.mark.slow
def test_table1_accuracy_columns(benchmark):
    """Full Table I including real training of the scaled models.

    The paper's accuracy columns are 78-96%; the CI-scale variants on
    the synthetic datasets must land well above chance and the int8
    (TPU) evaluation must stay within a few points of float.
    """
    result = benchmark.pedantic(run_table1, rounds=1, iterations=1)
    vgg, resnet = result.rows
    assert vgg.cpu_accuracy > 75.0
    assert resnet.cpu_accuracy > 75.0
    assert abs(vgg.cpu_accuracy - vgg.tpu_accuracy) < 10.0
    assert abs(resnet.cpu_accuracy - resnet.tpu_accuracy) < 10.0
    print()
    print(format_table1(result))
