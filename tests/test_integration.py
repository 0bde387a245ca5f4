"""Cross-module integration tests: the whole system end to end."""

import numpy as np
import pytest

from repro import (
    ConvolutionDistiller,
    CpuDevice,
    GpuDevice,
    TpuBackend,
    block_contributions,
    make_tpu_chip,
    top_k_features,
)
from repro.fft import fft_circular_convolve2d


def dominance_margin(scores):
    """The top score over the runner-up: the paper's "significantly larger"."""
    runner_up, top = np.sort(scores, axis=None)[-2:]
    return top / runner_up


def rank_agreement(scores_a, scores_b):
    """Spearman rank correlation of two score grids (no ties expected)."""
    ranks_a = np.argsort(np.argsort(scores_a, axis=None))
    ranks_b = np.argsort(np.argsort(scores_b, axis=None))
    return np.corrcoef(ranks_a, ranks_b)[0, 1]


class TestFullStackExplanation:
    """Train nothing, fake nothing: black-box -> distill -> explain ->
    rank, on every simulated device."""

    @pytest.fixture(scope="class")
    def scenario(self):
        rng = np.random.default_rng(42)
        x = 0.02 * rng.standard_normal((16, 16))
        x[0, 0] = 1.0
        x[4:8, 8:12] = 5.0  # planted 4x4 block at grid (1, 2)
        kernel_true = rng.standard_normal((16, 16))
        y = fft_circular_convolve2d(x, kernel_true)
        return x, y, kernel_true

    @pytest.mark.parametrize(
        "device_factory",
        [
            CpuDevice,
            GpuDevice,
            lambda: TpuBackend(
                make_tpu_chip(num_cores=4, precision="fp32", mxu_rows=8, mxu_cols=8)
            ),
        ],
        ids=["cpu", "gpu", "tpu"],
    )
    def test_planted_block_recovered_on_every_device(self, scenario, device_factory):
        x, y, _ = scenario
        device = device_factory()
        distiller = ConvolutionDistiller(device=device, eps=1e-9).fit(x, y)
        grid = block_contributions(x, distiller.kernel_, y, (4, 4), device=device)
        assert top_k_features(grid, 1) == [(1, 2)]
        assert dominance_margin(grid) > 2.0
        assert device.stats.seconds > 0

    def test_devices_agree_on_rankings(self, scenario):
        x, y, _ = scenario
        grids = {}
        for name, device in [
            ("cpu", CpuDevice()),
            ("tpu", TpuBackend(make_tpu_chip(num_cores=2, precision="fp32",
                                             mxu_rows=8, mxu_cols=8))),
        ]:
            distiller = ConvolutionDistiller(device=device, eps=1e-9).fit(x, y)
            grids[name] = block_contributions(x, distiller.kernel_, y, (4, 4))
        assert rank_agreement(grids["cpu"], grids["tpu"]) > 0.95

    def test_bf16_tpu_preserves_the_ranking(self, scenario):
        """Precision loss from bf16 MXU mode must not change the answer."""
        x, y, _ = scenario
        backend = TpuBackend(
            make_tpu_chip(num_cores=2, precision="bf16", mxu_rows=8, mxu_cols=8)
        )
        distiller = ConvolutionDistiller(device=backend, eps=1e-6).fit(x, y)
        grid = block_contributions(x, distiller.kernel_, y, (4, 4))
        assert top_k_features(grid, 1) == [(1, 2)]


class TestHarnessSmoke:
    """The bench harness's entry points run end to end and keep their
    structural promises (fast configurations only)."""

    def test_run_table1_times_only(self):
        from repro.bench.harness import format_table1, run_table1

        result = run_table1(with_accuracy=False)
        assert len(result.rows) == 2
        text = format_table1(result)
        assert "VGG19" in text and "ResNet50" in text
        for row in result.rows:
            assert row.speedup_vs_cpu > row.speedup_vs_gpu > 1.0

    def test_run_table2(self):
        from repro.bench.harness import format_table2, run_table2

        result = run_table2(pairs=2)
        assert all(row.cpu_seconds > row.tpu_seconds for row in result.rows)
        assert "Impro./CPU" in format_table2(result)

    def test_run_figure4(self):
        from repro.bench.harness import format_figure4, run_figure4

        result = run_figure4(sizes=(64, 256))
        assert len(result.points) == 2
        assert "TPU/CPU" in format_figure4(result)

    def test_figure4_speedup_reads_one_swept_size(self):
        from repro.bench.harness import run_figure4

        result = run_figure4(sizes=(64, 256))
        small, large = result.points
        assert result.speedup_vs_cpu(256) == large.cpu_seconds / large.tpu_seconds
        assert result.speedup_vs_cpu(64) == small.cpu_seconds / small.tpu_seconds
        with pytest.raises(KeyError, match="size 128 not in sweep"):
            result.speedup_vs_cpu(128)

    def test_run_figure5(self):
        from repro.bench.harness import format_figure5, run_figure5

        result = run_figure5()
        assert result.face_is_top
        assert "face block" in format_figure5(result)

    def test_run_figure6(self):
        from repro.bench.harness import format_figure6, run_figure6

        result = run_figure6()
        assert result.attack_cycle_is_top
        assert "ATTACK_VECTOR" in format_figure6(result)

    def test_cli_rejects_unknown_experiment(self):
        from repro.bench.harness import main

        assert main(["bogus"]) == 2

    def test_cli_runs_figure4(self, capsys):
        from repro.bench.harness import main

        assert main(["figure4"]) == 0
        assert "FIGURE 4" in capsys.readouterr().out


class TestCsvReports:
    @pytest.mark.parametrize("name", ["table2", "figure4", "figure5", "figure6"])
    def test_cli_csv_writes_the_experiments_report(self, name, tmp_path, monkeypatch, capsys):
        from repro.bench import harness, report

        monkeypatch.chdir(tmp_path)
        assert harness.main([name, "--csv"]) == 0
        written = (tmp_path / f"results_{name}.csv").read_bytes()
        expected = getattr(report, f"{name}_csv")(getattr(harness, f"run_{name}")())
        assert written == expected.encode()
        assert f"[csv written to results_{name}.csv]" in capsys.readouterr().out

    def test_table2_csv_round_trip(self):
        import csv
        import io

        from repro.bench.harness import run_table2
        from repro.bench.report import table2_csv

        content = table2_csv(run_table2(pairs=1))
        rows = list(csv.DictReader(io.StringIO(content)))
        assert [row["model"] for row in rows] == ["VGG19", "ResNet50"]
        assert float(rows[0]["improvement_vs_cpu"]) > 1.0

    def test_figure4_csv(self):
        import csv
        import io

        from repro.bench.harness import run_figure4
        from repro.bench.report import figure4_csv

        content = figure4_csv(run_figure4(sizes=(64, 128)))
        rows = list(csv.DictReader(io.StringIO(content)))
        assert [int(row["size"]) for row in rows] == [64, 128]

    def test_figure5_and_6_csv(self):
        from repro.bench.harness import run_figure5, run_figure6
        from repro.bench.report import figure5_csv, figure6_csv

        five = figure5_csv(run_figure5())
        assert "face" in five and "ear" in five
        six = figure6_csv(run_figure6())
        assert ",1" in six  # the attack-cycle marker column

    def test_write_csv(self, tmp_path):
        from repro.bench.report import write_csv

        path = tmp_path / "out.csv"
        write_csv(str(path), "a,b\n1,2\n")
        assert path.read_text() == "a,b\n1,2\n"
        with pytest.raises(ValueError):
            write_csv(str(path), "   ")

    def test_table1_csv_headers(self):
        from repro.bench.harness import run_table1
        from repro.bench.report import table1_csv

        content = table1_csv(run_table1(with_accuracy=False))
        header = content.splitlines()[0]
        assert "speedup_vs_cpu" in header and "tpu_train_s" in header


class TestLibraryFftOption:
    def test_cpu_library_fft_cheaper(self):
        from repro.hw import CpuConfig

        naive = CpuDevice()
        strong = CpuDevice(CpuConfig(use_library_fft=True))
        assert strong.fft2_seconds(512, 512) < naive.fft2_seconds(512, 512)
        # Matmul pricing is unchanged by the FFT option.
        assert strong.matmul_seconds(64, 64, 64) == naive.matmul_seconds(64, 64, 64)

    def test_gpu_library_fft_cheaper(self):
        from repro.hw import GpuConfig

        naive = GpuDevice()
        strong = GpuDevice(GpuConfig(use_library_fft=True))
        assert strong.fft2_seconds(512, 512) < naive.fft2_seconds(512, 512)

    def test_functional_results_identical(self):
        from repro.hw import CpuConfig

        x = np.random.default_rng(0).standard_normal((8, 8))
        naive = CpuDevice().fft2(x)
        strong = CpuDevice(CpuConfig(use_library_fft=True)).fft2(x)
        np.testing.assert_allclose(naive, strong, atol=1e-12)
