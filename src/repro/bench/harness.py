"""Experiment harness: regenerates every table and figure of the paper.

Each ``run_*`` function returns a structured result object; each
``format_*`` renders it in the paper's layout.  The module doubles as a
CLI::

    python -m repro.bench.harness table1
    python -m repro.bench.harness table2
    python -m repro.bench.harness figure4
    python -m repro.bench.harness figure5
    python -m repro.bench.harness figure6
    python -m repro.bench.harness all

All times are *simulated seconds* from the device cost models (see
DESIGN.md "Fidelity contract"); accuracies come from really training the
CI-scale model variants on the synthetic datasets.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

from repro.bench.workloads import (
    FIGURE4_SIZES,
    ClassificationWorkload,
    cpu_classification_times,
    default_devices,
    figure4_solve_seconds,
    gpu_classification_times,
    interpretation_seconds,
    resnet50_interpretation_workload,
    resnet50_workload,
    tpu_classification_times,
    vgg19_interpretation_workload,
    vgg19_workload,
)
from repro.core.backend import TpuBackend, make_tpu_chip
from repro.core.distillation import ConvolutionDistiller
from repro.core.interpretation import (
    block_contributions,
    column_contributions,
    normalize_scores,
    top_k_features,
)
from repro.data.cifar import CifarLikeSpec, SyntheticCifar100, make_cat_image
from repro.data.mirai import MiraiTraceDataset, MiraiTraceSpec
from repro.fft import fft_circular_convolve2d
from repro.hw.cpu import CpuDevice
from repro.hw.gpu import GpuDevice
from repro.nn.optim import Adam
from repro.nn.resnet import resnet_scaled
from repro.nn.train import Trainer
from repro.nn.vgg import vgg19_scaled


# ----------------------------------------------------------------------
# Accuracy runs (real training of the CI-scale variants)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class AccuracyResult:
    """Accuracy triple for one benchmark row.

    CPU and GPU run the float model; the TPU column re-evaluates with
    int8-quantized weights (the quantization the paper's Section II-A
    describes), so the three columns can genuinely differ.
    """

    float_accuracy: float
    quantized_accuracy: float


def _quantized_eval_accuracy(model, trainer, inputs, labels) -> float:
    """Evaluate with every weight tensor round-tripped through int8."""
    from repro.nn.quantized import quantized_accuracy

    return quantized_accuracy(
        model, inputs, labels, bits=8, batch_size=trainer.batch_size
    )


def train_vgg_accuracy(
    train_count: int = 192, test_count: int = 96, epochs: int = 6, seed: int = 0
) -> AccuracyResult:
    """Really train the scaled VGG19 on synthetic CIFAR-100-like data."""
    dataset = SyntheticCifar100(
        CifarLikeSpec(num_classes=4, noise_level=0.15), seed=seed
    )
    train_x, train_y, test_x, test_y = dataset.train_test_split(
        train_count, test_count, seed=seed
    )
    model = vgg19_scaled(num_classes=4, seed=seed)
    trainer = Trainer(
        model, Adam(model.parameters(), lr=2e-3), batch_size=32, seed=seed
    )
    trainer.fit(train_x, train_y, epochs=epochs)
    float_acc = trainer.evaluate(test_x, test_y)
    quant_acc = _quantized_eval_accuracy(model, trainer, test_x, test_y)
    return AccuracyResult(float_accuracy=float_acc, quantized_accuracy=quant_acc)


def train_resnet_accuracy(
    train_count: int = 256, test_count: int = 96, epochs: int = 10, seed: int = 0
) -> AccuracyResult:
    """Really train the scaled ResNet on synthetic MIRAI traces."""
    dataset = MiraiTraceDataset(
        MiraiTraceSpec(registers=32, cycles=32), seed=seed
    )
    train_traces, train_y, _ = dataset.batch(train_count, seed=seed)
    test_traces, test_y, _ = dataset.batch(test_count, seed=seed + 1)
    train_x = dataset.as_images(train_traces)
    test_x = dataset.as_images(test_traces)
    model = resnet_scaled(num_classes=2, in_channels=1, seed=seed)
    trainer = Trainer(
        model, Adam(model.parameters(), lr=3e-3), batch_size=32, seed=seed
    )
    trainer.fit(train_x, train_y, epochs=epochs)
    float_acc = trainer.evaluate(test_x, test_y)
    quant_acc = _quantized_eval_accuracy(model, trainer, test_x, test_y)
    return AccuracyResult(float_accuracy=float_acc, quantized_accuracy=quant_acc)


# ----------------------------------------------------------------------
# Table I
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Table1Row:
    """One benchmark row of Table I."""

    bench: str
    cpu_accuracy: float
    cpu_train: float
    cpu_test: float
    gpu_accuracy: float
    gpu_train: float
    gpu_test: float
    tpu_accuracy: float
    tpu_train: float
    tpu_test: float

    @property
    def speedup_vs_cpu(self) -> float:
        return (self.cpu_train + self.cpu_test) / (self.tpu_train + self.tpu_test)

    @property
    def speedup_vs_gpu(self) -> float:
        return (self.gpu_train + self.gpu_test) / (self.tpu_train + self.tpu_test)


@dataclass(frozen=True)
class Table1Result:
    rows: list[Table1Row]


def run_table1(
    with_accuracy: bool = True, accuracy_epochs: int | None = None
) -> Table1Result:
    """Regenerate Table I: accuracy plus per-10-epoch train/test time.

    ``accuracy_epochs`` overrides both models' training length (mainly
    for quick smoke runs); by default each model uses its own tuned
    epoch count.
    """
    rows = []
    override = {} if accuracy_epochs is None else {"epochs": accuracy_epochs}
    accuracy_runs = {
        "VGG19": (lambda: train_vgg_accuracy(**override)),
        "ResNet50": (lambda: train_resnet_accuracy(**override)),
    }
    for workload in (vgg19_workload(), resnet50_workload()):
        cpu_times = cpu_classification_times(workload)
        gpu_times = gpu_classification_times(workload)
        tpu_times = tpu_classification_times(workload)
        if with_accuracy:
            accuracy = accuracy_runs[workload.name]()
            float_pct = 100.0 * accuracy.float_accuracy
            quant_pct = 100.0 * accuracy.quantized_accuracy
        else:
            float_pct = float("nan")
            quant_pct = float("nan")
        rows.append(
            Table1Row(
                bench=workload.name,
                cpu_accuracy=float_pct,
                cpu_train=cpu_times.train_seconds,
                cpu_test=cpu_times.test_seconds,
                gpu_accuracy=float_pct,
                gpu_train=gpu_times.train_seconds,
                gpu_test=gpu_times.test_seconds,
                tpu_accuracy=quant_pct,
                tpu_train=tpu_times.train_seconds,
                tpu_test=tpu_times.test_seconds,
            )
        )
    return Table1Result(rows=rows)


def format_table1(result: Table1Result) -> str:
    header = (
        f"{'bench':<10}"
        f"{'CPU acc%':>9}{'CPU-train':>11}{'CPU-test':>10}"
        f"{'GPU acc%':>9}{'GPU-train':>11}{'GPU-test':>10}"
        f"{'TPU acc%':>9}{'TPU-train':>11}{'TPU-test':>10}"
        f"{'Spd/CPU':>9}{'Spd/GPU':>9}"
    )
    lines = [
        "TABLE I: Comparison of accuracy and classification time "
        "(simulated seconds per 10 epochs)",
        header,
        "-" * len(header),
    ]
    for row in result.rows:
        lines.append(
            f"{row.bench:<10}"
            f"{row.cpu_accuracy:>9.2f}{row.cpu_train:>11.1f}{row.cpu_test:>10.1f}"
            f"{row.gpu_accuracy:>9.2f}{row.gpu_train:>11.1f}{row.gpu_test:>10.1f}"
            f"{row.tpu_accuracy:>9.2f}{row.tpu_train:>11.1f}{row.tpu_test:>10.2f}"
            f"{row.speedup_vs_cpu:>8.1f}x{row.speedup_vs_gpu:>8.1f}x"
        )
    avg_cpu = float(np.mean([row.speedup_vs_cpu for row in result.rows]))
    avg_gpu = float(np.mean([row.speedup_vs_gpu for row in result.rows]))
    lines.append(
        f"{'Average':<10}{'':>60}{'':>30}{avg_cpu:>8.1f}x{avg_gpu:>8.1f}x"
    )
    lines.append(
        "(paper: VGG19 65x/25.7x, ResNet50 44.5x/23.9x, average 54.7x/24.8x)"
    )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Table II
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Table2Row:
    model: str
    cpu_seconds: float
    gpu_seconds: float
    tpu_seconds: float

    @property
    def improvement_vs_cpu(self) -> float:
        return self.cpu_seconds / self.tpu_seconds

    @property
    def improvement_vs_gpu(self) -> float:
        return self.gpu_seconds / self.tpu_seconds


@dataclass(frozen=True)
class Table2Result:
    rows: list[Table2Row]


def run_table2(pairs: int = 10) -> Table2Result:
    """Regenerate Table II: interpretation time per ``pairs`` pairs.

    Models the paper's *measured* execution (host-side masking, one
    launch per feature); the executable pipeline runs the batched
    engine instead, which `benchmarks/bench_batched_interpretation.py`
    compares against this baseline.
    """
    devices = default_devices()
    rows = []
    for workload in (
        vgg19_interpretation_workload(pairs=pairs),
        resnet50_interpretation_workload(pairs=pairs),
    ):
        rows.append(
            Table2Row(
                model=workload.name,
                cpu_seconds=interpretation_seconds(devices["CPU"], workload),
                gpu_seconds=interpretation_seconds(devices["GPU"], workload),
                tpu_seconds=interpretation_seconds(devices["TPU"], workload),
            )
        )
    return Table2Result(rows=rows)


def format_table2(result: Table2Result) -> str:
    header = (
        f"{'Model':<10}{'CPU':>10}{'GPU':>10}{'TPU':>10}"
        f"{'Impro./CPU':>12}{'Impro./GPU':>12}"
    )
    lines = [
        "TABLE II: Average time (simulated seconds) for outcome "
        "interpretation per 10 input-output pairs",
        header,
        "-" * len(header),
    ]
    for row in result.rows:
        lines.append(
            f"{row.model:<10}{row.cpu_seconds:>10.1f}{row.gpu_seconds:>10.1f}"
            f"{row.tpu_seconds:>10.1f}"
            f"{row.improvement_vs_cpu:>11.1f}x{row.improvement_vs_gpu:>11.1f}x"
        )
    avg = Table2Row(
        model="Average",
        cpu_seconds=float(np.mean([r.cpu_seconds for r in result.rows])),
        gpu_seconds=float(np.mean([r.gpu_seconds for r in result.rows])),
        tpu_seconds=float(np.mean([r.tpu_seconds for r in result.rows])),
    )
    lines.append(
        f"{avg.model:<10}{avg.cpu_seconds:>10.1f}{avg.gpu_seconds:>10.1f}"
        f"{avg.tpu_seconds:>10.1f}"
        f"{avg.improvement_vs_cpu:>11.1f}x{avg.improvement_vs_gpu:>11.1f}x"
    )
    lines.append(
        "(paper: VGG19 550.7/168/15.2s -> 36.2x/11x; "
        "ResNet50 1456.1/502/36.8s -> 39.5x/13.6x)"
    )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Figure 4
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Figure4Point:
    size: int
    cpu_seconds: float
    gpu_seconds: float
    tpu_seconds: float


@dataclass(frozen=True)
class Figure4Result:
    points: list[Figure4Point]

    def speedup_vs_cpu(self, size: int) -> float:
        for point in self.points:
            if point.size == size:
                return point.cpu_seconds / point.tpu_seconds
        raise KeyError(f"size {size} not in sweep")


def run_figure4(sizes=FIGURE4_SIZES) -> Figure4Result:
    """Regenerate Figure 4: solve time vs matrix size on each device."""
    devices = default_devices()
    points = [
        Figure4Point(
            size=size,
            cpu_seconds=figure4_solve_seconds(devices["CPU"], size),
            gpu_seconds=figure4_solve_seconds(devices["GPU"], size),
            tpu_seconds=figure4_solve_seconds(devices["TPU"], size),
        )
        for size in sizes
    ]
    return Figure4Result(points=points)


def format_figure4(result: Figure4Result) -> str:
    header = f"{'size':>6}{'CPU (s)':>12}{'GPU (s)':>12}{'TPU (s)':>12}{'TPU/CPU':>10}{'TPU/GPU':>10}"
    lines = [
        "FIGURE 4: Scalability of the interpretation solve "
        "(simulated seconds per matrix)",
        header,
        "-" * len(header),
    ]
    for point in result.points:
        lines.append(
            f"{point.size:>6}{point.cpu_seconds:>12.4f}{point.gpu_seconds:>12.4f}"
            f"{point.tpu_seconds:>12.4f}"
            f"{point.cpu_seconds / point.tpu_seconds:>9.1f}x"
            f"{point.gpu_seconds / point.tpu_seconds:>9.1f}x"
        )
    lines.append("(paper: TPU more than 30x faster than CPU at 1024x1024)")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Figure 5
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Figure5Result:
    image: np.ndarray
    grid: np.ndarray
    face_block: tuple[int, int]
    ear_block: tuple[int, int]
    top_blocks: list[tuple[int, ...]]

    @property
    def face_is_top(self) -> bool:
        return tuple(self.top_blocks[0]) == self.face_block

    @property
    def ear_in_top_two(self) -> bool:
        return self.ear_block in [tuple(b) for b in self.top_blocks[:2]]


def run_figure5(
    size: int = 32, block: int = 8, seed: int = 7, fit_pairs: int = 12
) -> Figure5Result:
    """Regenerate Figure 5: block-level interpretation of a cat image.

    A synthetic image with known face/ear blocks passes through a
    convolutional "classifier" (a planted circular-convolution response,
    the model family the distiller is exact for).  The distilled model
    is fitted on a small batch of noisy variants of the image -- the
    paper's setting, where distillation sees the model's input-output
    dataset -- which also makes the multi-pair Wiener solve well-posed
    without any spectrum anchoring.  The fitted kernel's block
    contributions must surface the face first and the ear in the top
    two: the paper's qualitative claim.
    """
    image, face, ear = make_cat_image(size=size, block=block, seed=seed)
    rng = np.random.default_rng(seed)
    response_kernel = rng.standard_normal((size, size))

    variants = np.stack(
        [image + 0.05 * rng.standard_normal(image.shape) for _ in range(fit_pairs)]
    )
    outputs = np.stack(
        [fft_circular_convolve2d(x, response_kernel) for x in variants]
    )
    distiller = ConvolutionDistiller(eps=1e-6).fit(variants, outputs)

    output = fft_circular_convolve2d(image, response_kernel)
    grid = block_contributions(
        image, distiller.kernel_, output, block_shape=(block, block)
    )
    return Figure5Result(
        image=image,
        grid=normalize_scores(grid),
        face_block=face,
        ear_block=ear,
        top_blocks=top_k_features(grid, 3),
    )


def format_figure5(result: Figure5Result) -> str:
    lines = [
        "FIGURE 5: Interpretation of a CIFAR-style image "
        "(normalized block contribution factors)",
    ]
    for row in result.grid:
        lines.append("  " + " ".join(f"{value:5.2f}" for value in row))
    lines.append(f"face block {result.face_block} is top-1: {result.face_is_top}")
    lines.append(f"ear block {result.ear_block} in top-2:  {result.ear_in_top_two}")
    lines.append(
        "(paper: the cat's face (central block) and ear (mid-up block) "
        "are the keys to recognition)"
    )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Figure 6
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Figure6Result:
    trace: np.ndarray
    weights: np.ndarray
    attack_cycle: int
    attack_mode: str
    table_text: str

    @property
    def attack_cycle_is_top(self) -> bool:
        return int(np.argmax(self.weights)) == self.attack_cycle


def run_figure6(
    registers: int = 8, cycles: int = 8, seed: int = 3, fit_pairs: int = 12
) -> Figure6Result:
    """Regenerate Figure 6: per-clock-cycle weights of a MIRAI trace.

    The distilled model is fitted on a batch of traces from the
    detector's input-output behaviour (malicious traces all carry the
    ATTACK_VECTOR assignment at the dataset's attack cycle); column
    contributions on one malicious trace must put that cycle on top.
    """
    dataset = MiraiTraceDataset(
        MiraiTraceSpec(registers=registers, cycles=cycles), seed=seed
    )
    rng = np.random.default_rng(seed)
    detector_kernel = rng.standard_normal((registers, cycles))

    fit_traces = np.stack(
        [dataset.sample(index % 2 == 1, rng)[0] for index in range(fit_pairs)]
    )
    fit_outputs = np.stack(
        [fft_circular_convolve2d(t, detector_kernel) for t in fit_traces]
    )
    distiller = ConvolutionDistiller(eps=1e-6).fit(fit_traces, fit_outputs)

    trace, info = dataset.sample(True, rng)
    output = fft_circular_convolve2d(trace, detector_kernel)
    weights = column_contributions(trace, distiller.kernel_, output)
    normalized = normalize_scores(weights)
    table_text = dataset.format_table(trace, weights=normalized, max_cols=cycles)
    return Figure6Result(
        trace=trace,
        weights=normalized,
        attack_cycle=info["attack_cycle"],
        attack_mode=info["attack_mode"],
        table_text=table_text,
    )


def format_figure6(result: Figure6Result) -> str:
    lines = [
        "FIGURE 6: Interpretation of MIRAI malware traced signals",
        result.table_text,
        f"ATTACK_VECTOR assignment at cycle C{result.attack_cycle} "
        f"(mode {result.attack_mode})",
        f"attack cycle has the largest weight: {result.attack_cycle_is_top}",
        "(paper: the weight of C2 is significantly larger than the others; "
        "C2 is the ATTACK_VECTOR assignment)",
    ]
    return "\n".join(lines)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

_EXPERIMENTS = {
    "table1": lambda: format_table1(run_table1()),
    "table2": lambda: format_table2(run_table2()),
    "figure4": lambda: format_figure4(run_figure4()),
    "figure5": lambda: format_figure5(run_figure5()),
    "figure6": lambda: format_figure6(run_figure6()),
}


def _csv_exporters():
    from repro.bench import report

    return {
        "table1": lambda: report.table1_csv(run_table1()),
        "table2": lambda: report.table2_csv(run_table2()),
        "figure4": lambda: report.figure4_csv(run_figure4()),
        "figure5": lambda: report.figure5_csv(run_figure5()),
        "figure6": lambda: report.figure6_csv(run_figure6()),
    }


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    write_csv_files = "--csv" in argv
    argv = [argument for argument in argv if argument != "--csv"]
    if not argv or argv[0] not in (*_EXPERIMENTS, "all"):
        names = ", ".join([*_EXPERIMENTS, "all"])
        print(f"usage: python -m repro.bench.harness <{names}> [--csv]")
        return 2
    targets = list(_EXPERIMENTS) if argv[0] == "all" else [argv[0]]
    exporters = _csv_exporters() if write_csv_files else {}
    for name in targets:
        print(_EXPERIMENTS[name]())
        print()
        if write_csv_files:
            from repro.bench.report import write_csv

            path = f"results_{name}.csv"
            write_csv(path, exporters[name]())
            print(f"[csv written to {path}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
