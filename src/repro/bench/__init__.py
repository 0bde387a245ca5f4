"""Benchmark harness: workload definitions and table/figure generators.

``python -m repro.bench.harness all`` regenerates every table and
figure of the paper; ``benchmarks/`` wraps the same entry points in
pytest-benchmark with shape assertions.
"""

from repro import lazy_exports

EXPORTS = {
    "harness": (
        "Figure4Result",
        "Figure5Result",
        "Figure6Result",
        "Table1Result",
        "Table2Result",
        "format_figure4",
        "format_figure5",
        "format_figure6",
        "format_table1",
        "format_table2",
        "run_figure4",
        "run_figure5",
        "run_figure6",
        "run_table1",
        "run_table2",
        "train_resnet_accuracy",
        "train_vgg_accuracy",
    ),
    "report": (
        "figure4_csv",
        "figure5_csv",
        "figure6_csv",
        "table1_csv",
        "table2_csv",
        "write_csv",
    ),
    "workloads": (
        "FIGURE4_SIZES",
        "ClassificationWorkload",
        "InterpretationWorkload",
        "TrainTestSeconds",
        "cpu_classification_times",
        "default_devices",
        "figure4_solve_seconds",
        "gpu_classification_times",
        "interpretation_seconds",
        "resnet50_interpretation_workload",
        "resnet50_workload",
        "tpu_classification_times",
        "vgg19_interpretation_workload",
        "vgg19_workload",
    ),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, EXPORTS)
