"""Result export: CSV serialization of every experiment's outputs.

Keeps the harness's structured results machine-readable so downstream
analysis (plots, regression tracking across simulator changes) does not
scrape the pretty-printed tables.
"""

from __future__ import annotations

import csv
import io
from typing import TYPE_CHECKING

# Annotations only: `python -m repro.bench.harness --csv` imports this
# module from the harness it runs, which must not load a second copy.
if TYPE_CHECKING:
    from repro.bench.harness import (
        Figure4Result,
        Figure5Result,
        Figure6Result,
        Table1Result,
        Table2Result,
    )


def table1_csv(result: Table1Result) -> str:
    """Table I rows as CSV (one line per benchmark)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(
        [
            "bench",
            "cpu_accuracy_pct", "cpu_train_s", "cpu_test_s",
            "gpu_accuracy_pct", "gpu_train_s", "gpu_test_s",
            "tpu_accuracy_pct", "tpu_train_s", "tpu_test_s",
            "speedup_vs_cpu", "speedup_vs_gpu",
        ]
    )
    for row in result.rows:
        writer.writerow(
            [
                row.bench,
                f"{row.cpu_accuracy:.4f}", f"{row.cpu_train:.6f}", f"{row.cpu_test:.6f}",
                f"{row.gpu_accuracy:.4f}", f"{row.gpu_train:.6f}", f"{row.gpu_test:.6f}",
                f"{row.tpu_accuracy:.4f}", f"{row.tpu_train:.6f}", f"{row.tpu_test:.6f}",
                f"{row.speedup_vs_cpu:.4f}", f"{row.speedup_vs_gpu:.4f}",
            ]
        )
    return buffer.getvalue()


def table2_csv(result: Table2Result) -> str:
    """Table II rows as CSV."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(
        ["model", "cpu_s", "gpu_s", "tpu_s", "improvement_vs_cpu", "improvement_vs_gpu"]
    )
    for row in result.rows:
        writer.writerow(
            [
                row.model,
                f"{row.cpu_seconds:.6f}", f"{row.gpu_seconds:.6f}",
                f"{row.tpu_seconds:.6f}",
                f"{row.improvement_vs_cpu:.4f}", f"{row.improvement_vs_gpu:.4f}",
            ]
        )
    return buffer.getvalue()


def figure4_csv(result: Figure4Result) -> str:
    """Figure 4 series as CSV (one line per matrix size)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["size", "cpu_s", "gpu_s", "tpu_s", "tpu_vs_cpu", "tpu_vs_gpu"])
    for point in result.points:
        writer.writerow(
            [
                point.size,
                f"{point.cpu_seconds:.6f}", f"{point.gpu_seconds:.6f}",
                f"{point.tpu_seconds:.6f}",
                f"{point.cpu_seconds / point.tpu_seconds:.4f}",
                f"{point.gpu_seconds / point.tpu_seconds:.4f}",
            ]
        )
    return buffer.getvalue()


def figure5_csv(result: Figure5Result) -> str:
    """Figure 5 block grid as CSV (block_row, block_col, weight, role)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["block_row", "block_col", "weight", "role"])
    for (row_index, col_index), weight in _iter_grid(result.grid):
        role = ""
        if (row_index, col_index) == result.face_block:
            role = "face"
        elif (row_index, col_index) == result.ear_block:
            role = "ear"
        writer.writerow([row_index, col_index, f"{weight:.6f}", role])
    return buffer.getvalue()


def figure6_csv(result: Figure6Result) -> str:
    """Figure 6 per-cycle weights as CSV."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["cycle", "weight", "is_attack_cycle"])
    for cycle, weight in enumerate(result.weights):
        writer.writerow(
            [cycle, f"{weight:.6f}", int(cycle == result.attack_cycle)]
        )
    return buffer.getvalue()


def _iter_grid(grid):
    rows, cols = grid.shape
    for row_index in range(rows):
        for col_index in range(cols):
            yield (row_index, col_index), float(grid[row_index, col_index])


def write_csv(path: str, content: str) -> None:
    """Write a CSV payload to disk."""
    if not content.strip():
        raise ValueError("refusing to write an empty CSV")
    with open(path, "w", newline="") as handle:
        handle.write(content)
