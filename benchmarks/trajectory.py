"""Print the committed host-time trajectory of the two-clock benchmark.

    python benchmarks/trajectory.py [HISTORY]

``HISTORY`` defaults to ``BENCH_perf_history.jsonl`` at the repository
root: one ``benchmarks/perf/run.py`` record (``<out>/record.json``) per
line, each labelled with the ``pr`` that appended it.  The table has
one row per record -- its label, commit and seed, then each workload's
end-to-end metrics (``host_s``, ``setup_s`` and ``peak_rss_mb``, the
order ``BENCHMARK.json`` declares them in).  ``compare.py`` reads the
same file: ``python3 benchmarks/perf/compare.py
BENCH_perf_history.jsonl <out>/record.json`` compares a run against the
last record.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HISTORY = ROOT / "BENCH_perf_history.jsonl"
BENCHMARK = ROOT / "BENCHMARK.json"


def load_history(path=HISTORY) -> list[dict]:
    """The records of a ``.jsonl`` history, oldest first."""
    lines = Path(path).read_text().splitlines()
    return [json.loads(line) for line in lines if line.strip()]


def declared(path=BENCHMARK) -> tuple[list[str], list[str]]:
    """``BENCHMARK.json``'s workload names and end-to-end metric names."""
    benchmark = json.loads(Path(path).read_text())
    workloads = [workload["name"] for workload in benchmark["workloads"]]
    return workloads, [metric["name"] for metric in benchmark["end_to_end"]]


def format_table(records, workloads, metrics) -> str:
    """One right-aligned row per record under a workload / metric header.

    Values are in ``BENCHMARK.json``'s units (seconds, MB); ``-`` marks
    a value a record lacks.
    """
    rows = [["pr", "commit", "seed"] + list(metrics) * len(workloads)]
    for record in records:
        row = [
            str(record.get("pr", "-")),
            (record.get("commit") or "-")[:7],
            str(record.get("seed", "-")),
        ]
        for workload in workloads:
            measured = record["workloads"].get(workload, {}).get("metrics", {})
            for name in metrics:
                entry = measured.get(name)
                row.append("-" if entry is None else f"{entry['value']:.4g}")
        rows.append(row)
    widths = [max(len(row[column]) for row in rows) for column in range(len(rows[0]))]
    lines = ["  ".join(cell.rjust(width) for cell, width in zip(row, widths)) for row in rows]
    # The workload names, each centred over its metrics' columns.
    groups = ["  ".join(" " * width for width in widths[:3])]
    for index, workload in enumerate(workloads):
        span = widths[3 + index * len(metrics):3 + (index + 1) * len(metrics)]
        groups.append(workload.center(sum(span) + 2 * (len(span) - 1)))
    return "\n".join(["  ".join(groups).rstrip(), *lines])


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    history = Path(args[0]) if args else HISTORY
    print(format_table(load_history(history), *declared()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
