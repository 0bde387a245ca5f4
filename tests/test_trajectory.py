"""The committed benchmark trajectory and its printer.

``BENCH_perf_history.jsonl`` holds one ``benchmarks/perf/run.py`` record
per line; ``benchmarks/trajectory.py`` prints them one row per record.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HISTORY = ROOT / "BENCH_perf_history.jsonl"


def load_trajectory():
    spec = importlib.util.spec_from_file_location(
        "trajectory", ROOT / "benchmarks" / "trajectory.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


trajectory = load_trajectory()
WORKLOADS, METRICS = trajectory.declared()


def record(label, commit, seed, base):
    """A run.py-shaped record whose metric values start at ``base``."""
    workloads = {}
    for index, workload in enumerate(WORKLOADS):
        metrics = {
            name: {"value": base + 10 * index + offset, "unit": "s", "clock": "host"}
            for offset, name in enumerate(METRICS)
        }
        workloads[workload] = {"correct": True, "failed": 0, "metrics": metrics}
    return {"pr": label, "commit": commit, "seed": seed, "workloads": workloads}


def test_declared_names_are_the_benchmarks():
    assert WORKLOADS == ["fleet-pow2", "fleet-odd", "pod-strong", "serve-ladder"]
    assert METRICS == ["host_s", "setup_s", "peak_rss_mb"]


def test_committed_history_parses_and_holds_every_workload_metric():
    records = trajectory.load_history(HISTORY)
    assert records
    for line, entry in enumerate(records, start=1):
        assert isinstance(entry["pr"], int) and isinstance(entry["seed"], int), line
        assert set(entry["workloads"]) == set(WORKLOADS), line
        for workload in WORKLOADS:
            outcome = entry["workloads"][workload]
            assert outcome["correct"] is True and outcome["failed"] == 0, (line, workload)
            for name in METRICS:
                value = outcome["metrics"][name]["value"]
                assert isinstance(value, float) and value > 0, (line, workload, name)


def test_printer_gives_one_row_per_record(tmp_path):
    history = tmp_path / "history.jsonl"
    rows = [record(7, "0123456789ab", 0, 1.0), record(8, None, 7, 2.5)]
    history.write_text("".join(json.dumps(row) + "\n" for row in rows) + "\n")
    table = trajectory.format_table(trajectory.load_history(history), WORKLOADS, METRICS)
    groups, header, first, second = table.splitlines()
    assert groups.split() == WORKLOADS
    assert header.split() == ["pr", "commit", "seed"] + METRICS * len(WORKLOADS)
    assert first.split() == ["7", "0123456", "0"] + [
        f"{1.0 + 10 * index + offset:.4g}"
        for index in range(len(WORKLOADS)) for offset in range(len(METRICS))
    ]
    assert second.split()[:6] == ["8", "-", "7", "2.5", "3.5", "4.5"]
    # Every value sits right-aligned under its metric's name.
    assert len({len(line) for line in (header, first, second)}) == 1


def test_printer_marks_what_a_record_lacks(capsys, tmp_path):
    partial = record(9, "abc", 0, 1.0)
    del partial["workloads"]["fleet-odd"]
    del partial["workloads"]["serve-ladder"]["metrics"]["setup_s"]
    history = tmp_path / "history.jsonl"
    history.write_text(json.dumps(partial) + "\n")
    assert trajectory.main([str(history)]) == 0
    row = capsys.readouterr().out.splitlines()[-1].split()
    assert row[6:9] == ["-", "-", "-"]
    assert row[-2] == "-"
