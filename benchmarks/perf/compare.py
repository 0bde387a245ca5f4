"""Compare two benchmark records, one row per (workload, metric).

    python benchmarks/perf/compare.py A B

``A`` and ``B`` are records written by ``run.py`` (``<out>/record.json``)
or ``history.jsonl``, whose last record is taken; ``history.jsonl@<commit
prefix>`` takes that commit's record instead.  B is read against A:

* simulated-clock metrics must match to ``SIM_TOLERANCE`` (relative):
  ``equal`` or ``CHANGED``;
* end-to-end host metrics carry a bound in ``BENCHMARK.json``: B is
  ``REGRESSED`` when its median is worse than A's by more than the
  bound, ``improved`` when better by more than it, else ``unchanged``.
  When either side's sample spread (quartile distance over median)
  exceeds the bound the row reads ``unresolved`` instead, unless every
  sample of one side beats every sample of the other;
* ``error_rate`` and ``correct``: any rise in errors is ``REGRESSED``;
* every other metric is shown as the ratio B / A, for reading only.

Exits 1 when any row is ``REGRESSED`` or ``CHANGED``.
"""

import json
import math
import statistics
import sys
from pathlib import Path

SIM_TOLERANCE = 1e-9
BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
FAILING = ("REGRESSED", "CHANGED")


def load_record(spec):
    """A record from a ``.json`` file or a ``.jsonl`` history (``path@commit``)."""
    path, _, commit = spec.partition("@")
    lines = [line for line in Path(path).read_text().splitlines() if line.strip()]
    records = [json.loads(line) for line in lines]
    if commit:
        records = [r for r in records if (r.get("commit") or "").startswith(commit)]
        if not records:
            raise SystemExit(f"compare.py: no record of commit {commit!r} in {path}")
    return records[-1]


def load_bounds(path=BENCHMARK):
    """``name -> (bound, better)`` of the end-to-end metrics."""
    benchmark = json.loads(Path(path).read_text())
    return {m["name"]: (m["bound"], m["better"]) for m in benchmark["end_to_end"]}


def spread(samples):
    """Quartile distance as a share of the median (0 for fewer than two samples)."""
    if len(samples) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / statistics.median(samples)


def _sim_verdict(a, b):
    if a == b:
        return "equal"
    if math.isfinite(a) and math.isfinite(b) and abs(a - b) <= SIM_TOLERANCE * max(abs(a), abs(b)):
        return "equal"
    return "CHANGED"


def _host_verdict(entry_a, entry_b, bound, better):
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (entry_b["value"] - entry_a["value"]) / entry_a["value"]
    samples_a = entry_a.get("samples", [entry_a["value"]])
    samples_b = entry_b.get("samples", [entry_b["value"]])
    keyed_a = [sign * v for v in samples_a]
    keyed_b = [sign * v for v in samples_b]
    separated = max(keyed_b) < min(keyed_a) or min(keyed_b) > max(keyed_a)
    if max(spread(samples_a), spread(samples_b)) > bound and not separated:
        return "unresolved"
    if worse > bound:
        return "REGRESSED"
    if worse < -bound:
        return "improved"
    return "unchanged"


def compare(a, b, bounds):
    """Rows ``(workload, metric, value A, value B, verdict)``."""
    rows = []
    for workload in sorted(set(a["workloads"]) | set(b["workloads"])):
        run_a = a["workloads"].get(workload)
        run_b = b["workloads"].get(workload)
        if run_a is None or run_b is None:
            rows.append((workload, "*", "-", "-", "added" if run_a is None else "removed"))
            continue
        verdict = "REGRESSED" if run_a["correct"] and not run_b["correct"] else "unchanged"
        rows.append((workload, "correct", run_a["correct"], run_b["correct"], verdict))
        metrics_a, metrics_b = run_a["metrics"], run_b["metrics"]
        for name in list(metrics_a) + [n for n in metrics_b if n not in metrics_a]:
            entry_a, entry_b = metrics_a.get(name), metrics_b.get(name)
            if entry_a is None or entry_b is None:
                rows.append((workload, name, "-", "-", "added" if entry_a is None else "removed"))
                continue
            value_a, value_b = entry_a["value"], entry_b["value"]
            if entry_a["clock"] == "sim":
                verdict = _sim_verdict(value_a, value_b)
            elif name == "error_rate":
                verdict = "REGRESSED" if value_b > value_a else "unchanged"
            elif name in bounds:
                verdict = _host_verdict(entry_a, entry_b, *bounds[name])
            elif value_a:
                verdict = f"x{value_b / value_a:.3f}"
            else:
                verdict = "-"
            rows.append((workload, name, value_a, value_b, verdict))
    return rows


def _cell(value):
    if isinstance(value, float) and math.isfinite(value):
        return f"{value:.6g}"
    return str(value)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        raise SystemExit(__doc__)
    a, b = (load_record(spec) for spec in argv)
    if a["seed"] != b["seed"]:
        raise SystemExit(
            f"compare.py: seeds differ ({a['seed']} vs {b['seed']}); simulated metrics "
            "compare only at one seed"
        )
    print(f"A: {a.get('commit')}  B: {b.get('commit')}  seed {a['seed']}")
    rows = compare(a, b, load_bounds())
    for workload, name, value_a, value_b, verdict in rows:
        print(f"{workload:13s} {name:28s} {_cell(value_a):>14s} {_cell(value_b):>14s}  {verdict}")
    return 1 if any(row[-1] in FAILING for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
