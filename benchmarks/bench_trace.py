"""Observability benchmark: traced runs, checked against their ledgers.

The tracing layer's acceptance harness, runnable standalone and
collectable by pytest.  Two traced workloads:

* **fleet** -- the 100-pair 8-chip strong-scaling run of
  ``bench_fleet_interpretation --scaling`` (32x32 planes, per-element
  masks, data placement), traced end to end;
* **serve** -- a bursty online-serving sweep (closed bursts through
  the autopilot-steered :class:`repro.serve.ExplanationService`),
  traced from arrival to completion.

Contracts asserted (pytest, and by ``--quick``):

* **reconciliation** -- every traced pod commit's span tree reproduces
  the pod ledger's elapsed decomposition *exactly* (max-over-chips
  body, launch floor, collective rows, overlap credits), ``==`` on
  floats (:func:`repro.obs.reconcile.reconcile_pod_trace`);
* **schema** -- the exported document is valid Chrome trace-event JSON
  (:func:`repro.obs.export.validate_chrome_trace` returns no
  problems), loadable in Perfetto / ``chrome://tracing``;
* **zero overhead off** -- the identical run with tracing disabled
  produces bit-identical scores and a bit-identical ``DeviceStats``
  ledger (and, for serve, an identical ``ServiceReport.signature()``).

Runnable standalone::

    PYTHONPATH=src python benchmarks/bench_trace.py [--quick] [--json PATH]

Writes ``BENCH_trace.json`` (``BENCH_trace_quick.json`` under
``--quick``) plus the Perfetto-loadable span timelines
``BENCH_fleet.trace.json`` and ``BENCH_serve.trace.json``.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from repro.core.backend import TpuBackend, make_tpu_chip
from repro.core.pipeline import ExplanationPipeline
from repro.bench.workloads import planted_interpretation_pairs
from repro.fft import clear_kernel_spectrum_cache, fft_plan_cache_info
from repro.hw.pod import TpuPod
from repro.obs import (
    format_trace_ascii,
    format_wave_timeline,
    to_chrome_trace,
    tracer,
    validate_chrome_trace,
)
from repro.obs.reconcile import reconcile_pod_trace
from repro.serve import (
    AdmissionController,
    BatchController,
    ExplanationService,
    bursty_requests,
)

FLEET_PAIRS = 100
FLEET_SHAPE = (32, 32)
FLEET_BLOCK = (1, 1)
FLEET_CHIPS = 8

QUICK_PAIRS = 12
QUICK_SHAPE = (16, 16)
QUICK_BLOCK = (4, 4)
QUICK_CHIPS = 2

SERVE_SHAPE = (16, 16)
SERVE_BLOCK = (4, 4)
SERVE_COUNT = 80
SERVE_QUICK_COUNT = 36

DEFAULT_JSON = Path("BENCH_trace.json")
QUICK_JSON = Path("BENCH_trace_quick.json")
FLEET_TRACE = Path("BENCH_fleet.trace.json")
SERVE_TRACE = Path("BENCH_serve.trace.json")


def _stats_tuple(stats):
    """A ``DeviceStats`` ledger as one comparable value (== is bitwise)."""
    return (
        stats.seconds,
        stats.macs,
        stats.bytes_moved,
        dict(stats.op_counts),
        dict(stats.op_seconds),
    )


# ----------------------------------------------------------------------
# Traced workloads
# ----------------------------------------------------------------------


def _fleet_run(pairs, num_chips, block_shape, traced):
    """One scaling fleet run; returns ``(run, pod-or-None)``."""
    pipeline = ExplanationPipeline(
        TpuBackend(make_tpu_chip()),
        granularity="blocks",
        block_shape=block_shape,
        eps=1e-8,
        num_chips=num_chips if num_chips > 1 else None,
        placement="data",
    )
    if traced:
        tracer.clear()
        tracer.enable()
    else:
        tracer.disable()
        tracer.clear()
    run = pipeline.run(pairs)
    tracer.disable()
    pod = pipeline.device if isinstance(pipeline.device, TpuPod) else None
    return run, pod


def _serve_run(count, traced, seed=3):
    """One bursty autopilot-serving run; returns ``(report, service)``."""
    # Bursts wider than the controller's base cap (16), so full
    # dispatches fire the autopilot and decision events land in the
    # trace's controller lane.
    trace = bursty_requests(
        count=count, burst_size=20, burst_gap=0.2, seed=seed,
        shape=SERVE_SHAPE, repeat_fraction=0.3,
    )
    service = ExplanationService(
        TpuBackend(make_tpu_chip()),
        granularity="blocks",
        block_shape=SERVE_BLOCK,
        max_wait_seconds=0.05,
        max_batch_pairs=32,
        admission=AdmissionController(max_queue_depth=64),
        controller=BatchController(target_p95_seconds=0.05),
        num_chips=QUICK_CHIPS,
        metrics_name=None,
    )
    if traced:
        tracer.clear()
        tracer.enable()
    else:
        tracer.disable()
        tracer.clear()
    report = service.process(trace)
    tracer.disable()
    return report, service


# ----------------------------------------------------------------------
# Contracts (pytest-collectable; --quick runs the same checks)
# ----------------------------------------------------------------------


def test_fleet_trace_reconciles_and_validates():
    """The quick fleet's span tree must equal its ledger, exactly."""
    pairs = planted_interpretation_pairs(QUICK_PAIRS, shape=QUICK_SHAPE, seed=0)
    run, pod = _fleet_run(pairs, QUICK_CHIPS, QUICK_BLOCK, traced=True)
    assert pod is not None
    report = reconcile_pod_trace(pod, tracer, stats=run.stats)
    assert report.ok, report.failures[:5]
    assert report.num_traced_commits == report.num_commits > 0
    assert validate_chrome_trace(to_chrome_trace(tracer)) == []
    tracer.clear()


def test_tracing_off_is_bit_identical():
    """Disabling the tracer must not move a bit of scores or ledger."""
    pairs = planted_interpretation_pairs(QUICK_PAIRS, shape=QUICK_SHAPE, seed=1)
    on, _ = _fleet_run(pairs, QUICK_CHIPS, QUICK_BLOCK, traced=True)
    tracer.clear()
    off, _ = _fleet_run(pairs, QUICK_CHIPS, QUICK_BLOCK, traced=False)
    assert _stats_tuple(on.stats) == _stats_tuple(off.stats)
    for a, b in zip(on.explanations, off.explanations):
        assert np.array_equal(a.scores, b.scores)
        assert a.residual == b.residual


def test_serve_trace_validates_and_signature_is_stable():
    """A traced serve run exports valid JSON and an unchanged ledger."""
    on, service = _serve_run(SERVE_QUICK_COUNT, traced=True)
    doc = to_chrome_trace(tracer)
    assert validate_chrome_trace(doc) == []
    assert any(e.get("cat") == "serve" for e in doc["traceEvents"])
    assert isinstance(service.device, TpuPod)
    report = reconcile_pod_trace(service.device, tracer, stats=on.stats)
    assert report.ok, report.failures[:5]
    tracer.clear()
    off, _ = _serve_run(SERVE_QUICK_COUNT, traced=False)
    assert on.signature() == off.signature()


# ----------------------------------------------------------------------
# Benchmark sections
# ----------------------------------------------------------------------


def _fleet_section(quick, trace_path):
    pairs_n = QUICK_PAIRS if quick else FLEET_PAIRS
    shape = QUICK_SHAPE if quick else FLEET_SHAPE
    block = QUICK_BLOCK if quick else FLEET_BLOCK
    chips = QUICK_CHIPS if quick else FLEET_CHIPS
    pairs = planted_interpretation_pairs(pairs_n, shape=shape, seed=0)

    run, pod = _fleet_run(pairs, chips, block, traced=True)
    doc = to_chrome_trace(tracer)
    problems = validate_chrome_trace(doc)
    recon = reconcile_pod_trace(pod, tracer, stats=run.stats)
    num_events = len(doc["traceEvents"])
    ascii_lanes = format_trace_ascii(tracer)
    timeline = format_wave_timeline(pod.collective_log)
    tracer.clear()

    off, _ = _fleet_run(pairs, chips, block, traced=False)
    identical = _stats_tuple(run.stats) == _stats_tuple(off.stats) and all(
        np.array_equal(a.scores, b.scores)
        for a, b in zip(run.explanations, off.explanations)
    )

    trace_path.write_text(json.dumps(doc) + "\n")
    print(
        f"FLEET TRACE ({pairs_n} pairs, {chips} chips, data placement): "
        f"{num_events} events, {recon.checks} reconciliation checks, "
        f"{len(recon.failures)} failures, "
        f"{len(problems)} schema problems, off-identical={identical}"
    )
    print(timeline)
    print(ascii_lanes)
    print(f"wrote {trace_path}")

    failures = []
    if not recon.ok:
        failures.append(
            f"fleet trace does not reconcile: {recon.failures[:3]}"
        )
    if problems:
        failures.append(f"fleet trace schema problems: {problems[:3]}")
    if not identical:
        failures.append("tracing changed the fleet's scores or ledger")
    return {
        "pairs": pairs_n,
        "chips": chips,
        "plane_shape": list(shape),
        "simulated_seconds": run.simulated_seconds,
        "num_events": num_events,
        "reconciliation_checks": recon.checks,
        "reconciliation_failures": len(recon.failures),
        "traced_commits": recon.num_traced_commits,
        "waves": recon.num_waves,
        "schema_problems": len(problems),
        "tracing_off_bit_identical": identical,
        "trace_artifact": str(trace_path),
    }, failures


def _serve_section(quick, trace_path):
    count = SERVE_QUICK_COUNT if quick else SERVE_COUNT
    on, service = _serve_run(count, traced=True)
    doc = to_chrome_trace(tracer)
    problems = validate_chrome_trace(doc)
    recon = reconcile_pod_trace(service.device, tracer, stats=on.stats)
    num_events = len(doc["traceEvents"])
    serve_events = sum(1 for e in doc["traceEvents"] if e.get("cat") == "serve")
    decisions = len(service.controller.decision_log)
    tracer.clear()

    off, _ = _serve_run(count, traced=False)
    identical = on.signature() == off.signature()

    trace_path.write_text(json.dumps(doc) + "\n")
    print(
        f"SERVE TRACE ({count} bursty requests, autopilot): "
        f"{num_events} events ({serve_events} serve-lane), "
        f"{decisions} controller decisions, "
        f"{recon.checks} reconciliation checks, "
        f"{len(recon.failures)} failures, "
        f"{len(problems)} schema problems, off-identical={identical}"
    )
    print(f"wrote {trace_path}")

    failures = []
    if not recon.ok:
        failures.append(
            f"serve trace does not reconcile: {recon.failures[:3]}"
        )
    if problems:
        failures.append(f"serve trace schema problems: {problems[:3]}")
    if not identical:
        failures.append("tracing changed the serve ledger signature")
    return {
        "requests": count,
        "completed": on.completed_count,
        "p95_seconds": on.p95,
        "num_events": num_events,
        "serve_events": serve_events,
        "controller_decisions": decisions,
        "reconciliation_checks": recon.checks,
        "reconciliation_failures": len(recon.failures),
        "schema_problems": len(problems),
        "tracing_off_bit_identical": identical,
        "trace_artifact": str(trace_path),
    }, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: small fleet and serve trace, same contracts",
    )
    parser.add_argument(
        "--json",
        type=Path,
        default=None,
        metavar="PATH",
        help="artifact path (default BENCH_trace.json, or the _quick "
        "variant under --quick)",
    )
    args = parser.parse_args(argv)

    clear_kernel_spectrum_cache()
    fleet_entry, fleet_failures = _fleet_section(args.quick, FLEET_TRACE)
    print()
    serve_entry, serve_failures = _serve_section(args.quick, SERVE_TRACE)
    failures = fleet_failures + serve_failures

    plan_info = fft_plan_cache_info()
    payload = {
        "benchmark": "bench_trace",
        "mode": "quick" if args.quick else "full",
        "clock": "simulated",
        "fleet": fleet_entry,
        "serve": serve_entry,
        "fft_plan_caches": {
            k: v for k, v in sorted(plan_info.items())
            if k.endswith(("_hits", "_misses"))
        },
        "contracts": {
            "reconciliation": "per-wave span trees == pod ledger elapsed "
            "decomposition, exact float equality",
            "schema": "chrome trace-event JSON with zero validator problems",
            "zero_overhead_off": "tracing disabled is bit-identical in "
            "scores, DeviceStats and ServiceReport.signature()",
            "all_hold": not failures,
        },
    }
    json_path = args.json or (QUICK_JSON if args.quick else DEFAULT_JSON)
    json_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {json_path}")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
