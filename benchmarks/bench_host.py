"""Host wall-clock hot path: real-input rFFT, kernel spectra per call.

Every other benchmark in this directory reports *simulated* device
seconds from the cost model.  This one times the host itself: real
``time.perf_counter`` wall-clock for the numpy hot path that every
simulated backend ultimately runs -- real-input convolutions through
half-spectrum ``rfft2``/``irfft2`` transforms, each call's real kernels
transformed once by the call itself (``score_plan`` and a fleet wave
alike), never looked up in the process-level kernel-spectrum cache.

Three workloads cover the stack: a single-pair ``score_plan`` (one
mask plan, one kernel), a 100-pair :class:`FleetExecutor` fleet on
64x64 planes (blocks granularity, so the chunked batched convolution
dominates), and a serve replay driving Poisson traffic through
:class:`ExplanationService`.

Contracts asserted (pytest, and by the ``--quick`` CI smoke):

* a fleet run leaves the kernel-spectrum cache **unchanged** -- no
  lookup, no store, no transform: a wave's kernels are solved fresh and
  never repeat, so its waves transform them without the cache;
* streamed scoring at any chunk size stays **bit-identical** to the
  looped reference (``tests/reference.py``), one masked convolution per
  feature.

The full run writes ``BENCH_host.json`` next to the repo root.

Runnable standalone::

    PYTHONPATH=src python benchmarks/bench_host.py [--quick] [--json PATH]
"""

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from repro.bench.workloads import planted_interpretation_pairs  # noqa: E402
from repro.core.fleet import FleetExecutor  # noqa: E402
from repro.core.masking import MaskSpec, score_plan  # noqa: E402
from repro.fft import clear_kernel_spectrum_cache, kernel_spectrum_cache_info  # noqa: E402
from repro.hw.cpu import CpuDevice  # noqa: E402
from tests import reference  # noqa: E402

SHAPE = (64, 64)  # plane size: big enough that transforms dominate
BLOCK = (4, 4)  # 256 masks per pair: the batched convolution dominates
FLEET_PAIRS = 100  # the acceptance workload
QUICK_PAIRS = 24  # CI smoke: same shape, smaller fleet
CONTRACT_PAIRS = 12  # pytest contracts: keep them snappy
SERVE_REQUESTS = 48
REPEATS = 2  # best-of-N wall-clock (min filters scheduler noise)


# ----------------------------------------------------------------------
# Workload + configuration helpers
# ----------------------------------------------------------------------


def fleet_pairs(count=FLEET_PAIRS, shape=SHAPE, seed=0):
    return planted_interpretation_pairs(count, shape=shape, seed=seed)


def fleet_executor(device=None):
    return FleetExecutor(
        device or CpuDevice(), granularity="blocks", block_shape=BLOCK, eps=1e-8
    )


def single_pair(shape=SHAPE, seed=1):
    (x, y), = planted_interpretation_pairs(1, shape=shape, seed=seed)
    rng = np.random.default_rng(seed + 1)
    kernel = rng.standard_normal(shape)
    return x, kernel, y


def serve_trace(count=SERVE_REQUESTS):
    from repro.serve import poisson_requests

    return poisson_requests(count, rate=400.0, seed=3, shape=(16, 16))


def serve_service():
    from repro.core.backend import TpuBackend, make_tpu_chip
    from repro.serve import ExplanationService

    backend = TpuBackend(
        make_tpu_chip(num_cores=8, precision="fp32", mxu_rows=8, mxu_cols=8)
    )
    return ExplanationService(
        backend, granularity="blocks", block_shape=(4, 4), eps=1e-8,
        max_wait_seconds=0.05, max_batch_pairs=32,
    )


def _best_of(fn, repeats=REPEATS):
    """Min-of-N wall-clock; the first (untimed) call warms ``numpy.fft``'s
    own plan cache (no workload reads the kernel-spectrum cache)."""
    fn()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _time_workloads(pairs, serve=True, repeats=REPEATS):
    """Best-of-N wall-clock seconds of each workload."""
    x, kernel, y = single_pair()
    plan = MaskSpec.blocks(SHAPE, BLOCK)
    timings = {}

    def run_single():
        score_plan(x, kernel, y, plan)

    def run_fleet():
        fleet_executor().run(pairs)

    def run_serve():
        serve_service().process(serve_trace())

    workloads = [("single_pair", run_single), ("fleet", run_fleet)]
    if serve:
        workloads.append(("serve_replay", run_serve))
    for name, fn in workloads:
        clear_kernel_spectrum_cache()
        timings[name] = {"real_seconds": _best_of(fn, repeats)}
    return timings


# ----------------------------------------------------------------------
# Contracts (collected by pytest; CI runs this file with the benches)
# ----------------------------------------------------------------------


def test_fleet_runs_leave_the_kernel_spectrum_cache_unchanged():
    """A fleet run, and a repeat of it, neither reads nor fills the
    kernel-spectrum cache: every counter and entry stays as it was."""
    pairs = fleet_pairs(CONTRACT_PAIRS)
    clear_kernel_spectrum_cache()
    before = kernel_spectrum_cache_info()
    run = fleet_executor().run(pairs)
    fleet_executor().run(pairs)
    assert kernel_spectrum_cache_info() == before
    assert len(run.results) == CONTRACT_PAIRS


def test_streamed_loop_parity_on_real_path():
    """Streamed scoring at any chunk size is bit-identical to the looped
    reference: one masked convolution per feature."""
    x, kernel, y = single_pair(shape=(16, 16), seed=9)
    plan = MaskSpec.blocks((16, 16), (4, 4))
    clear_kernel_spectrum_cache()
    looped = reference.occlusion_scores(x, kernel, y, "blocks", (4, 4))
    for chunk_rows in (1, 3, 7, None):
        streamed = score_plan(x, kernel, y, plan, chunk_rows=chunk_rows)
        np.testing.assert_array_equal(streamed, looped)


# ----------------------------------------------------------------------
# Report + CLI smoke mode
# ----------------------------------------------------------------------


def _report(timings, cache_info, fleet_changed_cache) -> str:
    lines = [
        "HOST WALL-CLOCK HOT PATH (time.perf_counter seconds, best of N; "
        "real = rFFT, kernel spectra per call)",
        f"{'workload':>12s} {'real(s)':>9s}",
    ]
    for name, row in timings.items():
        lines.append(f"{name:>12s} {row['real_seconds']:9.4f}")
    lines.append(
        f"kernel-spectrum cache: {cache_info['entries']} entries, "
        f"{cache_info['hits']} hits / {cache_info['misses']} misses, "
        f"{cache_info['kernel_transforms']} transforms; "
        f"changed by a fleet run: {'yes' if fleet_changed_cache else 'no'}"
    )
    return "\n".join(lines)


def _measure(quick: bool):
    """Run the full measurement matrix; returns (timings, cache facts)."""
    count = QUICK_PAIRS if quick else FLEET_PAIRS
    repeats = 1 if quick else REPEATS
    pairs = fleet_pairs(count)
    timings = _time_workloads(pairs, serve=not quick, repeats=repeats)
    timings["fleet"]["pairs"] = count

    # Cache contract: a fleet run and its repeat must leave the cache's
    # counters and entries as the timed workloads left them.
    before = kernel_spectrum_cache_info()
    fleet_executor().run(pairs)
    fleet_executor().run(pairs)
    cache_info = kernel_spectrum_cache_info()
    return timings, cache_info, cache_info != before


def _smoke(quick: bool, json_path: Path | None) -> int:
    timings, cache_info, fleet_changed_cache = _measure(quick)
    print(_report(timings, cache_info, fleet_changed_cache))

    failures = 0
    if fleet_changed_cache:
        print(
            "FAIL: a fleet run changed the kernel-spectrum cache "
            "(expected no lookup, store or transform)",
            file=sys.stderr,
        )
        failures += 1
    try:
        test_streamed_loop_parity_on_real_path()
    except AssertionError:
        print(
            "FAIL: streamed scores diverged from the looped reference",
            file=sys.stderr,
        )
        failures += 1

    if json_path is not None and not failures:
        payload = {
            "benchmark": "bench_host",
            "mode": "quick" if quick else "full",
            "clock": "time.perf_counter",
            "plane_shape": list(SHAPE),
            "workloads": timings,
            "kernel_spectrum_cache": cache_info,
            "fleet_runs_changed_cache": fleet_changed_cache,
            "contracts": {
                "fleet_runs_leave_cache_unchanged": True,
                "dispatch_parity": "streamed == looped reference (bit-identical)",
            },
        }
        json_path.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {json_path}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: smaller fleet, no serve replay, "
        "no JSON artifact unless --json is given",
    )
    parser.add_argument(
        "--json",
        type=Path,
        default=None,
        help="where to write the BENCH_host.json artifact "
        "(default: repo-root BENCH_host.json in full mode, skipped in --quick)",
    )
    args = parser.parse_args(argv)
    json_path = args.json
    if json_path is None and not args.quick:
        json_path = Path(__file__).resolve().parent.parent / "BENCH_host.json"
    return 1 if _smoke(args.quick, json_path) else 0


if __name__ == "__main__":
    raise SystemExit(main())
