"""The serving layer: online explanation requests over the fleet executor.

Everything below the offline stack explains *lists*; this package
serves *traffic*.  It is the repo's fifth accelerator layer -- the one
that turns batch economics into goodput under live load:

* :mod:`repro.serve.clock`      -- deterministic simulated time (no
  wall-clock sleeps anywhere on the request path);
* :mod:`repro.serve.workload`   -- :class:`Request` plus seeded Poisson
  and bursty arrival processes (and :func:`merge_traces` for
  multi-tenant mixes);
* :mod:`repro.serve.batcher`    -- dynamic micro-batching per
  ``(granularity, block_shape, precision)`` key under a
  max-wait/max-batch policy, with weighted-fair dispatch across keys;
* :mod:`repro.serve.controller` -- the serving autopilot: an AIMD
  :class:`BatchController` steering each key's policy toward a p95
  target;
* :mod:`repro.serve.cache`      -- content-addressed, byte-budgeted LRU
  of finished explanations (hits are bit-identical and device-free);
* :mod:`repro.serve.admission`  -- queue-depth/byte backpressure,
  global and per key;
* :mod:`repro.serve.metrics`    -- the latency ledger, p50/p95/p99 and
  goodput report;
* :mod:`repro.serve.capacity`   -- chips-needed-at-rate-R and simulated
  cost-per-million-explanations, projected from a report;
* :mod:`repro.serve.loop`       -- :class:`ExplanationService`, the
  event loop tying them together (also reachable as
  :meth:`ExplanationPipeline.service()
  <repro.core.pipeline.ExplanationPipeline.service>`).

See ``benchmarks/bench_serve.py`` for the arrival-rate sweep comparing
the batched service against the per-request serial baseline and the
autopilot against the best static policy.
"""

from repro import lazy_exports

EXPORTS = {
    "admission": ("ADMITTED", "AdmissionController", "AdmissionDecision"),
    "batcher": ("BatchKey", "MicroBatcher", "QueuedRequest"),
    "cache": (
        "DEFAULT_CACHE_BYTES",
        "ExplanationCache",
        "explanation_digest",
        "result_nbytes",
    ),
    "capacity": (
        "DEFAULT_CHIP_COST_PER_HOUR",
        "CapacityPlan",
        "capacity_table",
        "format_capacity_table",
        "plan_capacity",
    ),
    "clock": ("SimulatedClock",),
    "controller": ("BatchController", "nearest_rank_percentile"),
    "loop": ("ExplanationService",),
    "metrics": ("LatencyLedger", "RequestRecord", "ServiceReport"),
    "workload": ("Request", "bursty_requests", "merge_traces", "poisson_requests"),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, EXPORTS)
