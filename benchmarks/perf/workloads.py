"""The benchmark's workloads: seeded inputs, one rep, and its checks.

Each workload turns a seed into inputs (``inputs``), builds fresh
program objects for one rep (``build``), runs the rep (``execute``, the
only timed call) and turns what came back into an :class:`Outcome`:
correctness checks, a fingerprint of every score and ledger bit, and
the rep's simulated-clock metrics.

Checks, per rep: every explanation is finite, its top-ranked feature is
the planted ``[0, 0]`` one, and two sampled explanations (two per rate
on the serve ladder) match :mod:`reference` to ``CHECK_TOLERANCE``.
"""

import hashlib
import math
from dataclasses import dataclass

import numpy as np

import reference
from repro.bench.workloads import planted_interpretation_pairs
from repro.core.backend import TpuBackend, make_tpu_chip
from repro.core.fleet import FleetExecutor
from repro.hw.device import DeviceStats
from repro.serve import (
    AdmissionController,
    BatchController,
    ExplanationService,
    bursty_requests,
)

EPS = 1e-8
CHECK_TOLERANCE = 1e-9
CHECKED_PER_REP = 2
CREDIT_ROWS = ("infeed_overlap", "host_link_overlap", "pod_compute_overlap", "collective_overlap")
LATENCY_LIMIT_S = 0.1  # the serve ladder's limit on p95 and on the final backlog
SERVE_BLOCK = (4, 4)
REPORTED_RATES = (400, 1600)  # the ladder rates whose latency percentiles are reported
COUNTER_RATE = 1600  # the ladder rate whose serve counters are reported


@dataclass
class Outcome:
    """What one rep produced, reduced to checks and metrics."""

    attempted: int
    failed: int
    problems: list
    fingerprint: str
    metrics: dict  # name -> (value, unit): simulated-clock and structural


def failed_outcome(attempted, problem):
    """A rep that raised: every operation it attempted counts as failed."""
    return Outcome(attempted, attempted, [problem], "", {})


def nearest_rank(values, percent):
    """Nearest-rank percentile: an observed value, never an interpolation."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(percent / 100.0 * len(ordered))) - 1]


def _digest(parts):
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part if isinstance(part, bytes) else repr(part).encode())
    return digest.hexdigest()


def _ledger_parts(stats, waves):
    return [
        stats.seconds, stats.macs, stats.bytes_moved,
        sorted(stats.op_counts.items()), sorted(stats.op_seconds.items()),
        waves,
    ]


def _result_parts(result):
    return [result.scores.tobytes(), result.kernel.tobytes(), result.residual]


def _check_explanation(x, y, result, block_shape, sampled):
    """Why one explanation is wrong, or ``None``."""
    scores = result.scores
    if not (np.isfinite(scores).all() and np.isfinite(result.kernel).all()
            and math.isfinite(result.residual)):
        return "non-finite explanation"
    if np.argmax(scores) != 0:
        return "top-ranked feature is not the planted [0, 0]"
    if sampled:
        error = reference.relative_error(
            scores, reference.occlusion_scores(x, y, block_shape, EPS)
        )
        if not error <= CHECK_TOLERANCE:
            return f"scores differ from the reference by {error:.3g} (relative)"
    return None


def _sampled(count, seed):
    rng = np.random.default_rng(seed)
    return set(rng.choice(count, size=min(CHECKED_PER_REP, count), replace=False).tolist())


def ledger_metrics(stats, waves):
    """Simulated-clock metrics of a harvested ledger and its pod waves."""
    ops = stats.op_seconds
    return {
        "sim_s": (stats.seconds, "s"),
        "sim.dispatch_s": (ops.get("dispatch", 0.0), "s"),
        "sim.dispatches": (stats.op_counts.get("dispatch", 0), "count"),
        "sim.transfer_s": (ops.get("infeed", 0.0) + ops.get("outfeed", 0.0), "s"),
        "sim.batch_conv_s": (ops.get("conv2d_batch", 0.0), "s"),
        "sim.overlap_credit_s": (-sum(ops.get(row, 0.0) for row in CREDIT_ROWS), "s"),
        "sim.macs": (stats.macs, "count"),
        "sim.bytes_moved": (stats.bytes_moved, "bytes"),
        "sim.launch_exposed_s": (sum((w.launch_exposed_seconds for w in waves), 0.0), "s"),
        "sim.collective_s": (sum((w.collective_seconds for w in waves), 0.0), "s"),
        "sim.max_chip_body_s": (max((w.body_seconds for w in waves), default=0.0), "s"),
    }


@dataclass(frozen=True)
class FleetWorkload:
    """A fleet of planted pairs explained by one :class:`FleetExecutor` run.

    ``groups`` lists ``(plane shape, pair count)``; each group's pairs
    come from their own seeded draw.
    """

    name: str
    groups: tuple
    block_shape: tuple
    max_pairs_per_wave: int | None = None
    num_chips: int | None = None

    #: The ledger depends on plane shapes only, so every rep's is the same.
    same_ledger_every_seed = True

    def inputs(self, seed):
        pairs = []
        for index, (shape, count) in enumerate(self.groups):
            pairs += planted_interpretation_pairs(count, shape=shape, seed=seed + 1000 * index)
        return pairs

    def attempted(self, pairs):
        return len(pairs)

    def build(self):
        return FleetExecutor(
            TpuBackend(make_tpu_chip()), granularity="blocks",
            block_shape=self.block_shape, eps=EPS,
            max_pairs_per_wave=self.max_pairs_per_wave, num_chips=self.num_chips,
        )

    def execute(self, executor, pairs):
        return executor.run(pairs)

    def outcome(self, executor, pairs, run, seed):
        stats = executor.device.take_stats()
        waves = list(getattr(executor.device, "collective_log", ()))
        sampled = _sampled(len(pairs), seed)
        problems = []
        parts = _ledger_parts(stats, waves)
        for index, ((x, y), result) in enumerate(zip(pairs, run.results)):
            parts += _result_parts(result)
            problem = _check_explanation(x, y, result, self.block_shape, index in sampled)
            if problem:
                problems.append(f"pair {index}: {problem}")
        metrics = ledger_metrics(stats, waves)
        metrics["fleet.waves"] = (run.num_waves, "count")
        return Outcome(len(pairs), len(problems), problems, _digest(parts), metrics)


@dataclass(frozen=True)
class ServeWorkload:
    """An open-loop rate ladder: one fresh service per rate.

    Arrival times come from the seeded trace, so the load generator is
    never late.  Refused requests count as +inf latency.
    """

    name: str
    rates: tuple
    count: int

    #: Arrival times and repeats come from the seed, and so does the ledger.
    same_ledger_every_seed = False

    def inputs(self, seed):
        return [
            bursty_requests(
                count=self.count, burst_size=20, burst_gap=20 / rate, jitter=10 / rate,
                shape=(16, 16), repeat_fraction=0.3, seed=seed + rate,
            )
            for rate in self.rates
        ]

    def attempted(self, traces):
        return sum(len(trace) for trace in traces)

    def build(self):
        return [
            ExplanationService(
                TpuBackend(make_tpu_chip()), granularity="blocks", block_shape=SERVE_BLOCK,
                eps=EPS, admission=AdmissionController(max_queue_depth=64),
                controller=BatchController(target_p95_seconds=0.05),
                num_chips=2, metrics_name=None,
            )
            for _ in self.rates
        ]

    def execute(self, services, traces):
        return [service.process(trace) for service, trace in zip(services, traces)]

    def outcome(self, services, traces, reports, seed):
        problems = []
        parts = []
        total = DeviceStats()
        waves = []
        refused = 0
        max_rps = 0
        metrics = {}
        for rate, service, trace, report in zip(self.rates, services, traces, reports):
            rate_waves = list(service.device.collective_log)
            total.merge(report.stats)
            waves += rate_waves
            parts += [report.signature()] + _ledger_parts(report.stats, rate_waves)
            requests = {request.request_id: request for request in trace}
            if len(report.ledger.records) != len(trace):
                problems.append(f"r{rate}: {len(trace) - len(report.ledger.records)} requests lost")
            completed = report.ledger.completed
            sampled = _sampled(len(completed), seed + rate)
            for index, record in enumerate(completed):
                parts += _result_parts(record.result)
                request = requests[record.request_id]
                problem = _check_explanation(
                    request.x, request.y, record.result, SERVE_BLOCK, index in sampled
                )
                if problem:
                    problems.append(f"r{rate} request {record.request_id}: {problem}")
            latencies = [
                math.inf if r.status == "rejected" else r.latency for r in report.ledger.records
            ]
            refused += report.rejected_count
            last = max((r.completion_time for r in completed), default=trace[-1].arrival_time)
            backlog = last - trace[-1].arrival_time
            if (nearest_rank(latencies, 95) <= LATENCY_LIMIT_S and report.rejected_count == 0
                    and backlog <= LATENCY_LIMIT_S):
                max_rps = max(max_rps, rate)
            if rate in REPORTED_RATES:
                metrics[f"sim_p50_ms.r{rate}"] = (nearest_rank(latencies, 50) * 1e3, "ms")
                metrics[f"sim_p95_ms.r{rate}"] = (nearest_rank(latencies, 95) * 1e3, "ms")
            if rate == COUNTER_RATE:
                lookups = report.cache_hits + report.cache_misses
                dispatched = [r for r in completed if r.dispatch_time is not None]
                metrics["serve.cache_hit_ratio"] = (report.cache_hits / lookups, "ratio")
                metrics["serve.dispatches"] = (report.num_dispatches, "count")
                metrics["serve.waves"] = (report.num_waves, "count")
                metrics["serve.sim_wait_ms_p95"] = (nearest_rank(
                    [r.dispatch_time - r.arrival_time for r in dispatched], 95) * 1e3, "ms")
                metrics["serve.sim_service_ms_p95"] = (nearest_rank(
                    [r.completion_time - r.dispatch_time for r in dispatched], 95) * 1e3, "ms")
        attempted = self.attempted(traces)
        metrics.update(ledger_metrics(total, waves))
        metrics["sim_max_rps"] = (max_rps, "req/s")
        metrics["sim_shed_rate"] = (refused / attempted, "ratio")
        metrics["fleet.waves"] = (sum(report.num_waves for report in reports), "count")
        return Outcome(attempted, len(problems), problems, _digest(parts), metrics)


#: Why each workload exists is recorded in ``BENCHMARK.json`` and the README.
WORKLOADS = (
    FleetWorkload(
        "fleet-pow2", groups=(((64, 64), 6),), block_shape=(4, 4), max_pairs_per_wave=2,
    ),
    FleetWorkload(
        "fleet-odd", groups=(((48, 48), 2), ((40, 40), 2), ((36, 36), 2)), block_shape=(4, 4),
    ),
    FleetWorkload(
        "pod-strong", groups=(((32, 32), 8),), block_shape=(1, 1), num_chips=8,
    ),
    ServeWorkload(
        "serve-ladder", rates=(200, 400, 800, 1600, 3200), count=300,
    ),
)

#: Tiny configurations of the same four workloads, for tests and a quick check.
SMOKE_WORKLOADS = (
    FleetWorkload(
        "fleet-pow2", groups=(((16, 16), 2),), block_shape=(4, 4), max_pairs_per_wave=1,
    ),
    FleetWorkload(
        "fleet-odd", groups=(((12, 12), 1), ((20, 20), 1)), block_shape=(4, 4),
    ),
    FleetWorkload(
        "pod-strong", groups=(((8, 8), 2),), block_shape=(1, 1), num_chips=2,
    ),
    ServeWorkload(
        "serve-ladder", rates=(400, 1600), count=40,
    ),
)
