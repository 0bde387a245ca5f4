"""Per-request latency ledger and the service report.

Everything here is derived from the :class:`~repro.serve.clock
.SimulatedClock`: a request's latency is ``completion - arrival`` in
simulated seconds, including the time it queued behind the device and
behind the micro-batcher's max-wait window.  The report surfaces the
server-scenario quantities MLPerf Inference defines -- tail latency
percentiles (nearest-rank p50/p95/p99) and **goodput**, completed
requests per elapsed simulated second (rejected requests count against
goodput by not counting at all).

Determinism is part of the contract: :meth:`LatencyLedger.signature`
flattens the ledger into plain tuples so tests can assert that the same
seed and trace replay to the *identical* ledger.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.hw.device import DeviceStats

#: Request outcomes recorded on the ledger.
STATUSES = ("completed", "rejected")


@dataclass(frozen=True, init=False)
class RequestRecord:
    """One request's lifecycle, timestamped by the simulated clock.

    ``enqueue_time`` is when the admitted request joined its batch
    queue (equal to ``arrival_time`` unless the server was busy);
    ``dispatch_time``/``completion_time`` bracket its batch's device
    run.  A cache hit completes at admission: no dispatch, no device
    work, ``cache_hit=True``.  A rejected request carries only its
    ``reject_reason``.  ``result`` is the
    :class:`~repro.core.fleet.PairResult` handed back to the client
    (present on every completed record, cached or cold).
    """

    request_id: int
    arrival_time: float
    status: str
    batch_key: tuple = ()
    enqueue_time: float | None = None
    dispatch_time: float | None = None
    completion_time: float | None = None
    dispatch_index: int | None = None
    cache_hit: bool = False
    reject_reason: str | None = None
    result: object = None

    def __init__(
        self,
        request_id: int,
        arrival_time: float,
        status: str,
        batch_key: tuple = (),
        enqueue_time: float | None = None,
        dispatch_time: float | None = None,
        completion_time: float | None = None,
        dispatch_index: int | None = None,
        cache_hit: bool = False,
        reject_reason: str | None = None,
        result: object = None,
    ) -> None:
        if status not in STATUSES:
            raise ValueError(f"unknown status {status!r}; expected one of {STATUSES}")
        # Made once per request; see repro.core.fleet.PairResult.__init__.
        self.__dict__.update(
            request_id=request_id, arrival_time=arrival_time, status=status,
            batch_key=batch_key, enqueue_time=enqueue_time, dispatch_time=dispatch_time,
            completion_time=completion_time, dispatch_index=dispatch_index,
            cache_hit=cache_hit, reject_reason=reject_reason, result=result,
        )

    @property
    def latency(self) -> float | None:
        """Simulated seconds from arrival to completion (``None`` if rejected)."""
        if self.completion_time is None:
            return None
        return self.completion_time - self.arrival_time


class LatencyLedger:
    """Append-only record of every request's outcome."""

    def __init__(self) -> None:
        self.records: list[RequestRecord] = []

    def add(self, record: RequestRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def completed(self) -> list[RequestRecord]:
        return [r for r in self.records if r.status == "completed"]

    @property
    def rejected(self) -> list[RequestRecord]:
        return [r for r in self.records if r.status == "rejected"]

    @property
    def cache_hits(self) -> list[RequestRecord]:
        return [r for r in self.records if r.cache_hit]

    def latencies(self) -> list[float]:
        """Sorted completed-request latencies (simulated seconds)."""
        return sorted(r.latency for r in self.completed)

    # ------------------------------------------------------------------
    # Per-key views (the fairness instrumentation)
    # ------------------------------------------------------------------
    def completed_for(self, batch_key: tuple) -> list[RequestRecord]:
        """Completed records whose batch key equals ``batch_key``."""
        return [r for r in self.completed if r.batch_key == batch_key]

    def latencies_for(self, batch_key: tuple) -> list[float]:
        """Sorted completed latencies for one batch key."""
        return sorted(r.latency for r in self.completed_for(batch_key))

    def percentile_for(self, batch_key: tuple, p: float) -> float:
        """Nearest-rank percentile over one batch key's completions."""
        if not 0 < p <= 100:
            raise ValueError(f"percentile must lie in (0, 100], got {p}")
        latencies = self.latencies_for(batch_key)
        if not latencies:
            return 0.0
        rank = max(1, math.ceil(p / 100.0 * len(latencies)))
        return latencies[rank - 1]

    def batch_keys(self) -> list[tuple]:
        """Every batch key on the ledger, in first-appearance order."""
        seen: dict[tuple, None] = {}
        for record in self.records:
            if record.batch_key and record.batch_key not in seen:
                seen[record.batch_key] = None
        return list(seen)

    # ------------------------------------------------------------------
    # Percentiles (nearest-rank, so values are actual observed latencies)
    # ------------------------------------------------------------------
    def percentile(self, p: float) -> float:
        """Nearest-rank percentile of completed latencies (0 when none)."""
        if not 0 < p <= 100:
            raise ValueError(f"percentile must lie in (0, 100], got {p}")
        latencies = self.latencies()
        if not latencies:
            return 0.0
        rank = max(1, math.ceil(p / 100.0 * len(latencies)))
        return latencies[rank - 1]

    def signature(self) -> tuple:
        """The ledger as plain tuples: the determinism contract.

        Two runs of the same seeded trace must produce equal
        signatures -- every timestamp, status, batch key and dispatch
        index, in order.  Array payloads are deliberately excluded
        (bit-identity of results is asserted separately, value by
        value).
        """
        return tuple(
            (
                r.request_id,
                r.arrival_time,
                r.status,
                r.batch_key,
                r.enqueue_time,
                r.dispatch_time,
                r.completion_time,
                r.dispatch_index,
                r.cache_hit,
                r.reject_reason,
            )
            for r in self.records
        )


@dataclass(frozen=True)
class ServiceReport:
    """Outcome of one :meth:`~repro.serve.loop.ExplanationService.process`.

    ``elapsed_seconds`` is the simulated makespan (clock time when the
    last request completed); ``stats`` the harvested device ledger for
    the whole run; ``num_dispatches`` how many non-empty batches went to
    the fleet executor and ``num_waves`` the scheduler waves they
    resolved to; the cache counters snapshot the service cache's
    activity during this run.
    """

    ledger: LatencyLedger
    elapsed_seconds: float
    stats: DeviceStats
    num_dispatches: int = 0
    num_waves: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0

    # ------------------------------------------------------------------
    # Headline serving metrics
    # ------------------------------------------------------------------
    @property
    def completed_count(self) -> int:
        return len(self.ledger.completed)

    @property
    def rejected_count(self) -> int:
        return len(self.ledger.rejected)

    @property
    def goodput(self) -> float:
        """Completed requests per elapsed simulated second."""
        if self.elapsed_seconds <= 0.0:
            return 0.0
        return self.completed_count / self.elapsed_seconds

    @property
    def p50(self) -> float:
        return self.ledger.percentile(50)

    @property
    def p95(self) -> float:
        return self.ledger.percentile(95)

    @property
    def p99(self) -> float:
        return self.ledger.percentile(99)

    @property
    def mean_latency(self) -> float:
        latencies = self.ledger.latencies()
        if not latencies:
            return 0.0
        return sum(latencies) / len(latencies)

    def results_by_id(self) -> dict[int, object]:
        """Completed results keyed by request id (bit-identity checks)."""
        return {r.request_id: r.result for r in self.ledger.completed}

    def signature(self) -> tuple:
        """The whole report as plain tuples: the determinism contract.

        Extends :meth:`LatencyLedger.signature` with the run-level
        counters, so two replays of the same seeded trace must agree
        not just record by record but also on the makespan, dispatch
        structure and cache activity.
        """
        return (
            self.ledger.signature(),
            self.elapsed_seconds,
            self.num_dispatches,
            self.num_waves,
            self.cache_hits,
            self.cache_misses,
            self.cache_evictions,
        )
