"""Dynamic micro-batching: coalesce queued requests into fleet waves.

The throughput lever of the serving layer (Clipper's adaptive batching
applied to the occlusion engine): single requests are queued per
**batch key** -- ``(granularity, block_shape, precision)`` -- and
released to the wave-fused :class:`~repro.core.fleet.FleetExecutor` as
one batch under a *max-wait / max-batch* policy:

* a key's queue is **full** once it holds ``max_batch_pairs`` requests
  (dispatch immediately -- waiting longer buys nothing);
* a key's queue is **due** once its oldest request has waited
  ``max_wait_seconds`` (dispatch whatever has coalesced -- waiting
  longer only buys latency);
* once the arrival trace is exhausted a key is **drained**: no future
  arrival can widen any batch, so pending queues flush without burning
  the remainder of their max-wait window (:meth:`MicroBatcher
  .drain_keys`).

The policy is per key: a static ``(max_wait_seconds,
max_batch_pairs)`` pair by default, or -- when a
:class:`~repro.serve.controller.BatchController` is attached -- the
controller's current per-key setting, re-read at every decision point
so AIMD updates take effect on the very next dispatch.

**Dispatch fairness.**  When several keys are ripe in the same event-
loop iteration (typically after a long dispatch advanced the clock
past many deadlines), they dispatch in weighted fair order: ascending
*served credit*, the pairs a key has already had dispatched divided by
its weight (``weights``, default 1.0), with first-seen key order
breaking ties.  A hot key that constantly fills batches accumulates
credit and yields the head of each contended round to starved keys,
bounding how long a sparse key can sit behind a saturating one -- pure
first-seen order would let a hot key inserted first dispatch first in
every contended round; a weight > 1 entitles a key to proportionally
more service before yielding.

Keys are the compatibility contract: requests of different
granularities, block shapes or precisions never share a dispatch, so
**mixed-precision requests never share a wave** -- each key's batch
runs through an executor configured for exactly that precision, and the
fleet scheduler further splits a batch by plane shape and dtype class.
Within a key, requests dispatch in arrival order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.fleet import CheckedPair
from repro.hw.pod import is_count
from repro.serve.workload import Request


@dataclass(frozen=True)
class BatchKey:
    """What must match for two requests to share a dispatch."""

    granularity: str
    block_shape: tuple[int, int] | None
    precision: str | None  # spec name, or None for the exact legacy mode

    def as_tuple(self) -> tuple:
        return (self.granularity, self.block_shape, self.precision)


@dataclass(frozen=True, init=False)
class QueuedRequest:
    """A pending request plus everything resolved at arrival, including
    the :class:`~repro.core.fleet.CheckedPair` its dispatch runs as is."""

    request: Request
    enqueue_time: float
    feed_nbytes: int  # host-link bytes of (x, y) at the key's precision
    pair: CheckedPair
    digest: str | None  # content digest, for cache fill after dispatch

    def __init__(self, request, enqueue_time, feed_nbytes, pair, digest) -> None:
        # Made once per queued request; see repro.core.fleet.PairResult.__init__.
        self.__dict__.update(
            request=request, enqueue_time=enqueue_time, feed_nbytes=feed_nbytes,
            pair=pair, digest=digest,
        )


class MicroBatcher:
    """Per-key FIFO queues under the max-wait / max-batch policy."""

    def __init__(
        self,
        max_wait_seconds: float = 0.05,
        max_batch_pairs: int = 32,
        controller=None,
        weights: dict | None = None,
    ) -> None:
        if max_wait_seconds < 0:
            raise ValueError(
                f"max_wait_seconds cannot be negative, got {max_wait_seconds}"
            )
        if not is_count(max_batch_pairs):
            raise ValueError(
                f"max_batch_pairs must be positive: an integer >= 1, got {max_batch_pairs!r}"
            )
        if weights is not None:
            for key, weight in weights.items():
                if weight <= 0:
                    raise ValueError(
                        f"dispatch weight for {key} must be positive, got {weight}"
                    )
        self.max_wait_seconds = float(max_wait_seconds)
        self.max_batch_pairs = int(max_batch_pairs)
        self.controller = controller
        self.weights = dict(weights) if weights else {}
        self._queues: dict[BatchKey, list[QueuedRequest]] = {}
        #: Running totals behind the pressure signals, kept by enqueue/pop.
        self._pending_count = 0
        self._pending_bytes = 0
        self._key_bytes: dict[BatchKey, int] = {}
        self._order: dict[BatchKey, int] = {}  # first-seen key order
        self._served: dict[BatchKey, float] = {}  # weighted pairs dispatched
        #: Non-empty dispatches per key (the metrics-registry surface).
        self.dispatch_counts: dict[BatchKey, int] = {}

    # ------------------------------------------------------------------
    # Per-key policy
    # ------------------------------------------------------------------
    def policy_for(self, key: BatchKey) -> tuple[float, int]:
        """The ``(max_wait_seconds, max_batch_pairs)`` governing ``key``.

        The attached controller's live per-key setting when present,
        else the static construction-time pair -- re-read at every
        deadline/ripeness/pop decision so controller updates apply to
        the very next dispatch.
        """
        if self.controller is not None:
            return self.controller.policy(key)
        return (self.max_wait_seconds, self.max_batch_pairs)

    def weight_for(self, key: BatchKey) -> float:
        """The key's fairness weight (keys or their tuples both index)."""
        if key in self.weights:
            return self.weights[key]
        return self.weights.get(key.as_tuple(), 1.0)

    # ------------------------------------------------------------------
    # Enqueue / pressure
    # ------------------------------------------------------------------
    def enqueue(self, key: BatchKey, queued: QueuedRequest) -> None:
        if key not in self._order:
            self._order[key] = len(self._order)
        self._queues.setdefault(key, []).append(queued)
        self._pending_count += 1
        self._pending_bytes += queued.feed_nbytes
        self._key_bytes[key] = self._key_bytes.get(key, 0) + queued.feed_nbytes

    @property
    def pending_count(self) -> int:
        """Requests waiting across every key (the admission depth signal)."""
        return self._pending_count

    @property
    def pending_bytes(self) -> int:
        """Host-link bytes queued across every key (the byte signal)."""
        return self._pending_bytes

    def pending_count_for(self, key: BatchKey) -> int:
        """Requests one key has waiting (the per-key admission signal)."""
        return len(self._queues.get(key, ()))

    def pending_bytes_for(self, key: BatchKey) -> int:
        """Host-link bytes one key has queued."""
        return self._key_bytes.get(key, 0)

    # ------------------------------------------------------------------
    # Dispatch policy
    # ------------------------------------------------------------------
    def next_deadline(self) -> float:
        """When the oldest pending request's max-wait expires (inf if idle)."""
        deadline = math.inf
        for key, queue in self._queues.items():
            if queue:
                deadline = min(deadline, queue[0].enqueue_time + self.policy_for(key)[0])
        return deadline

    def _dispatch_order(self, keys: list[BatchKey]) -> list[BatchKey]:
        """Least served credit first, first-seen order breaking ties."""
        return sorted(
            keys,
            key=lambda key: (self._served.get(key, 0.0), self._order[key]),
        )

    def ripe_keys(self, now: float) -> list[BatchKey]:
        """Keys that should dispatch at ``now``: full or past max-wait.

        In weighted fair order (least served credit first, first-seen
        order breaking ties) and duplicate-free, so the event loop's
        dispatch order is deterministic.
        """
        ripe = []
        for key, queue in self._queues.items():
            if not queue:
                continue
            max_wait, max_pairs = self.policy_for(key)
            full = len(queue) >= max_pairs
            due = queue[0].enqueue_time + max_wait <= now
            if full or due:
                ripe.append(key)
        return self._dispatch_order(ripe) if len(ripe) > 1 else ripe

    def drain_keys(self) -> list[BatchKey]:
        """Every key with pending requests, in weighted fair order.

        The trace-exhausted flush: once no further arrival can join a
        batch, waiting out the max-wait window buys width that will
        never come -- the event loop drains these keys immediately.
        """
        return self._dispatch_order(
            [key for key, queue in self._queues.items() if queue]
        )

    def pop(self, key: BatchKey) -> list[QueuedRequest]:
        """Release up to the key's ``max_batch_pairs`` oldest requests.

        Anything past the batch cap stays queued with its original
        enqueue time (its max-wait deadline keeps running), so a
        saturating key drains as a train of full batches.  The key's
        served credit grows by the weighted batch size -- the fairness
        bookkeeping behind :meth:`ripe_keys`' order.
        """
        _, max_pairs = self.policy_for(key)
        queue = self._queues.get(key, [])
        batch = queue[:max_pairs]
        self._queues[key] = queue[max_pairs:]
        released = sum(queued.feed_nbytes for queued in batch)
        self._pending_count -= len(batch)
        self._pending_bytes -= released
        self._key_bytes[key] = self._key_bytes.get(key, 0) - released
        if batch:
            self._served[key] = (
                self._served.get(key, 0.0) + len(batch) / self.weight_for(key)
            )
            self.dispatch_counts[key] = self.dispatch_counts.get(key, 0) + 1
        return batch
