"""The serving autopilot: an AIMD control loop over the micro-batcher.

The PR-5 serving layer exposed two static knobs -- ``max_wait_seconds``
(latency deliberately spent buying batch width) and ``max_batch_pairs``
(how many pairs one dispatch may fuse) -- and the right setting depends
on the arrival rate: a 50 ms window is wasted latency at 100 req/s and
a 32-pair cap is a throughput ceiling at 1600 req/s (each program
dispatch pays a fixed launch round trip, so wide batches amortize it
and narrow ones drown in it).  No single static pair holds a p95 SLO
across an arrival-rate sweep.

:class:`BatchController` closes the loop Clipper-style: it observes
every dispatched batch's request lifecycles (arrival, enqueue,
dispatch, completion -- all on the simulated clock) **per batch key**
and steers that key's policy toward a configurable p95 target:

* **batch cap, multiplicative increase** -- a batch that dispatched
  *full* is a saturation signal: the queue had more than one cap's
  worth, so the cap (not the window) is the binding constraint and the
  next dispatch can amortize its launch over twice as many pairs.  The
  cap doubles (clamped to ``max_batch_pairs``).  This is the knob that
  survives overload: at high rates the per-pair cost asymptotes to
  compute, not launch, and the device keeps up.
* **batch cap, multiplicative decrease** -- if the *service* component
  alone (completion minus dispatch, i.e. the batch's own device time)
  overshoots the target, no window tuning can help; the cap halves
  (clamped to ``min_batch_pairs``).
* **max wait, AIMD against the p95 estimate** -- the controller keeps
  a sliding window of recent latencies per key and estimates
  nearest-rank p95 with the function
  :class:`~repro.serve.metrics.LatencyLedger` reports it with
  (:func:`~repro.serve.metrics.nearest_rank_percentile`).  Over target
  with the *window* component dominant: multiplicative decrease (the wait is the latency).  Over
  target with the *queue* component dominant and the batch not full:
  additive increase (requests queue because dispatches are too
  frequent to amortize -- coalescing harder sheds launch overhead).
  Under target with batches spanning the whole window: additive
  increase (spend the latency headroom on batch width).

Every decision is a pure function of ledger timestamps, so a seeded
trace replays to the identical policy trajectory and the identical
:meth:`~repro.serve.metrics.ServiceReport.signature` -- the controller
moves *when* work happens, never what the explanations are.

Hand a controller to :class:`~repro.serve.loop.ExplanationService`
(``controller=``) and the micro-batcher consults
:meth:`BatchController.policy` per key instead of the static knobs;
:meth:`observe` is called after every dispatch with that batch's
completed records.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.serve.metrics import nearest_rank_percentile


@dataclass
class KeyPolicy:
    """One batch key's current policy plus its observation window."""

    max_wait_seconds: float
    max_batch_pairs: int
    latencies: deque = field(default_factory=deque)
    num_observations: int = 0

    def as_tuple(self) -> tuple[float, int]:
        return (self.max_wait_seconds, self.max_batch_pairs)


@dataclass(frozen=True)
class ControllerDecision:
    """One knob movement and why it happened (the decision log entry).

    ``time`` is the latest completion in the observed batch (when the
    controller acted, on the simulated clock); ``dominant`` names the
    largest mean latency component of that batch (``"queue"``,
    ``"window"`` or ``"service"``); ``reasons`` lists the control-law
    branches that fired, in the order the law applies them.
    """

    time: float
    key: object
    old_wait: float
    new_wait: float
    old_cap: int
    new_cap: int
    dominant: str
    p95_estimate: float
    reasons: tuple


class BatchController:
    """SLO-driven per-key tuning of the micro-batching policy.

    Parameters
    ----------
    target_p95_seconds:
        The latency SLO: the controller steers each key's estimated
        nearest-rank p95 toward (and under) this many simulated
        seconds.
    base_wait_seconds, base_batch_pairs:
        Every key's starting policy (a fresh key adopts these until its
        first observation).
    min_wait_seconds, max_wait_seconds:
        Clamp of the wait window; the additive-increase step is
        ``wait_step_seconds``.
    min_batch_pairs, max_batch_pairs:
        Clamp of the batch cap; increases and decreases are
        multiplicative (double / halve).
    window:
        How many recent latencies per key the p95 estimate covers.
        Small windows adapt within a few dispatches; the default (48)
        spans one or two full batches at common caps.
    decrease_factor:
        Multiplicative decrease applied to the wait window when it is
        the dominant latency component over target.
    headroom:
        The under-target band: below ``headroom * target`` the
        controller may spend latency on batch width.
    """

    def __init__(
        self,
        target_p95_seconds: float = 0.1,
        base_wait_seconds: float = 0.02,
        base_batch_pairs: int = 16,
        min_wait_seconds: float = 0.001,
        max_wait_seconds: float = 0.2,
        wait_step_seconds: float = 0.005,
        min_batch_pairs: int = 1,
        max_batch_pairs: int = 256,
        window: int = 48,
        decrease_factor: float = 0.5,
        headroom: float = 0.7,
    ) -> None:
        if target_p95_seconds <= 0:
            raise ValueError(
                f"target p95 must be positive, got {target_p95_seconds}"
            )
        if base_wait_seconds < 0 or min_wait_seconds < 0:
            raise ValueError("wait seconds cannot be negative")
        if min_wait_seconds > max_wait_seconds:
            raise ValueError(
                f"min_wait_seconds {min_wait_seconds} exceeds "
                f"max_wait_seconds {max_wait_seconds}"
            )
        if base_batch_pairs <= 0 or min_batch_pairs <= 0:
            raise ValueError("batch pairs must be positive")
        if min_batch_pairs > max_batch_pairs:
            raise ValueError(
                f"min_batch_pairs {min_batch_pairs} exceeds "
                f"max_batch_pairs {max_batch_pairs}"
            )
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        if not 0 < decrease_factor < 1:
            raise ValueError(
                f"decrease_factor must lie in (0, 1), got {decrease_factor}"
            )
        if not 0 < headroom <= 1:
            raise ValueError(f"headroom must lie in (0, 1], got {headroom}")
        self.target_p95_seconds = float(target_p95_seconds)
        self.base_wait_seconds = float(base_wait_seconds)
        self.base_batch_pairs = int(base_batch_pairs)
        self.min_wait_seconds = float(min_wait_seconds)
        self.max_wait_seconds = float(max_wait_seconds)
        self.wait_step_seconds = float(wait_step_seconds)
        self.min_batch_pairs = int(min_batch_pairs)
        self.max_batch_pairs = int(max_batch_pairs)
        self.window = int(window)
        self.decrease_factor = float(decrease_factor)
        self.headroom = float(headroom)
        self._keys: dict = {}
        #: Every knob movement, in observation order -- why each key's
        #: (wait, cap) sits where it does.  Purely explanatory: logging
        #: never changes the control law or the policy trajectory.
        self.decision_log: list[ControllerDecision] = []

    # ------------------------------------------------------------------
    # The policy surface consulted by the micro-batcher
    # ------------------------------------------------------------------
    def _state(self, key) -> KeyPolicy:
        state = self._keys.get(key)
        if state is None:
            state = KeyPolicy(
                max_wait_seconds=min(
                    max(self.base_wait_seconds, self.min_wait_seconds),
                    self.max_wait_seconds,
                ),
                max_batch_pairs=min(
                    max(self.base_batch_pairs, self.min_batch_pairs),
                    self.max_batch_pairs,
                ),
                latencies=deque(maxlen=self.window),
            )
            self._keys[key] = state
        return state

    def policy(self, key) -> tuple[float, int]:
        """The key's current ``(max_wait_seconds, max_batch_pairs)``."""
        return self._state(key).as_tuple()

    def policies(self) -> dict:
        """Every observed key's current policy (for reports and tests)."""
        return {key: state.as_tuple() for key, state in self._keys.items()}

    # ------------------------------------------------------------------
    # The control law
    # ------------------------------------------------------------------
    def observe(self, key, records) -> None:
        """Fold one dispatched batch's completed records into the policy.

        ``records`` are the batch's :class:`~repro.serve.metrics
        .RequestRecord`\\ s (all completed, all sharing this dispatch).
        The update is deterministic: timestamps in, knob movements out.
        """
        records = list(records)
        if not records:
            return
        state = self._state(key)
        was_full = len(records) >= state.max_batch_pairs
        count = len(records)
        queue_part = window_part = service_part = 0.0
        for record in records:
            latency = record.completion_time - record.arrival_time
            state.latencies.append(latency)
            queue_part += record.enqueue_time - record.arrival_time
            window_part += record.dispatch_time - record.enqueue_time
            service_part += record.completion_time - record.dispatch_time
        queue_part /= count
        window_part /= count
        service_part /= count
        state.num_observations += 1
        target = self.target_p95_seconds
        estimate = nearest_rank_percentile(state.latencies, 95)
        old_wait = state.max_wait_seconds
        old_cap = state.max_batch_pairs
        reasons: list[str] = []

        # Saturation: a full dispatch means the cap, not the window,
        # bounded this batch -- double it so the next launch amortizes
        # over twice the pairs (the overload-surviving move).
        if was_full:
            state.max_batch_pairs = min(
                self.max_batch_pairs, state.max_batch_pairs * 2
            )
            reasons.append("full_cap_double")

        if estimate > target:
            if service_part > target:
                # The batch's own device time blows the SLO: no window
                # can fix that -- halve the cap.
                state.max_batch_pairs = max(
                    self.min_batch_pairs, state.max_batch_pairs // 2
                )
                reasons.append("service_cap_halve")
            if window_part >= max(queue_part, service_part):
                # The wait window is the latency: multiplicative decrease.
                state.max_wait_seconds = max(
                    self.min_wait_seconds,
                    state.max_wait_seconds * self.decrease_factor,
                )
                reasons.append("window_wait_decrease")
            elif not was_full and queue_part >= service_part:
                # Queueing dominates with non-full batches: dispatches
                # are too frequent to amortize their launches -- widen
                # the window to coalesce harder.
                state.max_wait_seconds = min(
                    self.max_wait_seconds,
                    state.max_wait_seconds + self.wait_step_seconds,
                )
                reasons.append("queue_wait_increase")
        elif estimate <= self.headroom * target:
            # Under target with room to spare: spend latency on batch
            # width -- but only when arrivals actually span the window
            # (a window-edge dispatch), otherwise a longer wait buys
            # nothing (e.g. a closed burst already fully coalesced).
            enqueues = [r.enqueue_time for r in records]
            span = max(enqueues) - min(enqueues)
            if span >= 0.8 * state.max_wait_seconds:
                state.max_wait_seconds = min(
                    self.max_wait_seconds,
                    state.max_wait_seconds + self.wait_step_seconds,
                )
                reasons.append("headroom_wait_increase")

        if reasons:
            parts = {
                "queue": queue_part,
                "window": window_part,
                "service": service_part,
            }
            self.decision_log.append(
                ControllerDecision(
                    time=max(r.completion_time for r in records),
                    key=key,
                    old_wait=old_wait,
                    new_wait=state.max_wait_seconds,
                    old_cap=old_cap,
                    new_cap=state.max_batch_pairs,
                    dominant=max(parts, key=parts.get),
                    p95_estimate=estimate,
                    reasons=tuple(reasons),
                )
            )

    def __repr__(self) -> str:
        return (
            f"<BatchController target p95 {self.target_p95_seconds * 1e3:.0f}ms, "
            f"{len(self._keys)} keys>"
        )
