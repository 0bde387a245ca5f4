"""The online explanation service: an arrival-driven event loop.

This is the request path the offline stack never had: where
:class:`~repro.core.pipeline.ExplanationPipeline` takes a pre-collected
list of pairs, :class:`ExplanationService` accepts single
``(x, y, granularity, precision)`` **requests** arriving over simulated
time and turns the accelerator's batch economics into serving
throughput:

1. arrivals are pulled from a seeded trace
   (:mod:`repro.serve.workload`) in timestamp order, driving a
   :class:`~repro.serve.clock.SimulatedClock` -- no wall-clock sleeps,
   so every run is reproducible;
2. each arrival passes **admission control**
   (:mod:`repro.serve.admission`) -- queue-depth/byte backpressure
   priced by :func:`repro.core.fleet.feed_bytes`; a rejected request
   does no further work of any kind (not even the cache digest);
3. admitted arrivals are checked against the **content-addressed
   cache** (:mod:`repro.serve.cache`): a hit completes immediately,
   bit-identical to the cold result, with zero device work; misses
   join the **micro-batcher** (:mod:`repro.serve.batcher`), whose
   max-wait/max-batch policy coalesces them per
   ``(granularity, block_shape, precision)`` key;
4. a full or due batch dispatches through
   :meth:`FleetExecutor.run <repro.core.fleet.FleetExecutor.run>`
   -- one wave-fused, double-buffered program
   train -- on the pairs its requests were checked into at arrival
   (:class:`~repro.core.fleet.CheckedPair`), so no pair is checked
   twice and each plane shape's :class:`~repro.core.masking.MaskSpec`
   is built once per key, ever; the clock advances by exactly the
   device's simulated seconds;
5. every lifecycle event lands on the **latency ledger**
   (:mod:`repro.serve.metrics`), from which the report derives
   p50/p95/p99 tail latency and goodput.

The numbers contract of the whole repo carries over: a request's
explanation is bit-identical whether it was served solo, coalesced into
any wave, or answered from cache -- batching and caching change only
*when* the answer arrives, never what it is.
"""

from __future__ import annotations

from repro.core.fleet import (
    GRANULARITIES,
    FleetExecutor,
    check_precision_granularity,
    feed_bytes,
)
from repro.core.masking import DEFAULT_STACK_BUDGET_BYTES
from repro.core.transform import OutputEmbedding
from repro.hw.device import Device
from repro.hw.quantize import resolve_precision
from repro.obs.registry import register_metrics_source
from repro.obs.tracer import tracer
from repro.serve.admission import ADMITTED, AdmissionController
from repro.serve.batcher import BatchKey, MicroBatcher, QueuedRequest
from repro.serve.cache import (
    DEFAULT_CACHE_BYTES,
    DigestMemo,
    ExplanationCache,
    explanation_config,
    planes_digest,
)
from repro.serve.clock import SimulatedClock
from repro.serve.controller import BatchController
from repro.serve.metrics import LatencyLedger, RequestRecord, ServiceReport
from repro.serve.workload import Request


class ExplanationService:
    """Serve explanation requests by micro-batching them into fleet waves.

    Every option is checked at construction, not at the first request:
    the fleet options by building the default key's
    :class:`~repro.core.fleet.FleetExecutor`, whose device -- the pod
    when ``num_chips > 1`` -- becomes :attr:`device`, and the batching
    options (``max_wait_seconds``, ``max_batch_pairs``,
    ``key_weights``) by building a
    :class:`~repro.serve.batcher.MicroBatcher`.

    Parameters
    ----------
    device:
        The backend every dispatch runs on.  The service owns the
        device ledger for the duration of :meth:`process`.
    granularity, block_shape, precision:
        Defaults applied to requests that leave theirs unset; a request
        naming its own values is routed to its own batch key.
    eps, embedding, reduction, fill_value:
        The distillation solve and Eq. 5 scoring configuration, shared
        by every dispatch (part of the cache digest).
    max_stack_bytes, chunk_rows, max_pairs_per_wave:
        Forwarded to each key's :class:`~repro.core.fleet.FleetExecutor`
        (the budget bounds the streamed chunk, not the wave, so a big
        batch fuses into few waves).
    max_wait_seconds, max_batch_pairs:
        The micro-batching policy: a batch dispatches when it holds
        ``max_batch_pairs`` requests or its oldest has waited
        ``max_wait_seconds`` -- the latency the service deliberately
        spends buying batch width.  ``max_batch_pairs=1`` with
        ``max_wait_seconds=0.0`` is the per-request serial baseline the
        serving benchmark compares against.
    cache, cache_max_bytes:
        Pass an :class:`~repro.serve.cache.ExplanationCache` to share
        one across services, let the default build one of
        ``cache_max_bytes``, or set ``cache_max_bytes=None`` to disable
        caching.  The cache persists across :meth:`process` calls.
    admission:
        Optional :class:`~repro.serve.admission.AdmissionController`;
        ``None`` admits everything.  Per-key budgets on the controller
        are fed each arrival's own key pressure automatically.
    controller:
        Optional :class:`~repro.serve.controller.BatchController` (the
        serving autopilot).  When present it replaces the static
        ``max_wait_seconds``/``max_batch_pairs`` pair: the micro-batcher
        consults the controller's live per-key policy at every decision
        point, and the service feeds every dispatched batch's records
        back through :meth:`~repro.serve.controller.BatchController
        .observe`.  Controller state persists across :meth:`process`
        calls, like the cache.
    key_weights:
        Simultaneously-ripe batch keys dispatch in weighted fair order:
        fewest served pairs per unit weight first, first-seen key order
        breaking ties, so a hot key yields contended rounds to starved
        ones.  ``key_weights`` maps
        :class:`~repro.serve.batcher.BatchKey`\\ s (or their
        ``as_tuple()`` forms) to relative service weights (default 1.0).
    num_chips, placement, interconnect, hbm_bytes:
        Pod scaling: ``num_chips=K > 1`` replicates ``device`` into a
        :class:`~repro.hw.pod.TpuPod` of K clones (handing a pod in as
        ``device`` works too), each with its own sharded
        :class:`~repro.hw.pod.HostLink`; every dispatch then shards its
        waves across the chips along ``placement`` (``"data"`` over
        pairs, ``"chunk"`` over the row space with the root solve
        overlapped, ``"wave"`` whole waves round-robin) with remaining
        collectives priced on ``interconnect``, and ``hbm_bytes``
        overrides each chip's modeled HBM capacity (wave budgeting
        clamps to it).  Served explanations stay bit-identical to
        single-chip dispatches -- the pod moves only the clock.
    """

    def __init__(
        self,
        device: Device,
        granularity: str = "blocks",
        block_shape: tuple[int, int] | None = None,
        precision=None,
        eps: float = 1e-6,
        embedding: OutputEmbedding | None = None,
        reduction: str = "l2",
        fill_value: float = 0.0,
        max_stack_bytes: int | None = DEFAULT_STACK_BUDGET_BYTES,
        chunk_rows: int | None = None,
        max_pairs_per_wave: int | None = None,
        max_wait_seconds: float = 0.05,
        max_batch_pairs: int = 32,
        cache: ExplanationCache | None = None,
        cache_max_bytes: int | None = DEFAULT_CACHE_BYTES,
        admission: AdmissionController | None = None,
        num_chips: int | None = None,
        placement: str = "data",
        interconnect=None,
        hbm_bytes: int | None = None,
        controller: BatchController | None = None,
        key_weights: dict | None = None,
        metrics_name: str | None = "serve",
    ) -> None:
        defaults = FleetExecutor(
            device,
            granularity=granularity,
            block_shape=block_shape,
            eps=eps,
            embedding=embedding,
            reduction=reduction,
            fill_value=fill_value,
            max_stack_bytes=max_stack_bytes,
            max_pairs_per_wave=max_pairs_per_wave,
            chunk_rows=chunk_rows,
            precision=precision,
            num_chips=num_chips,
            placement=placement,
            interconnect=interconnect,
            hbm_bytes=hbm_bytes,
        )
        # Every batch key's executor runs on this device: the pod, when
        # num_chips resolved to one, whose ledger is the clock's source.
        self.device = defaults.device
        self.placement = placement
        self.granularity = granularity
        self.block_shape = block_shape
        self.precision = defaults.precision
        self.eps = eps
        self.embedding = defaults.embedding
        self.reduction = reduction
        self.fill_value = fill_value
        self.max_stack_bytes = max_stack_bytes
        self.chunk_rows = chunk_rows
        self.max_pairs_per_wave = max_pairs_per_wave
        self.hbm_bytes = defaults.hbm_bytes
        self.max_wait_seconds = max_wait_seconds
        self.max_batch_pairs = max_batch_pairs
        self.controller = controller
        self.key_weights = dict(key_weights) if key_weights else {}
        self._new_batcher()  # rejects bad batching options now
        if cache is not None:
            self.cache: ExplanationCache | None = cache
        elif cache_max_bytes is None:
            self.cache = None
        else:
            self.cache = ExplanationCache(max_bytes=cache_max_bytes)
        self.admission = admission
        # One executor per batch key, built on first use and reused for
        # every later request and every later process() call; each keeps
        # its own plan per plane shape.  A key joins the idle drain once
        # a request of it is enqueued.
        self._executors: dict[BatchKey, FleetExecutor] = {}
        self._drain_keys: dict[BatchKey, None] = {}
        # Replay hot-path memos: per-request Python bookkeeping (key
        # resolution, precision specs, content digests) dominates warm
        # replay once explanations come from cache, so each resolves
        # once per distinct input instead of once per request.
        self._key_memo: dict = {}
        self._spec_memo: dict = {}
        self._digest_memo = DigestMemo()
        self._digest_configs: dict[BatchKey, bytes] = {}
        # Lifetime observability counters (across process() calls) and
        # the weak metrics-registry hookup: registering never extends
        # the service's lifetime, and a dead service drops out of
        # snapshots silently.
        self._lifetime = {
            "requests": 0,
            "completed": 0,
            "rejected": 0,
            "cache_hit_completions": 0,
            "dispatches": 0,
            "waves": 0,
        }
        self.dispatch_counts: dict[tuple, int] = {}
        if metrics_name is not None:
            register_metrics_source(
                metrics_name, self.metrics_counters,
                reset=self.reset_metrics_counters, weak=True,
            )

    # ------------------------------------------------------------------
    # Metrics surface
    # ------------------------------------------------------------------
    def metrics_counters(self) -> dict:
        """Flat labeled counters for the metrics registry.

        Lifetime lifecycle counters, cache hit/miss/eviction totals,
        admission admit/shed totals (per bound), and per-key dispatch
        counts (labeled by the key tuple).
        """
        out = dict(self._lifetime)
        if self.cache is not None:
            out["cache_hits"] = self.cache.hits
            out["cache_misses"] = self.cache.misses
            out["cache_evictions"] = self.cache.evictions
        if self.admission is not None:
            out["admitted"] = self.admission.admitted
            out["shed"] = self.admission.shed
            for bound, count in sorted(self.admission.sheds_by_reason.items()):
                out[f"shed_{bound}"] = count
        for key_tuple, count in sorted(self.dispatch_counts.items(), key=repr):
            label = ":".join(str(part) for part in key_tuple)
            out[f"dispatches[{label}]"] = count
        return out

    def reset_metrics_counters(self) -> None:
        """Zero the service's own lifetime counters (reset-for-tests)."""
        for name in self._lifetime:
            self._lifetime[name] = 0
        self.dispatch_counts.clear()

    # ------------------------------------------------------------------
    # Request resolution
    # ------------------------------------------------------------------
    def batch_key(self, request: Request) -> BatchKey:
        """The compatibility key this request batches under.

        Memoized on the request's raw ``(granularity, block_shape,
        precision)`` override triple -- replay traffic resolves and
        validates each distinct triple once, not once per request (an
        unhashable override simply skips the memo).  Raises
        ``ValueError`` when the overrides cannot resolve: an unknown
        granularity or precision, ``blocks`` without a block shape of
        integers, or ``elements`` at a lossy precision; :meth:`process`
        rejects such a request at arrival.
        """
        token: tuple | None
        try:
            token = (
                request.granularity,
                None
                if request.block_shape is None
                else tuple(request.block_shape),
                request.precision,
            )
            key = self._key_memo.get(token)
        except TypeError:
            token, key = None, None
        if key is None:
            key = self._resolve_batch_key(request)
            if token is not None:
                self._key_memo[token] = key
        return key

    def _resolve_batch_key(self, request: Request) -> BatchKey:
        granularity = request.granularity or self.granularity
        if granularity not in GRANULARITIES:
            raise ValueError(
                f"request {request.request_id}: unknown granularity "
                f"{granularity!r}; expected one of {GRANULARITIES}"
            )
        if granularity == "blocks":
            block_shape = (
                request.block_shape
                if request.block_shape is not None
                else self.block_shape
            )
            if block_shape is None:
                raise ValueError(
                    f"request {request.request_id}: blocks granularity "
                    "requires a block_shape"
                )
            try:
                block_shape = tuple(int(v) for v in block_shape)
            except TypeError:
                raise ValueError(
                    f"request {request.request_id}: block_shape must be a pair "
                    f"of integers, got {block_shape!r}"
                ) from None
        else:
            block_shape = None  # irrelevant to (and rejected by) the plan
        spec = resolve_precision(
            request.precision if request.precision is not None else self.precision
        )
        check_precision_granularity(spec, granularity)
        return BatchKey(
            granularity=granularity,
            block_shape=block_shape,
            precision=None if spec is None else spec.name,
        )

    def _executor(self, key: BatchKey) -> FleetExecutor:
        executor = self._executors.get(key)
        if executor is None:
            executor = FleetExecutor(
                self.device,
                granularity=key.granularity,
                block_shape=key.block_shape,
                eps=self.eps,
                embedding=self.embedding,
                reduction=self.reduction,
                fill_value=self.fill_value,
                max_stack_bytes=self.max_stack_bytes,
                max_pairs_per_wave=self.max_pairs_per_wave,
                chunk_rows=self.chunk_rows,
                precision=key.precision,
                placement=self.placement,
                hbm_bytes=self.hbm_bytes,
            )
            self._executors[key] = executor
        return executor

    def _new_batcher(self) -> MicroBatcher:
        """A fresh micro-batcher under the service's batching options."""
        return MicroBatcher(
            max_wait_seconds=self.max_wait_seconds,
            max_batch_pairs=self.max_batch_pairs,
            controller=self.controller,
            weights=self.key_weights,
        )

    def _spec(self, precision_name: str | None):
        """Per-key precision spec, resolved once per distinct name."""
        if precision_name not in self._spec_memo:
            self._spec_memo[precision_name] = resolve_precision(precision_name)
        return self._spec_memo[precision_name]

    def _digest(self, request: Request, key: BatchKey) -> str:
        """Content digest (:func:`~repro.serve.cache.explanation_digest`),
        memoized by plane identity and configuration for warm replay; the
        configuration's bytes are built once per key."""
        config = self._digest_configs.get(key)
        if config is None:
            config = self._digest_configs[key] = explanation_config(
                granularity=key.granularity,
                block_shape=key.block_shape,
                precision_name=key.precision,
                eps=self.eps,
                reduction=self.reduction,
                fill_value=self.fill_value,
                embedding_strategy=self.embedding.strategy,
            )
        return self._digest_memo.lookup(
            request.x, request.y, config, lambda: planes_digest(request.x, request.y, config)
        )

    # ------------------------------------------------------------------
    # The event loop
    # ------------------------------------------------------------------
    def process(self, requests, clock: SimulatedClock | None = None) -> ServiceReport:
        """Serve a trace of requests to completion; returns the report.

        Deterministic discrete-event execution: requests are taken in
        ``(arrival_time, request_id)`` order; between arrivals the only
        events are batch deadlines, and the clock advances by device
        simulated seconds whenever a batch dispatches.  Once the trace
        is exhausted pending batches flush immediately -- no future
        arrival can widen them, so the clock never advances past the
        last completion.  The loop ends
        with an idle drain that flushes every known batch key --
        including empty ones, the path that exercises the empty-fleet
        guards.  The device ledger is reset on entry and harvested into
        the report.
        """
        requests = sorted(
            requests, key=lambda r: (r.arrival_time, r.request_id)
        )
        clock = clock if clock is not None else SimulatedClock()
        batcher = self._new_batcher()
        ledger = LatencyLedger()
        if tracer.enabled:
            # The serve host owns pid 0; device/pod lanes are aligned
            # onto the service clock via tracer.origin at dispatch time.
            tracer.set_process_name(0, "service")
            tracer.set_thread_name(0, 0, "requests")
            tracer.set_thread_name(0, 1, "dispatch")
            tracer.set_thread_name(0, 2, "controller")
        self.device.reset_stats()
        cache_before = (
            (self.cache.hits, self.cache.misses, self.cache.evictions)
            if self.cache is not None
            else (0, 0, 0)
        )
        counters = {"dispatches": 0, "waves": 0}

        index = 0
        while index < len(requests) or batcher.pending_count:
            # Release everything already full or past its max-wait.
            for key in batcher.ripe_keys(clock.now):
                self._dispatch(key, batcher, ledger, clock, counters)
            if index >= len(requests):
                # Trace exhausted: no future arrival can widen any
                # batch, so flush pending keys now instead of burning
                # the remainder of their max-wait windows.
                for key in batcher.drain_keys():
                    self._dispatch(key, batcher, ledger, clock, counters)
                continue
            next_arrival = requests[index].arrival_time
            deadline = batcher.next_deadline()
            if next_arrival <= deadline:
                clock.advance_to(next_arrival)
                self._accept(requests[index], batcher, ledger, clock)
                index += 1
            else:
                # The oldest pending request's window expires first:
                # jump there and let the next iteration dispatch it.
                clock.advance_to(deadline)

        # Idle drain: flush every key the service has ever enqueued a
        # request of.  Drained-empty keys run FleetExecutor.run([]),
        # which must cost nothing -- the empty-input guard the service
        # hits constantly between traffic spells.
        for key in list(self._drain_keys):
            self._dispatch(key, batcher, ledger, clock, counters)

        cache_after = (
            (self.cache.hits, self.cache.misses, self.cache.evictions)
            if self.cache is not None
            else (0, 0, 0)
        )
        return ServiceReport(
            ledger=ledger,
            elapsed_seconds=clock.now,
            stats=self.device.take_stats(),
            num_dispatches=counters["dispatches"],
            num_waves=counters["waves"],
            cache_hits=cache_after[0] - cache_before[0],
            cache_misses=cache_after[1] - cache_before[1],
            cache_evictions=cache_after[2] - cache_before[2],
        )

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    def _accept(
        self,
        request: Request,
        batcher: MicroBatcher,
        ledger: LatencyLedger,
        clock: SimulatedClock,
    ) -> None:
        """One arrival: validation, admission, then cache, then the batch queue.

        A request the fleet cannot explain -- its overrides resolve to
        no batch key (see :meth:`batch_key`), or its key's executor's
        :meth:`~repro.core.fleet.FleetExecutor.check_pair` refuses its
        ``(x, y)`` -- is rejected here with the reason, so it never
        reaches (and never fails) a dispatch shared with other requests;
        a request without a key is recorded with an empty one.  An
        accepted request queues the :class:`~repro.core.fleet.CheckedPair`
        it was checked into, which the dispatch runs as it is.
        Backpressure follows validation and precedes everything else, so
        a shed request is genuinely cheap -- no digest hashing, no cache
        traffic, no skewed miss counters; only admitted arrivals get the
        cache lookup (a hit then completes without queueing).
        """
        key = problem = None
        try:
            key = self.batch_key(request)
            pair = self._executor(key).check_pair(request.x, request.y)
        except ValueError as error:
            problem = str(error)
        self._lifetime["requests"] += 1
        if tracer.enabled:
            tracer.instant(
                "arrival", "serve", clock.now, 0, 0,
                {
                    "id": request.request_id,
                    "key": [] if key is None else list(key.as_tuple()),
                },
            )

        if problem is not None:
            self._reject(request, key, problem, "invalid_request", ledger, clock)
            return
        spec = self._spec(key.precision)
        feed_nbytes = feed_bytes([request.x, request.y], spec)
        decision = ADMITTED
        if self.admission is not None:
            decision = self.admission.admit(
                feed_nbytes,
                batcher.pending_count,
                batcher.pending_bytes,
                key_depth=batcher.pending_count_for(key),
                key_bytes=batcher.pending_bytes_for(key),
            )
        if not decision.admitted:
            self._reject(request, key, decision.reason, "admission_shed", ledger, clock)
            return

        digest = None
        if self.cache is not None:
            digest = self._digest(request, key)
            hit = self.cache.get(digest)
            if hit is not None:
                # Served from memory: bit-identical to the cold result,
                # zero device work, completion at the current clock.
                self._lifetime["completed"] += 1
                self._lifetime["cache_hit_completions"] += 1
                if tracer.enabled:
                    tracer.instant(
                        "cache_hit", "serve", clock.now, 0, 0,
                        {"id": request.request_id, "digest": digest},
                    )
                ledger.add(
                    RequestRecord(
                        request_id=request.request_id,
                        arrival_time=request.arrival_time,
                        status="completed",
                        batch_key=key.as_tuple(),
                        enqueue_time=clock.now,
                        completion_time=clock.now,
                        cache_hit=True,
                        result=hit,
                    )
                )
                return

        self._drain_keys[key] = None
        if tracer.enabled:
            tracer.instant(
                "enqueue", "serve", clock.now, 0, 0,
                {"id": request.request_id, "key": list(key.as_tuple())},
            )
        batcher.enqueue(
            key,
            QueuedRequest(
                request=request,
                enqueue_time=clock.now,
                feed_nbytes=feed_nbytes,
                pair=pair,
                digest=digest,
            ),
        )

    def _reject(self, request, key, reason, event, ledger, clock) -> None:
        """Record ``request`` as rejected for ``reason`` (trace ``event``)."""
        self._lifetime["rejected"] += 1
        if tracer.enabled:
            tracer.instant(
                event, "serve", clock.now, 0, 0,
                {"id": request.request_id, "reason": reason},
            )
        ledger.add(
            RequestRecord(
                request_id=request.request_id,
                arrival_time=request.arrival_time,
                status="rejected",
                batch_key=() if key is None else key.as_tuple(),
                reject_reason=reason,
            )
        )

    def _dispatch(
        self,
        key: BatchKey,
        batcher: MicroBatcher,
        ledger: LatencyLedger,
        clock: SimulatedClock,
        counters: dict,
    ) -> None:
        """Run one key's coalesced batch through the fleet executor.

        A request whose explanation came out non-finite (its entry in
        :attr:`~repro.core.fleet.FleetRun.problems`) is recorded as
        rejected with the reason, and nothing is cached for it.
        """
        batch = batcher.pop(key)
        executor = self._executor(key)
        dispatch_time = clock.now
        before = self.device.stats.seconds
        traced = tracer.enabled
        if traced:
            # Align the device/pod trace lanes onto the service clock:
            # emitters add the origin to their run-local positions, so
            # this dispatch's device spans start at dispatch_time.
            tracer.origin = dispatch_time - self.device.trace_seconds
        fleet = executor.run([queued.pair for queued in batch])
        # Device time is the only non-arrival source of simulated time.
        clock.advance(self.device.stats.seconds - before)
        if not batch:
            return  # the idle drain of an empty key: free by contract
        dispatch_index = counters["dispatches"]
        counters["dispatches"] += 1
        counters["waves"] += fleet.num_waves
        self._lifetime["dispatches"] += 1
        self._lifetime["waves"] += fleet.num_waves
        key_tuple = key.as_tuple()
        self.dispatch_counts[key_tuple] = (
            self.dispatch_counts.get(key_tuple, 0) + 1
        )
        if traced and tracer.enabled:
            tracer.complete(
                "dispatch", "serve", dispatch_time,
                clock.now - dispatch_time, 0, 1,
                {
                    "key": list(key_tuple),
                    "batch": len(batch),
                    "waves": fleet.num_waves,
                    "dispatch_index": dispatch_index,
                },
            )
            for queued in batch:
                tracer.flow(
                    "queued", "serve",
                    src=(queued.enqueue_time, 0, 0),
                    dst=(dispatch_time, 0, 1),
                    args={
                        "id": queued.request.request_id,
                        "wait": dispatch_time - queued.enqueue_time,
                    },
                )
        records = []
        for index, (queued, result) in enumerate(zip(batch, fleet.results)):
            if index in fleet.problems:
                self._reject(
                    queued.request, key, fleet.problems[index], "invalid_result",
                    ledger, clock,
                )
                continue
            if self.cache is not None and queued.digest is not None:
                self.cache.put(queued.digest, result)
            record = RequestRecord(
                request_id=queued.request.request_id,
                arrival_time=queued.request.arrival_time,
                status="completed",
                batch_key=key_tuple,
                enqueue_time=queued.enqueue_time,
                dispatch_time=dispatch_time,
                completion_time=clock.now,
                dispatch_index=dispatch_index,
                result=result,
            )
            records.append(record)
            ledger.add(record)
            self._lifetime["completed"] += 1
            if traced and tracer.enabled:
                tracer.instant(
                    "completion", "serve", clock.now, 0, 0,
                    {
                        "id": queued.request.request_id,
                        "dispatch_index": dispatch_index,
                    },
                )
        if self.controller is not None:
            # Close the autopilot loop: this batch's lifecycles steer
            # the key's (max_wait, max_batch) for the next dispatch.
            log_mark = len(self.controller.decision_log)
            self.controller.observe(key, records)
            if traced and tracer.enabled:
                for decision in self.controller.decision_log[log_mark:]:
                    tracer.instant(
                        "controller_decision", "serve", decision.time, 0, 2,
                        {
                            "key": list(key_tuple),
                            "reasons": list(decision.reasons),
                            "dominant": decision.dominant,
                            "old_wait": decision.old_wait,
                            "new_wait": decision.new_wait,
                            "old_cap": decision.old_cap,
                            "new_cap": decision.new_cap,
                            "p95_estimate": decision.p95_estimate,
                        },
                    )
