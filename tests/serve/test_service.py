"""Integration contracts of the online explanation service.

The satellite coverage the serving PR promises: determinism (same seed
and trace replay the identical latency ledger), cache hits bit-identical
to cold results with strictly fewer device dispatches, byte-budget
backpressure rejecting over-budget arrivals, and mixed-precision
requests never sharing a wave -- plus the empty/idle-drain guards the
request loop hits constantly.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.backend import TpuBackend, make_tpu_chip
from repro.core.fleet import FleetExecutor
from repro.core.pipeline import ExplanationPipeline
from repro.core.transform import OutputEmbedding
from repro.hw.cpu import CpuDevice
from repro.serve import (
    AdmissionController,
    BatchController,
    ExplanationService,
    bursty_requests,
    poisson_requests,
)

SHAPE = (16, 16)
BLOCK = (4, 4)


def small_backend(num_cores=8):
    return TpuBackend(
        make_tpu_chip(num_cores=num_cores, precision="fp32", mxu_rows=8, mxu_cols=8)
    )


def make_service(device=None, **kwargs):
    config = dict(
        granularity="blocks", block_shape=BLOCK, eps=1e-8,
        max_wait_seconds=0.05, max_batch_pairs=32,
    )
    config.update(kwargs)
    return ExplanationService(device or small_backend(), **config)


def trace(count=40, rate=400.0, seed=0, **kwargs):
    return poisson_requests(count, rate=rate, seed=seed, shape=SHAPE, **kwargs)


class TestDeterminism:
    def test_same_seed_and_trace_replays_the_identical_ledger(self):
        first = make_service().process(trace(seed=3))
        second = make_service().process(trace(seed=3))
        assert first.ledger.signature() == second.ledger.signature()
        assert first.elapsed_seconds == second.elapsed_seconds
        assert first.stats.seconds == second.stats.seconds
        a, b = first.results_by_id(), second.results_by_id()
        assert a.keys() == b.keys()
        for request_id in a:
            np.testing.assert_array_equal(a[request_id].scores, b[request_id].scores)
            np.testing.assert_array_equal(a[request_id].kernel, b[request_id].kernel)
            assert a[request_id].residual == b[request_id].residual

    def test_different_seeds_produce_different_ledgers(self):
        first = make_service().process(trace(seed=3))
        second = make_service().process(trace(seed=4))
        assert first.ledger.signature() != second.ledger.signature()


class TestBitIdentity:
    def test_service_matches_the_offline_pipeline(self):
        """Serving is a scheduling layer, not a numeric one: every
        response equals what the offline wave-fused pipeline computes
        for the same pair."""
        requests = trace(count=30, seed=1)
        served = make_service().process(requests).results_by_id()
        offline = ExplanationPipeline(
            small_backend(), granularity="blocks", block_shape=BLOCK, eps=1e-8
        ).run([(r.x, r.y) for r in requests])
        for request, explanation in zip(requests, offline.explanations):
            result = served[request.request_id]
            np.testing.assert_array_equal(result.scores, explanation.scores)
            np.testing.assert_array_equal(result.kernel, explanation.kernel)
            assert result.residual == explanation.residual

    def test_pipeline_service_constructor_shares_config(self):
        pipeline = ExplanationPipeline(
            small_backend(), granularity="blocks", block_shape=BLOCK,
            eps=1e-8, precision="int8",
        )
        service = pipeline.service(max_wait_seconds=0.01)
        assert service.device is pipeline.device
        assert service.granularity == "blocks"
        assert service.block_shape == BLOCK
        assert service.precision is pipeline.executor.precision
        requests = trace(count=10, seed=2)
        served = service.process(requests).results_by_id()
        offline = pipeline.run([(r.x, r.y) for r in requests])
        for request, explanation in zip(requests, offline.explanations):
            np.testing.assert_array_equal(
                served[request.request_id].scores, explanation.scores
            )

    def test_pipeline_service_reads_every_default_from_the_executor(self):
        pipeline = ExplanationPipeline(
            small_backend(), granularity="columns", eps=1e-4,
            embedding=OutputEmbedding("tile"), max_stack_bytes=1 << 20,
            chunk_rows=3, max_pairs_per_wave=2, precision="fp32",
            hbm_bytes=1 << 22,
        )
        executor = pipeline.executor
        service = pipeline.service()
        assert service.device is pipeline.device
        for name in (
            "granularity", "block_shape", "precision", "eps", "embedding",
            "max_stack_bytes", "chunk_rows", "max_pairs_per_wave",
            "placement", "hbm_bytes",
        ):
            assert getattr(service, name) == getattr(executor, name), name
        overridden = pipeline.service(eps=1e-2, chunk_rows=5)
        assert (overridden.eps, overridden.chunk_rows) == (1e-2, 5)
        assert overridden.max_pairs_per_wave == 2


class TestCache:
    def test_warm_replay_is_bit_identical_with_strictly_fewer_dispatches(self):
        service = make_service()
        requests = trace(count=25, seed=5)
        cold = service.process(requests)
        warm = service.process(requests)
        assert cold.num_dispatches > 0
        assert warm.num_dispatches == 0  # strictly fewer device dispatches
        assert warm.cache_hits == len(requests)
        # The warm pass performs no device work at all -- no dispatches,
        # no kernel-spectrum batches, nothing on the ledger.
        assert not warm.stats.op_counts
        assert warm.stats.seconds == 0.0
        cold_results, warm_results = cold.results_by_id(), warm.results_by_id()
        for request_id, result in cold_results.items():
            np.testing.assert_array_equal(
                warm_results[request_id].scores, result.scores
            )
            np.testing.assert_array_equal(
                warm_results[request_id].kernel, result.kernel
            )
            assert warm_results[request_id].residual == result.residual

    def test_repeated_traffic_hits_within_one_trace(self):
        requests = trace(count=60, seed=6, repeat_fraction=0.5)
        cached = make_service().process(requests)
        uncached = make_service(cache_max_bytes=None).process(requests)
        assert cached.cache_hits > 0
        assert uncached.cache_hits == 0
        # Cache hits shed device work relative to the uncached service.
        assert (
            cached.stats.op_counts["dispatch"]
            < uncached.stats.op_counts["dispatch"]
        ) or cached.stats.seconds < uncached.stats.seconds
        a, b = cached.results_by_id(), uncached.results_by_id()
        for request_id in a:
            np.testing.assert_array_equal(a[request_id].scores, b[request_id].scores)

    def test_disabled_cache_never_hits(self):
        service = make_service(cache_max_bytes=None)
        requests = trace(count=10, seed=7, repeat_fraction=0.9)
        report = service.process(requests)
        assert service.cache is None
        assert report.cache_hits == 0


class TestBackpressure:
    def test_byte_budget_rejects_the_overflow_of_a_burst(self):
        pair_bytes = 2 * SHAPE[0] * SHAPE[1] * 8  # fp64 x and y planes
        service = make_service(
            admission=AdmissionController(max_queued_bytes=4 * pair_bytes),
            cache_max_bytes=None,
        )
        burst = bursty_requests(20, burst_size=20, burst_gap=1.0, shape=SHAPE)
        report = service.process(burst)
        assert report.completed_count == 4
        assert report.rejected_count == 16
        assert all("byte" in r.reject_reason for r in report.ledger.rejected)
        # Goodput counts completions only; every request is accounted for.
        assert report.completed_count + report.rejected_count == len(burst)
        assert report.goodput == pytest.approx(4 / report.elapsed_seconds)

    def test_queue_depth_rejects(self):
        service = make_service(
            admission=AdmissionController(max_queue_depth=3),
            cache_max_bytes=None,
        )
        burst = bursty_requests(10, burst_size=10, burst_gap=1.0, shape=SHAPE)
        report = service.process(burst)
        assert report.completed_count == 3
        assert report.rejected_count == 7
        assert all("depth" in r.reject_reason for r in report.ledger.rejected)

    def test_rejections_cost_no_device_time(self):
        service = make_service(
            admission=AdmissionController(max_queue_depth=1),
            cache_max_bytes=None,
        )
        burst = bursty_requests(8, burst_size=8, burst_gap=1.0, shape=SHAPE)
        report = service.process(burst)
        assert report.num_dispatches == 1  # one admitted request, one batch
        assert report.rejected_count == 7

    def test_rejections_never_touch_the_cache(self):
        """Backpressure precedes the cache: a rejected arrival pays no
        digest hashing and cannot skew the hit/miss counters."""
        service = make_service(admission=AdmissionController(max_queue_depth=2))
        burst = bursty_requests(10, burst_size=10, burst_gap=1.0, shape=SHAPE)
        report = service.process(burst)
        assert report.rejected_count == 8
        assert report.cache_hits + report.cache_misses == 2  # admitted only

    def test_shared_cache_across_embeddings_never_cross_serves(self):
        """Two services sharing one cache but lifting vector outputs
        with different embeddings must not answer each other's
        requests: the embedding strategy is part of the digest."""
        from repro.core.transform import OutputEmbedding
        from repro.serve import ExplanationCache, Request

        cache = ExplanationCache()
        rng = np.random.default_rng(0)
        x = rng.standard_normal(SHAPE)
        y = rng.standard_normal(4)  # vector output: the embedding matters
        request = Request(request_id=0, arrival_time=0.0, x=x, y=y)
        results = {}
        for strategy in ("spatial", "tile"):
            service = make_service(
                CpuDevice(), cache=cache,
                embedding=OutputEmbedding(strategy),
            )
            report = service.process([request])
            assert report.cache_hits == 0  # never served from the other's entry
            results[strategy] = report.results_by_id()[0]
        assert not np.array_equal(
            results["spatial"].scores, results["tile"].scores
        )


class TestMixedPrecision:
    def test_mixed_precision_requests_never_share_a_wave(self):
        requests = trace(count=40, seed=8, precisions=("fp64", "int8"))
        report = make_service(cache_max_bytes=None).process(requests)
        by_dispatch: dict[int, set] = {}
        for record in report.ledger.completed:
            by_dispatch.setdefault(record.dispatch_index, set()).add(
                record.batch_key
            )
        assert len(by_dispatch) >= 2  # both precisions actually dispatched
        for keys in by_dispatch.values():
            assert len(keys) == 1  # one batch key -- one precision -- per batch
        seen = {key for keys in by_dispatch.values() for key in keys}
        assert {key[2] for key in seen} == {"fp64", "int8"}

    def test_mixed_granularity_requests_never_share_a_wave(self):
        requests = trace(count=20, seed=9)
        half = [
            r if i % 2 == 0 else type(r)(
                request_id=r.request_id, arrival_time=r.arrival_time,
                x=r.x, y=r.y, granularity="columns",
            )
            for i, r in enumerate(requests)
        ]
        report = make_service(cache_max_bytes=None).process(half)
        for record in report.ledger.completed:
            granularity = record.batch_key[0]
            assert granularity in ("blocks", "columns")
        by_dispatch: dict[int, set] = {}
        for record in report.ledger.completed:
            by_dispatch.setdefault(record.dispatch_index, set()).add(
                record.batch_key[0]
            )
        for granularities in by_dispatch.values():
            assert len(granularities) == 1


class TestIdleAndEmptyPaths:
    def test_empty_trace_is_a_zero_cost_report(self):
        report = make_service().process([])
        assert report.elapsed_seconds == 0.0
        assert report.num_dispatches == 0
        assert report.goodput == 0.0
        assert not report.stats.op_counts
        assert len(report.ledger) == 0

    def test_scheduler_empty_batch_returns_empty_run(self):
        device = TpuBackend(make_tpu_chip(num_cores=4, mxu_rows=8, mxu_cols=8))
        run = FleetExecutor(device, granularity="columns").run([])
        assert run.results == ()
        assert run.num_waves == 0
        assert device.take_stats().seconds == 0.0

    def test_idle_drain_after_traffic_is_free(self):
        """After the trace drains, flushing the known batch keys runs
        FleetExecutor.run([]) -- which must not add cost or records."""
        service = make_service(cache_max_bytes=None)
        first = service.process(trace(count=5, seed=10))
        assert first.completed_count == 5
        empty = service.process([])
        assert empty.elapsed_seconds == 0.0
        assert not empty.stats.op_counts


class TestLatencyAccounting:
    def test_percentiles_are_ordered_and_latencies_nonnegative(self):
        report = make_service().process(trace(count=50, seed=11))
        latencies = report.ledger.latencies()
        assert all(latency >= 0 for latency in latencies)
        assert report.p50 <= report.p95 <= report.p99
        assert report.p99 <= max(latencies)
        assert report.mean_latency > 0

    def test_dispatch_wait_never_exceeds_max_wait(self):
        """The micro-batching policy's latency promise: no admitted
        request waits in queue past max_wait_seconds before its batch
        dispatches (full batches dispatch even sooner)."""
        service = make_service(max_wait_seconds=0.02, cache_max_bytes=None)
        report = service.process(trace(count=40, seed=12, rate=300.0))
        for record in report.ledger.completed:
            wait = record.dispatch_time - record.enqueue_time
            assert 0.0 <= wait <= 0.02 + 1e-12

    def test_bursts_coalesce_into_one_dispatch_each(self):
        requests = bursty_requests(
            30, burst_size=10, burst_gap=1.0, seed=13, shape=SHAPE
        )
        report = make_service(
            max_batch_pairs=16, cache_max_bytes=None
        ).process(requests)
        assert report.completed_count == 30
        assert report.num_dispatches == 3  # one wave train per burst
        assert report.num_waves == 3

    def test_serial_baseline_dispatches_per_request(self):
        requests = trace(count=10, seed=14)
        report = make_service(
            max_wait_seconds=0.0, max_batch_pairs=1, cache_max_bytes=None
        ).process(requests)
        assert report.num_dispatches == 10


class TestRequestValidation:
    @staticmethod
    def _replaced(requests, index, **changes):
        """``requests`` with request ``index``'s fields replaced by ``changes``."""
        requests = list(requests)
        requests[index] = dataclasses.replace(requests[index], **changes)
        return requests, requests[index].request_id

    @staticmethod
    def _assert_others_unmoved(report, requests, bad, **options):
        """Every other request's explanation equals a run without ``bad``."""
        clean = make_service(**options).process(
            [r for r in requests if r.request_id != bad]
        )
        served, expected = report.results_by_id(), clean.results_by_id()
        assert served.keys() == expected.keys()
        for request_id, result in expected.items():
            np.testing.assert_array_equal(served[request_id].scores, result.scores)
            np.testing.assert_array_equal(served[request_id].kernel, result.kernel)
            assert served[request_id].residual == result.residual

    def _check_one_rejected(self, report, request_id, reason):
        """The rejected record of ``request_id``; the other five completed."""
        records = {record.request_id: record for record in report.ledger.records}
        assert len(records) == 6
        assert records[request_id].status == "rejected"
        assert reason in records[request_id].reject_reason
        assert report.rejected_count == 1
        completed = report.ledger.completed
        assert len(completed) == 5
        assert all(np.isfinite(record.result.scores).all() for record in completed)
        return records[request_id]

    def test_unknown_granularity_is_rejected_at_arrival(self):
        """One request whose batch key cannot resolve is rejected with its
        reason and no key; process() used to raise and lose the other five."""
        requests, bad = self._replaced(trace(count=6, seed=15), 2, granularity="pixels")
        report = make_service().process(requests)
        record = self._check_one_rejected(report, bad, "unknown granularity 'pixels'")
        assert record.batch_key == ()
        assert report.ledger.batch_keys() == [("blocks", BLOCK, None)]

    def test_lossy_precision_rejects_elements_granularity(self):
        requests, bad = self._replaced(
            trace(count=6, seed=16), 4, granularity="elements", precision="int8"
        )
        report = make_service().process(requests)
        assert self._check_one_rejected(report, bad, "linearity").batch_key == ()

    @pytest.mark.parametrize(
        "overrides, reason",
        [
            ({"granularity": "blocks"}, "requires a block_shape"),
            ({"granularity": "blocks", "block_shape": 4}, "a pair of integers"),
            ({"precision": "fp16"}, "unknown precision"),
        ],
        ids=["no-block-shape", "scalar-block-shape", "unknown-precision"],
    )
    def test_other_unresolvable_keys_are_rejected_at_arrival(self, overrides, reason):
        requests, bad = self._replaced(trace(count=6, seed=17), 1, **overrides)
        report = make_service(granularity="columns", block_shape=None).process(requests)
        assert self._check_one_rejected(report, bad, reason).batch_key == ()

    def test_batch_key_still_raises(self):
        request = dataclasses.replace(trace(count=1, seed=15)[0], granularity="pixels")
        with pytest.raises(ValueError, match="granularity"):
            make_service().batch_key(request)

    def test_untiled_plane_is_rejected_at_arrival(self):
        """One 8x9 request under 2x2 blocks is rejected with its reason;
        the other five requests complete."""
        rng = np.random.default_rng(18)
        requests, bad = self._replaced(
            trace(count=6, seed=18), 2, x=rng.standard_normal((8, 9)),
            y=rng.standard_normal((8, 9)),
        )
        report = make_service(block_shape=(2, 2)).process(requests)
        self._check_one_rejected(report, bad, "does not tile")

    @pytest.mark.parametrize("plane", ["x", "y"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_request_is_rejected_at_arrival(self, plane, value):
        requests = trace(count=6, seed=19)
        x, y = requests[3].x.copy(), requests[3].y.copy()
        (x if plane == "x" else y)[1, 2] = value
        requests, bad = self._replaced(requests, 3, x=x, y=y)
        report = make_service().process(requests)
        self._check_one_rejected(report, bad, f"{plane} holds non-finite values")

    def test_unliftable_y_is_rejected_at_arrival(self):
        """An 8x8 y under a 16x16 x cannot lift onto the plane with the
        identity embedding; process() used to raise from the shared
        dispatch and lose the other five requests."""
        requests = trace(count=6, seed=21)
        bad_trace, bad = self._replaced(requests, 3, y=requests[3].y[:8, :8].copy())
        report = make_service().process(bad_trace)
        self._check_one_rejected(
            report, bad, "y of shape (8, 8) cannot lift onto x's (16, 16) plane"
        )
        self._assert_others_unmoved(report, bad_trace, bad)

    @pytest.mark.parametrize(
        "plane, convert",
        [("x", lambda a: a.astype(str)), ("x", lambda a: a.astype(object)),
         ("y", lambda a: None)],
        ids=["str-x", "object-x", "none-y"],
    )
    def test_non_numeric_request_is_rejected_at_arrival(self, plane, convert):
        """np.isfinite used to raise TypeError from process() on such a
        plane, and every request of the trace was lost."""
        requests = trace(count=6, seed=22)
        bad_trace, bad = self._replaced(
            requests, 2, **{plane: convert(getattr(requests[2], plane))}
        )
        report = make_service().process(bad_trace)
        record = self._check_one_rejected(report, bad, f"{plane} has dtype")
        assert record.batch_key == ("blocks", BLOCK, None)
        self._assert_others_unmoved(report, bad_trace, bad)

    @pytest.mark.parametrize(
        "x_scale, y_scale, parts",
        [(1e200, 1.0, "kernel, scores, residual"),
         (1e150, 1e200, "kernel, scores, residual"),
         (1.0, 1e154, "scores")],
        ids=["x1e200", "x1e150-y1e200", "y1e154"],
    )
    def test_overflowing_request_is_rejected_at_dispatch(self, x_scale, y_scale, parts):
        """Finite planes whose solve or l2 reduction overflows used to
        complete, non-finite scores and all, and be cached."""
        requests = trace(count=6, seed=23)
        bad_trace, bad = self._replaced(
            requests, 2, x=requests[2].x * x_scale, y=requests[2].y * y_scale
        )
        service = make_service(num_chips=2)
        with np.errstate(over="ignore", invalid="ignore"):
            report = service.process(bad_trace)
            # Nothing was cached for it: the same request is refused again.
            again = service.process([bad_trace[2]])
        reason = f"the explanation holds non-finite values ({parts})"
        record = self._check_one_rejected(report, bad, reason)
        assert record.result is None
        assert record.batch_key == ("blocks", BLOCK, None)
        assert again.cache_hits == 0
        assert [r.reject_reason for r in again.ledger.rejected] == [reason]
        self._assert_others_unmoved(report, bad_trace, bad, num_chips=2)

    def test_a_key_joins_the_idle_drain_only_once_enqueued(self):
        """Arrival checks build the key's executor, but a key whose only
        request is refused never reaches the batcher or the autopilot."""
        requests = trace(count=6, seed=25)
        x = requests[3].x.copy()
        x[0, 0] = np.nan
        requests, _ = self._replaced(requests, 3, x=x, granularity="columns")
        controller = BatchController()
        service = make_service(controller=controller)
        report = service.process(requests)
        assert report.rejected_count == 1
        columns = ("columns", None, None)
        assert columns in [key.as_tuple() for key in service._executors]
        policies = [key.as_tuple() for key in controller.policies()]
        assert policies == [("blocks", BLOCK, None)]

    def test_check_pair_runs_once_per_request_with_a_key(self, check_pair_calls):
        """At arrival, for cache hits too, and never again at dispatch."""
        requests, _ = self._replaced(
            trace(count=30, seed=24, repeat_fraction=0.3), 4, granularity="pixels"
        )
        service = make_service()
        report = service.process(requests)
        assert report.cache_hits > 0
        assert report.completed_count == 29
        assert len(check_pair_calls) == 29
        assert set(check_pair_calls) == set(service._executors.values())

    def test_zero_bin_request_is_rejected_at_eps_zero(self):
        """At eps=0 a constant x used to complete with NaN scores."""
        requests, bad = self._replaced(trace(count=6, seed=20), 3, x=np.full(SHAPE, 3.0))
        report = make_service(eps=0.0).process(requests)
        self._check_one_rejected(report, bad, "the spectrum of x has a zero bin")
        # Any positive eps regularizes it, and the request completes.
        assert make_service(eps=1e-8).process(requests).rejected_count == 0

    def test_service_validation(self):
        with pytest.raises(ValueError):
            make_service(granularity="pixels")
        with pytest.raises(ValueError):
            ExplanationService(CpuDevice(), granularity="blocks")
        with pytest.raises(ValueError):
            make_service(reduction="magic")
        # Bad fleet and batching options raise at construction, not at
        # the first request or process() call.
        with pytest.raises(ValueError, match="hbm_bytes"):
            ExplanationService(CpuDevice(), granularity="columns", hbm_bytes=0)
        with pytest.raises(ValueError, match="max_batch_pairs"):
            make_service(max_batch_pairs=0)
        with pytest.raises(ValueError, match="max_wait_seconds"):
            make_service(max_wait_seconds=-1)
        with pytest.raises(ValueError, match="weight"):
            make_service(key_weights={("blocks", BLOCK, None): 0.0})
