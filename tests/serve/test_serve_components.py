"""Unit tests for the serving-layer components (clock, workload, cache,
admission, batcher) -- the pieces the event loop composes."""

import dataclasses
import gc
import inspect

import numpy as np
import pytest

from repro.core.fleet import CheckedPair, PairResult
from repro.serve import (
    AdmissionController,
    BatchKey,
    ExplanationCache,
    MicroBatcher,
    QueuedRequest,
    Request,
    SimulatedClock,
    bursty_requests,
    explanation_digest,
    poisson_requests,
    result_nbytes,
)
from repro.serve.cache import DigestMemo
from repro.serve.metrics import RequestRecord
from tests.serve.traces import merge_traces


class TestSimulatedClock:
    def test_starts_at_zero_and_advances(self):
        clock = SimulatedClock()
        assert clock.now == 0.0
        assert clock.advance(1.5) == 1.5
        assert clock.advance_to(3.0) == 3.0

    def test_never_moves_backwards(self):
        clock = SimulatedClock(start=2.0)
        assert clock.advance_to(1.0) == 2.0  # the past is a no-op
        assert clock.now == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            SimulatedClock(start=-1.0)
        with pytest.raises(ValueError):
            SimulatedClock().advance(-0.1)


class TestWorkloads:
    def test_poisson_trace_is_deterministic(self):
        a = poisson_requests(20, rate=100.0, seed=7)
        b = poisson_requests(20, rate=100.0, seed=7)
        assert [r.arrival_time for r in a] == [r.arrival_time for r in b]
        for ra, rb in zip(a, b):
            np.testing.assert_array_equal(ra.x, rb.x)
            np.testing.assert_array_equal(ra.y, rb.y)

    def test_different_seeds_differ(self):
        a = poisson_requests(20, rate=100.0, seed=7)
        b = poisson_requests(20, rate=100.0, seed=8)
        assert [r.arrival_time for r in a] != [r.arrival_time for r in b]

    def test_arrivals_are_sorted_and_positive(self):
        trace = poisson_requests(50, rate=500.0, seed=1)
        arrivals = [r.arrival_time for r in trace]
        assert arrivals == sorted(arrivals)
        assert all(t > 0 for t in arrivals)

    def test_repeat_fraction_repeats_exact_arrays(self):
        trace = poisson_requests(40, rate=100.0, seed=3, repeat_fraction=0.5)
        digests = [
            explanation_digest(
                r.x, r.y, granularity="blocks", block_shape=(4, 4),
                precision_name=None, eps=1e-8, reduction="l2", fill_value=0.0,
            )
            for r in trace
        ]
        assert len(set(digests)) < len(digests)  # genuine byte-level repeats

    def test_bursty_arrival_times(self):
        trace = bursty_requests(6, burst_size=3, burst_gap=2.0, seed=0)
        assert [r.arrival_time for r in trace] == [0.0, 0.0, 0.0, 2.0, 2.0, 2.0]

    def test_precisions_draw_from_the_given_modes(self):
        trace = poisson_requests(
            30, rate=100.0, seed=5, precisions=("fp64", "int8")
        )
        names = {r.precision for r in trace}
        assert names == {"fp64", "int8"}

    def test_zero_jitter_is_bit_identical_to_the_unjittered_trace(self):
        plain = bursty_requests(9, burst_size=3, burst_gap=1.0, seed=6)
        zero = bursty_requests(9, burst_size=3, burst_gap=1.0, seed=6, jitter=0.0)
        assert [r.arrival_time for r in plain] == [r.arrival_time for r in zero]
        for a, b in zip(plain, zero):
            np.testing.assert_array_equal(a.x, b.x)
            np.testing.assert_array_equal(a.y, b.y)

    def test_jitter_smears_bursts_within_the_window_deterministically(self):
        a = bursty_requests(9, burst_size=3, burst_gap=1.0, seed=6, jitter=0.2)
        b = bursty_requests(9, burst_size=3, burst_gap=1.0, seed=6, jitter=0.2)
        assert [r.arrival_time for r in a] == [r.arrival_time for r in b]
        arrivals = [r.arrival_time for r in a]
        assert arrivals == sorted(arrivals)
        assert len(set(arrivals)) == len(arrivals)  # no longer simultaneous
        # Each arrival sits within [burst instant, burst instant + jitter).
        for arrival in arrivals:
            assert arrival % 1.0 < 0.2

    def test_merge_traces_interleaves_and_renumbers(self):
        first = bursty_requests(4, burst_size=2, burst_gap=1.0, seed=1)
        second = poisson_requests(4, rate=2.0, seed=2, granularity="rows")
        merged = merge_traces(first, second)
        assert len(merged) == 8
        arrivals = [r.arrival_time for r in merged]
        assert arrivals == sorted(arrivals)
        assert [r.request_id for r in merged] == list(range(8))
        # Per-request overrides ride along untouched.
        assert sum(r.granularity == "rows" for r in merged) == 4

    def test_merge_traces_breaks_ties_by_trace_order(self):
        first = bursty_requests(2, burst_size=2, burst_gap=1.0, seed=1)
        second = bursty_requests(
            2, burst_size=2, burst_gap=1.0, seed=2, granularity="rows"
        )
        merged = merge_traces(first, second)
        assert [r.granularity for r in merged] == [None, None, "rows", "rows"]

    def test_validation(self):
        with pytest.raises(ValueError):
            poisson_requests(10, rate=0.0)
        with pytest.raises(ValueError):
            poisson_requests(-1, rate=1.0)
        with pytest.raises(ValueError):
            bursty_requests(10, burst_size=0, burst_gap=1.0)
        with pytest.raises(ValueError):
            bursty_requests(10, burst_size=2, burst_gap=1.0, jitter=-0.1)
        with pytest.raises(ValueError):
            poisson_requests(10, rate=1.0, precisions=())
        with pytest.raises(ValueError):
            Request(request_id=0, arrival_time=-1.0, x=np.ones((2, 2)), y=np.ones((2, 2)))
        assert poisson_requests(0, rate=1.0) == []
        assert merge_traces() == []

    def test_bursty_rejects_a_negative_count_or_gap(self):
        with pytest.raises(ValueError, match="count cannot be negative"):
            bursty_requests(-1, burst_size=2, burst_gap=1.0)
        with pytest.raises(ValueError, match="burst gap cannot be negative"):
            bursty_requests(4, burst_size=2, burst_gap=-1.0)
        assert bursty_requests(0, burst_size=2, burst_gap=1.0) == []


class TestDigestMemo:
    def test_computes_once_per_live_pair_and_config(self):
        memo = DigestMemo()
        x, y = np.ones((2, 2)), np.zeros((2, 2))
        calls = []

        def compute():
            calls.append(None)
            return f"digest {len(calls)}"

        assert memo.lookup(x, y, "cfg", compute) == "digest 1"
        assert memo.lookup(x, y, "cfg", compute) == "digest 1"
        assert len(calls) == 1 and len(memo) == 1
        assert memo.lookup(x, y, "other", compute) == "digest 2"
        assert memo.lookup(x.copy(), y, "cfg", compute) == "digest 3"
        assert len(calls) == 3

    def test_forgets_a_pair_once_a_plane_is_collected(self):
        memo = DigestMemo()
        x, y = np.ones((2, 2)), np.zeros((2, 2))
        memo.lookup(x, y, "cfg", lambda: "digest")
        assert len(memo) == 1
        del x
        gc.collect()
        assert len(memo) == 0

    def test_planes_it_cannot_weakly_reference_are_recomputed(self):
        memo = DigestMemo()
        x, y = [[1.0]], [[2.0]]  # lists take no weak references
        calls = []
        for _ in range(2):
            assert memo.lookup(x, y, "cfg", lambda: calls.append(None) or "d") == "d"
        assert len(calls) == 2 and len(memo) == 0


def _result(seed=0, shape=(4, 4)):
    rng = np.random.default_rng(seed)
    return PairResult(
        kernel=rng.standard_normal(shape),
        scores=rng.standard_normal(shape),
        residual=float(rng.standard_normal()),
    )


class TestExplanationCache:
    def test_len_and_repr_track_entries_and_counters(self):
        cache = ExplanationCache(max_bytes=1 << 20)
        cache.put("a", _result(0))
        cache.put("b", _result(1))
        cache.get("a")
        cache.get("missing")
        assert len(cache) == 2 and "a" in cache and "missing" not in cache
        assert repr(cache) == (
            f"<ExplanationCache 2 entries, {cache.current_bytes}/{1 << 20} bytes, "
            "1 hits / 1 misses / 0 evictions>"
        )

    def test_roundtrip_returns_the_exact_stored_result(self):
        cache = ExplanationCache(max_bytes=1 << 20)
        result = _result()
        assert cache.put("k", result)
        hit = cache.get("k")
        assert hit is result  # the very arrays: bit-identity by construction
        assert cache.hits == 1 and cache.misses == 0

    def test_miss_counts(self):
        cache = ExplanationCache()
        assert cache.get("absent") is None
        assert cache.misses == 1

    def test_digest_sensitivity(self):
        x = np.ones((4, 4))
        y = np.ones((4, 4))
        base = dict(
            granularity="blocks", block_shape=(2, 2), precision_name=None,
            eps=1e-6, reduction="l2", fill_value=0.0,
        )
        reference = explanation_digest(x, y, **base)
        # Byte-equal inputs under the same config collide.
        assert explanation_digest(x.copy(), y.copy(), **base) == reference
        # One flipped bit, or any config change, lands elsewhere.
        flipped = x.copy()
        flipped[0, 0] += 1e-12
        assert explanation_digest(flipped, y, **base) != reference
        assert (
            explanation_digest(x, y, **{**base, "precision_name": "int8"})
            != reference
        )
        assert (
            explanation_digest(x, y, **{**base, "fill_value": 1.0})
            != reference
        )
        # The embedding strategy lifts vector outputs differently, so
        # services sharing one cache with different embeddings must not
        # collide on the same planes.
        assert (
            explanation_digest(x, y, **base, embedding_strategy="tile")
            != explanation_digest(x, y, **base, embedding_strategy="spatial")
        )

    def test_float64_digest_is_pinned(self):
        """Only padded dtypes changed how they hash: the serve trace
        artifact records float64 request digests."""
        x = np.arange(16.0).reshape(4, 4)
        assert explanation_digest(
            x, x[::-1], granularity="blocks", block_shape=(2, 2),
            precision_name=None, eps=1e-6, reduction="l2", fill_value=0.0,
        ) == "42a4e2eda198cac8613dfc2cb1af84af9ce7231d069dbdee1ae2a6b39325cbe3"

    def test_longdouble_padding_bytes_do_not_split_a_digest(self, padded_twins):
        a, b = padded_twins
        config = dict(
            granularity="rows", block_shape=None, precision_name=None,
            eps=1e-6, reduction="l2", fill_value=0.0,
        )
        assert explanation_digest(a, b, **config) == explanation_digest(b, a, **config)
        assert explanation_digest(a, a.real, **config) == explanation_digest(
            b, b.real, **config
        )

    def test_cached_arrays_are_frozen_read_only(self):
        """A client mutating its response must fail loudly instead of
        silently poisoning every later hit for that digest."""
        cache = ExplanationCache()
        result = _result()
        cache.put("k", result)
        hit = cache.get("k")
        with pytest.raises(ValueError):
            hit.scores[0, 0] = 0.0
        with pytest.raises(ValueError):
            hit.kernel[0, 0] = 0.0

    def test_lru_eviction_under_byte_budget(self):
        entry = _result()
        budget = 3 * result_nbytes(entry)
        cache = ExplanationCache(max_bytes=budget)
        for name in ("a", "b", "c"):
            cache.put(name, _result())
        cache.get("a")  # refresh: "b" becomes the least recently used
        cache.put("d", _result())
        assert "b" not in cache
        assert all(name in cache for name in ("a", "c", "d"))
        assert cache.evictions == 1
        assert cache.current_bytes <= budget

    def test_oversize_entry_is_not_cached(self):
        entry = _result()
        cache = ExplanationCache(max_bytes=result_nbytes(entry) - 1)
        assert not cache.put("big", entry)
        assert "big" not in cache

    def test_validation(self):
        with pytest.raises(ValueError):
            ExplanationCache(max_bytes=0)


class TestAdmissionController:
    def test_default_admits_everything(self):
        decision = AdmissionController().admit(10**9, 10**6, 10**12)
        assert decision.admitted

    def test_queue_depth_limit(self):
        controller = AdmissionController(max_queue_depth=4)
        assert controller.admit(100, queue_depth=3, queued_bytes=0).admitted
        rejected = controller.admit(100, queue_depth=4, queued_bytes=0)
        assert not rejected.admitted
        assert "depth" in rejected.reason

    def test_byte_budget_limit(self):
        controller = AdmissionController(max_queued_bytes=1000)
        assert controller.admit(400, queue_depth=0, queued_bytes=600).admitted
        rejected = controller.admit(401, queue_depth=0, queued_bytes=600)
        assert not rejected.admitted
        assert "byte" in rejected.reason

    def test_per_key_depth_budget(self):
        controller = AdmissionController(max_queue_depth_per_key=2)
        assert controller.admit(
            100, queue_depth=50, queued_bytes=0, key_depth=1
        ).admitted
        rejected = controller.admit(
            100, queue_depth=50, queued_bytes=0, key_depth=2
        )
        assert not rejected.admitted
        assert "per-key" in rejected.reason and "depth" in rejected.reason

    def test_per_key_byte_budget(self):
        controller = AdmissionController(max_queued_bytes_per_key=1000)
        assert controller.admit(
            400, queue_depth=0, queued_bytes=10**9, key_bytes=600
        ).admitted
        rejected = controller.admit(
            401, queue_depth=0, queued_bytes=0, key_bytes=600
        )
        assert not rejected.admitted
        assert "per-key" in rejected.reason and "byte" in rejected.reason

    def test_global_and_per_key_budgets_compose(self):
        controller = AdmissionController(
            max_queue_depth=10, max_queue_depth_per_key=2
        )
        # Global bound trips first when the whole host is full...
        assert not controller.admit(
            0, queue_depth=10, queued_bytes=0, key_depth=0
        ).admitted
        # ...and the per-key bound trips even with global headroom.
        assert not controller.admit(
            0, queue_depth=5, queued_bytes=0, key_depth=2
        ).admitted
        assert controller.admit(
            0, queue_depth=5, queued_bytes=0, key_depth=1
        ).admitted

    def test_omitted_key_pressure_disarms_the_per_key_bounds(self):
        controller = AdmissionController(max_queue_depth_per_key=1)
        assert controller.admit(100, queue_depth=50, queued_bytes=0).admitted

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(max_queue_depth=0)
        with pytest.raises(ValueError):
            AdmissionController(max_queued_bytes=0)
        with pytest.raises(ValueError):
            AdmissionController(max_queue_depth_per_key=0)
        with pytest.raises(ValueError):
            AdmissionController(max_queued_bytes_per_key=-1)


def _queued(request_id, enqueue_time, nbytes=100):
    request = Request(
        request_id=request_id, arrival_time=enqueue_time,
        x=np.ones((4, 4)), y=np.ones((4, 4)),
    )
    return QueuedRequest(
        request=request, enqueue_time=enqueue_time,
        feed_nbytes=nbytes, pair=None, digest=None,
    )


KEY = BatchKey(granularity="columns", block_shape=None, precision=None)


class TestMicroBatcher:
    def test_deadline_tracks_the_oldest_request(self):
        batcher = MicroBatcher(max_wait_seconds=0.5, max_batch_pairs=8)
        assert batcher.next_deadline() == float("inf")
        batcher.enqueue(KEY, _queued(0, enqueue_time=1.0))
        batcher.enqueue(KEY, _queued(1, enqueue_time=2.0))
        assert batcher.next_deadline() == 1.5

    def test_ripe_on_full_or_due(self):
        batcher = MicroBatcher(max_wait_seconds=0.5, max_batch_pairs=2)
        batcher.enqueue(KEY, _queued(0, enqueue_time=0.0))
        assert batcher.ripe_keys(0.4) == []
        assert batcher.ripe_keys(0.5) == [KEY]  # due
        batcher.enqueue(KEY, _queued(1, enqueue_time=0.1))
        assert batcher.ripe_keys(0.2) == [KEY]  # full

    def test_pop_caps_the_batch_and_keeps_the_remainder(self):
        batcher = MicroBatcher(max_wait_seconds=0.5, max_batch_pairs=2)
        for i in range(5):
            batcher.enqueue(KEY, _queued(i, enqueue_time=float(i)))
        batch = batcher.pop(KEY)
        assert [q.request.request_id for q in batch] == [0, 1]
        assert batcher.pending_count == 3
        assert batcher.next_deadline() == 2.5  # the remainder's oldest

    def test_pending_bytes(self):
        batcher = MicroBatcher(max_batch_pairs=1)
        batcher.enqueue(KEY, _queued(0, 0.0, nbytes=300))
        batcher.enqueue(KEY, _queued(1, 0.0, nbytes=200))
        assert batcher.pending_bytes == 500
        assert batcher.pending_count == 2
        batcher.pop(KEY)  # releases the oldest request's 300 bytes
        assert batcher.pending_bytes == batcher.pending_bytes_for(KEY) == 200
        assert batcher.pending_count == 1

    def test_zero_max_wait_is_due_immediately(self):
        """max_wait_seconds=0: every enqueued request is ripe the moment
        it lands -- the per-request serial policy."""
        batcher = MicroBatcher(max_wait_seconds=0.0, max_batch_pairs=8)
        batcher.enqueue(KEY, _queued(0, enqueue_time=1.0))
        assert batcher.next_deadline() == 1.0
        assert batcher.ripe_keys(1.0) == [KEY]

    def test_max_batch_pairs_one_pops_single_requests_in_order(self):
        batcher = MicroBatcher(max_wait_seconds=0.5, max_batch_pairs=1)
        for i in range(3):
            batcher.enqueue(KEY, _queued(i, enqueue_time=float(i)))
        assert batcher.ripe_keys(0.0) == [KEY]  # full at a single request
        popped = []
        while batcher.pending_count:
            batch = batcher.pop(KEY)
            assert len(batch) == 1
            popped.append(batch[0].request.request_id)
        assert popped == [0, 1, 2]

    def test_drain_keys_lists_every_non_empty_queue(self):
        """The trace-exhausted flush path: drain_keys surfaces pending
        keys even when none is full or due yet."""
        other = BatchKey(granularity="rows", block_shape=None, precision=None)
        batcher = MicroBatcher(max_wait_seconds=10.0, max_batch_pairs=64)
        batcher.enqueue(KEY, _queued(0, enqueue_time=0.0))
        batcher.enqueue(other, _queued(1, enqueue_time=0.0))
        assert batcher.ripe_keys(0.1) == []  # neither full nor due
        assert set(batcher.drain_keys()) == {KEY, other}
        batcher.pop(KEY)
        assert batcher.drain_keys() == [other]
        batcher.pop(other)
        assert batcher.drain_keys() == []

    def test_mixed_key_interleaving_never_co_batches(self):
        """Requests enqueued alternately under two keys pop as two pure
        single-key batches -- keys never share a dispatch."""
        other = BatchKey(granularity="rows", block_shape=None, precision=None)
        batcher = MicroBatcher(max_wait_seconds=0.5, max_batch_pairs=8)
        for i in range(6):
            batcher.enqueue(KEY if i % 2 == 0 else other, _queued(i, 0.0))
        for key, expected in ((KEY, [0, 2, 4]), (other, [1, 3, 5])):
            batch = batcher.pop(key)
            assert [q.request.request_id for q in batch] == expected
        assert batcher.pending_count == 0

    def test_per_key_pressure_views(self):
        other = BatchKey(granularity="rows", block_shape=None, precision=None)
        batcher = MicroBatcher()
        batcher.enqueue(KEY, _queued(0, 0.0, nbytes=300))
        batcher.enqueue(KEY, _queued(1, 0.0, nbytes=200))
        batcher.enqueue(other, _queued(2, 0.0, nbytes=50))
        assert batcher.pending_count_for(KEY) == 2
        assert batcher.pending_bytes_for(KEY) == 500
        assert batcher.pending_count_for(other) == 1
        assert batcher.pending_bytes_for(other) == 50
        missing = BatchKey(granularity="elements", block_shape=None, precision=None)
        assert batcher.pending_count_for(missing) == 0
        assert batcher.pending_bytes_for(missing) == 0

    def test_fair_dispatch_yields_to_the_least_served_key(self):
        other = BatchKey(granularity="rows", block_shape=None, precision=None)
        batcher = MicroBatcher(max_wait_seconds=0.0)
        batcher.enqueue(KEY, _queued(0, 0.0))
        batcher.enqueue(other, _queued(1, 0.0))
        assert batcher.ripe_keys(0.0) == [KEY, other]  # credit tie: first seen
        batcher.pop(KEY)  # KEY accrues served credit
        batcher.enqueue(KEY, _queued(2, 0.0))
        assert batcher.ripe_keys(0.0) == [other, KEY]  # starved key first

    def test_fair_dispatch_weights_scale_served_credit(self):
        other = BatchKey(granularity="rows", block_shape=None, precision=None)
        batcher = MicroBatcher(max_wait_seconds=0.0, weights={KEY: 4.0})
        for i in range(4):
            batcher.enqueue(KEY, _queued(i, 0.0))
        batcher.pop(KEY)  # 4 pairs / weight 4 = 1 credit
        batcher.enqueue(other, _queued(4, 0.0))
        batcher.pop(other)  # 1 pair / weight 1 = 1 credit
        batcher.enqueue(KEY, _queued(5, 0.0))
        batcher.enqueue(other, _queued(6, 0.0))
        # Equal credit: first-seen breaks the tie, so the weighted hot
        # key dispatches first despite having served 4x the pairs.
        assert batcher.ripe_keys(0.0) == [KEY, other]

    def test_weights_accept_key_tuples(self):
        batcher = MicroBatcher(weights={KEY.as_tuple(): 2.0})
        assert batcher.weight_for(KEY) == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            MicroBatcher(max_wait_seconds=-1.0)
        with pytest.raises(ValueError):
            MicroBatcher(max_batch_pairs=0)
        with pytest.raises(ValueError):
            MicroBatcher(weights={KEY: 0.0})

    @pytest.mark.parametrize("value", [True, 2.5, 0, "2"], ids=repr)
    def test_max_batch_pairs_is_an_integer_of_at_least_one(self, value):
        """``True`` used to batch as 1 and 2.5 as 2."""
        with pytest.raises(ValueError, match=f"max_batch_pairs must be .* got {value!r}"):
            MicroBatcher(max_batch_pairs=value)
        assert MicroBatcher(max_batch_pairs=np.int64(3)).max_batch_pairs == 3


class TestFrozenRecords:
    """The per-request records keep the generated dataclass contract
    with their own ``__init__``: same parameters and defaults as the
    fields, frozen, equal and ``replace``-able."""

    RECORDS = {
        "PairResult": (PairResult, dict(kernel=np.ones(2), scores=np.ones(2), residual=0.5)),
        "CheckedPair": (CheckedPair, dict(
            x=np.ones(2), y=np.ones(2), y_plane=np.ones(2), plan=None, executor=None,
        )),
        "QueuedRequest": (QueuedRequest, dict(
            request=None, enqueue_time=1.0, feed_nbytes=8, pair=None, digest="d",
        )),
        "RequestRecord": (RequestRecord, dict(
            request_id=3, arrival_time=0.5, status="completed", completion_time=0.75,
        )),
    }

    @pytest.mark.parametrize("name", sorted(RECORDS))
    def test_init_matches_the_fields(self, name):
        cls, values = self.RECORDS[name]
        parameters = list(inspect.signature(cls).parameters.values())
        fields = dataclasses.fields(cls)
        assert [p.name for p in parameters] == [f.name for f in fields]
        for parameter, field in zip(parameters, fields):
            default = inspect.Parameter.empty if field.default is dataclasses.MISSING else field.default
            assert parameter.default == default
        record = cls(**values)
        for key, value in values.items():
            assert getattr(record, key) is value
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, fields[0].name, None)
        assert dataclasses.replace(record).__dict__.keys() == record.__dict__.keys()

    def test_a_record_still_checks_its_status(self):
        with pytest.raises(ValueError, match="unknown status 'lost'"):
            RequestRecord(1, 0.0, "lost")
