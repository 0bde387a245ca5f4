"""The serving autopilot: controller law, SLO sweep, fairness.

The PR-9 tentpole contracts:

* the AIMD :class:`BatchController` law moves each knob for the
  documented reason and no other (unit tests on synthetic records);
* across the bursty arrival-rate sweep the autopilot meets a p95
  target that **every** static ``(max_wait_seconds, max_batch_pairs)``
  setting misses at one rate or more, with goodput no worse than the
  best static at the seeded 400 req/s trace;
* weighted-fair dispatch improves every starved key's p99 against the
  FIFO baseline on a hot-key trace; and
* all of it bit-identically: controller on/off and fair/fifo never
  change a single explanation score -- and identical
  seeded traces replay identical :meth:`ServiceReport.signature`\\ s
  across repeat-fraction and burstiness settings.
"""

import numpy as np
import pytest

from repro.core.backend import TpuBackend, make_tpu_chip
from repro.serve import (
    AdmissionController,
    BatchController,
    ExplanationService,
    MicroBatcher,
    Request,
    RequestRecord,
    bursty_requests,
    merge_traces,
    poisson_requests,
)

SHAPE = (16, 16)
BLOCK = (4, 4)
TARGET_P95 = 0.09  # seconds: under the ~100ms the default static pays at 400/s
SWEEP_RATES = (100.0, 400.0, 1600.0)


def small_backend(num_cores=8):
    return TpuBackend(
        make_tpu_chip(num_cores=num_cores, precision="fp32", mxu_rows=8, mxu_cols=8)
    )


def make_service(**kwargs):
    config = dict(
        granularity="blocks", block_shape=BLOCK, eps=1e-8,
        cache_max_bytes=None,
    )
    config.update(kwargs)
    return ExplanationService(small_backend(), **config)


def bursty_trace(rate, count=120, seed=7, **kwargs):
    """The seeded bursty sweep trace: 20-request bursts at ``rate`` req/s."""
    return bursty_requests(
        count, burst_size=20, burst_gap=20.0 / rate, seed=seed, shape=SHAPE,
        **kwargs,
    )


def assert_scores_equal(report_a, report_b):
    a, b = report_a.results_by_id(), report_b.results_by_id()
    assert a.keys() == b.keys()
    for request_id in a:
        np.testing.assert_array_equal(a[request_id].scores, b[request_id].scores)
        np.testing.assert_array_equal(a[request_id].kernel, b[request_id].kernel)
        assert a[request_id].residual == b[request_id].residual


# ----------------------------------------------------------------------
# The control law, knob by knob (synthetic records)
# ----------------------------------------------------------------------

KEY = ("blocks", (4, 4), None)


def _records(
    count,
    arrival=0.0,
    enqueues=None,
    dispatch=0.0,
    completion=0.05,
):
    enqueues = enqueues if enqueues is not None else [arrival] * count
    return [
        RequestRecord(
            request_id=i,
            arrival_time=arrival,
            status="completed",
            batch_key=KEY,
            enqueue_time=enqueues[i],
            dispatch_time=dispatch,
            completion_time=completion,
            dispatch_index=0,
        )
        for i in range(count)
    ]


class TestControlLaw:
    def test_fresh_key_gets_the_base_policy(self):
        controller = BatchController(
            base_wait_seconds=0.02, base_batch_pairs=16
        )
        assert controller.policy("any-key") == (0.02, 16)
        assert controller.policies() == {"any-key": (0.02, 16)}

    def test_full_dispatch_doubles_the_cap(self):
        controller = BatchController(
            target_p95_seconds=0.1, base_batch_pairs=4, max_batch_pairs=64
        )
        controller.observe(KEY, _records(4, completion=0.05))
        assert controller.policy(KEY)[1] == 8
        controller.observe(KEY, _records(8, completion=0.05))
        assert controller.policy(KEY)[1] == 16

    def test_cap_doubling_clamps_at_the_maximum(self):
        controller = BatchController(base_batch_pairs=48, max_batch_pairs=64)
        controller.observe(KEY, _records(48, completion=0.05))
        assert controller.policy(KEY)[1] == 64

    def test_service_dominant_overshoot_halves_the_cap(self):
        controller = BatchController(
            target_p95_seconds=0.1, base_batch_pairs=8
        )
        # Non-full batch whose own device time alone blows the SLO.
        controller.observe(KEY, _records(2, dispatch=0.0, completion=0.3))
        assert controller.policy(KEY)[1] == 4

    def test_window_dominant_overshoot_shrinks_the_wait(self):
        controller = BatchController(
            target_p95_seconds=0.1, base_wait_seconds=0.08,
            decrease_factor=0.5,
        )
        # Latency over target, dominated by dispatch - enqueue.
        controller.observe(
            KEY, _records(2, dispatch=0.15, completion=0.16)
        )
        assert controller.policy(KEY)[0] == pytest.approx(0.04)

    def test_queue_dominant_non_full_overshoot_widens_the_wait(self):
        controller = BatchController(
            target_p95_seconds=0.1, base_wait_seconds=0.02,
            base_batch_pairs=8, wait_step_seconds=0.005,
        )
        # Requests queued behind dispatches (enqueue far after arrival)
        # and the batch was not full: coalesce harder.
        controller.observe(
            KEY,
            _records(
                2, arrival=0.0, enqueues=[0.15, 0.15],
                dispatch=0.16, completion=0.2,
            ),
        )
        assert controller.policy(KEY)[0] == pytest.approx(0.025)
        assert controller.policy(KEY)[1] == 8  # cap untouched

    def test_under_target_with_window_spanning_arrivals_widens_the_wait(self):
        controller = BatchController(
            target_p95_seconds=0.1, base_wait_seconds=0.02,
            wait_step_seconds=0.005, headroom=0.7,
        )
        # Comfortably under target and the batch spans >=80% of the
        # window: spend the headroom on width.
        controller.observe(
            KEY,
            _records(2, enqueues=[0.0, 0.018], dispatch=0.02, completion=0.05),
        )
        assert controller.policy(KEY)[0] == pytest.approx(0.025)

    def test_under_target_fully_coalesced_burst_leaves_the_wait_alone(self):
        controller = BatchController(
            target_p95_seconds=0.1, base_wait_seconds=0.02
        )
        # Under target but every enqueue is simultaneous (a closed
        # burst already fully coalesced): a longer wait buys nothing.
        controller.observe(
            KEY, _records(2, enqueues=[0.0, 0.0], dispatch=0.02, completion=0.05)
        )
        assert controller.policy(KEY)[0] == pytest.approx(0.02)

    def test_empty_observation_is_a_no_op(self):
        controller = BatchController()
        controller.observe(KEY, [])
        assert controller.policies() == {}

    def test_keys_are_steered_independently(self):
        controller = BatchController(base_batch_pairs=4)
        controller.observe("hot", _records(4, completion=0.05))
        assert controller.policy("hot")[1] == 8
        assert controller.policy("cold")[1] == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            BatchController(target_p95_seconds=0.0)
        with pytest.raises(ValueError):
            BatchController(min_wait_seconds=0.3, max_wait_seconds=0.2)
        with pytest.raises(ValueError):
            BatchController(min_batch_pairs=8, max_batch_pairs=4)
        with pytest.raises(ValueError):
            BatchController(window=0)
        with pytest.raises(ValueError):
            BatchController(decrease_factor=1.0)
        with pytest.raises(ValueError):
            BatchController(headroom=0.0)


# ----------------------------------------------------------------------
# The autopilot acceptance sweep
# ----------------------------------------------------------------------

STATIC_GRID = {
    "default": dict(max_wait_seconds=0.05, max_batch_pairs=32),
    "tight": dict(max_wait_seconds=0.01, max_batch_pairs=8),
    "serial": dict(max_wait_seconds=0.0, max_batch_pairs=1),
}


class TestAutopilotSweep:
    def _sweep(self):
        """p95/goodput per config per rate, plus the 400 req/s reports."""
        p95s: dict[str, dict[float, float]] = {}
        goodputs: dict[str, dict[float, float]] = {}
        at_400: dict[str, object] = {}
        configs = dict(STATIC_GRID)
        configs["autopilot"] = None
        for name, static in configs.items():
            p95s[name], goodputs[name] = {}, {}
            for rate in SWEEP_RATES:
                if static is None:
                    service = make_service(
                        controller=BatchController(target_p95_seconds=TARGET_P95)
                    )
                else:
                    service = make_service(**static)
                report = service.process(bursty_trace(rate))
                p95s[name][rate] = report.p95
                goodputs[name][rate] = report.goodput
                if rate == 400.0:
                    at_400[name] = report
        return p95s, goodputs, at_400

    def test_autopilot_meets_the_target_every_static_misses_somewhere(self):
        p95s, goodputs, at_400 = self._sweep()
        # The autopilot holds the SLO at every swept rate...
        for rate in SWEEP_RATES:
            assert p95s["autopilot"][rate] <= TARGET_P95, (
                f"autopilot p95 {p95s['autopilot'][rate]:.4f}s at {rate}/s"
            )
        # ...while every static setting (including the best one) misses
        # it at one rate or more: no single static pair covers the sweep.
        for name in STATIC_GRID:
            missed = [r for r in SWEEP_RATES if p95s[name][r] > TARGET_P95]
            assert missed, f"static {name!r} unexpectedly met the SLO everywhere"
        # Goodput at the seeded 400 req/s bursty trace is no worse than
        # any static setting's.
        best_static = max(goodputs[name][400.0] for name in STATIC_GRID)
        assert goodputs["autopilot"][400.0] >= best_static
        # And the autopilot moved only the schedule, never the scores.
        assert_scores_equal(at_400["autopilot"], at_400["default"])

    def test_controller_state_is_consulted_live(self):
        """The batcher reads the controller's policy per decision: after
        a saturating trace the hot key's cap must have grown."""
        controller = BatchController(
            target_p95_seconds=TARGET_P95, base_batch_pairs=16
        )
        make_service(controller=controller).process(bursty_trace(1600.0))
        policies = controller.policies()
        assert policies  # the served key was observed
        (policy,) = policies.values()
        assert policy[1] > 16  # saturation doubled the cap at least once


# ----------------------------------------------------------------------
# Per-key fairness
# ----------------------------------------------------------------------


def hot_key_trace():
    """Aligned bursts: every 100ms, 40 hot blocks requests contend with
    4 rows and 4 columns requests (distinct batch keys)."""
    hot = bursty_requests(160, burst_size=40, burst_gap=0.1, seed=3, shape=SHAPE)
    rows = bursty_requests(
        16, burst_size=4, burst_gap=0.1, seed=4, shape=SHAPE, granularity="rows"
    )
    cols = bursty_requests(
        16, burst_size=4, burst_gap=0.1, seed=5, shape=SHAPE,
        granularity="columns",
    )
    return merge_traces(hot, rows, cols)


class TestFairness:
    def test_fair_dispatch_improves_every_starved_keys_p99(self, monkeypatch):
        trace = hot_key_trace()

        def serve():
            return make_service(max_wait_seconds=0.02, max_batch_pairs=16).process(trace)

        # The baseline is plain first-seen key order, under which the
        # hot key, seen first, heads every contended round.
        with monkeypatch.context() as patch:
            patch.setattr(
                MicroBatcher, "_dispatch_order",
                lambda self, keys: sorted(keys, key=self._order.__getitem__),
            )
            reports = {"fifo": serve()}
        reports["fair"] = serve()
        hot_key = ("blocks", BLOCK, None)
        starved = [
            key for key in reports["fifo"].ledger.batch_keys()
            if key != hot_key
        ]
        assert len(starved) == 2  # rows and columns both served
        for key in starved:
            fifo_p99 = reports["fifo"].ledger.percentile_for(key, 99)
            fair_p99 = reports["fair"].ledger.percentile_for(key, 99)
            assert fair_p99 < fifo_p99, (
                f"{key[0]}: fair p99 {fair_p99:.4f}s !< fifo {fifo_p99:.4f}s"
            )
        # Fairness reorders dispatches; it must not touch a single score.
        assert_scores_equal(reports["fifo"], reports["fair"])
        # Everybody still completes under both policies.
        for report in reports.values():
            assert report.completed_count == len(trace)

    def test_key_weights_shift_service_toward_the_weighted_key(self):
        trace = hot_key_trace()
        rows_key = ("rows", None, None)
        unweighted = make_service(
            max_wait_seconds=0.02, max_batch_pairs=16
        ).process(trace)
        weighted = make_service(
            max_wait_seconds=0.02, max_batch_pairs=16,
            key_weights={("blocks", BLOCK, None): 100.0},
        ).process(trace)
        # Weighting the hot key ~infinitely keeps its credit near zero,
        # so it stops yielding rounds -- the rows key slips back toward
        # (or past) its FIFO latency.
        assert (
            weighted.ledger.percentile_for(rows_key, 99)
            > unweighted.ledger.percentile_for(rows_key, 99)
        )
        assert_scores_equal(unweighted, weighted)

    def test_per_key_admission_budget_sheds_only_the_hot_key(self):
        # One burst: 8 hot blocks requests and 2 rows requests arrive
        # together; a per-key depth budget of 2 rejects only the hot
        # key's overflow.
        hot = bursty_requests(8, burst_size=8, burst_gap=1.0, seed=1, shape=SHAPE)
        side = bursty_requests(
            2, burst_size=2, burst_gap=1.0, seed=2, shape=SHAPE,
            granularity="rows",
        )
        trace = merge_traces(hot, side)
        report = make_service(
            admission=AdmissionController(max_queue_depth_per_key=2),
        ).process(trace)
        assert report.completed_count == 4  # two per key
        assert report.rejected_count == 6
        for record in report.ledger.rejected:
            assert record.batch_key[0] == "blocks"  # only the hot key shed
            assert "per-key" in record.reject_reason


# ----------------------------------------------------------------------
# Determinism and the idle-drain clock contract
# ----------------------------------------------------------------------


class TestDeterminismAcrossModes:
    @pytest.mark.parametrize("with_controller", (False, True))
    @pytest.mark.parametrize(
        "trace_kind",
        ("poisson", "poisson-repeats", "bursty", "bursty-jitter"),
    )
    def test_identical_traces_replay_identical_report_signatures(
        self, with_controller, trace_kind
    ):
        def build_trace():
            if trace_kind == "poisson":
                return poisson_requests(40, rate=400.0, seed=9, shape=SHAPE)
            if trace_kind == "poisson-repeats":
                return poisson_requests(
                    40, rate=400.0, seed=9, shape=SHAPE, repeat_fraction=0.5
                )
            if trace_kind == "bursty":
                return bursty_requests(
                    40, burst_size=10, burst_gap=0.1, seed=9, shape=SHAPE
                )
            return bursty_requests(
                40, burst_size=10, burst_gap=0.1, seed=9, shape=SHAPE,
                jitter=0.03,
            )

        def run():
            kwargs = dict(cache_max_bytes=1 << 20)
            if with_controller:
                kwargs["controller"] = BatchController(
                    target_p95_seconds=TARGET_P95
                )
            return make_service(**kwargs).process(build_trace())

        first, second = run(), run()
        assert first.signature() == second.signature()
        assert_scores_equal(first, second)

    def test_controller_changes_the_schedule_not_the_scores(self):
        trace = bursty_trace(400.0, count=60)
        static = make_service(**STATIC_GRID["default"]).process(trace)
        piloted = make_service(
            controller=BatchController(target_p95_seconds=TARGET_P95)
        ).process(trace)
        assert static.ledger.signature() != piloted.ledger.signature()
        assert_scores_equal(static, piloted)


class TestIdleDrainClock:
    def test_drain_never_advances_past_the_last_completion(self):
        # A single closed burst: with flush-on-drain the batch must
        # dispatch at the last arrival instant, not after burning the
        # 50ms max-wait window, and the report's makespan must equal
        # the last completion timestamp exactly.
        trace = bursty_requests(5, burst_size=5, burst_gap=1.0, seed=4, shape=SHAPE)
        report = make_service(
            max_wait_seconds=0.05, max_batch_pairs=16
        ).process(trace)
        assert report.completed_count == 5
        last_completion = max(
            r.completion_time for r in report.ledger.completed
        )
        assert report.elapsed_seconds == last_completion
        for record in report.ledger.completed:
            assert record.dispatch_time == record.enqueue_time == 0.0

    def test_flush_on_drain_with_a_non_empty_queue_completes_everything(self):
        # The trace ends while a queue is mid-window; every pending
        # request must still complete, immediately.
        trace = poisson_requests(17, rate=200.0, seed=5, shape=SHAPE)
        report = make_service(
            max_wait_seconds=0.5, max_batch_pairs=64
        ).process(trace)
        assert report.completed_count == len(trace)
        last_arrival = max(r.arrival_time for r in trace)
        last_completion = max(
            r.completion_time for r in report.ledger.completed
        )
        assert report.elapsed_seconds == last_completion
        # The final flush happened at trace exhaustion, not after the
        # 500ms window expired.
        assert last_completion < last_arrival + 0.5

    def test_an_idle_gap_spends_no_clock_before_the_next_arrival(self):
        # Nothing runs while the queues are empty: a request arriving
        # after a long gap is enqueued at its own arrival time, whether
        # the cache answers it or it waits for a dispatch.
        rng = np.random.default_rng(8)
        x, y = rng.standard_normal(SHAPE), rng.standard_normal(SHAPE)
        fresh = rng.standard_normal(SHAPE), rng.standard_normal(SHAPE)
        trace = [
            Request(0, 0.0, x, y),
            Request(1, 2.0, x, y),
            Request(2, 2.0, *fresh),
        ]
        report = make_service(cache_max_bytes=1 << 20).process(trace)
        records = {r.request_id: r for r in report.ledger.completed}
        assert records[0].completion_time < 1.0  # the gap really is idle
        assert records[1].cache_hit and not records[2].cache_hit
        for request_id in (1, 2):
            record = records[request_id]
            assert record.enqueue_time == record.arrival_time == 2.0
        assert records[2].dispatch_time == 2.0
