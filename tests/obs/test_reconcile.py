"""The acceptance invariant: span trees == pod ledger, exactly.

Every traced pod commit's spans must reproduce the ledger's elapsed
decomposition (max-over-chips body, launch floor, collective rows,
overlap credits) with ``==`` on floats, across every chip count and
placement axis.  And switching tracing off must be a bit-identical
no-op: same scores, same ``DeviceStats`` rows, same serve signature.
"""

import numpy as np
import pytest

from repro.core import FleetExecutor, TpuBackend, make_tpu_chip, make_tpu_pod
from repro.obs.reconcile import assert_reconciles, reconcile_pod_trace
from repro.obs.tracer import tracer
from repro.serve import (
    AdmissionController,
    BatchController,
    ExplanationService,
    bursty_requests,
)

PLANE = (16, 16)
BLOCK = (4, 4)


def fleet_pairs(count=12, seed=0):
    rng = np.random.default_rng(seed)
    return [
        (rng.standard_normal(PLANE), rng.standard_normal(PLANE))
        for _ in range(count)
    ]


def run_fleet(num_chips, placement, traced, max_pairs_per_wave=4, seed=0):
    # A real pod even at num_chips=1 (FleetExecutor's num_chips knob
    # keeps the single-device path there), so every chip count in the
    # matrix exercises the pod commit ledger.
    pod = make_tpu_pod(num_chips, num_cores=8)
    executor = FleetExecutor(
        pod, granularity="blocks", block_shape=BLOCK,
        placement=placement, max_pairs_per_wave=max_pairs_per_wave,
    )
    if traced:
        tracer.enable()
    run = executor.run(fleet_pairs(seed=seed))
    tracer.disable()
    return run, pod


def stats_tuple(stats):
    return (
        stats.seconds,
        stats.macs,
        stats.bytes_moved,
        dict(stats.op_counts),
        dict(stats.op_seconds),
    )


class TestPodReconciliation:
    @pytest.mark.parametrize("placement", ["data", "chunk", "wave"])
    @pytest.mark.parametrize("num_chips", [1, 2, 4, 8])
    def test_span_tree_equals_ledger(self, num_chips, placement):
        run, pod = run_fleet(num_chips, placement, traced=True)
        report = assert_reconciles(pod, tracer)
        assert report.num_commits == report.num_traced_commits > 0
        assert report.num_waves == len(pod.collective_log)
        assert report.checks > 0

    @pytest.mark.parametrize("multi_wave", [True, False])
    def test_serial_and_pipelined_both_reconcile(self, multi_wave):
        """Double-buffered waves, and one wave with nothing to overlap."""
        run, pod = run_fleet(
            2, "data", traced=True, max_pairs_per_wave=4 if multi_wave else None
        )
        assert (run.num_waves > 1) == multi_wave
        assert assert_reconciles(pod, tracer).ok

    def test_credit_flows_match_committed_credits(self):
        run, pod = run_fleet(4, "data", traced=True)
        credited = {
            op for commit in pod.commit_log for op, _ in commit.credits
        }
        flow_starts = {
            e.name for e in tracer.events
            if e.ph == "s" and e.category == "pod"
        }
        assert flow_starts == credited

    def test_untraced_commits_are_skipped_not_failed(self):
        pod = make_tpu_pod(2, num_cores=8)
        executor = FleetExecutor(
            pod, granularity="blocks", block_shape=BLOCK,
            placement="data", max_pairs_per_wave=4,
        )
        executor.run(fleet_pairs(count=4))  # untraced commit(s)
        tracer.enable()
        executor.run(fleet_pairs(count=4, seed=1))
        tracer.disable()
        report = reconcile_pod_trace(pod, tracer)
        assert report.ok
        assert report.num_traced_commits < report.num_commits

    def test_detects_a_tampered_span(self):
        run, pod = run_fleet(2, "data", traced=True)
        victim = next(
            i for i, e in enumerate(tracer.events)
            if e.category == "pod" and e.ph == "X" and e.name == "wave"
        )
        import dataclasses

        tracer.events[victim] = dataclasses.replace(
            tracer.events[victim], dur=tracer.events[victim].dur + 1e-9
        )
        report = reconcile_pod_trace(pod, tracer)
        assert not report.ok
        with pytest.raises(AssertionError):
            assert_reconciles(pod, tracer)


class TestTracingOffBitIdentity:
    @pytest.mark.parametrize("placement", ["data", "chunk", "wave"])
    def test_fleet_scores_and_ledger_identical(self, placement):
        on_run, on_pod = run_fleet(2, placement, traced=True)
        on_stats = stats_tuple(on_pod.stats)
        tracer.clear()
        off_run, off_pod = run_fleet(2, placement, traced=False)
        assert on_stats == stats_tuple(off_pod.stats)
        for a, b in zip(on_run.results, off_run.results):
            assert np.array_equal(a.scores, b.scores)
            assert np.array_equal(a.kernel, b.kernel)
            assert a.residual == b.residual

    def test_serve_signature_identical_and_reconciles(self):
        def run(traced):
            service = ExplanationService(
                TpuBackend(make_tpu_chip(num_cores=8)),
                granularity="blocks", block_shape=BLOCK,
                max_wait_seconds=0.05, max_batch_pairs=32,
                admission=AdmissionController(max_queue_depth=64),
                controller=BatchController(target_p95_seconds=0.05),
                num_chips=2, metrics_name=None,
            )
            trace = bursty_requests(
                count=36, burst_size=12, burst_gap=0.2, seed=3,
                shape=PLANE, repeat_fraction=0.3,
            )
            if traced:
                tracer.enable()
            report = service.process(trace)
            tracer.disable()
            return report, service

        on, service = run(True)
        recon = reconcile_pod_trace(service.device, tracer, stats=on.stats)
        assert recon.ok, recon.failures[:5]
        tracer.clear()
        off, _ = run(False)
        assert on.signature() == off.signature()


class TestServeTraceLanes:
    def test_traced_service_uses_exactly_its_three_lanes(self):
        service = ExplanationService(
            TpuBackend(make_tpu_chip(num_cores=8)),
            granularity="blocks", block_shape=BLOCK,
            controller=BatchController(target_p95_seconds=0.05),
            metrics_name=None,
        )
        trace = bursty_requests(
            count=24, burst_size=8, burst_gap=0.5, seed=3,
            shape=PLANE, repeat_fraction=0.3,
        )
        tracer.enable()
        service.process(trace)
        tracer.disable()
        lanes = {
            tid: name for (pid, tid), name in tracer.thread_names.items()
            if pid == 0
        }
        assert lanes == {0: "requests", 1: "dispatch", 2: "controller"}
        assert {event.tid for event in tracer.events if event.pid == 0} <= set(lanes)

    def test_each_shed_request_marks_one_instant_on_the_request_lane(self):
        service = ExplanationService(
            TpuBackend(make_tpu_chip(num_cores=8)),
            granularity="blocks", block_shape=BLOCK,
            admission=AdmissionController(max_queue_depth=2),
            metrics_name=None,
        )
        trace = bursty_requests(
            count=6, burst_size=6, burst_gap=1.0, seed=4, shape=PLANE,
        )
        tracer.enable()
        report = service.process(trace)
        tracer.disable()
        sheds = [e for e in tracer.events if e.name == "admission_shed"]
        assert {e.args["id"] for e in sheds} == {
            r.request_id for r in report.ledger.rejected
        }
        assert len(sheds) == report.rejected_count == 4
        for event in sheds:
            assert (event.ph, event.category, event.pid, event.tid, event.dur) == (
                "i", "serve", 0, 0, 0.0,
            )
            assert "queue depth" in event.args["reason"]
