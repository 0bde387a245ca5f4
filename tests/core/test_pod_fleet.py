"""Pod-sharded fleet execution: bit-identity, ledger shape, knobs.

The contract under test: sharding a fleet's waves across a pod of K
chips -- along any placement axis, at any precision -- changes only the
cost ledger, never a score, kernel or residual.  The ledger itself has
its own identities: sum-over-chips work is preserved in the audit rows,
and elapsed is the wave-stage walk (max-over-chips bodies plus the
remaining collectives), with the asynchronous host links hiding all but
one launch round trip per wave.
"""

import numpy as np
import pytest

from repro.core import (
    ExplanationPipeline,
    FleetExecutor,
    TpuBackend,
    make_tpu_chip,
    make_tpu_pod,
)
from repro.core.masking import MaskStackBudgetError
from repro.hw.device import pipelined_elapsed_seconds
from repro.hw.pod import HostLink, TpuPod, clone_device

PLANE = (8, 8)

PLACEMENTS = ["data", "chunk", "wave"]


def backend():
    return TpuBackend(make_tpu_chip(num_cores=8))


def fleet_pairs(count=7, shape=PLANE, seed=0):
    rng = np.random.default_rng(seed)
    return [
        (rng.standard_normal(shape), rng.standard_normal(shape))
        for _ in range(count)
    ]


def assert_identical(run_a, run_b, context=""):
    assert len(run_a.results) == len(run_b.results)
    for a, b in zip(run_a.results, run_b.results):
        assert np.array_equal(a.scores, b.scores), context
        assert np.array_equal(a.kernel, b.kernel), context
        assert a.residual == b.residual, context


class TestBitIdentity:
    @pytest.mark.parametrize("placement", PLACEMENTS)
    @pytest.mark.parametrize("num_chips", [1, 2, 4, 8])
    def test_scores_match_single_chip(self, placement, num_chips):
        pairs = fleet_pairs()
        reference = FleetExecutor(backend(), granularity="rows").run(pairs)
        sharded = FleetExecutor(
            backend(), granularity="rows",
            num_chips=num_chips, placement=placement,
        ).run(pairs)
        assert_identical(reference, sharded, f"{placement} x{num_chips}")

    @pytest.mark.parametrize("placement", PLACEMENTS)
    @pytest.mark.parametrize("num_chips", [1, 2, 4, 8])
    @pytest.mark.parametrize("precision", ["fp64", "bf16", "int8"])
    def test_precision_matrix_matches_single_chip(
        self, placement, num_chips, precision
    ):
        """The full identity matrix the scaling artifact certifies."""
        pairs = fleet_pairs(count=5, seed=1)
        reference = FleetExecutor(
            backend(), granularity="rows", precision=precision
        ).run(pairs)
        sharded = FleetExecutor(
            backend(), granularity="rows", precision=precision,
            num_chips=num_chips, placement=placement,
        ).run(pairs)
        assert_identical(
            reference, sharded, f"{placement} x{num_chips} {precision}"
        )

    @pytest.mark.parametrize("placement", PLACEMENTS)
    def test_multi_wave_and_serial(self, placement):
        """Three waves, double-buffered, and the same pairs in one wave."""
        pairs = fleet_pairs(count=9, seed=2)
        reference = FleetExecutor(backend(), granularity="columns").run(pairs)
        sharded = FleetExecutor(
            backend(), granularity="columns", max_pairs_per_wave=4,
            num_chips=4, placement=placement,
        ).run(pairs)
        assert sharded.num_waves == 3
        assert_identical(reference, sharded, placement)

    @pytest.mark.parametrize("placement", PLACEMENTS)
    def test_elements_fast_path(self, placement):
        pairs = fleet_pairs(count=5, seed=3)
        reference = FleetExecutor(backend(), granularity="elements").run(pairs)
        sharded = FleetExecutor(
            backend(), granularity="elements",
            num_chips=4, placement=placement,
        ).run(pairs)
        assert_identical(reference, sharded, placement)

    def test_chips_exceeding_pairs(self):
        """More chips than pairs (or rows): extras stay idle, scores hold."""
        pairs = fleet_pairs(count=2, seed=4)
        reference = FleetExecutor(backend(), granularity="rows").run(pairs)
        sharded = FleetExecutor(
            backend(), granularity="rows", num_chips=8, placement="data"
        ).run(pairs)
        assert_identical(reference, sharded)


class TestPodLedger:
    def test_row_sum_identity_and_host_link_rows(self):
        executor = FleetExecutor(
            backend(), granularity="rows", num_chips=4, placement="data"
        )
        executor.run(fleet_pairs())
        pod = executor.device
        assert isinstance(pod, TpuPod)
        assert pod.stats.seconds == pytest.approx(
            sum(pod.stats.op_seconds.values())
        )
        # Sharded host links: no fabric scatter/gather on the data path
        # any more; the asynchronous launches come back as a credit.
        assert "pod_scatter" not in pod.stats.op_seconds
        assert "pod_gather" not in pod.stats.op_seconds
        assert pod.stats.op_seconds["host_link_overlap"] < 0.0
        assert pod.stats.op_seconds["pod_compute_overlap"] < 0.0
        assert len(pod.collective_log) == 1

    def test_work_sum_preserved_across_chips(self):
        """Audit view: pod compute rows equal the sum of chip ledgers."""
        executor = FleetExecutor(
            backend(), granularity="rows", num_chips=4, placement="data"
        )
        executor.run(fleet_pairs())
        pod = executor.device
        for op in ("conv2d_batch", "infeed", "outfeed", "dispatch"):
            assert pod.stats.op_seconds[op] == pytest.approx(
                sum(s.op_seconds.get(op, 0.0) for s in pod.chip_stats)
            )

    @pytest.mark.parametrize("placement", PLACEMENTS)
    def test_elapsed_is_stage_walk(self, placement):
        """Elapsed = the committed waves' stage model, exactly."""
        executor = FleetExecutor(
            backend(), granularity="rows", num_chips=4, placement=placement,
            max_pairs_per_wave=3,
        )
        executor.run(fleet_pairs())
        pod = executor.device
        shared = [w for w in pod.collective_log if w.chip_index is None]
        pinned: dict[int, list] = {}
        for w in pod.collective_log:
            if w.chip_index is not None:
                pinned.setdefault(w.chip_index, []).append(w)
        expected = (
            pipelined_elapsed_seconds([w.stage for w in shared])
            if shared
            else 0.0
        )
        if pinned:
            expected += max(
                pipelined_elapsed_seconds([w.stage for w in waves])
                for waves in pinned.values()
            )
        assert pod.stats.seconds == pytest.approx(expected)

    def test_data_wave_body_is_max_over_chips(self):
        executor = FleetExecutor(
            backend(), granularity="rows", num_chips=4, placement="data"
        )
        executor.run(fleet_pairs())
        pod = executor.device
        (ws,) = pod.collective_log
        assert ws.body_seconds == pytest.approx(max(ws.busy_seconds))
        # One launch round trip is the wave floor; the other three are
        # hidden by the asynchronous links.
        assert ws.launched_chips == 4
        assert ws.dispatch_seconds > 0.0
        recorded = ws.dispatch_seconds * ws.launched_chips
        assert ws.launch_hidden_seconds == pytest.approx(
            recorded - ws.launch_exposed_seconds
        )

    def test_wave_never_beats_one_launch_round_trip(self):
        """Tiny waves floor at the launch latency, not below it."""
        executor = FleetExecutor(
            backend(), granularity="rows", num_chips=2, placement="data"
        )
        executor.run(fleet_pairs(count=2, shape=(4, 4)))
        pod = executor.device
        (ws,) = pod.collective_log
        assert ws.stage.total >= ws.dispatch_seconds

    def test_chunk_placement_streams_spectra_broadcast(self):
        executor = FleetExecutor(
            backend(), granularity="rows", num_chips=4, placement="chunk"
        )
        executor.run(fleet_pairs())
        pod = executor.device
        assert pod.stats.op_seconds["pod_broadcast"] > 0.0
        (ws,) = pod.collective_log
        # The overlapped timeline gates the body; the root's solve span
        # is measured and carried for the audit columns.
        assert ws.gated_body_seconds is not None
        assert ws.solve_seconds > 0.0
        assert ws.body_seconds == pytest.approx(ws.gated_body_seconds)

    def test_chunk_overlap_beats_serial_solve(self):
        """The gated body must undercut solve + slowest stream in series."""
        executor = FleetExecutor(
            backend(), granularity="rows", num_chips=4, placement="chunk"
        )
        executor.run(fleet_pairs())
        pod = executor.device
        (ws,) = pod.collective_log
        serial_body = ws.solve_seconds + max(ws.busy_seconds[1:])
        assert ws.gated_body_seconds < serial_body

    def test_wave_placement_round_robin_and_concurrent(self):
        executor = FleetExecutor(
            backend(), granularity="rows", num_chips=2, placement="wave",
            max_pairs_per_wave=2,
        )
        executor.run(fleet_pairs(count=6, seed=7))
        pod = executor.device
        assert [w.chip_index for w in pod.collective_log] == [0, 1, 0]
        serial = sum(w.stage.total for w in pod.collective_log)
        assert pod.stats.seconds < serial

    def test_pod_faster_than_sum_of_chips(self):
        """Pod elapsed must be below total work (chips run concurrently)."""
        executor = FleetExecutor(
            backend(), granularity="rows", num_chips=4, placement="data"
        )
        executor.run(fleet_pairs(count=8))
        pod = executor.device
        work = sum(s.seconds for s in pod.chip_stats)
        assert pod.stats.seconds < work

    def test_explicit_pod_device(self):
        pod = make_tpu_pod(2, num_cores=8)
        executor = FleetExecutor(pod, granularity="rows")
        assert executor.pod is pod
        executor.run(fleet_pairs(count=3))
        assert len(pod.collective_log) == 1

    def test_num_chips_mismatch_rejected(self):
        pod = make_tpu_pod(2, num_cores=8)
        with pytest.raises(ValueError):
            FleetExecutor(pod, granularity="rows", num_chips=4)

    def test_unknown_placement_rejected(self):
        with pytest.raises(ValueError):
            FleetExecutor(backend(), granularity="rows", placement="model")

    def test_single_chip_pod_matches_serial_timing(self):
        """num_chips=1 keeps the plain single-device path entirely."""
        executor = FleetExecutor(backend(), granularity="rows", num_chips=1)
        assert executor.pod is None

    def test_host_links_price_like_member_transfer(self):
        pod = make_tpu_pod(2, num_cores=8)
        assert len(pod.host_links) == 2
        link = pod.host_links[1]
        assert isinstance(link, HostLink)
        assert link.feed_seconds(4096) == pytest.approx(
            pod.devices[1].transfer_seconds(4096)
        )
        assert link.launch_latency_seconds == pytest.approx(
            pod.devices[1].launch_latency_seconds
        )
        with pytest.raises(ValueError):
            link.feed_seconds(-1)


class TestHbmCapacity:
    def test_capacity_surfaces(self):
        chip = backend()
        assert chip.hbm_capacity_bytes == 8 * chip.chip.config.core.hbm_capacity_bytes
        pod = make_tpu_pod(2, num_cores=8)
        assert pod.min_chip_hbm_bytes == pod.devices[0].hbm_capacity_bytes
        assert pod.hbm_capacity_bytes == pod.min_chip_hbm_bytes

    def test_clone_override(self):
        clone = clone_device(backend(), hbm_bytes=8192)
        assert clone.hbm_capacity_bytes == 8192
        pod = TpuPod.like(backend(), 2, hbm_bytes=8192)
        assert pod.chip_hbm_bytes == (8192, 8192)
        assert pod.min_chip_hbm_bytes == 8192

    def test_capacity_unaware_clone_rejected(self):
        from repro.hw import CpuConfig, CpuDevice

        with pytest.raises(TypeError):
            clone_device(CpuDevice(CpuConfig()), hbm_bytes=8192)

    def test_plan_consults_capacity_fallback(self):
        """A tight per-chip HBM shrinks the streamed chunk; scores hold."""
        pairs = fleet_pairs(count=4, seed=8)
        reference = FleetExecutor(backend(), granularity="rows").run(pairs)
        tight = FleetExecutor(
            backend(), granularity="rows", num_chips=2, placement="data",
            hbm_bytes=2048,  # a couple of 8x8 float rows
        )
        assert tight.effective_stack_bytes == 2048
        assert_identical(reference, tight.run(pairs))

    def test_stack_budget_falls_back_to_the_capacity(self):
        from repro.hw import CpuDevice

        def budget(device, **options):
            return FleetExecutor(
                device, granularity="rows", **options
            ).effective_stack_bytes

        assert budget(CpuDevice(), max_stack_bytes=None) is None
        assert budget(CpuDevice(), max_stack_bytes=1024) == 1024
        assert budget(backend(), max_stack_bytes=None, hbm_bytes=4096) == 4096
        assert budget(backend(), max_stack_bytes=1024, hbm_bytes=4096) == 1024
        assert budget(backend(), max_stack_bytes=None) == backend().hbm_capacity_bytes

    def test_plan_rejects_plane_exceeding_capacity(self):
        executor = FleetExecutor(
            backend(), granularity="rows", num_chips=2, hbm_bytes=256
        )
        with pytest.raises(MaskStackBudgetError):
            executor.run(fleet_pairs(count=2, seed=9))

    def test_invalid_hbm_bytes_rejected(self):
        with pytest.raises(ValueError):
            FleetExecutor(backend(), granularity="rows", hbm_bytes=0)
        with pytest.raises(ValueError):
            make_tpu_pod(2, hbm_bytes=-1)


class TestPipelineAndSchedulerKnobs:
    def test_pipeline_pod_matches_single_chip(self):
        pairs = fleet_pairs()
        reference = ExplanationPipeline(backend(), granularity="rows").run(pairs)
        pod_run = ExplanationPipeline(
            backend(), granularity="rows", num_chips=4
        ).run(pairs)
        for a, b in zip(reference.explanations, pod_run.explanations):
            assert np.array_equal(a.scores, b.scores)
            assert a.residual == b.residual
        assert pod_run.simulated_seconds > 0.0

    def test_pipeline_wave_placement_and_hbm(self):
        pairs = fleet_pairs(count=6, seed=10)
        reference = ExplanationPipeline(backend(), granularity="rows").run(pairs)
        pod_run = ExplanationPipeline(
            backend(), granularity="rows", num_chips=2, placement="wave",
            max_pairs_per_wave=2, hbm_bytes=4096,
        ).run(pairs)
        for a, b in zip(reference.explanations, pod_run.explanations):
            assert np.array_equal(a.scores, b.scores)

    def test_pipeline_rejects_mismatched_pod(self):
        with pytest.raises(ValueError, match="disagrees"):
            ExplanationPipeline(
                TpuPod.like(backend(), 2), granularity="rows", num_chips=4
            )

    def test_pipeline_device_is_its_executors_pod(self):
        pipeline = ExplanationPipeline(backend(), granularity="rows", num_chips=4)
        assert isinstance(pipeline.device, TpuPod)
        assert pipeline.device.num_chips == 4
        assert pipeline.device is pipeline.executor.pod
        single = ExplanationPipeline(backend(), granularity="rows", num_chips=1)
        assert single.executor.pod is None
        assert not isinstance(single.device, TpuPod)


class TestServicePod:
    def test_service_pod_results_bit_identical(self):
        from repro.serve.loop import ExplanationService
        from repro.serve.workload import Request

        def trace():
            rng = np.random.default_rng(6)
            return [
                Request(
                    request_id=i,
                    arrival_time=0.001 * i,
                    x=rng.standard_normal(PLANE),
                    y=rng.standard_normal(PLANE),
                )
                for i in range(6)
            ]

        def results(report):
            records = sorted(
                (r for r in report.ledger.records if r.status == "completed"),
                key=lambda r: r.request_id,
            )
            return [r.result for r in records]

        single = ExplanationService(
            backend(), granularity="rows", cache_max_bytes=None
        ).process(trace())
        pod = ExplanationService(
            backend(), granularity="rows", cache_max_bytes=None, num_chips=4
        ).process(trace())
        for a, b in zip(results(single), results(pod)):
            assert np.array_equal(a.scores, b.scores)
            assert a.residual == b.residual

    def test_service_resolves_num_chips_at_construction(self):
        from repro.serve.loop import ExplanationService

        service = ExplanationService(backend(), granularity="rows", num_chips=4)
        assert isinstance(service.device, TpuPod)
        assert service.device.num_chips == 4
        with pytest.raises(ValueError, match="disagrees"):
            ExplanationService(
                TpuPod.like(backend(), 2), granularity="rows", num_chips=4
            )

    def test_every_batch_keys_executor_runs_on_the_service_pod(self):
        from repro.serve.loop import ExplanationService
        from repro.serve.workload import Request

        rng = np.random.default_rng(7)
        requests = [
            Request(
                request_id=i,
                arrival_time=0.001 * i,
                x=rng.standard_normal(PLANE),
                y=rng.standard_normal(PLANE),
                granularity=granularity,
            )
            for i, granularity in enumerate(["rows", "columns"] * 2)
        ]
        service = ExplanationService(
            backend(), granularity="rows", cache_max_bytes=None, num_chips=2
        )
        report = service.process(requests)
        assert report.completed_count == 4
        executors = list(service._executors.values())
        assert sorted(e.granularity for e in executors) == ["columns", "rows"]
        for executor in executors:
            assert executor.pod is service.device

    def test_pipeline_service_inherits_pod(self):
        pipeline = ExplanationPipeline(
            backend(), granularity="rows", num_chips=2, placement="chunk"
        )
        service = pipeline.service(cache_max_bytes=None)
        assert isinstance(service.device, TpuPod)
        assert service.device is pipeline.device
        assert service.placement == "chunk"
