"""Metrics registry + the counters every layer now exposes through it.

Satellite coverage: the registry mechanics (register/snapshot/reset,
weak sources dropping with their owners), ``fft_plan_cache_info`` and
the kernel-spectrum cache's registry surface, the serving
layer's weak self-registration, controller decision logs, admission
shed counters and the service's per-key dispatch counts.
"""

import gc

import numpy as np
import pytest

from repro.fft import fft, fft_plan_cache_info, rfft
from repro.fft.spectra import (
    clear_kernel_spectrum_cache,
    kernel_spectrum,
    kernel_spectrum_cache_info,
)
from repro.obs.registry import (
    MetricsRegistry,
    default_registry,
    metrics_snapshot,
    register_metrics_source,
    reset_metrics,
    unregister_metrics_source,
)
from repro.core.backend import TpuBackend, make_tpu_chip
from repro.serve import (
    AdmissionController,
    BatchController,
    ExplanationService,
    bursty_requests,
)
from repro.serve.admission import AdmissionController as Admission
from repro.serve.controller import ControllerDecision
from repro.serve.workload import Request

PLANE = (16, 16)
BLOCK = (4, 4)


class TestRegistryMechanics:
    def test_register_snapshot_reset(self):
        registry = MetricsRegistry()
        counts = {"a": 1}
        registry.register(
            "src", lambda: dict(counts), reset=lambda: counts.update(a=0)
        )
        assert registry.snapshot() == {"src": {"a": 1}}
        registry.reset()
        assert registry.snapshot() == {"src": {"a": 0}}

    def test_sources_are_sorted_names_and_repr_lists_them(self):
        registry = MetricsRegistry()
        registry.register("zeta", lambda: {})
        registry.register(7, lambda: {})  # names are stored as strings
        registry.register("alpha", lambda: {})
        assert registry.sources() == ["7", "alpha", "zeta"]
        assert repr(registry) == "<MetricsRegistry ['7', 'alpha', 'zeta']>"

    def test_unregister(self):
        registry = MetricsRegistry()
        registry.register("src", lambda: {})
        registry.unregister("src")
        assert registry.snapshot() == {}

    def test_weak_source_drops_with_its_owner(self):
        class Owner:
            def counters(self):
                return {"n": 1}

        registry = MetricsRegistry()
        owner = Owner()
        registry.register("owner", owner.counters, weak=True)
        assert registry.snapshot() == {"owner": {"n": 1}}
        del owner
        gc.collect()
        assert registry.snapshot() == {}

    def test_default_registry_serves_module_helpers(self):
        marker = {"hits": 7}
        register_metrics_source("test-source", lambda: dict(marker))
        try:
            assert metrics_snapshot()["test-source"] == {"hits": 7}
            assert default_registry().snapshot()["test-source"] == {"hits": 7}
        finally:
            unregister_metrics_source("test-source")
        assert "test-source" not in metrics_snapshot()


class TestFftPlanCounters:
    """``fft_plan_cache_info`` mirrors the kernel-spectrum cache: the
    transforms themselves (``numpy.fft``) keep no counted plans."""

    def setup_method(self):
        clear_kernel_spectrum_cache()

    def teardown_method(self):
        clear_kernel_spectrum_cache()

    def test_mirrors_kernel_spectrum_counters(self):
        x = np.random.default_rng(0).standard_normal(PLANE)
        rfft(x)
        fft(x)
        assert set(fft_plan_cache_info().values()) == {0}
        kernel_spectrum(x, real=True)
        kernel_spectrum(x, real=True)
        assert fft_plan_cache_info() == {
            "kernel_spectra": 1,
            "kernel_spectrum_hits": 1,
            "kernel_spectrum_misses": 1,
            "kernel_spectrum_stores": 1,
            "kernel_spectrum_evictions": 0,
            "kernel_transforms": 1,
        }

    def test_clear_resets_counters(self):
        kernel_spectrum(np.random.default_rng(2).standard_normal(PLANE), real=True)
        clear_kernel_spectrum_cache()
        assert set(fft_plan_cache_info().values()) == {0}

    def test_registered_in_default_registry(self):
        snapshot = metrics_snapshot()
        assert "fft_plans" not in snapshot
        assert snapshot["kernel_spectra"] == kernel_spectrum_cache_info()

    def test_reset_metrics_clears_fft_counters(self):
        kernel_spectrum(np.random.default_rng(3).standard_normal(PLANE), real=True)
        assert metrics_snapshot()["kernel_spectra"]["misses"] == 1
        reset_metrics()
        assert metrics_snapshot()["kernel_spectra"]["misses"] == 0
        assert set(fft_plan_cache_info().values()) == {0}


class TestSpectrumCacheCounters:
    def setup_method(self):
        clear_kernel_spectrum_cache()

    def teardown_method(self):
        clear_kernel_spectrum_cache()

    def test_hit_and_miss_counters_exposed(self):
        kernel = np.random.default_rng(0).standard_normal(PLANE)
        kernel_spectrum(kernel, real=True)
        kernel_spectrum(kernel, real=True)
        info = kernel_spectrum_cache_info()
        assert info["hits"] == 1 and info["misses"] == 1
        plans = fft_plan_cache_info()
        assert plans["kernel_spectrum_hits"] == 1
        assert plans["kernel_spectrum_misses"] == 1
        assert plans["kernel_transforms"] == 1


class TestServeCounters:
    def make_service(self, **kwargs):
        config = dict(
            granularity="blocks", block_shape=BLOCK,
            max_wait_seconds=0.05, max_batch_pairs=32,
            admission=AdmissionController(max_queue_depth=64),
            controller=BatchController(target_p95_seconds=0.05),
        )
        config.update(kwargs)
        return ExplanationService(
            TpuBackend(make_tpu_chip(num_cores=8)), **config
        )

    def run_trace(self, service, count=36):
        return service.process(
            bursty_requests(
                count=count, burst_size=12, burst_gap=0.2, seed=3,
                shape=PLANE, repeat_fraction=0.3,
            )
        )

    def test_weak_registration_and_lifecycle_counters(self):
        service = self.make_service(metrics_name="serve-test")
        try:
            report = self.run_trace(service)
            counters = metrics_snapshot()["serve-test"]
            assert counters["requests"] == 36
            assert counters["completed"] == report.completed_count
            assert counters["dispatches"] >= 1
            assert counters["admitted"] == 36
            assert any(k.startswith("dispatches[") for k in counters)
        finally:
            unregister_metrics_source("serve-test")

    def test_weak_source_vanishes_with_the_service(self):
        service = self.make_service(metrics_name="serve-gone")
        assert "serve-gone" in metrics_snapshot()
        del service
        gc.collect()
        assert "serve-gone" not in metrics_snapshot()

    def test_counters_are_lifecycle_cache_and_admission_totals(self):
        service = self.make_service(metrics_name=None)
        report = self.run_trace(service)
        counters = service.metrics_counters()
        assert {
            name for name in counters if not name.startswith(("dispatches[", "shed_"))
        } == {
            "requests", "completed", "rejected", "cache_hit_completions",
            "dispatches", "waves", "cache_hits", "cache_misses",
            "cache_evictions", "admitted", "shed",
        }
        assert counters["cache_hits"] == report.cache_hits
        assert counters["cache_hit_completions"] == len(report.ledger.cache_hits)
        assert counters["waves"] == report.num_waves

    def test_reset_metrics_counters(self):
        service = self.make_service(metrics_name=None)
        self.run_trace(service)
        assert service.metrics_counters()["requests"] == 36
        service.reset_metrics_counters()
        counters = service.metrics_counters()
        assert counters["requests"] == 0
        assert not any(k.startswith("dispatches[") for k in counters)

    def test_controller_decision_log(self):
        service = self.make_service()
        # Bursts wider than the controller's base cap (16): full
        # dispatches guarantee at least the cap-doubling decision.
        service.process(
            bursty_requests(
                count=60, burst_size=20, burst_gap=0.2, seed=3,
                shape=PLANE, repeat_fraction=0.3,
            )
        )
        log = service.controller.decision_log
        assert log, "bursty trace should move at least one knob"
        for decision in log:
            assert isinstance(decision, ControllerDecision)
            assert decision.reasons
            assert decision.dominant in ("queue", "window", "service")
            assert decision.time > 0.0
            if "full_cap_double" in decision.reasons:
                assert decision.new_cap > decision.old_cap

    def test_decision_log_never_changes_the_policy_trajectory(self):
        first = self.run_trace(self.make_service(), count=48)
        second = self.run_trace(self.make_service(), count=48)
        assert first.signature() == second.signature()


class TestAdmissionCounters:
    def test_admit_and_shed_totals(self):
        admission = Admission(max_queue_depth=2, max_queued_bytes=10_000)
        assert admission.admit(100, 0, 0).admitted
        assert admission.admit(100, 1, 100).admitted
        assert not admission.admit(100, 2, 200).admitted  # depth
        assert not admission.admit(20_000, 1, 100).admitted  # bytes
        assert admission.admitted == 2
        assert admission.shed == 2
        assert admission.sheds_by_reason == {
            "queue_depth": 1, "queued_bytes": 1,
        }

    def test_per_key_bounds_counted_separately(self):
        admission = Admission(
            max_queue_depth_per_key=1, max_queued_bytes_per_key=100
        )
        assert admission.admit(10, 0, 0, key_depth=0, key_bytes=0).admitted
        assert not admission.admit(10, 5, 50, key_depth=1).admitted
        assert not admission.admit(200, 0, 0, key_bytes=0).admitted
        assert admission.sheds_by_reason == {
            "key_depth": 1, "key_bytes": 1,
        }


class TestServiceDispatchCounts:
    def test_nonempty_dispatches_count_per_key_and_idle_drains_add_nothing(self):
        service = ExplanationService(
            TpuBackend(make_tpu_chip(num_cores=8)), granularity="blocks",
            block_shape=BLOCK, max_wait_seconds=1.0, max_batch_pairs=2,
            cache=None, cache_max_bytes=None, metrics_name=None,
        )
        rng = np.random.default_rng(0)
        requests = [
            Request(
                request_id=i, arrival_time=0.0,
                x=rng.standard_normal(PLANE), y=rng.standard_normal(PLANE),
            )
            for i in range(3)
        ]
        label = ":".join(str(part) for part in service.batch_key(requests[0]).as_tuple())

        def per_key():
            counters = service.metrics_counters()
            return {k: v for k, v in counters.items() if k.startswith("dispatches[")}

        report = service.process(requests)  # ends with an idle drain
        assert report.completed_count == 3
        assert per_key() == {f"dispatches[{label}]": 2}  # two pairs, then one
        assert service.metrics_counters()["dispatches"] == 2
        service.process([])  # only the idle drain of the now-empty key
        assert per_key() == {f"dispatches[{label}]": 2}
        assert service.metrics_counters()["dispatches"] == 2
