"""Checks of the two-clock benchmark's own arithmetic, rules and gates."""

import contextlib
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import compare
import layers
import reference
import run
import workloads
from repro.bench.workloads import planted_interpretation_pairs
from repro.core.backend import TpuBackend, make_tpu_chip
from repro.core.fleet import FleetExecutor

HERE = Path(__file__).resolve().parent


def _fake_clock():
    """A clock that moves only when the code under test says it worked."""
    now = [0.0]

    def work(seconds):
        now[0] += seconds

    return (lambda: now[0]), work


def test_self_times_of_nested_and_generator_spans():
    clock, work = _fake_clock()
    recorder = layers.SpanRecorder(clock=clock)
    leaf = recorder.wrap("fft", "leaf", lambda plane: work(1.0))

    def masks():
        for i in range(3):
            work(2.0)
            yield np.zeros((1, 4, 4)), range(i, i + 1)

    def convolve(chunks):
        for chunk, rows in chunks:
            work(0.5)
            leaf(chunk)
            yield chunk, rows

    @contextlib.contextmanager
    def program():
        work(0.75)
        yield
        work(0.25)

    masks = recorder.wrap("masking", "masks", masks)
    convolve = recorder.wrap("conv", "convolve", convolve)
    program = recorder.wrap("device", "program", program)

    def root():
        work(0.25)
        with program():
            for _ in convolve(masks()):
                work(0.125)

    recorder.wrap("root", "root", root)()
    own = layers.self_seconds(recorder.spans)
    # A stream step's self time excludes the upstream step it pulled.
    assert own == {"masking": 6.0, "fft": 3.0, "conv": 1.5, "device": 1.0, "root": 0.625}
    assert sum(own.values()) == layers.root_seconds(recorder.spans) == 12.125
    assert recorder.rows == {"masking": 3, "conv": 3}
    assert recorder.planes == 3
    assert recorder.calls["fft", "leaf"] == 3


def test_nearest_rank_counts_refusals_as_infinite():
    latencies = [0.01 * i for i in range(1, 91)] + [math.inf] * 10
    assert workloads.nearest_rank(latencies, 50) == pytest.approx(0.50)
    assert workloads.nearest_rank(latencies, 90) == pytest.approx(0.90)
    assert workloads.nearest_rank(latencies, 91) == math.inf
    assert workloads.nearest_rank([3.0, 1.0, 2.0], 50) == 2.0
    assert workloads.nearest_rank([3.0, 1.0, 2.0], 100) == 3.0


def _record(host, sim=1.0, error_rate=0.0):
    metrics = {
        "host_s": {"value": statistics.median(host), "unit": "s", "clock": "host",
                   "samples": host},
        "sim_s": {"value": sim, "unit": "s", "clock": "sim"},
        "error_rate": {"value": error_rate, "unit": "ratio", "clock": "check"},
    }
    return {"seed": 0, "workloads": {"w": {"correct": True, "metrics": metrics}}}


@pytest.mark.parametrize("host_b, sim_b, error_b, expected", [
    ([1.0, 1.01, 0.99], 1.0, 0.0, {"host_s": "unchanged", "sim_s": "equal"}),
    ([1.05, 1.06, 1.04], 1.0 + 1e-12, 0.0, {"host_s": "unchanged", "sim_s": "equal"}),
    ([1.2, 1.21, 1.19], 1.0, 0.0, {"host_s": "REGRESSED"}),
    ([0.8, 0.81, 0.79], 1.0, 0.0, {"host_s": "improved"}),
    ([1.0, 1.01, 0.99], 1.0 + 1e-6, 0.0, {"sim_s": "CHANGED"}),
    ([1.0, 1.01, 0.99], math.inf, 0.0, {"sim_s": "CHANGED"}),
    ([0.7, 1.02, 1.4], 1.0, 0.0, {"host_s": "unresolved"}),
    ([1.0, 1.01, 0.99], 1.0, 0.01, {"error_rate": "REGRESSED"}),
])
def test_compare_rules(host_b, sim_b, error_b, expected):
    a = _record([1.0, 1.01, 0.99])
    b = _record(host_b, sim_b, error_b)
    rows = compare.compare(a, b, {"host_s": (0.1, "lower")})
    verdicts = {name: verdict for _, name, _, _, verdict in rows}
    assert {name: verdicts[name] for name in expected} == expected
    failing = any(verdict in compare.FAILING for verdict in verdicts.values())
    assert failing == any(v in compare.FAILING for v in expected.values())


def test_a_wide_spread_is_resolved_when_the_samples_separate():
    a = _record([1.0, 1.3, 0.8])
    b = _record([2.0, 2.6, 1.9])
    rows = compare.compare(a, b, {"host_s": (0.1, "lower")})
    assert ("w", "host_s", a["workloads"]["w"]["metrics"]["host_s"]["value"], 2.0,
            "REGRESSED") in rows


@pytest.mark.parametrize("shape", [(8, 8), (12, 20), (36, 36)])
def test_reference_matches_the_program(shape):
    pairs = planted_interpretation_pairs(2, shape=shape, seed=5)
    executor = FleetExecutor(
        TpuBackend(make_tpu_chip()), granularity="blocks", block_shape=(4, 4),
        eps=workloads.EPS,
    )
    for (x, y), result in zip(pairs, executor.run(pairs).results):
        expected = reference.occlusion_scores(x, y, (4, 4), workloads.EPS)
        assert reference.relative_error(result.scores, expected) <= 1e-14


def test_calibration_kernel_is_an_fft():
    x = np.random.default_rng(2).standard_normal((3, 64))
    np.testing.assert_allclose(run.radix2_fft(x), np.fft.fft(x), atol=1e-12)


def _snapshot():
    """Identity of every repro module attribute and every wrapped class member."""
    seen = {}
    for module in layers._repro_modules():
        for key, value in vars(module).items():
            seen[(module.__name__, key)] = value
            if isinstance(value, type):
                for member, raw in vars(value).items():
                    seen[(module.__name__, key, member)] = raw
    return seen


def test_wrappers_restore_every_original_on_exit():
    before = _snapshot()
    recorder = layers.SpanRecorder()
    with pytest.raises(RuntimeError):
        with layers.traced(recorder):
            import repro.fft.fft2d as fft2d

            assert fft2d.rfft2_batch is not before[("repro.fft.fft2d", "rfft2_batch")]
            workloads.SMOKE_WORKLOADS[0].build().run(workloads.SMOKE_WORKLOADS[0].inputs(0))
            raise RuntimeError("leave the scope by an exception")
    assert recorder.spans and not recorder.missing
    after = _snapshot()
    changed = [key for key in before if after.get(key, before[key]) is not before[key]]
    assert changed == []


@pytest.mark.parametrize("workload", workloads.SMOKE_WORKLOADS, ids=lambda w: w.name)
def test_smoke_workload_passes_every_check(workload, tmp_path):
    result = run.measure(workload, 0, 0.0, 1, tmp_path, smoke=True)
    assert result.problems == []
    assert result.failed == 0 and result.attempted > 0
    assert set(run.LAYER_METRICS) <= set(result.metrics)
    assert result.metrics["error_rate"]["value"] == 0.0
    trace = json.loads((tmp_path / f"{workload.name}.host_spans.trace.json").read_text())
    assert trace["traceEvents"]


def test_contract_run_ends_with_one_json_line(tmp_path):
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "fleet-odd", "--smoke",
         "--seed", "3", "--seconds", "0", "--trace", "0", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert tuple(result["metrics"]) == run.E2E_METRICS
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_benchmark_json_lists_what_run_reports():
    benchmark = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    assert [w["name"] for w in benchmark["workloads"]] == [w.name for w in workloads.WORKLOADS]
    assert tuple(m["name"] for m in benchmark["end_to_end"]) == run.E2E_METRICS
    assert tuple(m["name"] for m in benchmark["per_layer"]) == run.LAYER_METRICS
