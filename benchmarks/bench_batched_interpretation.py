"""Micro-benchmark: looped vs batched occlusion interpretation.

Compares the paper's looped execution -- the literal reference in
``tests/reference.py``, one program per pair and one masked convolution
per feature -- with the batched occlusion engine
(:mod:`repro.core.masking`, a one-pair wave) on the same workload,
along both axes:

* **simulated seconds** -- the scientific quantity: the batched plan
  amortizes the kernel spectrum on every backend and removes the
  per-mask host round trips on the TPU, so it must be cheaper
  everywhere and dramatically cheaper on the TPU;
* **wall-clock seconds** -- the engineering quantity: the batched path
  replaces a Python loop of per-mask transforms with vectorized
  batch-FFT kernels, so the simulator itself runs the hot path faster.

Shape contract asserted below: batched < looped in simulated time on
every backend, batched wall-clock faster than looped on the pure-numpy
path, and identical scores from both.
"""

import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from repro.core import MaskSpec, TpuBackend, make_tpu_chip, score_plan  # noqa: E402
from repro.core.pipeline import ExplanationPipeline  # noqa: E402
from repro.fft import fft_circular_convolve2d  # noqa: E402
from repro.hw.cpu import CpuDevice  # noqa: E402
from repro.hw.gpu import GpuDevice  # noqa: E402
from tests import reference  # noqa: E402

SHAPE = (32, 32)
BLOCK = (4, 4)


@pytest.fixture(scope="module")
def pair():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(SHAPE)
    x[0, 0] += 5.0 * np.prod(SHAPE) ** 0.5
    kernel = rng.standard_normal(SHAPE)
    y = fft_circular_convolve2d(x, kernel)
    return x, kernel, y


def _simulated_seconds(device, pair, method):
    x, _, y = pair
    options = dict(granularity="blocks", block_shape=BLOCK, eps=1e-8)
    if method == "loop":
        reference.explain_all([(x, y)], device=device, **options)
        return device.stats.seconds
    # A one-pair wave isolates the per-pair batching axis this benchmark
    # measures; cross-pair wave fusion is bench_fleet_interpretation.py.
    return ExplanationPipeline(device, **options).run([(x, y)]).simulated_seconds


@pytest.mark.parametrize(
    "device_factory",
    [
        CpuDevice,
        GpuDevice,
        lambda: TpuBackend(make_tpu_chip(num_cores=128, precision="bf16")),
    ],
    ids=["cpu", "gpu", "tpu"],
)
def test_batched_simulated_seconds_beat_looped(device_factory, pair, capsys):
    looped = _simulated_seconds(device_factory(), pair, "loop")
    batched = _simulated_seconds(device_factory(), pair, "batched")
    assert batched < looped
    with capsys.disabled():
        name = device_factory().name
        print(
            f"\n  {name}: looped {looped * 1e3:9.3f} ms -> "
            f"batched {batched * 1e3:9.3f} ms "
            f"(simulated, {looped / batched:5.1f}x)"
        )


def test_tpu_gains_most_from_batching(pair):
    """The TPU's per-mask dispatch round trips dominate its looped cost,
    so batching buys a far larger factor there than on eager backends."""
    gains = {}
    for name, factory in [
        ("cpu", CpuDevice),
        ("tpu", lambda: TpuBackend(make_tpu_chip(num_cores=128, precision="bf16"))),
    ]:
        looped = _simulated_seconds(factory(), pair, "loop")
        batched = _simulated_seconds(factory(), pair, "batched")
        gains[name] = looped / batched
    assert gains["tpu"] > 5.0 * gains["cpu"]


def test_scores_identical_across_modes(pair):
    x, kernel, y = pair
    np.testing.assert_array_equal(
        score_plan(x, kernel, y, MaskSpec.blocks(SHAPE, BLOCK)),
        reference.occlusion_scores(x, kernel, y, "blocks", BLOCK),
    )


def test_batched_wall_clock_faster(pair):
    """The vectorized batch path must beat the per-mask Python loop in
    real time too (pure-numpy path, no device accounting).

    The structural floor is ~1.5x -- the loop runs three transforms per
    mask (input, re-transformed kernel, inverse) where the batch runs
    two -- before counting the removed per-mask Python dispatch.
    """
    x, kernel, y = pair
    plan = MaskSpec.elements(SHAPE)  # 1024 masks: enough to dominate noise

    def clock(score):
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            score()
            best = min(best, time.perf_counter() - start)
        return best

    looped = clock(lambda: reference.occlusion_scores(x, kernel, y, "elements"))
    batched = clock(lambda: score_plan(x, kernel, y, plan))
    print(
        f"\n  wall-clock: looped {looped * 1e3:8.1f} ms -> "
        f"batched {batched * 1e3:8.1f} ms ({looped / batched:4.1f}x)"
    )
    # Typical ratio is ~1.7x; assert only the direction so a loaded CI
    # machine cannot flake this (the deterministic speedup claims are
    # the simulated-seconds tests above).
    assert batched < looped


def test_benchmark_batched_pipeline(benchmark, pair):
    x, _, y = pair
    pipeline = ExplanationPipeline(
        CpuDevice(), granularity="blocks", block_shape=BLOCK, eps=1e-8
    )
    result = benchmark(pipeline.run, [(x, y)])
    assert result.simulated_seconds > 0
