"""Concurrent batch distillation (Section III-D end to end).

A fleet run distills every pair of a wave in one stacked Eq. 4 solve:
each pair's kernel must equal its own single-pair solve, and the wave
must price every pair's solve -- its VPU (Hadamard) stage included --
inside one program.
"""

import numpy as np
import pytest

from repro.core import FleetExecutor, OutputEmbedding, TpuBackend, make_tpu_chip
from repro.core.distillation import ConvolutionDistiller
from repro.core.transform import frequency_solve
from repro.fft import fft_circular_convolve2d

SOLVE_OPS = ("fft2", "conjugate", "hadamard_mul", "hadamard_add", "hadamard_div", "ifft2")


def small_backend(num_cores=4):
    return TpuBackend(
        make_tpu_chip(num_cores=num_cores, precision="fp32", mxu_rows=8, mxu_cols=8)
    )


def planted_pairs(count, shape=(8, 8), seed=0):
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(count):
        x = rng.standard_normal(shape)
        x[0, 0] += 5.0 * np.prod(shape) ** 0.5
        kernel = rng.standard_normal(shape)
        pairs.append((x, fft_circular_convolve2d(x, kernel), kernel))
    return pairs


def distill(pairs, device=None, **options):
    """Run ``pairs`` as one fleet; returns the run and the device ledger."""
    device = device or small_backend()
    options.setdefault("granularity", "elements")
    run = FleetExecutor(device, **options).run(pairs)
    return run, device.take_stats()


def single_pair_solve(x, y, eps=1e-6):
    return frequency_solve(x, y, eps=eps, device=small_backend())


class TestCorrectness:
    def test_kernels_match_single_pair_solve(self):
        data = planted_pairs(3)
        run, _ = distill([(x, y) for x, y, _ in data], eps=0.0)
        for (x, y, _), result in zip(data, run.results):
            np.testing.assert_array_equal(result.kernel, single_pair_solve(x, y, eps=0.0))

    def test_recovers_planted_kernels(self):
        data = planted_pairs(2, seed=1)
        run, _ = distill([(x, y) for x, y, _ in data], eps=0.0)
        for (_, _, kernel_true), result in zip(data, run.results):
            np.testing.assert_allclose(result.kernel, kernel_true, atol=1e-5)

    def test_real_pairs_give_real_kernels(self):
        data = planted_pairs(2, seed=2)
        run, _ = distill([(x, y) for x, y, _ in data])
        for result in run.results:
            assert np.isrealobj(result.kernel)

    def test_kernel_is_independent_of_its_batch_mates(self):
        """The stacked solve is per plane: a pair's kernel in a wave of
        four is bit-identical to the kernel it gets on its own."""
        pairs = [(x, y) for x, y, _ in planted_pairs(4, seed=9)]
        batched, _ = distill(pairs)
        assert batched.num_waves == 1
        for pair, result in zip(pairs, batched.results):
            alone, _ = distill([pair])
            np.testing.assert_array_equal(result.kernel, alone.results[0].kernel)

    def test_vector_outputs_distill_through_the_embedding(self):
        """Classifier logits are lifted onto the input plane before the
        solve, exactly as a single-pair distiller lifts them."""
        rng = np.random.default_rng(10)
        embedding = OutputEmbedding("spatial")
        pairs = []
        for _ in range(2):
            x = rng.standard_normal((8, 8))
            x[0, 0] += 40.0
            pairs.append((x, rng.standard_normal(4)))
        run, _ = distill(pairs, embedding=embedding)
        for (x, logits), result in zip(pairs, run.results):
            distiller = ConvolutionDistiller(embedding=embedding, device=small_backend())
            np.testing.assert_array_equal(result.kernel, distiller.fit(x, logits).kernel_)


class TestTiming:
    def test_parallel_beats_serial(self):
        """Four pairs fused into one wave pay one dispatch, so the batch
        finishes well before the four pairs run one fleet at a time."""
        pairs = [(x, y) for x, y, _ in planted_pairs(4, shape=(16, 16), seed=3)]
        _, fused = distill(pairs)
        serial = sum(distill([pair])[1].seconds for pair in pairs)
        assert fused.op_counts["dispatch"] == 1
        assert fused.seconds < serial
        assert serial / fused.seconds > 1.5

    def test_single_pair_has_no_parallel_gain_across_pairs(self):
        """Waves of one pair each fuse nothing: the fleet costs the
        single-pair runs' sum, less only the host-link time the
        pipelined waves hide."""
        pairs = [(x, y) for x, y, _ in planted_pairs(4, shape=(16, 16), seed=4)]
        run, stats = distill(pairs, max_pairs_per_wave=1)
        serial = sum(distill([pair])[1].seconds for pair in pairs)
        assert run.num_waves == 4
        assert stats.op_counts["dispatch"] == 4
        hidden = stats.op_seconds["infeed_overlap"]
        assert hidden < 0.0
        assert stats.seconds == pytest.approx(serial + hidden)


class TestValidation:
    def test_mismatched_shapes(self):
        device = small_backend()
        with pytest.raises(ValueError):
            distill([(np.ones((4, 4)), np.ones((4, 5)))], device=device)
        assert device.stats.seconds == 0.0


class TestVpuAccounting:
    """The Hadamard (VPU) stage must count toward batch timing."""

    def test_vpu_seconds_reported_and_positive(self):
        pairs = [(x, y) for x, y, _ in planted_pairs(3, seed=5)]
        _, stats = distill(pairs)
        # Per pair: one conjugate and two products; per kernel: the eps
        # add and the division.
        assert stats.op_counts["conjugate"] == 3
        assert stats.op_counts["hadamard_mul"] == 6
        assert stats.op_counts["hadamard_add"] == 3
        assert stats.op_counts["hadamard_div"] == 3
        for op in ("conjugate", "hadamard_mul", "hadamard_add", "hadamard_div"):
            assert stats.op_seconds[op] > 0.0

    def test_wave_prices_each_solve_like_a_single_pair_solve(self):
        """The wave's solve rows -- transforms and VPU stage -- are the
        single-pair solves' rows, one set per fused pair."""
        data = planted_pairs(2, shape=(16, 16), seed=6)
        _, stats = distill([(x, y) for x, y, _ in data])
        device = small_backend()
        for x, y, _ in data:
            frequency_solve(x, y, device=device)
        solo = device.take_stats()
        for op in SOLVE_OPS:
            assert stats.op_counts[op] == solo.op_counts[op]
            assert stats.op_seconds[op] == pytest.approx(solo.op_seconds[op])

    def test_mixed_shapes_distill_in_separate_waves(self):
        small = planted_pairs(2, shape=(8, 8), seed=7)
        large = planted_pairs(2, shape=(16, 16), seed=8)
        run, stats = distill([(x, y) for x, y, _ in small + large], eps=0.0)
        assert run.num_waves == 2
        assert stats.op_counts["dispatch"] == 2
        for (x, y, _), result in zip(small + large, run.results):
            np.testing.assert_array_equal(result.kernel, single_pair_solve(x, y, eps=0.0))
