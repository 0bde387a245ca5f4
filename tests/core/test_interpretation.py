"""Contribution factors (Eq. 5): correctness and ranking behaviour."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    block_contributions,
    column_contributions,
    feature_contributions,
    normalize_scores,
    row_contributions,
    score_plan,
    top_k_features,
)
from repro.core.masking import MaskSpec
from repro.fft import fft_circular_convolve2d
from repro.hw import CpuDevice
from tests import reference


def fitted_setup(shape=(8, 8), seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape)
    x[0, 0] += 5.0 * np.prod(shape) ** 0.5
    kernel = rng.standard_normal(shape)
    y = fft_circular_convolve2d(x, kernel)
    return x, kernel, y


class TestFeatureContributions:
    def test_fast_equals_naive(self):
        """The linearity shortcut must agree with literal Eq. 5."""
        x, kernel, y = fitted_setup(shape=(6, 6), seed=3)
        fast = feature_contributions(x, kernel, y)
        naive = reference.occlusion_scores(x, kernel, y, "elements")
        np.testing.assert_allclose(fast, naive, atol=1e-8)

    @pytest.mark.parametrize("reduction", ["l2", "l1", "mean_abs", "max_abs"])
    def test_reductions_all_work(self, reduction):
        x, kernel, y = fitted_setup(shape=(4, 4), seed=4)
        scores = feature_contributions(x, kernel, y, reduction=reduction)
        assert scores.shape == (4, 4)
        assert np.all(scores >= 0)

    def test_dominant_feature_scores_highest(self):
        """A feature carrying most of the input energy dominates Eq. 5."""
        rng = np.random.default_rng(5)
        x = 0.01 * rng.standard_normal((8, 8))
        x[0, 0] = 1.0  # keeps the spectrum well-posed too
        x[3, 5] = 10.0  # the planted dominant feature
        kernel = rng.standard_normal((8, 8))
        y = fft_circular_convolve2d(x, kernel)
        scores = feature_contributions(x, kernel, y)
        assert top_k_features(scores, 1)[0] == (3, 5)

    def test_unknown_reduction_rejected(self):
        x, kernel, y = fitted_setup(seed=7)
        with pytest.raises(ValueError):
            feature_contributions(x, kernel, y, reduction="median")

    def test_operands_of_different_shapes_rejected(self):
        x, kernel, y = fitted_setup(shape=(4, 4), seed=9)
        with pytest.raises(ValueError, match="must share one shape"):
            feature_contributions(x, kernel, y[:3])
        with pytest.raises(ValueError, match="must share one shape"):
            feature_contributions(x, kernel[:, :3], y)

    def test_scores_from_base_validate_like_the_full_entry_point(self):
        from repro.core.interpretation import element_scores_from_base

        x, kernel, y = fitted_setup(shape=(4, 4), seed=10)
        base = y - fft_circular_convolve2d(x, kernel)
        np.testing.assert_array_equal(
            element_scores_from_base(x, kernel, base),
            feature_contributions(x, kernel, y),
        )
        with pytest.raises(ValueError, match="must share one shape"):
            element_scores_from_base(x, kernel, base[:2])
        with pytest.raises(ValueError, match="unknown reduction 'median'"):
            element_scores_from_base(x, kernel, base, reduction="median")

    def test_device_timing_accounted(self):
        device = CpuDevice()
        x, kernel, y = fitted_setup(shape=(4, 4), seed=8)
        feature_contributions(x, kernel, y, device=device)
        # One base convolution (input and kernel transforms), then the
        # per-feature adds as accounted elementwise work.
        assert device.stats.op_counts["fft2"] == 2
        assert device.stats.op_counts["ifft2"] == 1
        assert device.stats.op_counts["elementwise_accounted"] == 1


class TestMaskAndAggregates:
    def test_block_grid_shape(self):
        x, kernel, y = fitted_setup(shape=(8, 8), seed=11)
        grid = block_contributions(x, kernel, y, block_shape=(2, 2))
        assert grid.shape == (4, 4)

    def test_block_shape_must_tile(self):
        x, kernel, y = fitted_setup(shape=(8, 8), seed=12)
        with pytest.raises(ValueError):
            block_contributions(x, kernel, y, block_shape=(3, 3))
        with pytest.raises(ValueError):
            block_contributions(x, kernel, y, block_shape=(0, 2))

    def test_planted_block_dominates(self):
        """Figure 5's claim: the informative block gets the top weight."""
        rng = np.random.default_rng(13)
        x = 0.01 * rng.standard_normal((8, 8))
        x[0, 0] = 1.0
        x[4:6, 2:4] = 8.0  # planted discriminative block at grid (2, 1)
        kernel = rng.standard_normal((8, 8))
        y = fft_circular_convolve2d(x, kernel)
        grid = block_contributions(x, kernel, y, block_shape=(2, 2))
        assert np.unravel_index(np.argmax(grid), grid.shape) == (2, 1)

    def test_planted_column_dominates(self):
        """Figure 6's claim: the attack clock cycle gets the top weight."""
        rng = np.random.default_rng(14)
        x = 0.01 * rng.standard_normal((8, 8))
        x[0, 0] = 1.0
        x[:, 5] = 6.0  # the ATTACK_VECTOR assignment cycle
        kernel = rng.standard_normal((8, 8))
        y = fft_circular_convolve2d(x, kernel)
        scores = column_contributions(x, kernel, y)
        assert int(np.argmax(scores)) == 5

    def test_row_contributions_shape(self):
        x, kernel, y = fitted_setup(seed=15)
        assert row_contributions(x, kernel, y).shape == (8,)


class TestRankingHelpers:
    def test_top_k_2d(self):
        scores = np.array([[1.0, 5.0], [3.0, 2.0]])
        assert top_k_features(scores, 2) == [(0, 1), (1, 0)]

    def test_top_k_1d(self):
        scores = np.array([0.1, 9.0, 4.0])
        assert top_k_features(scores, 2) == [(1,), (2,)]

    def test_top_k_clamps_to_size(self):
        assert len(top_k_features(np.ones(3), 10)) == 3

    def test_top_k_invalid(self):
        with pytest.raises(ValueError):
            top_k_features(np.ones(3), 0)

    def test_normalize_scores_range(self):
        scores = np.array([2.0, 4.0, 6.0])
        normalized = normalize_scores(scores)
        assert normalized.min() == 0.0
        assert normalized.max() == 1.0

    def test_normalize_constant_scores(self):
        np.testing.assert_array_equal(normalize_scores(np.full(4, 3.0)), np.zeros(4))


class TestProperties:
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n=st.sampled_from([4, 6, 8]),
    )
    @settings(max_examples=25, deadline=None)
    def test_fast_naive_agreement_property(self, seed, n):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, n))
        kernel = rng.standard_normal((n, n))
        y = rng.standard_normal((n, n))
        fast = feature_contributions(x, kernel, y)
        naive = reference.occlusion_scores(x, kernel, y, "elements")
        np.testing.assert_allclose(fast, naive, atol=1e-7)

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_block_scores_bounded_by_total_mask(self, seed):
        """Masking everything bounds any single-block contribution under
        the triangle-style monotonicity of the residual norm base point."""
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((4, 4))
        kernel = rng.standard_normal((4, 4))
        y = fft_circular_convolve2d(x, kernel)
        grid = block_contributions(x, kernel, y, block_shape=(2, 2))
        assert np.all(grid >= 0)
        assert np.all(np.isfinite(grid))


class TestBatchedEntryPoints:
    """Every occlusion entry point agrees with the literal reference loop."""

    def test_block_contributions_methods_agree(self):
        x, kernel, y = fitted_setup(seed=20)
        np.testing.assert_array_equal(
            block_contributions(x, kernel, y, (2, 2)),
            reference.occlusion_scores(x, kernel, y, "blocks", (2, 2)),
        )

    def test_column_and_row_methods_agree(self):
        x, kernel, y = fitted_setup(seed=21)
        np.testing.assert_array_equal(
            column_contributions(x, kernel, y),
            reference.occlusion_scores(x, kernel, y, "columns"),
        )
        np.testing.assert_array_equal(
            row_contributions(x, kernel, y),
            reference.occlusion_scores(x, kernel, y, "rows"),
        )

    def test_feature_contributions_batched_matches_fast(self):
        x, kernel, y = fitted_setup(shape=(6, 6), seed=22)
        np.testing.assert_allclose(
            score_plan(x, kernel, y, MaskSpec.elements(x.shape)),
            feature_contributions(x, kernel, y),
            atol=1e-8,
        )

    def test_block_contributions_with_fill_match_the_reference(self):
        x, kernel, y = fitted_setup(seed=24)
        fill = float(x.mean())
        np.testing.assert_array_equal(
            block_contributions(x, kernel, y, (2, 2), fill_value=fill),
            reference.occlusion_scores(x, kernel, y, "blocks", (2, 2), fill_value=fill),
        )

    def test_batched_amortizes_kernel_transform(self):
        device = CpuDevice()
        x, kernel, y = fitted_setup(seed=25)
        block_contributions(x, kernel, y, (2, 2), device=device)
        # The kernel spectrum is transformed exactly once for the plan.
        assert device.stats.op_counts["fft2"] == 1
        assert device.stats.op_counts["fft2_batch"] == 16


class TestTopKTieBreaking:
    def test_equal_scores_rank_by_ascending_index(self):
        """Regression: reversed argsort used to break ties by *reversed*
        flat index, so equal scores ranked back-to-front."""
        scores = np.array([1.0, 5.0, 5.0, 2.0])
        assert top_k_features(scores, 2) == [(1,), (2,)]

    def test_2d_ties_rank_in_reading_order(self):
        scores = np.array([[3.0, 3.0], [3.0, 1.0]])
        assert top_k_features(scores, 3) == [(0, 0), (0, 1), (1, 0)]

    def test_all_equal_scores_enumerate_in_order(self):
        assert top_k_features(np.full(4, 7.0), 4) == [(0,), (1,), (2,), (3,)]

    def test_unsigned_and_bool_scores_rank_correctly(self):
        """Negation-before-cast would wrap uint8 and reject bool."""
        assert top_k_features(np.array([0, 5, 3], dtype=np.uint8), 2) == [(1,), (2,)]
        assert top_k_features(np.array([True, False, True]), 2) == [(0,), (2,)]
