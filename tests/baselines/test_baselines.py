"""Baseline explainers, and their agreement with the distilled explainer."""

import numpy as np
import pytest

from repro.baselines import (
    gradient_input_saliency,
    occlusion_column_saliency,
    occlusion_plan_saliency,
    occlusion_saliency,
    saliency_block_grid,
)
from repro.core.masking import MaskSpec
from repro.fft import fft_circular_convolve2d


def planted_linear_model(shape=(8, 8), seed=0, hot=(4, 5), strength=10.0):
    """A linear 'black box' whose output hinges on one input element."""
    rng = np.random.default_rng(seed)
    weights = 0.05 * rng.standard_normal(shape)
    weights[hot] = strength

    def model(x):
        return np.array([np.sum(weights * x)])

    return model, hot


class TestOcclusion:
    def test_planted_block_wins(self):
        model, hot = planted_linear_model()
        x = np.ones((8, 8))
        grid = occlusion_saliency(model, x, block_shape=(2, 2))
        top = np.unravel_index(np.argmax(grid), grid.shape)
        assert top == (hot[0] // 2, hot[1] // 2)

    def test_planted_column_wins(self):
        model, hot = planted_linear_model()
        scores = occlusion_column_saliency(model, np.ones((8, 8)))
        assert int(np.argmax(scores)) == hot[1]

    def test_zero_input_blocks_score_zero_for_linear_model(self):
        model, _ = planted_linear_model()
        x = np.zeros((8, 8))
        grid = occlusion_saliency(model, x, block_shape=(4, 4))
        np.testing.assert_allclose(grid, 0.0, atol=1e-12)

    def test_reductions(self):
        model, _ = planted_linear_model()
        x = np.ones((8, 8))
        for reduction in ("l2", "l1", "max_abs"):
            grid = occlusion_saliency(model, x, (4, 4), reduction=reduction)
            assert np.all(grid >= 0)
        with pytest.raises(ValueError):
            occlusion_saliency(model, x, (4, 4), reduction="sum")

    def test_validation(self):
        model, _ = planted_linear_model()
        with pytest.raises(ValueError):
            occlusion_saliency(model, np.ones(8), (2, 2))
        with pytest.raises(ValueError):
            occlusion_saliency(model, np.ones((8, 8)), (3, 3))
        with pytest.raises(ValueError):
            occlusion_column_saliency(model, np.ones(8))

    def test_plan_saliency_rejects_a_vector_or_a_plan_for_another_plane(self):
        model, _ = planted_linear_model()
        calls = []

        def counted(x):
            calls.append(None)
            return model(x)

        with pytest.raises(ValueError, match="expected a matrix input"):
            occlusion_plan_saliency(counted, np.ones(8), MaskSpec.columns((8, 8)))
        with pytest.raises(ValueError, match=r"plan plane \(4, 4\) does not match"):
            occlusion_plan_saliency(counted, np.ones((8, 8)), MaskSpec.columns((4, 4)))
        assert calls == []  # refused before the model is queried

    def test_plan_saliency_scores_in_the_plan_grid(self):
        model, hot = planted_linear_model()
        x = np.ones((8, 8))
        rows = occlusion_plan_saliency(model, x, MaskSpec.rows((8, 8)))
        assert rows.shape == (8,)
        assert int(np.argmax(rows)) == hot[0]
        np.testing.assert_array_equal(
            occlusion_plan_saliency(model, x, MaskSpec.columns((8, 8))),
            occlusion_column_saliency(model, x),
        )

    def test_agreement_with_distilled_explainer(self):
        """Both explainers must surface the same planted block."""
        from repro.core import ConvolutionDistiller, block_contributions

        rng = np.random.default_rng(1)
        x = 0.01 * rng.standard_normal((8, 8))
        x[0, 0] = 1.0
        x[4:6, 2:4] = 8.0
        kernel_true = rng.standard_normal((8, 8))
        y = fft_circular_convolve2d(x, kernel_true)

        # Distilled path.
        distiller = ConvolutionDistiller(eps=1e-10).fit(x, y)
        distilled_grid = block_contributions(x, distiller.kernel_, y, (2, 2))

        # Occlusion path against the true black box.
        def black_box(matrix):
            return fft_circular_convolve2d(matrix, kernel_true)

        occlusion_grid = occlusion_saliency(black_box, x, (2, 2))
        assert np.unravel_index(np.argmax(distilled_grid), (4, 4)) == np.unravel_index(
            np.argmax(occlusion_grid), (4, 4)
        )


class TestGradientSaliency:
    def build_model(self, seed=0):
        from repro.nn import Dense, Flatten, ReLU, Sequential

        rng = np.random.default_rng(seed)
        return Sequential(
            [Flatten(), Dense(16, 8, rng=rng), ReLU(), Dense(8, 2, rng=rng)]
        )

    def test_shape_and_nonnegativity(self):
        model = self.build_model()
        x = np.random.default_rng(1).standard_normal((1, 4, 4))
        saliency = gradient_input_saliency(model, x)
        assert saliency.shape == (1, 4, 4)
        assert np.all(saliency >= 0)

    def test_class_index_selection(self):
        model = self.build_model()
        x = np.random.default_rng(2).standard_normal((1, 4, 4))
        s0 = gradient_input_saliency(model, x, class_index=0)
        s1 = gradient_input_saliency(model, x, class_index=1)
        assert not np.allclose(s0, s1)

    def test_zero_input_gives_zero_saliency(self):
        model = self.build_model()
        saliency = gradient_input_saliency(model, np.zeros((1, 4, 4)))
        np.testing.assert_allclose(saliency, 0.0)

    def test_validation(self):
        model = self.build_model()
        with pytest.raises(ValueError):
            gradient_input_saliency(model, np.ones((4, 4)))
        with pytest.raises(ValueError):
            gradient_input_saliency(model, np.ones((1, 4, 4)), class_index=7)

    def test_block_grid_aggregation(self):
        saliency = np.ones((2, 8, 8))
        grid = saliency_block_grid(saliency, (4, 4))
        np.testing.assert_allclose(grid, np.full((2, 2), 32.0))
        with pytest.raises(ValueError):
            saliency_block_grid(np.ones((8, 8)), (3, 3))

    def test_block_grid_needs_a_plane_or_a_channel_stack(self):
        with pytest.raises(ValueError, match="expected a 2-D or 3-D saliency map"):
            saliency_block_grid(np.ones(8), (2, 2))
        with pytest.raises(ValueError, match="expected a 2-D or 3-D saliency map"):
            saliency_block_grid(np.ones((1, 2, 8, 8)), (2, 2))

    def test_model_must_return_class_logits(self):
        from repro.nn import ReLU, Sequential

        with pytest.raises(ValueError, match=r"model output must be \(batch, classes\)"):
            gradient_input_saliency(Sequential([ReLU()]), np.ones((1, 4, 4)))

