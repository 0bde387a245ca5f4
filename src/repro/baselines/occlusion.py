"""Occlusion saliency: the classic perturbation explainer.

Model-agnostic baseline used to validate the distilled explainer: zero a
block of the input, query the *black-box model itself* (not the
distilled kernel), and score the block by the change in the model's
output.  On inputs with planted evidence both explainers must agree on
the top block -- a cross-check the test suite and EXPERIMENTS.md use.

The masked variants come from the same
:class:`~repro.core.masking.MaskSpec` the distilled engine batches on
-- one mask generator for every explainer.  The model here
is an opaque callable,
so each variant still needs its own forward query (occlusion's
structural cost: one full model forward per feature, whereas the
paper's distilled explainer re-runs only the one-layer kernel -- and,
batched, amortizes even that into a single program).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.masking import MaskSpec, reduce_batch

ModelFn = Callable[[np.ndarray], np.ndarray]


def occlusion_plan_saliency(
    model: ModelFn,
    x: np.ndarray,
    plan: MaskSpec,
    fill_value: float = 0.0,
    reduction: str = "l2",
) -> np.ndarray:
    """Occlusion saliency for every mask of ``plan``, in its output grid.

    ``model`` maps an input matrix to an output array (any shape); the
    score of a mask is the norm of the output change when its features
    are replaced by ``fill_value``.
    """
    x = np.asarray(x)
    if x.ndim != 2:
        raise ValueError(f"expected a matrix input, got shape {x.shape}")
    if x.shape != plan.plane_shape:
        raise ValueError(
            f"plan plane {plan.plane_shape} does not match input of shape {x.shape}"
        )
    baseline = np.asarray(model(x), dtype=np.float64)
    scores = np.zeros(plan.num_masks)
    # One plane at a time: the opaque model is queried sequentially, so
    # generating more than one masked variant ahead would buy nothing.
    for occluded, rows in plan.apply_chunks(x, fill_value=fill_value, chunk_rows=1):
        delta = np.asarray(model(occluded[0]), dtype=np.float64) - baseline
        scores[rows.start] = _norm(delta, reduction)
    return plan.reshape_scores(scores)


def occlusion_saliency(
    model: ModelFn,
    x: np.ndarray,
    block_shape: tuple[int, int],
    fill_value: float = 0.0,
    reduction: str = "l2",
) -> np.ndarray:
    """Block-occlusion saliency grid for one input matrix (Figure 5 shape)."""
    x = np.asarray(x)
    if x.ndim != 2:
        raise ValueError(f"expected a matrix input, got shape {x.shape}")
    plan = MaskSpec.blocks(x.shape, block_shape)  # validates shape/tiling
    return occlusion_plan_saliency(
        model, x, plan, fill_value=fill_value, reduction=reduction
    )


def occlusion_column_saliency(
    model: ModelFn, x: np.ndarray, fill_value: float = 0.0, reduction: str = "l2"
) -> np.ndarray:
    """Per-column occlusion (trace-table clock cycles)."""
    x = np.asarray(x)
    if x.ndim != 2:
        raise ValueError(f"expected a matrix input, got shape {x.shape}")
    plan = MaskSpec.columns(x.shape)
    return occlusion_plan_saliency(
        model, x, plan, fill_value=fill_value, reduction=reduction
    )


def _norm(delta: np.ndarray, reduction: str) -> float:
    # Same reduction vocabulary as the distilled engine's score_plan;
    # flattened first because model outputs may have any shape.
    return float(reduce_batch(np.asarray(delta).reshape(1, 1, -1), reduction)[0])
