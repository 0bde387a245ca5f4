"""Dataset preprocessing for the examples."""

from __future__ import annotations

import numpy as np


def to_grayscale(images: np.ndarray) -> np.ndarray:
    """Channel-mean grayscale: (batch, C, H, W) -> (batch, H, W).

    The distillation experiments operate on single-plane matrices; this
    is the standard reduction for multi-channel inputs.
    """
    images = np.asarray(images)
    if images.ndim != 4:
        raise ValueError(f"expected (batch, channels, H, W), got {images.shape}")
    return images.mean(axis=1)
