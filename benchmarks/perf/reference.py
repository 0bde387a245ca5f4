"""The paper's occlusion explanation, written literally with ``numpy.fft``.

Eq. 4 distills the model into one kernel, ``K = F^-1(F(Y) conj(F(X)) /
(|F(X)|^2 + eps))``; Eq. 5 scores each feature by re-running the
distilled model with that feature zeroed and measuring how far the
output moves from ``y``.  This module shares no code with ``repro``: it
is the independent answer the benchmark checks the program against.
"""

import numpy as np


def distill(x, y, eps):
    """Eq. 4: the circular-convolution kernel that maps ``x`` to ``y``."""
    x_hat = np.fft.fft2(x)
    return np.fft.ifft2(np.fft.fft2(y) * np.conj(x_hat) / (np.abs(x_hat) ** 2 + eps)).real


def block_masks(shape, block_shape):
    """Row-major boolean masks, one per ``block_shape`` tile of ``shape``."""
    (m, n), (bh, bw) = shape, block_shape
    masks = np.zeros((m // bh, n // bw, m, n), dtype=bool)
    for i in range(m // bh):
        for j in range(n // bw):
            masks[i, j, i * bh:(i + 1) * bh, j * bw:(j + 1) * bw] = True
    return masks


def occlusion_scores(x, y, block_shape, eps):
    """Eq. 5: ``||y - F^-1(F(x * (1 - m)) F(K))||_2`` per block mask ``m``."""
    kernel_hat = np.fft.fft2(distill(x, y, eps))
    masks = block_masks(x.shape, block_shape)
    masked = np.where(masks, 0.0, x)
    predictions = np.fft.ifft2(np.fft.fft2(masked) * kernel_hat).real
    return np.sqrt(np.sum((y - predictions) ** 2, axis=(-2, -1)))


def relative_error(scores, reference):
    """Largest absolute difference as a share of the reference's largest score."""
    scale = float(np.max(np.abs(reference)))
    return float(np.max(np.abs(np.asarray(scores) - reference))) / scale
