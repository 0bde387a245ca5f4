"""Circular convolution by its definition: the oracle for the FFT convolutions.

:func:`circular_convolve2d` sums shifted copies of the kernel directly,
with no transform involved, so the tests that compare
``repro.fft.fft_circular_convolve2d`` against it check the convolution
theorem (paper Eq. 3) rather than restate it.  Imported as
``tests.fft.convolution_oracle``.
"""

import numpy as np


def circular_convolve2d(x, k):
    """Direct 2-D circular convolution of two equal-shape matrices.

    ``out[i, j] = sum_{p, q} x[p, q] * k[(i - p) mod M, (j - q) mod N]``.
    Quartic cost; intended for small inputs.
    """
    x = np.asarray(x)
    k = np.asarray(k)
    if x.ndim != 2 or 0 in x.shape:
        raise ValueError(f"circular_convolve2d expects a non-empty matrix, got {x.shape}")
    if x.shape != k.shape:
        raise ValueError(
            f"2-D circular convolution needs equal shapes, got {x.shape} and {k.shape}"
        )
    m, n = x.shape
    result_dtype = np.result_type(x.dtype, k.dtype, np.float64)
    out = np.zeros((m, n), dtype=result_dtype)
    for p in range(m):
        for q in range(n):
            value = x[p, q]
            if value == 0:
                continue
            out += value * np.roll(np.roll(k, p, axis=0), q, axis=1)
    return out
