"""The DFT by its definition (paper Eq. 10): the oracle for the host transforms.

Every helper multiplies by an explicit DFT matrix from
:mod:`repro.fft.dft_matrix`, whose entries are ``exp(-2j*pi*m*k/n)``
with no FFT involved, so the oracle shares no code with ``numpy.fft``.
Imported as ``tests.fft.dft_oracle``.
"""

import numpy as np

from repro.fft import dft_matrix, idft_matrix


def _along(x, axis, matrix_for):
    moved = np.moveaxis(np.asarray(x), axis, -1)
    return np.moveaxis(moved @ matrix_for(moved.shape[-1]), -1, axis)


def dft(x, axis=-1, norm="backward"):
    """``x @ W_n`` along ``axis``: the full spectrum."""
    return _along(x, axis, lambda n: dft_matrix(n, norm))


def idft(x, axis=-1, norm="backward"):
    """``x @ W_n^-1`` along ``axis``: the inverse of :func:`dft`."""
    return _along(x, axis, lambda n: idft_matrix(n, norm))


def rdft(x, axis=-1, norm="backward"):
    """The ``n//2 + 1`` leading bins of :func:`dft` along ``axis``."""
    bins = np.asarray(x).shape[axis] // 2 + 1
    return np.take(dft(x, axis, norm), np.arange(bins), axis=axis)


def irdft(half, n, norm="backward"):
    """Real length-``n`` signal of a half spectrum (last axis).

    Rebuilds the dropped bins as the conjugate mirror of the kept ones,
    ``X[n-k] == conj(X[k])``, then applies :func:`idft`.
    """
    half = np.asarray(half)
    mirror = np.conj(half[..., 1 : n - n // 2][..., ::-1])
    return idft(np.concatenate([half, mirror], axis=-1), norm=norm).real


def dft_bins(x, bins):
    """Selected bins of the unnormalized DFT of a 1-D ``x``, by the sum.

    For lengths whose full DFT matrix would be too large to build.
    """
    n = len(x)
    phase = np.mod(np.outer(bins, np.arange(n)), n)
    return np.exp(-2j * np.pi * phase / n) @ x
