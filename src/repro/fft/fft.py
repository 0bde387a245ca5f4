"""1-D discrete Fourier transforms on the host.

:func:`fft`, :func:`ifft`, :func:`rfft` and :func:`irfft` check their
arguments and hand the transform to the matching ``numpy.fft`` function
(pocketfft), which covers every length.  ``numpy.fft`` transforms each
1-D line of a batch on its own, so a plane's bits never depend on which
other planes share its call -- the property the batched, chunked and
sharded callers rely on for bit-identical scores.

Input is promoted to at least double precision first: ``numpy.fft``
keeps single-precision input in single precision, while every transform
here returns complex128 (or float64 from :func:`irfft`).

All four take an optional ``out=`` array of the result's shape and
dtype (``numpy.fft``'s own ``out``, numpy 2.0 and later).  It may be
the input itself, or a strided view: the convolution tail transforms
its columns in place and writes row spectra straight into bin-major
buffers through a transposed view, with the same bits as a freshly
allocated result.

Real input gets :func:`rfft` / :func:`irfft`: the DFT of a real signal
is Hermitian (``X[n-k] == conj(X[k])``), so only the ``n//2 + 1``
leading bins are stored.  The half-spectrum path is the host hot path of
every real occlusion plane.

Normalization follows :mod:`repro.fft.dft_matrix`: the default
``norm="backward"`` matches ``numpy.fft`` and keeps the convolution
theorem scale-free, which the distillation solve (paper Eq. 4) requires.
"""

from __future__ import annotations

import numpy as np

_VALID_NORMS = ("backward", "ortho", "forward")


def _checked(x: np.ndarray, axis: int, norm: str, name: str) -> np.ndarray:
    """``x`` as an array of at least double precision, after the shared checks."""
    if norm not in _VALID_NORMS:
        raise ValueError(f"norm must be one of {_VALID_NORMS}, got {norm!r}")
    array = np.asarray(x)
    if array.ndim == 0:
        raise ValueError(f"{name} requires at least a 1-D input")
    if array.shape[axis] == 0:
        raise ValueError(f"{name} of an empty axis is undefined")
    return array.astype(np.result_type(array.dtype, np.float64), copy=False)


def fft(
    x: np.ndarray,
    axis: int = -1,
    norm: str = "backward",
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Compute the 1-D DFT of ``x`` along ``axis``.

    Accepts real or complex input of any length and any batch shape.
    """
    array = _checked(x, axis, norm, "fft")
    return np.fft.fft(array, axis=axis, norm=norm, out=out)


def ifft(
    x: np.ndarray,
    axis: int = -1,
    norm: str = "backward",
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Inverse 1-D DFT, the exact inverse of :func:`fft` for every norm."""
    array = _checked(x, axis, norm, "ifft")
    return np.fft.ifft(array, axis=axis, norm=norm, out=out)


def rfft(
    x: np.ndarray,
    axis: int = -1,
    norm: str = "backward",
    out: np.ndarray | None = None,
) -> np.ndarray:
    """1-D DFT of **real** input: the ``n//2 + 1`` non-redundant bins.

    For real signals the full spectrum is Hermitian
    (``X[n-k] == conj(X[k])``), so this returns only bins ``0..n//2``
    along ``axis`` -- half the storage and about half the transform
    work.  Complex input is rejected (use :func:`fft`).
    """
    array = _checked(x, axis, norm, "rfft")
    if np.iscomplexobj(array):
        raise ValueError("rfft requires real input; use fft for complex signals")
    return np.fft.rfft(array, axis=axis, norm=norm, out=out)


def irfft(
    x: np.ndarray,
    n: int | None = None,
    axis: int = -1,
    norm: str = "backward",
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Real signal of length ``n`` from its ``n//2 + 1`` half-spectrum bins.

    The exact inverse of :func:`rfft` for every norm.  ``n`` defaults to
    ``2 * (bins - 1)`` (an even length); pass it explicitly to recover
    odd lengths, and it must satisfy ``n//2 + 1 == bins``.
    """
    array = _checked(x, axis, norm, "irfft")
    bins = array.shape[axis]
    if n is None:
        n = 2 * (bins - 1) if bins > 1 else 1
    n = int(n)
    if n <= 0 or n // 2 + 1 != bins:
        raise ValueError(
            f"irfft output length {n} is inconsistent with {bins} spectral "
            f"bins (need n // 2 + 1 == {bins})"
        )
    return np.fft.irfft(array, n=n, axis=axis, norm=norm, out=out)
