"""2-D Fourier transforms: row-column FFT form and MXU matmul form.

The paper's data-decomposition derivation (Section III-C) shows that the
2-D DFT of an ``M x N`` matrix factors into independent 1-D transforms:
first all rows, then all columns of the intermediate result (Eq. 7-8),
and that each stage is a matrix product with a DFT matrix (Eq. 10-13):

    X = (W_M . x) . W_N

Both evaluations are provided:

* :func:`fft2` / :func:`ifft2` run the 1-D host transforms of
  :mod:`repro.fft.fft` (``numpy.fft``) over every row, then every
  column -- the host path;
* :func:`fft2_matmul` / :func:`ifft2_matmul` multiply by explicit DFT
  matrices -- the exact computation a systolic MXU performs, and the
  form sharded across TPU cores by :mod:`repro.core.decomposition`;
* :func:`fft2_batch` / :func:`ifft2_batch` vectorize the row-column
  path over leading batch axes -- the substrate of the batched
  occlusion engine (:mod:`repro.core.masking`), which transforms every
  masked input variant in one call instead of one call per mask;
* :func:`rfft2` / :func:`irfft2` and their batch forms transform
  **real** planes through the half-spectrum real path: rows through
  :func:`repro.fft.fft.rfft` (Hermitian symmetry halves the bins),
  then only the ``N//2 + 1`` surviving columns through the complex
  transform -- about half the transform work and memory of the full
  complex path, the host hot path for real occlusion planes.

Tests assert the two paths agree to floating-point tolerance for every
shape, including non-square and non-power-of-two, and that the batch
variants match plane-by-plane application exactly.
"""

from __future__ import annotations

import numpy as np

from repro.fft.dft_matrix import dft_matrix, idft_matrix
from repro.fft.fft import fft, ifft, irfft, rfft


def _check_2d(x: np.ndarray, name: str) -> np.ndarray:
    array = np.asarray(x)
    if array.ndim != 2:
        raise ValueError(f"{name} expects a 2-D array, got shape {array.shape}")
    if array.shape[0] == 0 or array.shape[1] == 0:
        raise ValueError(f"{name} of an empty matrix is undefined")
    return array


def fft2(x: np.ndarray, norm: str = "backward") -> np.ndarray:
    """2-D DFT via the row-column algorithm (Eq. 7-8).

    Rows are transformed first (axis 1), then columns (axis 0), exactly
    mirroring the paper's two-stage decomposition.
    """
    array = _check_2d(x, "fft2")
    rows_done = fft(array, axis=1, norm=norm)
    return fft(rows_done, axis=0, norm=norm)


def ifft2(x: np.ndarray, norm: str = "backward") -> np.ndarray:
    """Inverse 2-D DFT; exact inverse of :func:`fft2` for every norm."""
    array = _check_2d(x, "ifft2")
    cols_done = ifft(array, axis=0, norm=norm)
    return ifft(cols_done, axis=1, norm=norm)


def _check_batch_2d(x: np.ndarray, name: str) -> np.ndarray:
    array = np.asarray(x)
    if array.ndim < 2:
        raise ValueError(f"{name} expects at least a 2-D array, got shape {array.shape}")
    if array.shape[-2] == 0 or array.shape[-1] == 0:
        raise ValueError(f"{name} of an empty matrix is undefined")
    return array


def fft2_batch(x: np.ndarray, norm: str = "backward") -> np.ndarray:
    """2-D DFT over the two trailing axes of a stacked batch.

    Accepts any leading batch shape (``(..., M, N)``); a plain matrix is
    a zero-axis batch.  The stage order (rows, then columns) matches
    :func:`fft2`, and the 1-D transforms treat every line of a batch on
    its own, so each plane of the result is bit-identical to
    transforming it alone -- the equivalence the batched occlusion
    engine relies on.
    """
    array = _check_batch_2d(x, "fft2_batch")
    rows_done = fft(array, axis=-1, norm=norm)
    return fft(rows_done, axis=-2, norm=norm)


def ifft2_batch(x: np.ndarray, norm: str = "backward") -> np.ndarray:
    """Inverse 2-D DFT over the two trailing axes of a stacked batch.

    Exact inverse of :func:`fft2_batch`; stage order (columns, then
    rows) matches :func:`ifft2` for per-plane bit-identity.
    """
    array = _check_batch_2d(x, "ifft2_batch")
    cols_done = ifft(array, axis=-2, norm=norm)
    return ifft(cols_done, axis=-1, norm=norm)


def rfft2_batch(x: np.ndarray, norm: str = "backward") -> np.ndarray:
    """Half-spectrum 2-D DFT of real planes over the two trailing axes.

    ``(..., M, N)`` real input maps to ``(..., M, N//2 + 1)`` complex
    output: rows go through the real transform (only the non-redundant
    bins survive), then the remaining columns through the complex
    transform.  Each plane is bit-identical to transforming it alone, and
    complex input is rejected (use :func:`fft2_batch`).
    """
    array = _check_batch_2d(x, "rfft2_batch")
    rows_done = rfft(array, axis=-1, norm=norm)
    return fft(rows_done, axis=-2, norm=norm)


def irfft2_batch(
    x: np.ndarray, n: int | None = None, norm: str = "backward"
) -> np.ndarray:
    """Real planes from trailing-axes half spectra; inverse of :func:`rfft2_batch`.

    ``n`` is the spatial column count ``N`` (defaults to
    ``2 * (bins - 1)``; pass it explicitly to recover odd widths).
    Output is real float64 of shape ``(..., M, n)``.
    """
    array = _check_batch_2d(x, "irfft2_batch")
    cols_done = ifft(array, axis=-2, norm=norm)
    return irfft(cols_done, n=n, axis=-1, norm=norm)


def rfft2(x: np.ndarray, norm: str = "backward") -> np.ndarray:
    """Half-spectrum 2-D DFT of one real ``M x N`` plane."""
    array = _check_2d(x, "rfft2")
    return rfft2_batch(array, norm=norm)


def irfft2(x: np.ndarray, n: int | None = None, norm: str = "backward") -> np.ndarray:
    """One real plane from its ``M x (N//2 + 1)`` half spectrum."""
    array = _check_2d(x, "irfft2")
    return irfft2_batch(array, n=n, norm=norm)


def fft2_matmul(x: np.ndarray, norm: str = "backward") -> np.ndarray:
    """2-D DFT in the matmul form ``(W_M . x) . W_N`` (Eq. 13).

    This is the exact dataflow executed on the simulated TPU: two dense
    matrix products, which the MXU tiler maps onto the systolic array.
    """
    array = _check_2d(x, "fft2_matmul")
    m, n = array.shape
    w_m = dft_matrix(m, norm=norm)
    w_n = dft_matrix(n, norm=norm)
    return (w_m @ array) @ w_n


def ifft2_matmul(x: np.ndarray, norm: str = "backward") -> np.ndarray:
    """Inverse 2-D DFT in matmul form, using synthesis matrices."""
    array = _check_2d(x, "ifft2_matmul")
    m, n = array.shape
    w_m_inv = idft_matrix(m, norm=norm)
    w_n_inv = idft_matrix(n, norm=norm)
    return (w_m_inv @ array) @ w_n_inv
