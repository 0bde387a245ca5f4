"""Task transformation: model distillation as a Fourier-domain solve.

This module implements Section III-B of the paper.  The distilled model
is a single circular-convolution kernel ``K`` satisfying ``X (*) K = Y``
(Eq. 2).  Applying the discrete convolution theorem turns the fit into

    F(X) o F(K) = F(Y)            =>    K = F^-1(F(Y) / F(X))   (Eq. 3-4)

i.e. two forward transforms, one Hadamard division, one inverse
transform -- all of which a TPU evaluates as dense matrix products.

Two practical extensions:

* **Regularization.**  ``F(X)`` can be arbitrarily small, so the raw
  Eq. 4 division is numerically explosive.  We solve the least-squares
  problem ``min_K sum_i ||X_i (*) K - Y_i||^2`` instead, whose closed
  form is the Wiener deconvolution

      F(K) = sum_i F(Y_i) conj(F(X_i)) / (sum_i |F(X_i)|^2 + eps).

  With a single pair and ``eps -> 0`` this is exactly Eq. 4; the
  operation count (transforms + one Hadamard division) is unchanged, so
  the paper's acceleration story is unaffected.

* **Output embedding.**  A classifier's output ``y`` lives in R^C, not
  on the input plane.  :class:`OutputEmbedding` lifts it to an ``M x N``
  matrix so Eq. 2 type-checks; several strategies are provided and the
  choice is recorded on the fitted distiller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.fft.fft2d import fft2_batch, ifft2_batch, irfft2_batch, rfft2_batch
from repro.hw.device import _COMPLEX_HADAMARD_FLOPS, Device

_STRATEGIES = ("identity", "spatial", "onehot-row", "tile")


def check_eps(eps) -> None:
    """Reject a negative or non-finite Wiener regularizer ``eps``.

    The single home of the rule: :func:`frequency_solve` enforces it on
    every call, and every distillation entry point when it is built, so
    a bad value fails at construction instead of mid-run.  ``eps = 0``
    stays legal: it is the paper's Eq. 4 verbatim.
    """
    if not (math.isfinite(eps) and eps >= 0):
        raise ValueError(f"eps must be finite and non-negative, got {eps}")


_ZERO_BIN = "the spectrum of x has a zero bin, where Eq. 4 divides by zero at eps=0"


def spectrum_problem(x, y, eps: float) -> str | None:
    """Why Eq. 4 cannot solve for the pair ``(x, y)`` at ``eps``, or ``None``.

    The solve divides by ``X conj(X) + eps``, ``X`` the 2-D spectrum of
    ``x``; at ``eps = 0`` a bin where that product is exactly 0 gives a
    NaN or infinite kernel with only a ``RuntimeWarning``.  An all-zero
    or a constant ``x`` has such bins.  ``FleetExecutor.check_pair`` asks
    before any work, and only at ``eps = 0`` does this transform ``x``,
    with the solve's own transform (the half spectrum when ``x`` and
    ``y`` are both real, see :func:`_solve_spectra`), so it reads the
    bins the solve's :func:`_check_zero_bins` reads.
    """
    if eps != 0:
        return None
    x_hat = (rfft2_batch if _on_half_spectra(x, y) else fft2_batch)(x)
    x_conj = np.conj(x_hat)
    return None if (x_hat * x_conj).all() else _ZERO_BIN


def _on_half_spectra(x, y) -> bool:
    """Whether Eq. 4 solves ``(x, y)`` on half spectra: both are real."""
    return np.isrealobj(x) and np.isrealobj(y)


def _check_zero_bins(denominator) -> None:
    """Reject a ``(P, M, N)`` Eq. 4 denominator with an exact zero bin."""
    singular = np.flatnonzero(~denominator.reshape(len(denominator), -1).all(axis=1))
    if singular.size:
        raise ValueError(f"kernel {singular[0]}: {_ZERO_BIN}")


@dataclass(frozen=True)
class OutputEmbedding:
    """Lifts classifier outputs ``y in R^C`` onto the input plane.

    Strategies:

    * ``identity``   -- the output already is an ``M x N`` matrix (e.g.
      trace tables whose label plane equals the input plane);
    * ``spatial``    -- the grid is split into ``C`` contiguous row bands,
      band ``c`` is filled with ``y[c]`` (default for image classifiers;
      keeps class evidence spatially localized so block occlusion reads
      naturally);
    * ``onehot-row`` -- ``y`` occupies the first row, zeros elsewhere;
    * ``tile``       -- ``y`` repeats cyclically over the whole grid.
    """

    strategy: str = "spatial"

    def __post_init__(self) -> None:
        if self.strategy not in _STRATEGIES:
            raise ValueError(
                f"unknown embedding strategy {self.strategy!r}; "
                f"expected one of {_STRATEGIES}"
            )

    def embed(self, y: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
        """Return the ``shape`` matrix carrying the output vector ``y``."""
        y = np.asarray(y, dtype=np.float64)
        m, n = shape
        if self.strategy == "identity":
            if y.shape != shape:
                raise ValueError(
                    f"identity embedding needs output shape {shape}, got {y.shape}"
                )
            return y.copy()
        if y.ndim != 1:
            raise ValueError(
                f"{self.strategy!r} embedding expects a 1-D output vector, "
                f"got shape {y.shape}"
            )
        classes = y.shape[0]
        if classes == 0:
            raise ValueError("cannot embed an empty output vector")
        if classes > m * n:
            raise ValueError(
                f"output vector ({classes} classes) does not fit a {m}x{n} plane"
            )
        plane = np.zeros(shape, dtype=np.float64)
        if self.strategy == "onehot-row":
            row = np.zeros(n)
            count = min(classes, n)
            row[:count] = y[:count]
            plane[0, :] = row
            return plane
        if self.strategy == "tile":
            flat = np.resize(y, m * n)
            return flat.reshape(shape)
        # spatial: contiguous row-major bands, one per class.
        cells = m * n
        band = cells // classes
        flat = plane.reshape(-1)
        for c in range(classes):
            start = c * band
            stop = start + band if c < classes - 1 else cells
            flat[start:stop] = y[c]
        return plane

def _normalize_batch(arrays, name: str) -> np.ndarray:
    batch = np.asarray(arrays)
    if batch.ndim == 2:
        batch = batch[np.newaxis]
    if batch.ndim != 3:
        raise ValueError(
            f"{name} must be one matrix or a batch of matrices, got shape {batch.shape}"
        )
    if 0 in batch.shape:
        raise ValueError(f"{name} batch is empty")
    return batch


def _normalize_stack(arrays, name: str) -> np.ndarray:
    """``arrays`` as a ``(P, B, M, N)`` stack; matrices and batches get P = 1."""
    stack = np.asarray(arrays)
    if stack.ndim == 4 and 0 not in stack.shape:
        return stack
    return _normalize_batch(stack, name)[np.newaxis]


def _record_solve(device: Device, kernels: int, pairs: int, m: int, n: int) -> None:
    """Ledger of ``kernels`` Eq. 4 solves from ``pairs`` pairs each, priced once.

    The rows, in order, that ``device.fft2``/``conjugate``/``hadamard``/
    ``ifft2`` write: per pair two transforms, a conjugate and two
    products; per kernel the eps add, the division and the inverse.
    One kernel's rows are a template the device builds once per
    ``(pairs, m, n)`` from its cost hooks (:meth:`~repro.hw.device
    .Device.ledger_template`), and the ledger replays it ``kernels``
    times (:meth:`~repro.hw.device.DeviceStats.record_rows`), which
    leaves every bit as one ``record`` call per row would.
    """
    template = device.ledger_template(
        ("solve", pairs, m, n), lambda: _solve_rows(device, pairs, m, n)
    )
    device.stats.record_rows(template, kernels)


def _solve_rows(device: Device, pairs: int, m: int, n: int) -> tuple:
    """One kernel's Eq. 4 ledger rows from ``pairs`` pairs, in record order."""
    transform = device._transform_row("fft2", m, n)
    conjugate = ("conjugate", device.elementwise_seconds(m * n, flops_per_element=0.5), 0, 0)
    mul, add, div = (
        (f"hadamard_{op}",
         device.elementwise_seconds(m * n, flops_per_element=_COMPLEX_HADAMARD_FLOPS[op]),
         0, 0)
        for op in ("mul", "add", "div")
    )
    per_pair = (transform, transform, conjugate, mul, mul)
    return per_pair * pairs + (add, div, device._transform_row("ifft2", m, n))


def frequency_solve(
    inputs,
    outputs,
    eps: float = 1e-6,
    device: Device | None = None,
) -> np.ndarray:
    """Solve ``X_i (*) K = Y_i`` for the shared kernel ``K`` (Eq. 4 / Wiener).

    ``inputs`` and ``outputs`` are equal-shape matrices or ``(B, M, N)``
    batches of matrices, returning one ``(M, N)`` kernel; or
    ``(P, B, M, N)`` stacks of ``P`` independent batches, returning the
    ``(P, M, N)`` stack of their kernels.  The whole stack goes through
    each transform at once, and every step is per plane, so kernel ``p``
    is bit-identical to solving batch ``p`` alone.  The arithmetic is
    one (:func:`_solve_stack`: the device chain's, on half spectra when
    every operand is real), so the kernels carry the same bits with or
    without a ``device``; a real pair's kernel is within
    :func:`_solve_stack`'s bound of the literal full-spectrum chain, not
    bit for bit.  When a device is given, the solve is also priced on it
    (accumulating simulated time) as the paper's full-spectrum per-op
    chain of transforms and Hadamard operations -- see
    :func:`_record_solve`.  At ``eps = 0`` a denominator with an exact
    zero bin raises ``ValueError`` naming the first such kernel (see
    :func:`spectrum_problem`).

    Returns real kernels when all operands are real.
    """
    inputs = np.asarray(inputs)
    x_stack = _normalize_stack(inputs, "inputs")
    y_stack = _normalize_stack(outputs, "outputs")
    if x_stack.shape != y_stack.shape:
        raise ValueError(
            f"inputs and outputs must align, got {x_stack.shape} vs {y_stack.shape}"
        )
    check_eps(eps)
    kernel = _solve_stack(x_stack, y_stack, eps)
    if device is not None:
        _record_solve(device, *x_stack.shape)
    return kernel if inputs.ndim == 4 else kernel[0]


def _solve_stack(x_stack, y_stack, eps: float) -> np.ndarray:
    """The ``(P, M, N)`` kernels of a ``(P, B, M, N)`` stack, computed unpriced.

    The kernel spectra of :func:`_solve_spectra`, inverted by one
    :func:`~repro.fft.fft2d.irfft2_batch` call for real pairs (one
    ``ifft2_batch`` for complex ones, whose kernels stay complex): two
    2-D transforms, four ``numpy.fft`` calls, a float64 stack.
    :func:`frequency_solve` calls this with or without a device, and the
    fleet once per wave that is not scored by linearity (its linearity
    wave inverts :func:`_solve_spectra` itself), pricing each chip's
    share with :func:`_record_solve`.  ``numpy.fft`` transforms each
    line on its own, so stacking changes no bits.

    **The kernel bound.**  A complex pair's kernel is the literal
    full-spectrum chain's (``tests/reference.solve``) bit for bit.  A
    real pair's is not: it is solved on half spectra.  Both solves are
    within this bound of the exact kernel ``K``.  Take ``u = 2**-53``,
    ``L = log2(M N)`` and ``phi = 5 L u``, the normwise error of one 2-D
    transform (``||F~(v) - F(v)|| <= phi ||F(v)||``; for a half spectrum,
    of its Hermitian extension).  Take kernel ``p``'s ``B`` pairs' exact
    spectra ``X_b``, ``Y_b``, its denominator ``D = sum_b |X_b|^2 + eps``
    and ``F(K) = sum_b Y_b conj(X_b) / D``.  To first order:

    * the forward transforms' errors ``dX_b``, ``dY_b`` move bin ``w`` of
      ``F(K)`` by at most ``sum_b [|dY_b| |X_b| + |dX_b| (|Y_b| + 2
      |F(K)| |X_b|)] / D``, so its norm by at most ``phi sqrt(M N)
      sigma``, with the pairs' spectral conditioning

          sigma = sum_b (||y_b|| max_w |X_b| / D
                         + ||x_b|| max_w (|Y_b| + 2 |F(K)| |X_b|) / D);

    * the products, the ``B`` sums, the eps add and the division move it
      by at most ``(B + 8) u (sum_b |Y_b| |X_b| / D + |F(K)|)`` a bin, so
      its norm by ``(B + 8) u sqrt(M N) (sigma + ||K||)``;
    * the inverse adds ``phi ||K||``.  ``irfft2_batch`` drops the
      imaginary parts of the self-conjugate bins, a projection onto
      Hermitian spectra, which ``F(K)`` is, so it adds no error.

    By Parseval, the computed kernel ``K~`` has

        ||K~ - K|| <= (phi + (B + 8) u) (sigma + ||K||).

    ``sigma`` grows as ``D``'s smallest bins shrink: for one pair at
    ``eps = 0``, ``sigma`` is at most about ``4 max |F(K)| max|X| /
    min|X|``.  So the half-spectrum kernel and the literal reference's
    differ by at most twice the bound, ``tests/reference.kernel_bound``,
    which the tests assert (measured: within ``1e-15`` of ``max |K|``,
    over a hundred times below the bound).
    """
    kernel_spectra = _solve_spectra(x_stack, y_stack, eps)[2]
    if _on_half_spectra(x_stack, y_stack):
        return irfft2_batch(kernel_spectra, n=x_stack.shape[-1])
    return ifft2_batch(kernel_spectra)


def _solve_spectra(x_stack, y_stack, eps: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eq. 4 on the spectra of a ``(P, B, M, N)`` stack: ``(F(x), F(y), F(K))``.

    Half spectra (``(..., M, N//2 + 1)``, from
    :func:`~repro.fft.fft2d.rfft2_batch`) when ``x`` and ``y`` are both
    real: every spectrum Eq. 4 forms is then Hermitian, so the half
    carries it all.  Full ``fft2_batch`` spectra otherwise.  ``x`` and
    ``y`` go through one transform call when they promote to the same
    dtype (two calls otherwise, so a longdouble ``x`` never widens a
    float64 ``y``).  On those bins, the arithmetic of a device's op chain
    (``tests/reference.solve``): complex numerator and denominator, each
    sum in its promoted dtype and updated in place, in pair order, then
    the complex ``eps`` added in place and the division.  ``F(x)`` and
    ``F(y)`` are ``(P, B, M, bins)``, ``F(K)`` is ``(P, M, bins)``.
    """
    transform = rfft2_batch if _on_half_spectra(x_stack, y_stack) else fft2_batch
    kernels, pairs = x_stack.shape[:2]
    dtype = np.result_type(x_stack, np.float64)
    if dtype == np.result_type(y_stack, np.float64):
        spectra = transform(np.concatenate([x_stack, y_stack], dtype=dtype))
        x_hat, y_hat = spectra[:kernels], spectra[kernels:]
    else:
        x_hat, y_hat = transform(x_stack), transform(y_stack)
    # A sum starts as its first product plus +0.0, which is what adding
    # it to a zero plane gives, -0.0 parts included.
    x_conj = np.conj(x_hat[:, 0])
    numerator = y_hat[:, 0] * x_conj
    denominator = x_hat[:, 0] * x_conj
    numerator += 0.0
    denominator += 0.0
    for b in range(1, pairs):
        x_conj = np.conj(x_hat[:, b])
        numerator += y_hat[:, b] * x_conj
        denominator += x_hat[:, b] * x_conj
    del x_conj
    if eps == 0:
        _check_zero_bins(denominator)
    denominator += np.complex128(eps)
    return x_hat, y_hat, np.divide(numerator, denominator, out=numerator)
