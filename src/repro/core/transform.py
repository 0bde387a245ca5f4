"""Task transformation: model distillation as a Fourier-domain solve.

This module implements Section III-B of the paper.  The distilled model
is a single circular-convolution kernel ``K`` satisfying ``X (*) K = Y``
(Eq. 2).  Applying the discrete convolution theorem turns the fit into

    F(X) o F(K) = F(Y)            =>    K = F^-1(F(Y) / F(X))   (Eq. 3-4)

i.e. two forward transforms, one Hadamard division, one inverse
transform -- all of which a TPU evaluates as dense matrix products.

Two practical extensions (documented in DESIGN.md section 5):

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

from repro.fft.fft2d import fft2, fft2_batch, ifft2_batch
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


def spectrum_problem(x, eps: float) -> str | None:
    """Why Eq. 4 cannot solve for the plane ``x`` at ``eps``, or ``None``.

    The solve divides by ``X conj(X) + eps``, ``X`` the 2-D spectrum of
    ``x``; at ``eps = 0`` a bin where that product is exactly 0 gives a
    NaN or infinite kernel with only a ``RuntimeWarning``.  An all-zero
    or a constant ``x`` has such bins.  ``FleetExecutor.check_pair`` asks
    before any work, and only at ``eps = 0`` does this transform ``x``.
    """
    if eps != 0:
        return None
    x_hat = fft2_batch(x)
    return None if (x_hat * np.conj(x_hat)).all() else _ZERO_BIN


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

    def project(self, plane: np.ndarray, classes: int) -> np.ndarray:
        """Read a class-score vector back out of an embedded plane.

        The pseudo-inverse of :meth:`embed` (exact for planes produced by
        ``embed``; an aggregation for arbitrary planes such as distilled
        predictions).
        """
        plane = np.asarray(plane, dtype=np.float64)
        if plane.ndim != 2:
            raise ValueError(f"expected a matrix, got shape {plane.shape}")
        if classes <= 0:
            raise ValueError("class count must be positive")
        if self.strategy == "identity":
            raise ValueError("identity embedding has no class projection")
        if self.strategy == "onehot-row":
            return plane[0, :classes].copy()
        if self.strategy == "tile":
            flat = plane.reshape(-1)
            scores = np.zeros(classes)
            for c in range(classes):
                scores[c] = flat[c::classes].mean()
            return scores
        cells = plane.size
        band = cells // classes
        flat = plane.reshape(-1)
        scores = np.zeros(classes)
        for c in range(classes):
            start = c * band
            stop = start + band if c < classes - 1 else cells
            scores[c] = flat[start:stop].mean()
        return scores


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
    is bit-identical to solving batch ``p`` alone.  When ``device`` is
    given, the solve is priced on it (accumulating simulated time) as
    the per-op chain of transforms and Hadamard operations -- see
    :func:`_record_solve`; otherwise the pure-numpy form (real
    denominator) is used.  At ``eps = 0`` a denominator with an exact
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
    kernel = _solve_stack(x_stack, y_stack, eps, device_chain=device is not None)
    if device is not None:
        _record_solve(device, *x_stack.shape)
    return kernel if inputs.ndim == 4 else kernel[0]


def _solve_stack(x_stack, y_stack, eps: float, device_chain: bool) -> np.ndarray:
    """The ``(P, M, N)`` kernels of a ``(P, B, M, N)`` stack, computed unpriced.

    ``device_chain`` selects a device's arithmetic (complex denominator
    and eps) over the pure-numpy form.  The fleet calls this once per
    wave and prices each chip's share with :func:`_record_solve`.

    ``x`` and ``y`` go through one :func:`~repro.fft.fft2d.fft2_batch`
    call when they promote to the same dtype (two calls otherwise, so a
    longdouble ``x`` never widens a float64 ``y``) and the kernels
    through one ``ifft2_batch``: two 2-D transforms, four ``numpy.fft``
    calls, for a float64 wave.  ``numpy.fft`` transforms each line on
    its own, so stacking changes no bits.
    """
    all_real = np.isrealobj(x_stack) and np.isrealobj(y_stack)
    kernels, pairs, m, n = x_stack.shape

    dtype = np.result_type(x_stack, np.float64)
    if dtype == np.result_type(y_stack, np.float64):
        spectra = fft2_batch(np.concatenate([x_stack, y_stack], dtype=dtype))
        x_hat, y_hat = spectra[:kernels], spectra[kernels:]
    else:
        x_hat, y_hat = fft2_batch(x_stack), fft2_batch(y_stack)
    if not device_chain:
        numerator = np.zeros((kernels, m, n), dtype=np.complex128)
        denominator = np.zeros((kernels, m, n), dtype=np.float64)
        for b in range(pairs):
            numerator += y_hat[:, b] * np.conj(x_hat[:, b])
            denominator += np.abs(x_hat[:, b]) ** 2
        if eps == 0:
            _check_zero_bins(denominator)
        kernel_hat = numerator / (denominator + eps)
    else:
        # The device's chain: complex denominator and eps, each sum in its
        # promoted dtype and updated in place, in pair order, so only a
        # few stacks are live at once.  A sum starts as its first product
        # plus +0.0, which is what adding it to a zero plane gives, -0.0
        # parts included.
        x_conj = np.conj(x_hat[:, 0])
        numerator = y_hat[:, 0] * x_conj
        denominator = x_hat[:, 0] * x_conj
        numerator += 0.0
        denominator += 0.0
        for b in range(1, pairs):
            x_conj = np.conj(x_hat[:, b])
            numerator += y_hat[:, b] * x_conj
            denominator += x_hat[:, b] * x_conj
        del x_hat, y_hat, x_conj
        if eps == 0:
            _check_zero_bins(denominator)
        denominator += np.complex128(eps)
        kernel_hat = np.divide(numerator, denominator, out=numerator)
    kernel = ifft2_batch(kernel_hat)

    if all_real:
        kernel = np.ascontiguousarray(kernel.real)
    return kernel


def spectrum_condition(inputs, eps: float = 0.0) -> float:
    """Conditioning diagnostic: max/min of the regularized denominator.

    Large values mean Eq. 4's division is ill-posed for this data and
    regularization is doing real work; handy when choosing ``eps``.
    """
    x_batch = _normalize_batch(inputs, "inputs")
    denominator = np.zeros(x_batch.shape[1:], dtype=np.float64)
    for x in x_batch:
        denominator += np.abs(fft2(x)) ** 2
    denominator = denominator + eps
    smallest = float(denominator.min())
    if smallest == 0.0:
        return float("inf")
    return float(denominator.max()) / smallest
