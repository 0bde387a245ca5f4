"""The distilled model: a one-layer circular-convolution network.

Implements the paper's model specification / model computation steps
(Section III-B): the distilled model is ``X (*) K = Y``; fitting it is a
closed-form Fourier-domain solve (one "forward pass" worth of matrix
work -- the paper's headline structural claim); predicting with it is a
single circular convolution.
"""

from __future__ import annotations

import numpy as np

from repro.fft.convolution import fft_circular_convolve2d
from repro.fft.fft2d import fft2
from repro.hw.device import Device
from repro.core.transform import (
    OutputEmbedding,
    _normalize_batch,
    check_eps,
    frequency_solve,
)


class NotFittedError(RuntimeError):
    """Raised when a distiller is used before :meth:`ConvolutionDistiller.fit`."""


class ConvolutionDistiller:
    """Fits and applies the convolutional distilled model.

    Parameters
    ----------
    device:
        Optional :class:`repro.hw.device.Device`; when given, all fit and
        predict arithmetic runs through it and accumulates simulated
        time.  ``None`` uses the pure-numpy fast path (identical math).
    eps:
        Wiener regularizer added to the input power spectrum.  ``0``
        reproduces the paper's Eq. 4 verbatim (and will amplify noise on
        near-singular spectra, whose power ``|F(x)|^2`` nears zero in
        some bin);
        a negative or non-finite value raises ``ValueError``.
    embedding:
        :class:`OutputEmbedding` used to lift vector outputs onto the
        input plane; matrix outputs pass through unchanged.
    precision:
        Optional numeric mode (a name or
        :class:`~repro.hw.quantize.PrecisionSpec`) for the distilled
        model's *inference* convolutions (:meth:`predict`,
        :meth:`residual`): the input plane quantizes spatially and the
        kernel spectrum per component, exactly as the batched
        interpretation path does -- so per-pair residuals match
        wave-fused residuals bit for bit at every precision.  The
        closed-form *solve* always runs exact (int8 FFTs would destroy
        it); kernels are precision-independent.
    """

    def __init__(
        self,
        device: Device | None = None,
        eps: float = 1e-6,
        embedding: OutputEmbedding | None = None,
        precision=None,
    ) -> None:
        from repro.hw.quantize import resolve_precision

        check_eps(eps)

        self.device = device
        self.eps = eps
        self.embedding = embedding or OutputEmbedding("spatial")
        self.precision = resolve_precision(precision)
        self._kernel: np.ndarray | None = None
        self._shape: tuple[int, int] | None = None

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def fit(self, inputs, outputs) -> "ConvolutionDistiller":
        """Solve for the kernel from (input, output) pairs.

        ``inputs``: one ``M x N`` matrix or a ``(B, M, N)`` batch.
        ``outputs``: matching matrices, or vectors to be embedded (one
        ``(C,)`` vector or a ``(B, C)`` batch).
        """
        x_batch = _normalize_batch(inputs, "inputs")
        shape = x_batch.shape[1:]
        y_batch = self.lift_outputs(outputs, x_batch.shape[0], shape)
        self._kernel = frequency_solve(
            x_batch, y_batch, eps=self.eps, device=self.device
        )
        self._shape = shape
        return self

    def lift_outputs(
        self,
        outputs,
        batch_size: int | None = None,
        shape: tuple[int, int] | None = None,
    ) -> np.ndarray:
        """Lift raw model outputs onto the input plane as a ``(B, M, N)`` batch.

        Matrix outputs matching ``shape`` pass through; vector outputs
        are embedded via the configured :class:`OutputEmbedding`.  After
        :meth:`fit`, ``shape`` defaults to the fitted plane -- this is
        the public hook the explanation pipeline uses to obtain the
        lifted ``Y`` plane that Eq. 5 compares masked re-runs against.
        The batch size is inferred from the outputs themselves;
        ``batch_size`` is an optional expected count to validate
        against (``fit``/``residual`` pass the input batch size).
        """
        if shape is None:
            if self._shape is None:
                raise NotFittedError(
                    "call fit() or pass an explicit shape to lift_outputs()"
                )
            shape = self._shape
        outputs = np.asarray(outputs)
        if outputs.ndim == 2 and outputs.shape == shape:
            return outputs[np.newaxis]
        if outputs.ndim == 3:
            if outputs.shape[1:] != shape or (
                batch_size is not None and outputs.shape[0] != batch_size
            ):
                expected = "" if batch_size is None else f"batch of {batch_size} "
                raise ValueError(
                    f"output batch {outputs.shape} does not align with input "
                    f"{expected}matrices of shape {shape}"
                )
            return outputs
        # Vector outputs: embed each onto the input plane.
        if outputs.ndim == 1:
            outputs = outputs[np.newaxis]
        if outputs.ndim != 2:
            raise ValueError(f"cannot interpret outputs of shape {outputs.shape}")
        if batch_size is not None and outputs.shape[0] != batch_size:
            raise ValueError(
                f"{outputs.shape[0]} output vectors for {batch_size} inputs"
            )
        return np.stack(
            [self.embedding.embed(vector, shape) for vector in outputs]
        )

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    @property
    def kernel_(self) -> np.ndarray:
        """The fitted convolution kernel ``K``."""
        if self._kernel is None:
            raise NotFittedError("call fit() before reading the kernel")
        return self._kernel

    @property
    def frequency_kernel_(self) -> np.ndarray:
        """``F(K)`` -- the kernel's spectrum (diagnostics, regularization)."""
        return fft2(self.kernel_)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """One forward pass of the distilled model: ``x (*) K``."""
        x = np.asarray(x)
        kernel = self.kernel_
        if x.shape != kernel.shape:
            raise ValueError(
                f"input shape {x.shape} does not match fitted shape {kernel.shape}"
            )
        if self.device is None:
            return fft_circular_convolve2d(x, kernel, precision=self.precision)
        result = self.device.conv2d_circular(x, kernel, precision=self.precision)
        return result

    def residual(self, inputs, outputs) -> float:
        """Root-mean-square fit residual over the given pairs.

        The distillation-quality metric: how faithfully the one-layer
        convolution mimics the black-box model on these pairs.
        """
        x_batch = _normalize_batch(inputs, "inputs")
        y_batch = self.lift_outputs(outputs, x_batch.shape[0], x_batch.shape[1:])
        total = 0.0
        for x, y in zip(x_batch, y_batch):
            delta = self.predict(x) - y
            total += float(np.mean(np.abs(delta) ** 2))
        return float(np.sqrt(total / x_batch.shape[0]))
