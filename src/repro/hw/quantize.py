"""Quantization: the precision model of the simulated MXU datapath.

The paper attributes TPU performance to *quantization* ("uses 8-bit
integers to approximate 16-bit or 32-bit floating-point numbers") and the
*systolic array*.  This module implements symmetric per-tensor integer
quantization exactly as a TPU front-end would, plus the
:class:`PrecisionSpec` vocabulary the rest of the stack uses to name a
numeric mode:

* a real tensor is scaled into the signed ``bits``-bit integer grid,
  rounded, and clipped;
* matrix products are computed on the integer grid with 32-bit
  accumulation and rescaled back to floats;
* bfloat16 rounding is provided for the higher-precision MXU mode used
  by the Fourier-domain distillation solve (int8 FFTs would destroy the
  solve; TPUv2 MXUs natively support bfloat16).

**Where a** :class:`PrecisionSpec` **applies in the batched/wave path.**
The fleet executor streams a wave's masked planes (and each pair's
residual plane) through one batched FFT convolution against the wave's
kernel-spectrum batch (:mod:`repro.core.fleet`).  A spec quantizes both
operands of that convolution *together*, per plane:

* every row of the data stack is rounded in the spatial domain with its
  own scale (:func:`quantize_dequantize` -- the int8 infeed a TPU would
  perform), and
* every kernel spectrum of the wave is rounded per plane, real and
  imaginary components separately (the weights resident on-device),

while the transforms, Hadamard products and reductions accumulate in
float64 -- mirroring MXU int8 multipliers feeding 32-bit accumulators.
Because both roundings are strictly per plane, streamed chunks of any
size and one-mask-at-a-time convolutions see the *same* quantized
operands and therefore produce bit-identical scores at
every precision; only the cost model changes
(:meth:`repro.core.backend.TpuBackend.batch_conv_seconds` prices the
fused transforms with the MXU cycle model at the spec's rate).

Error bounds are part of the public contract: for symmetric quantization
with step ``s``, ``|x - dequantize(quantize(x))| <= s/2`` for all inputs
within range, which property tests assert;
:func:`quantized_conv_error_bound` extends that to a per-element bound
on the whole quantized convolution, which the quantized-batch ablation
checks against executed batched scores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class QuantizedTensor:
    """An integer tensor plus the scale that maps it back to reals.

    ``dequantized = values * scale``.  Symmetric quantization has no zero
    point: 0.0 always maps to integer 0, which keeps zero-padding (used
    heavily by the distillation masks) exact.
    """

    values: np.ndarray
    scale: float
    bits: int

    @property
    def qmax(self) -> int:
        return (1 << (self.bits - 1)) - 1


def quantization_scale(x: np.ndarray, bits: int = 8) -> float:
    """Return the symmetric per-tensor scale for ``x``.

    The scale maps ``max(|x|)`` to the largest representable integer.
    An all-zero tensor returns scale 1.0 so dequantization stays exact.
    """
    if bits < 2:
        raise ValueError(f"quantization needs at least 2 bits, got {bits}")
    max_abs = float(np.max(np.abs(x))) if np.asarray(x).size else 0.0
    if max_abs == 0.0:
        return 1.0
    qmax = (1 << (bits - 1)) - 1
    return max_abs / qmax


def quantize(x: np.ndarray, bits: int = 8) -> QuantizedTensor:
    """Symmetrically quantize a real tensor to ``bits``-bit integers."""
    if np.iscomplexobj(x):
        raise TypeError("quantize expects a real tensor; split complex parts first")
    array = np.asarray(x, dtype=np.float64)
    scale = quantization_scale(array, bits)
    qmax = (1 << (bits - 1)) - 1
    storage = np.int8 if bits <= 8 else (np.int16 if bits <= 16 else np.int32)
    values = np.clip(np.round(array / scale), -qmax, qmax).astype(storage)
    return QuantizedTensor(values=values, scale=scale, bits=bits)


def dequantize(q: QuantizedTensor) -> np.ndarray:
    """Map a quantized tensor back to floats."""
    return q.values.astype(np.float64) * q.scale


def quantization_error_bound(x: np.ndarray, bits: int = 8) -> float:
    """Worst-case absolute round-trip error: half a quantization step."""
    return quantization_scale(x, bits) / 2.0


def quantize_dequantize(x: np.ndarray, bits: int = 8) -> np.ndarray:
    """Symmetric integer round trip with **per-plane** scales.

    The quantization a batched device op applies to its operands: a 2-D
    array is one plane (one scale); a ``(batch, M, N)`` stack gives every
    plane its own scale, so ``quantize_dequantize(stack)[i]`` is
    bit-identical to ``quantize_dequantize(stack[i])`` -- the property
    that makes streamed, dense-batched and one-plane-at-a-time quantized
    execution agree exactly.  Complex arrays round their real and
    imaginary components independently (each with its own per-plane
    scale), which preserves Hermitian symmetry of real-signal spectra.
    """
    array = np.asarray(x)
    if np.iscomplexobj(array):
        return quantize_dequantize(array.real, bits) + 1j * quantize_dequantize(
            array.imag, bits
        )
    array = np.asarray(array, dtype=np.float64)
    if array.ndim <= 2:
        return dequantize(quantize(array, bits))
    if bits < 2:
        raise ValueError(f"quantization needs at least 2 bits, got {bits}")
    qmax = (1 << (bits - 1)) - 1
    flat = array.reshape(array.shape[0], -1)
    max_abs = np.max(np.abs(flat), axis=1)
    scales = np.where(max_abs == 0.0, 1.0, max_abs / qmax)
    shaped = scales.reshape((array.shape[0],) + (1,) * (array.ndim - 1))
    values = np.clip(np.round(array / shaped), -qmax, qmax)
    return values * shaped


def quantized_matmul(a: np.ndarray, b: np.ndarray, bits: int = 8) -> np.ndarray:
    """Integer matmul with 32-bit accumulation, rescaled to floats.

    This is the arithmetic the systolic array actually performs: both
    operands are quantized, multiplied on the integer grid (products
    accumulate exactly in int32/int64), and the result carries the
    product of the two scales.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(
            f"quantized_matmul expects 2-D operands, got {a.shape} and {b.shape}"
        )
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"inner dimensions disagree: {a.shape} @ {b.shape}")
    qa = quantize(a, bits)
    qb = quantize(b, bits)
    accumulated = qa.values.astype(np.int64) @ qb.values.astype(np.int64)
    return accumulated.astype(np.float64) * (qa.scale * qb.scale)


def quantized_complex_matmul(
    a: np.ndarray, b: np.ndarray, bits: int = 8
) -> np.ndarray:
    """Complex matmul decomposed into four quantized real products.

    ``(Ar + jAi)(Br + jBi) = (ArBr - AiBi) + j(ArBi + AiBr)`` -- the
    decomposition the TPU backend uses to run complex DFT matmuls on a
    real-valued MXU.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    real = quantized_matmul(a.real, b.real, bits) - quantized_matmul(
        a.imag, b.imag, bits
    )
    imag = quantized_matmul(a.real, b.imag, bits) + quantized_matmul(
        a.imag, b.real, bits
    )
    return real + 1j * imag


def quantized_conv_error_bound(
    x: np.ndarray, kernel: np.ndarray, bits: int = 8
) -> float:
    """Worst-case per-element error of an int8-quantized circular convolution.

    Models the batched interpretation path: the input plane is quantized
    in the spatial domain (round-trip error ``b_x`` per element) and the
    kernel *spectrum* per complex component (``b_k`` per component).  By
    the triangle inequality over ``y = F^-1(F(x) o K_hat)``::

        |y_quantized - y_exact|  <=  b_x * (||k||_1 + M*N*b_k)
                                   + (||x||_1 + M*N*b_x) * b_k

    (``||.||_1`` summing absolute values over the plane; the ``M*N``
    terms bound how far the quantized operand's l1 mass can exceed the
    exact one's).  The bound is deliberately conservative -- it holds
    for *every* zero-fill masked variant of ``x``, since masking only
    shrinks ``||x||_1`` -- and is monotone in ``bits``.
    :func:`quantized_score_error_bound` lifts it to l2-reduced scores;
    the quantized-batch ablation asserts executed batched scores
    respect it.
    """
    from repro.fft.fft2d import fft2  # hw.quantize stays import-light

    x = np.asarray(x, dtype=np.float64)
    kernel = np.asarray(kernel, dtype=np.float64)
    if x.shape != kernel.shape or x.ndim != 2:
        raise ValueError(
            f"operands must be equal-shape planes, got {x.shape} and {kernel.shape}"
        )
    m, n = kernel.shape
    b_x = quantization_error_bound(x, bits)
    k_hat = fft2(kernel)
    b_k = quantization_error_bound(k_hat.real, bits) + quantization_error_bound(
        k_hat.imag, bits
    )
    kernel_l1 = float(np.sum(np.abs(kernel))) + m * n * b_k
    x_l1 = float(np.sum(np.abs(x))) + m * n * b_x
    return b_x * kernel_l1 + x_l1 * b_k


def quantized_score_error_bound(
    x: np.ndarray, kernel: np.ndarray, bits: int = 8
) -> float:
    """Worst-case error of an l2-reduced score under int8 quantization.

    The documented contract the quantized-batch ablation asserts: an
    l2-reduced Eq. 5 score differs from its exact value by at most
    ``sqrt(M*N)`` times the per-element bound of
    :func:`quantized_conv_error_bound` (reverse triangle inequality
    over the delta plane), for every zero-fill masked variant of ``x``.
    """
    m, n = np.asarray(kernel).shape
    return float(np.sqrt(m * n)) * quantized_conv_error_bound(x, kernel, bits)


def to_bfloat16(x: np.ndarray) -> np.ndarray:
    """Round a float array to bfloat16 precision (kept in float32 storage).

    bfloat16 is float32 with the mantissa truncated to 7 bits.  We
    implement round-to-nearest-even on the mantissa by integer
    manipulation of the float32 bit pattern -- the same numeric behaviour
    as TPU bf16 MXU inputs.
    """
    array = np.asarray(x)
    if np.iscomplexobj(array):
        return to_bfloat16(array.real) + 1j * to_bfloat16(array.imag)
    bits = np.asarray(array, dtype=np.float32).view(np.uint32)
    # Round to nearest even at bit 16.
    rounding_bias = ((bits >> 16) & 1) + np.uint32(0x7FFF)
    rounded = (bits + rounding_bias) & np.uint32(0xFFFF0000)
    return rounded.view(np.float32).astype(array.dtype if array.dtype == np.float64 else np.float32)


@dataclass(frozen=True)
class PrecisionSpec:
    """Numeric mode of an MXU datapath.

    ``int8``  -- quantized inference mode (paper Section II-A):
    :meth:`apply` performs the per-plane integer round trip of
    :func:`quantize_dequantize`;
    ``bf16``  -- bfloat16 mode used for the Fourier-domain solve:
    :meth:`apply` rounds via :func:`to_bfloat16`;
    ``fp32`` / ``fp64`` -- exact float modes (reference / validation):
    :meth:`apply` is the identity, so scores are bit-identical to
    unquantized execution and only the cost model differs.

    ``bytes_per_element`` drives the memory-traffic part of the timing
    model (a quantized stack streams over the host link at its storage
    width); ``macs_per_pe_per_cycle`` the compute part (int8/bf16 run
    the MXU at full rate, fp32 at a quarter, fp64 at an eighth).
    """

    name: str
    bytes_per_element: int
    macs_per_pe_per_cycle: float

    @property
    def is_exact(self) -> bool:
        """True when :meth:`apply` is the identity (no rounding)."""
        return self.name in ("fp32", "fp64")

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Round ``x`` to this precision, plane by plane (no-op for fp32/fp64).

        Only the four built-in modes have rounding semantics; a
        hand-built spec with any other name raises here rather than
        silently executing exact numerics while being priced (and
        gated) as lossy.
        """
        if self.name == "bf16":
            return to_bfloat16(x)
        if self.name == "int8":
            return quantize_dequantize(x, bits=8)
        if self.is_exact:
            return np.asarray(x)
        raise ValueError(
            f"precision {self.name!r} has no rounding semantics; "
            f"apply() implements only {tuple(_PRECISIONS)}"
        )


INT8 = PrecisionSpec(name="int8", bytes_per_element=1, macs_per_pe_per_cycle=1.0)
BF16 = PrecisionSpec(name="bf16", bytes_per_element=2, macs_per_pe_per_cycle=1.0)
FP32 = PrecisionSpec(name="fp32", bytes_per_element=4, macs_per_pe_per_cycle=0.25)
FP64 = PrecisionSpec(name="fp64", bytes_per_element=8, macs_per_pe_per_cycle=0.125)

_PRECISIONS = {"int8": INT8, "bf16": BF16, "fp32": FP32, "fp64": FP64}


def precision_spec(name: "str | PrecisionSpec") -> PrecisionSpec:
    """Look up a precision mode by name (specs pass through unchanged).

    The single parsing point for every ``precision=`` axis in the stack
    (:class:`~repro.core.pipeline.ExplanationPipeline`, the device conv
    ops, the cost models): an unknown name raises a :class:`ValueError`
    listing the valid vocabulary.
    """
    if isinstance(name, PrecisionSpec):
        return name
    try:
        return _PRECISIONS[name]
    except (KeyError, TypeError):
        raise ValueError(
            f"unknown precision {name!r}; expected one of "
            f"{tuple(_PRECISIONS)} or a PrecisionSpec"
        ) from None


def resolve_precision(
    precision: "str | PrecisionSpec | None",
) -> "PrecisionSpec | None":
    """Parse an optional ``precision=`` argument.

    ``None`` -- the default everywhere -- means "no precision handling":
    numerics and cost ledgers stay exactly as the unparameterized ops
    behave.  Anything else resolves through :func:`precision_spec`.
    """
    if precision is None:
        return None
    return precision_spec(precision)


def infeed_bytes_per_element(spec: "PrecisionSpec | None") -> int:
    """Storage width of one streamed real element, for fp32-feed models.

    The width rule of the surfaces whose legacy convention was an fp32
    feed -- the cost models' per-element arithmetic and the TPU's
    per-mask ``conv_round_trip`` payload: ``None`` preserves that
    legacy 4 bytes/element, while a spec streams at its own width (1
    byte/element for int8).  Distinct from
    :func:`repro.core.fleet.feed_bytes`, which sizes *program-scope*
    infeeds of concrete arrays and whose ``None`` case is the arrays'
    own nbytes (8 bytes/element for float64) -- the two conventions
    deliberately differ at ``None`` to keep both executed ledgers
    bit-compatible with their pre-precision history.
    """
    return 4 if spec is None else spec.bytes_per_element
