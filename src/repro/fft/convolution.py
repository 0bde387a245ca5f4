"""Circular convolution via the convolution theorem.

The distilled model of the paper is the circular convolution
``X (*) K = Y`` (Eq. 2); its closed-form solve uses the discrete
convolution theorem ``F(X (*) K) = F(X) o F(K)`` (Eq. 3).  This module
provides:

* FFT-based convolution of one plane -- the fast path whose agreement
  with the direct circular sum (the tests' oracle) *is* the convolution
  theorem, asserted by property tests;
* chunk-streamed batched FFT convolution -- a stack of inputs, driven
  by an *iterator* of ``(chunk, row_range)`` slices, against kernels
  whose spectra are computed exactly once, so peak memory is
  ``O(chunk_rows * M * N)`` regardless of batch size (the path of
  :func:`~repro.core.masking.convolve_windows`: one pair's mask plan
  scored by :func:`~repro.core.masking.score_plan`, each fleet wave the
  l2 linearity pass does not score, and each mask its guard hands
  back).

Chunk boundaries never change bits: ``numpy.fft`` transforms each line
independently, and the per-row Hadamard products are plane-local, so
streamed and one-plane-at-a-time execution agree exactly.  The streamed
tail stores its spectra **bin-major**, ``(bins, rows, M)``: for each
bin of the row transform, every plane's column is contiguous, so the
column transforms and the products run as one call over contiguous
lines rather than once per plane.  Memory order changes no bits, and
the convolved planes come out C-order as before.

When input and kernel are both real -- the dominant case, since every
occlusion mask and distilled kernel is real -- both forms route through
the **half-spectrum real path** (:func:`repro.fft.fft2d.rfft2_batch`
/ :func:`~repro.fft.fft2d.irfft2_batch`): Hermitian symmetry means only
``N//2 + 1`` of the ``N`` spectrum columns are computed, stored and
multiplied, roughly halving host transform work and memory.  Complex
operands take the full complex path.  Real kernel spectra come from the
process-level content-addressed cache (:mod:`repro.fft.spectra`), so
byte-equal kernels are transformed once per process, not once per call
-- unless the caller hands in half spectra of its own, as
:func:`~repro.core.masking.convolve_windows` does for every real
kernel it convolves.

Every FFT-convolution entry point additionally accepts an optional
``precision`` -- a :class:`repro.hw.quantize.PrecisionSpec` (duck-typed
here so the FFT layer stays independent of the hardware layer) whose
``apply`` rounds operands plane by plane.  The spec quantizes the data
planes in the spatial domain and the kernel *spectra* in the frequency
domain, then the transforms and Hadamard products accumulate in float64
-- the MXU int8/bf16 datapath.  Because the rounding is strictly
per-plane, the streamed/one-plane agreement above holds unchanged at
every precision.
"""

from __future__ import annotations

import numpy as np

from repro.fft import spectra
from repro.fft.fft import fft, ifft, irfft, rfft
from repro.fft.fft2d import fft2, fft2_batch, ifft2, irfft2_batch, rfft2_batch
from repro.fft.spectra import KernelSpectrum


def _as_2d(x: np.ndarray, name: str) -> np.ndarray:
    array = np.asarray(x)
    if array.ndim != 2:
        raise ValueError(f"{name} expects a 2-D array, got shape {array.shape}")
    if 0 in array.shape:
        raise ValueError(f"{name} of an empty matrix is undefined")
    return array


def fft_circular_convolve2d(
    x: np.ndarray, k: np.ndarray, precision=None
) -> np.ndarray:
    """2-D circular convolution via the convolution theorem (Eq. 3).

    Real ``x`` and ``k`` (the occlusion hot path) take the half-spectrum
    real path -- input and cached kernel spectra hold only the
    ``N//2 + 1`` non-redundant columns; complex operands take the full
    complex path.  Real-kernel spectra are fetched from the
    process-level cache either way.

    ``precision`` (an optional :class:`~repro.hw.quantize.PrecisionSpec`)
    rounds the input plane spatially and the kernel spectrum per complex
    component before the Hadamard product -- the quantized MXU datapath.
    """
    x = _as_2d(x, "fft_circular_convolve2d")
    k = _as_2d(k, "fft_circular_convolve2d")
    if x.shape != k.shape:
        raise ValueError(
            f"2-D circular convolution needs equal shapes, got {x.shape} and {k.shape}"
        )
    x_in = x if precision is None else precision.apply(x)
    if np.isrealobj(k):
        if np.isrealobj(x_in):
            half = spectra.kernel_spectrum(k, real=True, precision=precision)
            return irfft2_batch(rfft2_batch(x_in) * half.array, n=k.shape[-1])
        kernel_spectrum = spectra.kernel_spectrum(
            k, real=False, precision=precision
        ).array
    else:
        kernel_spectrum = fft2(k)
        if precision is not None:
            kernel_spectrum = precision.apply(kernel_spectrum)
    return ifft2(fft2(x_in) * kernel_spectrum)


def _validate_batch_kernel(
    k: np.ndarray,
    row_kernel: np.ndarray | None,
    kernel_spectrum: KernelSpectrum | None,
    num_rows: int | None,
    name: str,
) -> tuple[np.ndarray, bool, np.ndarray | None]:
    """Kernel/row-map validation for streamed batches.

    Returns ``(k, multi_kernel, row_kernel)`` with the row map cast to
    ``intp``, after checking that ``kernel_spectrum``, when given, is a
    raw :class:`~repro.fft.spectra.KernelSpectrum` of either kind
    covering the same planes.  ``num_rows`` is the batch length the row
    map must cover; ``None`` skips that check (streamed callers of
    unknown length validate per chunk instead).
    """
    multi_kernel = k.ndim == 3
    if not multi_kernel:
        k = _as_2d(k, name)
    elif 0 in k.shape:
        raise ValueError(f"{name} kernel stack is empty")
    if multi_kernel:
        if row_kernel is None:
            raise ValueError("a kernel stack needs a row_kernel mapping")
        row_kernel = np.asarray(row_kernel, dtype=np.intp)
        if row_kernel.ndim != 1:
            raise ValueError(
                f"row_kernel must be a flat row map, got shape {row_kernel.shape}"
            )
        if num_rows is not None and row_kernel.shape != (num_rows,):
            raise ValueError(
                f"row_kernel must map all {num_rows} rows, "
                f"got shape {row_kernel.shape}"
            )
        if row_kernel.size and (
            row_kernel.min() < 0 or row_kernel.max() >= k.shape[0]
        ):
            raise ValueError(
                f"row_kernel indices must lie in [0, {k.shape[0]}), "
                f"got range [{row_kernel.min()}, {row_kernel.max()}]"
            )
    elif row_kernel is not None:
        raise ValueError("row_kernel requires a (P, M, N) kernel stack")
    if kernel_spectrum is not None:
        if (
            not isinstance(kernel_spectrum, KernelSpectrum)
            or kernel_spectrum.precision_name is not None
        ):
            raise ValueError("kernel_spectrum must be a raw KernelSpectrum or None")
        if kernel_spectrum.plane_shape != k.shape[-2:]:
            raise ValueError(
                f"kernel spectrum covers {kernel_spectrum.plane_shape} planes, "
                f"kernel planes have shape {k.shape[-2:]}"
            )
        if kernel_spectrum.array.shape[:-2] != k.shape[:-2]:
            raise ValueError(
                f"kernel spectrum stack shape {kernel_spectrum.array.shape[:-2]} "
                f"does not match kernel stack shape {k.shape[:-2]}"
            )
    return k, multi_kernel, row_kernel


def _bin_major(planes: np.ndarray) -> np.ndarray:
    """``(..., M, bins)`` spectra as one contiguous ``(bins, ..., M)`` array."""
    return np.ascontiguousarray(np.moveaxis(planes, -1, 0))


def _bin_major_rows(planes: np.ndarray, real: bool) -> np.ndarray:
    """The ``rfft`` (``real``) or ``fft`` of each row of ``(..., N)``
    ``planes``, written straight into a bin-major ``(bins, ...)`` array."""
    n = planes.shape[-1]
    spectra = np.empty(
        (n // 2 + 1 if real else n, *planes.shape[:-1]),
        np.result_type(planes, np.complex128),
    )
    (rfft if real else fft)(planes, axis=-1, out=np.moveaxis(spectra, 0, -1))
    return spectra


def _convolve_bin_major(
    row_spectra: np.ndarray,
    kernel_spectrum: np.ndarray,
    row_kernel: np.ndarray | None,
    n: int | None,
) -> np.ndarray:
    """Finish a batch of convolutions whose row transforms are done.

    The spectra are **bin-major**: ``row_spectra`` is ``(bins, rows,
    M)`` -- for each bin of the row transform (``rfft`` over each plane
    row on the half path, ``fft`` on the full one), every plane's
    ``M``-long column -- and ``kernel_spectrum`` is ``(bins, P, M)``,
    with ``row_kernel`` mapping rows to its planes, or ``(bins, M)``
    for one kernel.  So the column FFT, the Hadamard product and the
    inverse column FFT each run as one call over contiguous lines.  The
    inverse row transform -- ``irfft`` to ``n`` columns, or ``ifft``
    when ``n`` is ``None`` -- reads the buffer through a ``(rows, M,
    bins)`` view and writes new C-order ``(rows, M, N)`` planes.

    The column stages run in place in ``row_spectra``, in the window's
    own transform dtype.  Each row's kernel spectrum is gathered -- or
    broadcast, when every row maps to the same kernel -- and the
    product lands in
    ``row_spectra`` unless it widens (a complex128 window against a
    clongdouble kernel spectrum): then it gets its own array, since
    running the column stage in the wider dtype would change bits.
    Every stage transforms or multiplies each line or element on its
    own, whatever its stride, so each plane's bits equal convolving it
    alone.  The window stays the product's first operand: swapping two
    complex operands can move the last bit.
    """
    fft(row_spectra, axis=-1, out=row_spectra)
    if row_kernel is None:
        kernel = kernel_spectrum[:, np.newaxis]
    elif row_kernel.size and (row_kernel == row_kernel[0]).all():
        # One kernel for every row (a window inside one pair): broadcast
        # it instead of copying it once per row.
        kernel = kernel_spectrum[:, row_kernel[0], np.newaxis]
    else:
        kernel = np.take(kernel_spectrum, row_kernel, axis=1)
    product = (
        row_spectra
        if np.result_type(row_spectra, kernel_spectrum) == row_spectra.dtype
        else None
    )
    product = np.multiply(row_spectra, kernel, out=product)
    ifft(product, axis=-1, out=product)
    lines = product.transpose(1, 2, 0)
    # C-order planes: numpy.fft would lay a new result out like its
    # bin-major input.
    out = np.empty(
        (*lines.shape[:-1], lines.shape[-1] if n is None else n),
        product.dtype if n is None else np.finfo(product.dtype).dtype,
    )
    if n is None:
        return ifft(lines, axis=-1, out=out)
    return irfft(lines, n=n, axis=-1, out=out)


def fft_circular_convolve2d_chunks(
    chunks,
    k: np.ndarray,
    kernel_spectrum: KernelSpectrum | None = None,
    row_kernel: np.ndarray | None = None,
    num_rows: int | None = None,
    precision=None,
):
    """Streamed circular convolution over an iterator of stack chunks.

    ``chunks`` yields ``(chunk, row_range)`` pairs: a ``(rows, M, N)``
    slice of the conceptual batch plus the ``range`` of global row
    indices it covers (used to slice ``row_kernel``).  Yields
    ``(convolved_chunk, row_range)`` in the same order.  Rows must
    arrive in order and without gaps starting at 0; when ``num_rows``
    is given the stream must cover exactly that many rows (a desync
    raises instead of silently mis-assigning kernels to rows).

    This is the lazy-mask-plan fast path: the conceptual batch is never
    materialized, so peak memory is ``O(chunk_rows * M * N)`` however
    many masks a plan generates.  ``k`` is either one ``(M, N)`` kernel
    shared by every row or a ``(P, M, N)`` kernel stack, in which case
    ``row_kernel`` maps each row to the kernel plane it convolves
    against -- the cross-pair wave form, where the rows of many pairs
    fuse into one batch but each pair keeps its own distilled kernel.
    Kernel spectra are computed exactly once up front, or handed in as
    ``kernel_spectrum``: a raw :class:`~repro.fft.spectra.KernelSpectrum`
    of ``k`` (:func:`~repro.core.masking.convolve_windows` passes its
    real kernels' half spectra, which it never looks up in the cache);
    each output plane is bit-identical to :func:`fft_circular_convolve2d`
    on the corresponding planes.

    Real kernels use cached half spectra and the rFFT chunk transform;
    a complex chunk arriving under a half
    spectrum falls back to the cached *full* spectrum for that chunk, so
    its planes stay bit-identical to the complex loop path.

    Each chunk's row stage (``rfft``, or ``fft`` on the full path) runs
    here, written straight into a bin-major ``(bins, rows, M)`` buffer
    through a ``(rows, M, bins)`` view, against kernel spectra moved to
    bin-major once per stream; :func:`_convolve_bin_major` then runs
    the rest -- column FFT, per-row Hadamard, inverse column FFT,
    inverse row transform -- into a fresh C-order output per chunk,
    since callers keep the chunks they receive.

    ``precision`` (an optional :class:`~repro.hw.quantize.PrecisionSpec`)
    rounds every incoming data chunk plane-by-plane in the spatial
    domain and the kernel spectra per plane/component up front; since
    both roundings are per-plane, chunk boundaries still never change
    bits and the quantized stream matches quantized one-plane execution
    exactly.  A supplied ``kernel_spectrum`` is rounded here the same
    way, exactly once, which is why it must be raw.
    """
    k = np.asarray(k)
    k, multi_kernel, row_kernel = _validate_batch_kernel(
        k, row_kernel, kernel_spectrum, num_rows, "fft_circular_convolve2d_chunks"
    )
    real_kernel = np.isrealobj(k)
    if kernel_spectrum is not None:
        spec_kind = kernel_spectrum.kind
        spec_array = kernel_spectrum.array
        if precision is not None:
            spec_array = precision.apply(spec_array)
    elif real_kernel:
        spec_kind = "half"
        spec_array = spectra.kernel_spectrum(k, real=True, precision=precision).array
    else:
        spec_kind = "full"
        spec_array = fft2_batch(k) if multi_kernel else fft2(k)
        if precision is not None:
            spec_array = precision.apply(spec_array)
    # Quantized above while still plane-major: the per-plane scales
    # reduce over the planes' own axes.
    spec_array = _bin_major(spec_array)
    full_spec = spec_array if spec_kind == "full" else None

    def _full_spectrum() -> np.ndarray:
        # Complex chunks under a half kernel spectrum need the full one;
        # fetched lazily from the cache so the pure-real stream (every
        # occlusion plan) never pays for it.
        nonlocal full_spec
        if full_spec is None:
            full_spec = _bin_major(
                spectra.kernel_spectrum(k, real=False, precision=precision).array
            )
        return full_spec

    plane_shape = k.shape[-2:]
    next_row = 0
    for chunk, rows in chunks:
        chunk = np.asarray(chunk)
        if chunk.ndim != 3 or chunk.shape[1:] != plane_shape:
            raise ValueError(
                f"chunk of shape {chunk.shape} does not slice a "
                f"(batch, {plane_shape[0]}, {plane_shape[1]}) stack"
            )
        rows = range(rows.start, rows.stop) if not isinstance(rows, range) else rows
        if len(rows) != chunk.shape[0] or rows.start != next_row:
            raise ValueError(
                f"chunk rows {rows} desynchronized from stream position "
                f"{next_row} (chunk holds {chunk.shape[0]} planes)"
            )
        next_row = rows.stop
        if precision is not None:
            chunk = precision.apply(chunk)
        real_chunk = real_kernel and np.isrealobj(chunk)
        half_path = spec_kind == "half" and real_chunk
        row_map = None
        if multi_kernel:
            if rows.stop > row_kernel.shape[0]:
                raise ValueError(
                    f"chunk rows {rows} overrun the {row_kernel.shape[0]}-row "
                    "row_kernel map"
                )
            row_map = row_kernel[rows.start : rows.stop]
        if half_path:
            spec, n = spec_array, plane_shape[1]
        else:
            spec, n = _full_spectrum(), None
        # A fresh output per chunk: callers keep the chunks they receive.
        convolved = _convolve_bin_major(
            _bin_major_rows(chunk, real=half_path), spec, row_map, n
        )
        yield (convolved.real if real_chunk and not half_path else convolved), rows
    if num_rows is not None and next_row != num_rows:
        raise ValueError(
            f"chunk stream ended at row {next_row}, expected {num_rows} rows"
        )

