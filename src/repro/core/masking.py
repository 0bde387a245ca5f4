"""Batched occlusion masking: lazy mask plans scored as one stream.

The paper's interpretation step (Eq. 5) scores a feature set by masking
it and re-running the distilled model.  Element, block, column and row
occlusion differ *only* in which features each mask covers, so one
engine serves all four:

* :class:`MaskSpec` -- a mask plan as a compact descriptor
  (granularity + plane + block shape, a few ints) whose
  :meth:`MaskSpec.iter_chunks` generates ``(bool_chunk, row_range)``
  slices on demand, so neither the ``(num_masks, M, N)`` bool stack nor
  the masked float stack is ever materialized;
* :func:`score_plan` -- Eq. 5 for every mask of a plan at once: masked
  variants are generated, convolved against a kernel spectrum computed
  exactly once, and reduced ``chunk_rows`` planes at a time, so peak
  memory is ``O(chunk_rows * M * N)`` however many masks the plan
  describes and the stack budget bounds only the chunk;
* :meth:`MaskSpec.bands_at` -- the one definition of a mask: mask
  ``i`` of every granularity occludes a band of whole rows at a fixed
  set of columns, returned for any mask indices as ``(start, height,
  cols)``.  :meth:`MaskSpec.masks_at` expands bands into bool masks in
  one broadcast (the generator behind both items above), and a fleet
  wave (:mod:`repro.core.fleet`) patches only the band rows of its
  pairs' planes, so its row transforms cover just the rows a mask
  touches.

Chunk boundaries never change bits: the batched FFT kernels are
plane-independent and per-row reductions plane-local, so scores equal
one masked convolution per feature exactly.

Occlusion is throughput work, not latency work: the masked variants are
data-independent, so a whole plan can ship to an accelerator as one
program (one dispatch, one infeed) instead of one host round trip per
mask -- the batching-for-efficiency argument of the TPU follow-up paper
(Pan & Mishra 2021) and the XAI-efficiency survey (Chuang et al. 2023).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from repro.fft.convolution import fft_circular_convolve2d_chunks
from repro.hw.device import Device

REDUCTIONS = ("l2", "l1", "mean_abs", "max_abs")

#: Default ceiling on the float64 working set a streamed scoring call
#: may hold (4 GiB); it clamps the chunk size, see
#: :func:`effective_chunk_rows`.
DEFAULT_STACK_BUDGET_BYTES = 4 * 1024**3

#: Mask rows generated/convolved per streamed chunk.
DEFAULT_CHUNK_ROWS = 64

FLOAT64_BYTES = 8  # masked variants are generated as float64 (8x the bools)

GRANULARITIES = ("blocks", "columns", "rows", "elements")


class MaskStackBudgetError(MemoryError):
    """A mask chunk would exceed the configured memory budget.

    Raised *before* generating the chunk, instead of letting a huge
    allocation fail (or page) deep inside the batched engine.
    """


def check_stack_budget(
    nbytes: int,
    max_stack_bytes: int | None,
    what: str = "mask stack",
    bool_nbytes: int | None = None,
) -> None:
    """Raise :class:`MaskStackBudgetError` when ``nbytes`` exceeds the budget.

    ``nbytes`` must price the *float64* planes the engine actually
    generates -- the bool masks are 1 byte/element, but each masked
    variant is an 8-byte float row, so budgeting the bools would
    undercount real pressure 8x.  Pass the bool bytes via
    ``bool_nbytes`` so the error reports both figures.
    ``max_stack_bytes=None`` disables the check (the caller opted out).
    """
    if max_stack_bytes is None or nbytes <= max_stack_bytes:
        return
    bool_note = (
        f" ({bool_nbytes} bytes of bool masks before the 8x float64 blow-up)"
        if bool_nbytes is not None
        else ""
    )
    raise MaskStackBudgetError(
        f"{what} needs {nbytes} bytes of float64{bool_note}, over the "
        f"{max_stack_bytes}-byte budget; raise max_stack_bytes or "
        "shrink the plane"
    )


def check_fill_value(fill_value) -> None:
    """Reject an occlusion fill that is not a finite real number.

    The single home of the rule, called where a fill enters:
    :class:`~repro.core.fleet.FleetExecutor` at construction (so also
    the service) and :meth:`MaskSpec.apply_chunks` (so also
    :func:`score_plan`, the contribution entry points and the occlusion
    baselines).  A
    complex fill would make a real pair's masked planes complex, and a
    NaN or infinite one would score every mask non-finite; a ``bool``
    is a flag, not a fill.  A valid fill is used as given, bits and all.
    """
    if (
        isinstance(fill_value, bool)
        or not isinstance(fill_value, (int, float, np.integer, np.floating))
        or not math.isfinite(fill_value)
    ):
        raise ValueError(f"fill_value must be a finite real number, got {fill_value!r}")


def _check_window(start: int, stop: int | None, num_masks: int) -> tuple[int, int]:
    """Validate a ``[start, stop)`` mask-row window against a plan."""
    start = int(start)
    stop = num_masks if stop is None else int(stop)
    if not 0 <= start <= stop <= num_masks:
        raise ValueError(
            f"mask window [{start}, {stop}) does not fit a plan of "
            f"{num_masks} masks"
        )
    return start, stop


def _check_plane(shape: tuple[int, int]) -> tuple[int, int]:
    m, n = shape
    if m <= 0 or n <= 0:
        raise ValueError(f"plane shape must be positive, got {shape}")
    return int(m), int(n)


def _check_chunk_rows(chunk_rows: int) -> int:
    chunk_rows = int(chunk_rows)
    if chunk_rows <= 0:
        raise ValueError(f"chunk_rows must be positive, got {chunk_rows}")
    return chunk_rows


def reduce_batch(deltas: np.ndarray, reduction: str) -> np.ndarray:
    """Per-plane scalar reduction of a ``(batch, M, N)`` residual stack."""
    deltas = np.asarray(deltas)
    if reduction == "l2" and np.isrealobj(deltas):
        # |d|**2 == d*d bit for bit for real d, so the magnitudes pass is
        # skipped; abs of the per-plane sums only turns a NaN score
        # positive, as the magnitudes path leaves it.
        return np.sqrt(np.abs(np.sum(np.square(deltas), axis=(-2, -1))))
    magnitudes = np.abs(deltas)
    if reduction == "l2":
        return np.sqrt(np.sum(magnitudes**2, axis=(-2, -1)))
    if reduction == "l1":
        return np.sum(magnitudes, axis=(-2, -1))
    if reduction == "mean_abs":
        return np.mean(magnitudes, axis=(-2, -1))
    if reduction == "max_abs":
        return np.max(magnitudes, axis=(-2, -1))
    raise ValueError(f"unknown reduction {reduction!r}; expected one of {REDUCTIONS}")


@dataclass(frozen=True)
class MaskSpec:
    """A mask plan: the four paper granularities as a descriptor.

    A spec stores only ``(granularity, plane_shape, block_shape)`` and
    *generates* mask rows on demand through :meth:`iter_chunks`.
    Element, block, column and row occlusion are all structured (mask
    ``i`` is a deterministic function of ``i``), so nothing about the
    stack needs to exist ahead of time.

    Mask ``i`` occludes: element ``divmod(i, N)`` (row-major), block
    ``divmod(i, N // bw)`` of the ``block_shape`` grid, column ``i`` or
    row ``i``.  The flat per-mask score vector reshapes to
    :attr:`output_shape`, and :attr:`labels` names each mask's feature.
    """

    granularity: str
    plane_shape: tuple[int, int]
    block_shape: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        m, n = _check_plane(self.plane_shape)
        object.__setattr__(self, "plane_shape", (m, n))
        if self.granularity not in GRANULARITIES:
            raise ValueError(
                f"unknown granularity {self.granularity!r}; expected one of "
                f"{GRANULARITIES}"
            )
        if self.granularity == "blocks":
            if self.block_shape is None:
                raise ValueError("blocks granularity requires a block_shape")
            bh, bw = (int(v) for v in self.block_shape)
            if bh <= 0 or bw <= 0:
                raise ValueError(
                    f"block shape must be positive, got {self.block_shape}"
                )
            if m % bh or n % bw:
                raise ValueError(
                    f"block shape {(bh, bw)} does not tile input of shape {(m, n)}"
                )
            object.__setattr__(self, "block_shape", (bh, bw))
        elif self.block_shape is not None:
            raise ValueError(
                f"{self.granularity} granularity takes no block_shape"
            )

    # ------------------------------------------------------------------
    # Constructors, one per paper granularity
    # ------------------------------------------------------------------
    @classmethod
    def elements(cls, shape: tuple[int, int]) -> "MaskSpec":
        """One mask per input element (Eq. 5 verbatim, all features)."""
        return cls("elements", tuple(shape))

    @classmethod
    def blocks(cls, shape: tuple[int, int], block_shape: tuple[int, int]) -> "MaskSpec":
        """One mask per tile of a ``block_shape`` grid (Figure 5)."""
        return cls("blocks", tuple(shape), tuple(block_shape))

    @classmethod
    def columns(cls, shape: tuple[int, int]) -> "MaskSpec":
        """One mask per column (Figure 6's trace-table clock cycles)."""
        return cls("columns", tuple(shape))

    @classmethod
    def rows(cls, shape: tuple[int, int]) -> "MaskSpec":
        """One mask per row (registers of a trace table)."""
        return cls("rows", tuple(shape))

    @classmethod
    def for_granularity(
        cls,
        granularity: str,
        shape: tuple[int, int],
        block_shape: tuple[int, int] | None = None,
    ) -> "MaskSpec":
        """Dispatch constructor used by the fleet executor."""
        if granularity == "blocks":
            if block_shape is None:
                raise ValueError("blocks granularity requires a block_shape")
            return cls.blocks(shape, block_shape)
        return cls(granularity, tuple(shape))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def _grid(self) -> tuple[int, int]:
        bh, bw = self.block_shape
        return self.plane_shape[0] // bh, self.plane_shape[1] // bw

    @functools.cached_property
    def output_shape(self) -> tuple[int, ...]:
        m, n = self.plane_shape
        if self.granularity == "elements":
            return (m, n)
        if self.granularity == "blocks":
            return self._grid
        if self.granularity == "columns":
            return (n,)
        return (m,)

    @functools.cached_property
    def num_masks(self) -> int:
        return math.prod(self.output_shape)

    @property
    def _band_shape(self) -> tuple[int, int]:
        """``(height, width)`` of the rectangle every mask occludes."""
        m, n = self.plane_shape
        if self.granularity == "blocks":
            return self.block_shape
        return {"elements": (1, 1), "columns": (m, 1), "rows": (1, n)}[self.granularity]

    @property
    def cells_per_mask(self) -> int:
        """Cells every mask occludes: ``bh * bw``, ``M``, ``N`` or 1."""
        return math.prod(self._band_shape)

    @property
    def labels(self) -> tuple[tuple[int, ...], ...]:
        return tuple(itertools.product(*map(range, self.output_shape)))

    def __len__(self) -> int:
        return self.num_masks

    # ------------------------------------------------------------------
    # Generation
    # ------------------------------------------------------------------
    def bands_at(self, index) -> tuple[np.ndarray, int, np.ndarray]:
        """Masks ``index`` in factored form: ``(start, height, cols)``.

        Every granularity's mask ``i`` occludes a band of whole rows,
        ``start[i] : start[i] + height``, at a fixed set of columns,
        ``cols[i, 0]`` (``cols`` is a ``(len(index), 1, N)`` bool
        array): ``blocks`` give ``bh`` rows times a ``bw``-wide stripe,
        ``rows`` one row times every column, ``columns`` all ``M`` rows
        times one column, ``elements`` one row times one column.  Rows
        outside the band are untouched, which is what lets a fleet wave
        transform only the rows a mask changes.  Any integer indices, in
        any order or repeated.
        """
        start, first = self._band_origins(index)
        height, width = self._band_shape
        first = first[:, np.newaxis, np.newaxis]
        column = np.arange(self.plane_shape[1])
        return start, height, (column >= first) & (column < first + width)

    def cells_at(self, index) -> np.ndarray:
        """Flat plane indices of the cells masks ``index`` occlude.

        A ``(len(index), cells_per_mask)`` array: each mask's
        :meth:`bands_at` rectangle, row by row.  Every mask is the same
        rectangle moved, so the offsets between its cells are the same
        for all of them.
        """
        start, first = self._band_origins(index)
        height, width = self._band_shape
        rows = start[:, np.newaxis, np.newaxis] + np.arange(height)[:, np.newaxis]
        cols = first[:, np.newaxis, np.newaxis] + np.arange(width)
        cells = rows * self.plane_shape[1] + cols
        return cells.reshape(start.size, height * width)

    def _band_origins(self, index) -> tuple[np.ndarray, np.ndarray]:
        """Masks ``index``'s top-left cells as ``(row, column)`` arrays."""
        index = np.asarray(index, dtype=np.intp).reshape(-1)
        if index.size and (index.min() < 0 or index.max() >= self.num_masks):
            raise ValueError(
                f"mask indices must lie in [0, {self.num_masks}), got range "
                f"[{index.min()}, {index.max()}]"
            )
        if self.granularity == "elements":
            return np.divmod(index, self.plane_shape[1])
        if self.granularity == "blocks":
            height, width = self.block_shape
            start, first = np.divmod(index, self._grid[1])
            return start * height, first * width
        if self.granularity == "columns":
            return np.zeros_like(index), index
        return index, np.zeros_like(index)  # rows

    def masks_at(self, index) -> np.ndarray:
        """The ``(len(index), M, N)`` bool masks of mask numbers ``index``.

        Each mask is its :meth:`bands_at` band of rows crossed with its
        columns, built for the whole stack in one broadcast.
        """
        start, height, cols = self.bands_at(index)
        row = np.arange(self.plane_shape[0])[:, np.newaxis]
        first = start[:, np.newaxis, np.newaxis]
        return (row >= first) & (row < first + height) & cols

    def iter_chunks(
        self,
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
        start: int = 0,
        stop: int | None = None,
    ):
        """Yield ``(bool_chunk, row_range)`` slices, generated on demand.

        Each chunk is a freshly built ``(rows, M, N)`` bool array
        (:meth:`masks_at`) covering masks ``row_range``, so peak mask
        memory is ``O(chunk_rows * M * N)`` however many masks the spec
        describes.  ``start``/``stop`` generate only a window of rows
        (a window costs only its own rows); yielded ranges stay global.
        """
        chunk_rows = _check_chunk_rows(chunk_rows)
        window_start, window_stop = _check_window(start, stop, self.num_masks)
        for lo in range(window_start, window_stop, chunk_rows):
            hi = min(lo + chunk_rows, window_stop)
            yield self.masks_at(np.arange(lo, hi)), range(lo, hi)

    def apply_chunks(
        self,
        x: np.ndarray,
        fill_value: float = 0.0,
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
        start: int = 0,
        stop: int | None = None,
    ):
        """Yield ``(masked_chunk, row_range)``: masked input variants.

        ``fill_value`` replaces the occluded features: 0.0 is Eq. 5
        verbatim; the input mean is the occlusion-literature baseline.
        Validates eagerly (a bad input shape or a fill that is not a
        finite real number raises at the call, not at first iteration);
        ``start``/``stop`` window the generated rows exactly as in
        :meth:`iter_chunks`.
        """
        x = np.asarray(x)
        if x.shape != self.plane_shape:
            raise ValueError(
                f"input shape {x.shape} does not match plan plane {self.plane_shape}"
            )
        check_fill_value(fill_value)
        start, stop = _check_window(start, stop, self.num_masks)

        def _generate():
            for chunk, rows in self.iter_chunks(chunk_rows, start=start, stop=stop):
                yield np.where(chunk, fill_value, x[np.newaxis]), rows

        return _generate()

    def reshape_scores(self, flat_scores: np.ndarray) -> np.ndarray:
        """Fold the flat per-mask score vector into the output grid."""
        flat_scores = np.asarray(flat_scores)
        if flat_scores.shape != (self.num_masks,):
            raise ValueError(
                f"expected {self.num_masks} flat scores, got shape {flat_scores.shape}"
            )
        return flat_scores.reshape(self.output_shape)


def effective_chunk_rows(
    plane_shape: tuple[int, int],
    chunk_rows: int | None,
    max_stack_bytes: int | None,
    what: str = "streamed mask chunk",
) -> int:
    """Chunk size a streamed scoring call should generate at.

    Defaults to :data:`DEFAULT_CHUNK_ROWS`, then clamps so one chunk's
    float64 planes fit ``max_stack_bytes``.  Streaming needs at least
    one whole plane in flight, so a budget below a single ``M x N``
    float plane raises :class:`MaskStackBudgetError`.
    """
    m, n = plane_shape
    plane_bytes = m * n * FLOAT64_BYTES
    rows = _check_chunk_rows(chunk_rows if chunk_rows is not None else DEFAULT_CHUNK_ROWS)
    if max_stack_bytes is None:
        return rows
    check_stack_budget(
        plane_bytes, max_stack_bytes, what=f"{what} (a single plane)",
        bool_nbytes=m * n,
    )
    return max(1, min(rows, max_stack_bytes // plane_bytes))


def score_plan(
    x: np.ndarray,
    kernel: np.ndarray,
    y: np.ndarray,
    plan: MaskSpec,
    reduction: str = "l2",
    device: Device | None = None,
    fill_value: float = 0.0,
    max_stack_bytes: int | None = None,
    chunk_rows: int | None = None,
    precision=None,
) -> np.ndarray:
    """Eq. 5 scores for every mask of ``plan``, in the plan's output grid.

    Masked variants are generated, convolved and reduced ``chunk_rows``
    planes at a time (default :data:`DEFAULT_CHUNK_ROWS`, clamped so a
    chunk fits ``max_stack_bytes``; ``None`` disables the budget): the
    kernel spectrum is computed exactly once, and on compiled backends
    the plan costs one dispatch instead of one host round trip per mask.
    Peak memory is ``O(chunk_rows * M * N)`` regardless of
    ``num_masks``.

    ``precision`` (a name or :class:`~repro.hw.quantize.PrecisionSpec`)
    quantizes each masked plane spatially and the kernel spectrum per
    component before the Hadamard product -- the MXU int8/bf16 datapath.
    The rounding is strictly per-plane, so scores still equal one masked
    convolution per feature bit for bit at the same precision.
    """
    from repro.hw.quantize import resolve_precision

    spec = resolve_precision(precision)
    x = np.asarray(x)
    kernel = np.asarray(kernel)
    y = np.asarray(y)
    if x.shape != kernel.shape or x.shape != y.shape:
        raise ValueError(
            "input, kernel and output must share one shape, got "
            f"{x.shape}, {kernel.shape}, {y.shape}"
        )
    if x.shape != plan.plane_shape:
        raise ValueError(
            f"plan plane {plan.plane_shape} does not match operands of shape {x.shape}"
        )
    if reduction not in REDUCTIONS:
        raise ValueError(
            f"unknown reduction {reduction!r}; expected one of {REDUCTIONS}"
        )
    rows_per_chunk = effective_chunk_rows(plan.plane_shape, chunk_rows, max_stack_bytes)
    chunks = plan.apply_chunks(x, fill_value=fill_value, chunk_rows=rows_per_chunk)
    if device is None:
        convolved_chunks = fft_circular_convolve2d_chunks(
            chunks, kernel, num_rows=plan.num_masks, precision=spec
        )
    else:
        convolved_chunks = device.conv2d_circular_batch_chunks(
            chunks, kernel, num_rows=plan.num_masks, precision=spec
        )
    scores = np.empty(plan.num_masks)
    for convolved, rows in convolved_chunks:
        deltas = y[np.newaxis] - convolved
        scores[rows.start : rows.stop] = reduce_batch(deltas, reduction)
    return plan.reshape_scores(scores)
