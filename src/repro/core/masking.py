"""Batched occlusion masking: lazy mask plans scored as one stream.

The paper's interpretation step (Eq. 5) scores a feature set by masking
it and re-running the distilled model.  Element, block, column and row
occlusion differ *only* in which features each mask covers, so one
engine serves all four:

* :class:`MaskSpec` -- a mask plan as a compact descriptor
  (granularity + plane + block shape, a few ints);
  :meth:`MaskSpec.cells_at` is the one definition of a mask: mask ``i``
  of every granularity occludes a rectangle of cells, the first mask's
  moved, returned for any mask indices as flat plane indices;
* :func:`masked_windows` -- the one builder of masked planes: the rows
  of a row map (:func:`~repro.core.fleet.wave_row_map`; one pair's
  masks are the one-pair map) as each pair's plane with its mask's
  cells set to the pair's fill, ``rows_per_chunk`` planes at a time, so
  neither a bool mask stack nor the masked float stack is ever
  materialized;
* :func:`convolve_windows` -- the one exact windowed convolution: those
  windows streamed through
  :func:`~repro.fft.convolution.fft_circular_convolve2d_chunks` against
  per-pair kernels whose spectra are computed once per call.  A fleet
  wave (:mod:`repro.core.fleet`) convolves its exact rows through it;
* :func:`score_plan` -- Eq. 5 for every mask of one pair's plan: its
  windows convolved and reduced ``chunk_rows`` planes at a time, so
  peak memory is ``O(chunk_rows * M * N)`` however many masks the plan
  describes and the stack budget bounds only the chunk.

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
from repro.fft.fft2d import rfft2_batch
from repro.fft.spectra import KernelSpectrum

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
    the service), :func:`score_plan` (so also the contribution entry
    points) and :meth:`MaskSpec.apply_chunks` (so also the occlusion
    baselines).  A complex fill would make a real pair's masked planes
    complex, and a NaN or infinite one would score every mask
    non-finite; a ``bool`` is a flag, not a fill.  A valid fill is used
    as given, bits and all.
    """
    if (
        isinstance(fill_value, bool)
        or not isinstance(fill_value, (int, float, np.integer, np.floating))
        or not math.isfinite(fill_value)
    ):
        raise ValueError(f"fill_value must be a finite real number, got {fill_value!r}")


def fill_for(dtype: np.dtype, fill_value):
    """``fill_value`` as a scalar of the dtype ``np.where(mask, fill_value,
    x)`` gives an ``x`` of ``dtype``.

    The one home of the fill-dtype rule: a float32 plane fills with the
    float32-rounded value, an integer plane with a float fill becomes a
    float64 one.  The fleet keeps it per dtype; :func:`score_plan` and
    :meth:`MaskSpec.apply_chunks` take it for their one plane.
    """
    return np.result_type(dtype, fill_value).type(fill_value)


def fill_sources(planes: np.ndarray, fills) -> tuple[np.ndarray, np.ndarray]:
    """A ``(P, M, N)`` stack in the dtype its per-plane fills need, and the fills.

    ``fills[p]`` is plane ``p``'s :func:`fill_for`; the stack is cast to
    the dtype its planes and fills share, which is what
    :func:`masked_windows` patches into.
    """
    fills = np.array(fills)
    return planes.astype(np.result_type(planes, fills), copy=False), fills


def _one_pair(x: np.ndarray, fill_value, num_masks: int) -> tuple:
    """Plane ``x`` and its masks as :func:`masked_windows` takes a wave:
    ``(sources, fills, row_pair, row_slot, is_mask)`` of a one-pair stack
    whose every row is a mask.  Refuses a bad fill (:func:`check_fill_value`)."""
    check_fill_value(fill_value)
    sources, fills = fill_sources(x[np.newaxis], [fill_for(x.dtype, fill_value)])
    slots = np.arange(num_masks)
    return sources, fills, np.zeros_like(slots), slots, np.ones(num_masks, bool)


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
    *generates* masks on demand through :meth:`cells_at`.
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
    def cells_at(self, index) -> np.ndarray:
        """Flat plane indices of the cells masks ``index`` occlude.

        A ``(len(index), cells_per_mask)`` array: each mask's rectangle,
        row by row.  ``blocks`` occlude a ``block_shape`` tile, ``rows``
        one row, ``columns`` one column and ``elements`` one cell.  Every
        mask is the same rectangle moved, so the offsets between its
        cells are the same for all of them.  Any integer indices, in any
        order or repeated.
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

    def apply_chunks(
        self,
        x: np.ndarray,
        fill_value: float = 0.0,
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
    ):
        """Yield ``(masked_chunk, row_range)``: masked input variants.

        ``fill_value`` replaces the occluded features: 0.0 is Eq. 5
        verbatim; the input mean is the occlusion-literature baseline.
        The chunks are :func:`masked_windows` of ``x`` alone, each the
        planes ``np.where(mask, fill_value, x)`` gives.  Validates
        eagerly (a bad input shape, a fill that is not a finite real
        number or a ``chunk_rows`` below 1 raises at the call, not at
        first iteration).
        """
        x = np.asarray(x)
        if x.shape != self.plane_shape:
            raise ValueError(
                f"input shape {x.shape} does not match plan plane {self.plane_shape}"
            )
        sources, fills, *row_map = _one_pair(x, fill_value, self.num_masks)
        return masked_windows(sources, fills, self, *row_map, _check_chunk_rows(chunk_rows))

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


def masked_windows(sources, fills, plan, row_pair, row_slot, is_mask, rows_per_chunk):
    """The rows a row map names as masked planes, ``rows_per_chunk`` at a time.

    ``row_pair``, ``row_slot`` and ``is_mask`` describe the rows as
    :func:`~repro.core.fleet.wave_row_map` does (any subset of a wave's
    rows, in any order).  Yields ``(planes, rows)``, ``rows`` the
    ``range`` of row-map positions a window covers.  A mask row is its
    pair's plane of ``sources`` with the cells the mask occludes
    (:meth:`MaskSpec.cells_at` of ``plan``, the one plan every pair
    carries) set to the pair's fill; a residual row is the pair's plane
    unchanged.  Only those cells are written, into the window's flat
    planes.  With ``sources`` and ``fills`` from :func:`fill_sources`, a
    mask row equals ``np.where(mask, fill_value, x)`` bit for bit.
    """
    for lo in range(0, row_pair.size, rows_per_chunk):
        rows = range(lo, min(lo + rows_per_chunk, row_pair.size))
        window = slice(lo, rows.stop)
        pairs = row_pair[window]
        planes = sources[pairs]
        local = np.flatnonzero(is_mask[window])
        if local.size:
            cells = plan.cells_at(row_slot[window][local])
            planes.reshape(len(planes), -1)[local[:, np.newaxis], cells] = (
                fills[pairs[local], np.newaxis]
            )
        yield planes, rows


def convolve_windows(
    sources, fills, kernels, plan, row_pair, row_slot, is_mask, rows_per_chunk, precision,
):
    """Convolve the rows a row map names, in windows: ``(convolved, rows)``.

    The :func:`masked_windows` of the rows stream through
    :func:`~repro.fft.convolution.fft_circular_convolve2d_chunks`, row
    ``i`` against ``kernels[row_pair[i]]``, at ``precision`` (a
    :class:`~repro.hw.quantize.PrecisionSpec` or ``None``); ``rows`` is
    the slice of the row map a window covers.  Real kernels hand the
    stream their half spectra, transformed once per call, so real
    windows never look them up in the kernel-spectrum cache (a fleet's
    kernels are solved fresh and never repeat); complex windows under a
    real kernel fetch its full spectrum from the cache, and complex
    kernels are transformed by the stream.
    """
    half = None
    if np.isrealobj(kernels):
        half = KernelSpectrum(rfft2_batch(kernels), "half", kernels.shape[-2:])
    for convolved, rows in fft_circular_convolve2d_chunks(
        masked_windows(sources, fills, plan, row_pair, row_slot, is_mask, rows_per_chunk),
        kernels, kernel_spectrum=half, row_kernel=row_pair,
        num_rows=row_pair.size, precision=precision,
    ):
        yield convolved, slice(rows.start, rows.stop)


def score_plan(
    x: np.ndarray,
    kernel: np.ndarray,
    y: np.ndarray,
    plan: MaskSpec,
    reduction: str = "l2",
    fill_value: float = 0.0,
    max_stack_bytes: int | None = None,
    chunk_rows: int | None = None,
    precision=None,
) -> np.ndarray:
    """Eq. 5 scores for every mask of ``plan``, in the plan's output grid.

    One pair's masks through :func:`convolve_windows`, as a fleet wave's
    exact rows go: masked variants are generated, convolved and reduced
    ``chunk_rows`` planes at a time (default :data:`DEFAULT_CHUNK_ROWS`,
    clamped so a chunk fits ``max_stack_bytes``; ``None`` disables the
    budget), and the kernel spectrum is computed exactly once.  Peak
    memory is ``O(chunk_rows * M * N)`` regardless of ``num_masks``.

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
    sources, fills, *row_map = _one_pair(x, fill_value, plan.num_masks)
    scores = np.empty(plan.num_masks)
    for convolved, rows in convolve_windows(
        sources, fills, kernel[np.newaxis], plan, *row_map, rows_per_chunk, spec
    ):
        scores[rows] = reduce_batch(y - convolved, reduction)
    return plan.reshape_scores(scores)
