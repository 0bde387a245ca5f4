"""Fleet-scale wave fusion: one batched program per scheduler wave.

The paper's second acceleration lever -- "parallel computation of
multiple inputs" (Section III-D) -- concerns *many* input-output pairs
at once.  This module scores a whole fleet with one program dispatch,
one infeed and one batched convolution per *wave* of pairs:

* :class:`FleetSchedule` -- wave planning: pairs of equal plane shape
  are grouped into **waves**, split only by ``max_pairs_per_wave``;
  bytes never close a wave, because execution streams a chunk clamped
  to the stack budget -- only a plane too large for the budget to hold
  one row raises :class:`~repro.core.masking.MaskStackBudgetError`;
* :class:`FleetExecutor` -- wave execution: a wave's lazy mask plans
  (:class:`~repro.core.masking.MaskSpec`; every granularity has one,
  and ``elements`` is one-cell masks, the masks of ``blocks`` with
  ``(1, 1)`` tiles, run and priced alike) stream, together with each
  pair's *unmasked* residual plane, through one conceptual
  ``(sum(num_masks_i) + P, M, N)`` cross-pair stack whose rows
  :func:`wave_row_map` maps back to ``(pair, mask)`` as three integer
  arrays (the paper's reassembly table); the stack is **never
  materialized** -- it is convolved (per-row kernels, one
  kernel-spectrum batch for the wave) and scored with one reduction in
  windows of at most ``chunk_rows`` rows, so peak host memory is
  ``O(chunk_rows * M * N)`` plus a few planes per pair (its residual;
  on the ``l2`` path below, its correlation and autocorrelation too)
  regardless of how many masks a wave fuses.  A window holds its rows'
  ``x`` planes with each mask's band of occluded rows
  (:meth:`~repro.core.masking.MaskSpec.bands_at`) patched in, built by
  :func:`~repro.core.masking.masked_windows`, the one builder of masked
  planes, and streams through
  :func:`~repro.core.masking.convolve_windows`, the one windowed
  convolution (row transforms then column transforms, Sec. III-C,
  Eq. 7-8, on **bin-major** spectra: for each bin of the row
  transform, every plane's column contiguous), which
  :func:`~repro.core.masking.score_plan` runs for one pair.

Every wave is **computed once on the host, whatever its placement,
and then priced**: each pricing target (the device itself on one chip;
each chip of a pod placement, below) opens its ``device.program``
scope and records the ledger rows of its share -- its pairs' Eq. 4
solves, their kernel-spectrum batch, its rows' batched convolution --
in the order the simulated chip executes them.

Waves run **double-buffered**: they execute inside a
``device.pipeline()`` scope, so wave ``i+1``'s dispatch + infeed
streams into the spare buffer while wave ``i`` computes -- elapsed is
``infeed_0 + sum(max(compute_i + outfeed_i, infeed_{i+1})) +
outfeed_last`` (intermediate outfeeds ride with their wave's compute on
the full-duplex link; the last outfeed is charged in full) and the
hidden host-link time is credited back as a negative ``infeed_overlap``
ledger row.  A single-wave fleet pays exactly its serial cost.

Kernels and residuals equal the per-pair loop bit for bit, and so do
scores off the ``l2`` path below: the batched FFT kernels transform
each line on its own (so a row's transform is the same whether it is
computed alone or in a stack, and an unmasked row's is its pair's) and
per-row reductions are plane-local.  **l2 by linearity.**  An ``l2``
wave of real float64 pairs at exact precision convolves only its
pairs' unmasked planes, in one batched rFFT round trip outside the
windows, and scores every mask in closed form
(:func:`~repro.core.interpretation.l2_scores_by_linearity`: two planes
per pair, ``O(s^2)`` per mask of ``s`` cells); a mask whose terms
cancel goes back to one exact convolution in a window.  Those scores
match the loop within 1e-9 of the pair's largest score instead of bit
for bit.
Either way a score depends only on its own pair, so fusion,
streaming, pipelining, placement and tracing change only the cost
ledger, never the numbers -- and the ledger still prices one
convolution per mask, whichever way the host computed the scores.

**Precision model.**  The executor's ``precision`` axis (default
``None`` = exact legacy execution) hands a
:class:`~repro.hw.quantize.PrecisionSpec` to the wave's single batched
convolution: every streamed chunk of masked planes -- and each pair's
residual row -- quantizes spatially with a per-plane scale, and the
wave's kernel-spectrum batch quantizes per plane and complex component,
before the Hadamard products accumulate in float64 (the MXU int8/bf16
datapath; the Eq. 4 *solves* stay exact, so kernels are
precision-independent).  Because the rounding is strictly per-plane,
wave-fused scores and residuals remain bit-identical to one masked
convolution per feature *at the same precision*; a quantized wave
streams its infeed at the spec's storage width (1 byte/element for
int8) and is priced by the MXU cycle hooks at the spec's rate -- the
accuracy-vs-speed trade-off
``benchmarks/bench_fleet_interpretation.py`` reports per precision.

**Pod sharding.**  ``num_chips=K`` (or handing a
:class:`~repro.hw.pod.TpuPod` in as the device) scales a fleet past one
chip.  Every chip owns a private :class:`~repro.hw.pod.HostLink`, so
host infeed/outfeed is *sharded*: chips stream their own bytes
concurrently and a wave's host cost is the slowest link, never the sum;
program launches are queued asynchronously on the links, so a wave pays
at most one launch round trip on the critical path however many chips
it spans.  Data moved chip-to-chip is priced on the pod's
:class:`~repro.hw.interconnect.Interconnect`.  ``placement`` picks the
sharding axis:

* ``"data"`` (default) -- the wave's *pairs* split contiguously across
  chips; each chip is priced for its pair shard exactly like a
  single-chip wave (own kernel solves, own spectra batch, own rows)
  and feeds/drains that shard over its own host link -- there are no
  fabric collectives left on this path;
* ``"chunk"`` -- the wave's cross-pair *row space* (every mask row plus
  every residual row) splits across chips, **overlapping the root
  solve**: chip 0 solves every pair's kernel and the wave's one
  spectrum batch while the peers -- planes already infed over their own
  links -- stream per-pair row windows as each pair's
  spectrum arrives over a streamed ring broadcast
  (:meth:`~repro.hw.interconnect.Interconnect
  .broadcast_stream_seconds`); the root's own row share shrinks by
  exactly the solve time it carries, and the wave's body is the
  critical path of that solve/broadcast/stream timeline rather than a
  serial solve-then-stream sum -- the placement for a single over-wide
  plan that no pair split can balance;
* ``"wave"`` -- *whole waves* round-robin across chips: wave ``w`` is
  priced on chip ``w % K`` exactly like a single-chip wave (the
  ``data`` pricing, handed that one chip), and the
  chips' wave sequences execute concurrently -- the placement for multi-wave
  schedules (many shape groups, or ``max_pairs_per_wave`` caps) whose
  waves would otherwise serialize even on an 8-chip pod.

Per wave the pod records the remaining true collectives (for ``chunk``,
the streamed kernel-spectra broadcast) and the per-chip host-link
columns, and wave ``i+1``'s prologue overlaps wave ``i``'s compute
exactly the way :meth:`~repro.hw.device
.Device.pipeline` overlaps infeed -- the hidden time comes back as the
pod's negative ``collective_overlap`` ledger row, concurrency across
chips as ``pod_compute_overlap``, and the launch round trips the
asynchronous links absorb as ``host_link_overlap`` (see
:meth:`~repro.hw.pod.TpuPod.commit_run`).  Convolution, scoring and
reduction are per-row operations, so sharded scores stay
**bit-identical** to single-chip execution at every chip count,
placement and precision.

**HBM capacity.**  Wave budgeting is capacity-constrained: the
executor's effective stack budget is ``max_stack_bytes`` clamped to the
device's modeled HBM (:attr:`~repro.hw.device
.Device.hbm_capacity_bytes`; for a pod, the smallest member chip via
:attr:`~repro.hw.pod.TpuPod.min_chip_hbm_bytes`), or to an explicit
``hbm_bytes`` override.  A tight capacity shrinks the streamed chunk
(graceful fallback); a plane too large for even one row still raises
:class:`~repro.core.masking.MaskStackBudgetError` up front (rejection).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from repro.core.distillation import ConvolutionDistiller
from repro.core.interpretation import l2_scores_by_linearity
from repro.core.masking import (
    DEFAULT_STACK_BUDGET_BYTES,
    GRANULARITIES,
    MaskSpec,
    REDUCTIONS,
    check_fill_value,
    check_stack_budget,
    convolve_windows,
    effective_chunk_rows,
    fill_for,
    fill_sources,
    reduce_batch,
)
from repro.core.transform import (
    OutputEmbedding,
    _record_solve,
    _solve_stack,
    check_eps,
    spectrum_problem,
)
from repro.fft.fft2d import irfft2_batch, rfft2_batch
from repro.hw.device import Device, shard_slices
from repro.hw.pod import PodWaveStats, TpuPod, check_hbm_bytes, check_num_chips, is_count
from repro.hw.quantize import resolve_precision
from repro.obs.tracer import tracer

#: Trace lane (tid) fleet-stage spans use on each executing device's
#: process row -- clear of the device lanes (0) and pod lanes (< 64).
_FLEET_TID = 50

PLACEMENTS = ("data", "chunk", "wave")

FLOAT_BYTES = 8  # masked planes are generated in float64

COMPLEX_BYTES = 16  # kernel spectra broadcast as complex128 planes


def feed_bytes(arrays, spec) -> int:
    """Host-link bytes to stream ``arrays`` at a precision's storage width.

    ``spec=None`` preserves the legacy feed (the arrays' own nbytes);
    with a spec, each real plane streams at ``bytes_per_element`` and a
    complex plane as two such component planes -- so ``fp64`` prices
    exactly like the legacy float64 feed while ``int8`` models the
    1-byte quantized infeed.
    """
    if spec is None:
        return sum(int(np.asarray(a).nbytes) for a in arrays)
    total = 0
    for a in arrays:
        a = np.asarray(a)
        planes = 2 if np.iscomplexobj(a) else 1
        total += planes * a.size * spec.bytes_per_element
    return total


def wave_dtype_key(x, y) -> tuple[np.dtype, np.dtype, np.dtype]:
    """The dtypes that decide which pairs may share a wave.

    ``(np.result_type(x, y, np.float64), width(x), width(y))``, where an
    operand's float width is ``np.finfo(np.result_type(a,
    np.float64)).dtype``: float32, integer and float64 operands have
    float64 width, and a complex128 one too, so a real-``x`` pair with
    a complex ``y`` keys like a complex pair and shares its wave.
    ``x`` and ``y`` are arrays or dtypes; the key depends on their
    dtypes alone and is built once per pair of dtypes.
    """
    return _dtype_key(_dtype_of(x), _dtype_of(y))


def _dtype_of(a) -> np.dtype:
    return a.dtype if isinstance(a, np.ndarray) else np.result_type(a)


@functools.lru_cache(maxsize=256)
def _dtype_key(x: np.dtype, y: np.dtype) -> tuple[np.dtype, np.dtype, np.dtype]:
    def width(dtype):
        return np.finfo(np.result_type(dtype, np.float64)).dtype

    return np.result_type(x, y, np.float64), width(x), width(y)


#: The key of pairs whose ``x``, ``y`` and stack are all float64.
_FLOAT64_KEY = (np.dtype(np.float64),) * 3


def _once_per_value(values, normalize) -> list:
    """``[normalize(v) for v in values]``, calling ``normalize`` once per
    distinct hashable value: a wave's pairs mostly share one shape and
    one dtype key, already in normal form."""
    done = {}
    out = []
    for value in values:
        try:
            normal = done.get(value)
        except TypeError:  # unhashable: normalize it every time
            out.append(normalize(value))
            continue
        if normal is None:
            normal = done[value] = normalize(value)
        out.append(normal)
    return out


def wave_row_map(mask_counts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A wave's row map: the paper's reassembly table as three arrays.

    A wave streams, for each of its pairs in order, the pair's masked
    variants and then its unmasked plane (the residual row, which turns
    the pair's residual convolution into one more batch row).  Given
    each pair's mask count, returns per stack row: ``row_pair``, the
    pair's position in the wave (also the row's kernel); ``row_slot``,
    the mask index within the pair, or the pair's mask count on its
    residual row; and ``is_mask``.

    A pair's rows depend only on its own mask count and the rows before
    it, so the map of a wave is a prefix of the map of any wider wave
    whose counts start the same: the first ``P * (s + 1)`` rows of
    ``wave_row_map([s] * Q)`` are ``wave_row_map([s] * P)`` for every
    ``P <= Q``, which is how a :class:`_PlanLayout` serves every wave of
    its plan from the widest one's arrays.
    """
    counts = np.asarray(mask_counts, dtype=np.intp)
    sizes = counts + 1
    row_pair = np.repeat(np.arange(counts.size), sizes)
    row_slot = np.arange(row_pair.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    return row_pair, row_slot, row_slot < counts[row_pair]


def _fit_residuals(preds: np.ndarray, y_stack: np.ndarray) -> np.ndarray:
    """Each plane's fit residual, the RMS of ``|pred - y|``.

    ``sqrt(mean(|pred - y|^2))``, except where that overflows -- its
    squares pass the float range once the error passes about 1e154 --
    while ``pred - y`` is finite: there the RMS is taken of the plane
    divided by its largest ``|pred - y|`` and multiplied back, so a
    finite fit error has a finite residual.  Every residual the plain
    formula gets finite keeps its bits.
    """
    delta = np.abs(preds - y_stack)
    residuals = np.sqrt(np.mean(delta**2, axis=(-2, -1)))
    overflowed = np.flatnonzero(~np.isfinite(residuals))
    if overflowed.size:
        planes = delta[overflowed]
        finite = np.isfinite(planes).all(axis=(-2, -1))
        planes, overflowed = planes[finite], overflowed[finite]
        peaks = planes.max(axis=(-2, -1), keepdims=True)
        residuals[overflowed] = peaks[:, 0, 0] * np.sqrt(
            np.mean((planes / peaks) ** 2, axis=(-2, -1))
        )
    return residuals


def _span_start(device: Device) -> float | None:
    """Where a fleet span on ``device`` starts, or ``None`` when untraced."""
    return device.trace_seconds if tracer.enabled else None


def _fleet_span(name: str, device: Device, start: float | None, args: dict) -> None:
    """Close a fleet-stage span opened at ``start`` on ``device``'s fleet lane."""
    if start is None or not tracer.enabled:
        return
    pid = tracer.pid_for(device)
    tracer.set_thread_name(pid, _FLEET_TID, "fleet")
    tracer.complete(
        name, "fleet", tracer.origin + start, device.trace_seconds - start,
        pid, _FLEET_TID, args,
    )


class _PlanLayout:
    """What every wave of one plan reads of the plan and its plane shape.

    An executor scores every pair of a plane shape with one plan
    (:meth:`FleetExecutor.plan_for`), so each wave of that shape lays
    out the same ``s + 1`` rows per pair: ``s = num_masks`` mask rows,
    then the residual row.  Built once per executor and shape, at the
    first wave, with the code each wave ran before, and read-only after:

    * the row map (:func:`wave_row_map`) of the widest wave seen, built
      at the first wave that needs it (the exact path: a linearity wave
      reads only :meth:`pair_base`); a wave of ``P`` pairs reads its
      first ``P * (s + 1)`` rows (:meth:`rows`), so the arrays grow only
      with a wider wave;
    * ``rows_per_chunk``, the window a wave streams at;
    * ``window_floats``, the default chunk's window, and
      ``by_linearity``, whether an ``l2`` wave of float64 pairs at exact
      precision scores its masks by linearity (see
      :meth:`FleetExecutor._compute_wave`).
    """

    def __init__(self, executor: "FleetExecutor", plan: MaskSpec, shape) -> None:
        self.plan = plan
        self.num_masks = plan.num_masks
        self.rows_per_chunk = effective_chunk_rows(
            shape, executor.chunk_rows, executor.effective_stack_bytes,
            what="streamed wave chunk",
        )
        # The default chunk, not chunk_rows, decides the path, so that
        # scores never depend on the chunk size.
        self.window_floats = (
            effective_chunk_rows(shape, None, executor.effective_stack_bytes)
            * shape[0] * shape[1]
        )
        self.by_linearity = (
            executor.reduction == "l2" and plan.cells_per_mask ** 2 <= self.window_floats
        )
        self._pairs = 0

    def pair_base(self, pairs: int) -> list:
        """The first row of each pair of a ``pairs``-pair wave."""
        step = self.num_masks + 1
        return list(range(0, pairs * step, step))

    def rows(self, pairs: int) -> tuple:
        """``(row_pair, row_slot, is_mask)`` of a ``pairs``-pair wave, as
        read-only views."""
        if pairs > self._pairs:
            self._row_map = wave_row_map([self.num_masks] * pairs)
            for array in self._row_map:
                array.setflags(write=False)
            self._pairs = pairs
        size = pairs * (self.num_masks + 1)
        return tuple(array[:size] for array in self._row_map)


@dataclass(frozen=True)
class WavePlan:
    """One wave: the pairs fused into a single batched program."""

    pair_indices: tuple[int, ...]
    plane_shape: tuple[int, int]
    num_rows: int  # mask rows plus one residual row per pair

    @property
    def num_pairs(self) -> int:
        return len(self.pair_indices)


@dataclass(frozen=True)
class FleetSchedule:
    """Wave decomposition of a fleet of pairs.

    Waves preserve pair order within each plane-shape group; pairs of
    different shapes cannot share a stack and therefore land in
    different waves (first-seen shape order).
    """

    waves: tuple[WavePlan, ...]

    @property
    def num_waves(self) -> int:
        return len(self.waves)

    @property
    def num_pairs(self) -> int:
        return sum(wave.num_pairs for wave in self.waves)

    @classmethod
    def plan(
        cls,
        plane_shapes,
        mask_counts,
        max_stack_bytes: int | None = DEFAULT_STACK_BUDGET_BYTES,
        max_pairs_per_wave: int | None = None,
        dtypes=None,
    ) -> "FleetSchedule":
        """Group pairs into waves.

        ``plane_shapes[i]`` is pair ``i``'s ``(M, N)`` plane;
        ``mask_counts[i]`` the number of masks its plan contributes.
        Every pair also contributes one residual row.  Execution streams
        at most one budget-clamped chunk at a time, so a wave's working
        set does not grow with the pairs it fuses and bytes never close a
        wave: waves split only on shape group and ``max_pairs_per_wave``.
        A plane too large for ``max_stack_bytes`` to hold even a single
        ``M x N`` float row raises
        :class:`~repro.core.masking.MaskStackBudgetError` up front.  An
        empty fleet plans to an empty schedule -- the service layer's
        idle drain path.

        ``dtypes[i]`` is pair ``i``'s dtype key, :func:`wave_dtype_key`
        of its ``(x, y)``; a bare dtype ``d`` stands for
        ``wave_dtype_key(d, d)`` (default: float64 for every pair).
        Pairs of different keys never share a wave.  A wave stacks its
        pairs' planes and kernels, so a longdouble pair would widen its
        float64 co-pairs' solves and rows, and a complex one would keep the
        inverse-transform roundoff imaginaries that per-pair execution
        drops via ``.real``; and a pair whose ``x`` or ``y`` alone is
        narrower than its co-pairs' would be widened in the stacked
        solve and its windows -- a float64-``x`` pair beside
        longdouble-``x`` pairs, or a float32-``y`` pair beside
        longdouble-``y`` pairs.  Each breaks bit-identity in the last
        ulp.  float32, integer and float64 operands all have float64
        width and share waves.
        """
        plane_shapes = _once_per_value(plane_shapes, lambda shape: tuple(int(v) for v in shape))
        mask_counts = [int(count) for count in mask_counts]
        if len(plane_shapes) != len(mask_counts):
            raise ValueError(
                f"{len(plane_shapes)} plane shapes for {len(mask_counts)} mask counts"
            )
        if not plane_shapes:
            return cls(waves=())
        if max_pairs_per_wave is not None and max_pairs_per_wave <= 0:
            raise ValueError(
                f"max_pairs_per_wave must be positive, got {max_pairs_per_wave}"
            )
        if dtypes is None:
            dtypes = [np.float64] * len(plane_shapes)
        # One spelling per key: np.float64, "float64" and np.dtype("f8")
        # hash differently.  An invalid dtype raises here.
        dtypes = _once_per_value(
            dtypes,
            lambda key: tuple(np.dtype(part) for part in key) if isinstance(key, tuple)
            else wave_dtype_key(key, key),
        )
        if len(dtypes) != len(plane_shapes):
            raise ValueError(
                f"{len(plane_shapes)} plane shapes for {len(dtypes)} dtypes"
            )
        # Group pair indices by (plane shape, dtype key), first-seen order.
        groups: dict[tuple, list[int]] = {}
        for index, shape in enumerate(plane_shapes):
            groups.setdefault((shape, dtypes[index]), []).append(index)
        waves: list[WavePlan] = []
        for (shape, _), indices in groups.items():
            m, n = shape
            check_stack_budget(
                m * n * FLOAT_BYTES,
                max_stack_bytes,
                what=f"streamed wave chunk for pair {indices[0]} (a single plane)",
                bool_nbytes=m * n,
            )
            width = max_pairs_per_wave or len(indices)
            for lo in range(0, len(indices), width):
                members = tuple(indices[lo : lo + width])
                rows = sum(mask_counts[i] + 1 for i in members)  # masks + residuals
                waves.append(WavePlan(members, shape, rows))
        return cls(waves=tuple(waves))


@dataclass(frozen=True, init=False)
class PairResult:
    """Explanation artifacts for one pair of a fleet run."""

    kernel: np.ndarray
    scores: np.ndarray
    residual: float

    def __init__(self, kernel: np.ndarray, scores: np.ndarray, residual: float) -> None:
        # Made once per pair.  A frozen dataclass's generated __init__
        # sets each field through object.__setattr__; one update of the
        # instance dict costs about half as much, and the class stays frozen.
        self.__dict__.update(kernel=kernel, scores=scores, residual=residual)


@dataclass(frozen=True, eq=False, init=False)
class CheckedPair:
    """A pair :meth:`FleetExecutor.check_pair` accepted; unpacks as ``(x, y)``.

    ``y_plane`` is ``y`` lifted onto ``x``'s plane (the plane Eq. 5
    compares against) and ``plan`` the ``executor``'s mask plan for
    ``x``'s shape; any other executor checks the pair again.
    """

    x: np.ndarray
    y: np.ndarray
    y_plane: np.ndarray
    plan: MaskSpec
    executor: FleetExecutor = field(repr=False)

    def __init__(self, x, y, y_plane, plan, executor) -> None:
        # Made once per request; see PairResult.__init__.
        self.__dict__.update(x=x, y=y, y_plane=y_plane, plan=plan, executor=executor)

    def __iter__(self):
        return iter((self.x, self.y))


@dataclass(frozen=True)
class _WaveNumbers:
    """One wave's host results, which every pricing target reads.

    ``scores`` holds one score per row of the wave's row map (the
    linearity pass leaves the residual rows NaN, since no score is read
    there), ``preds`` each pair's residual prediction and ``residuals``
    its fit residual; ``pair_base`` and ``pair_rows`` are each pair's
    first row and row count, and ``layout`` the wave's
    :class:`_PlanLayout`.
    """

    indices: tuple[int, ...]
    plane_shape: tuple[int, int]
    kernels: np.ndarray
    scores: np.ndarray
    preds: np.ndarray
    residuals: np.ndarray
    pair_base: list
    pair_rows: list
    layout: _PlanLayout


@dataclass(frozen=True)
class FleetRun:
    """Outcome of a wave-fused fleet execution (input pair order).

    The executor records onto its device's ledger and leaves harvesting
    it to the caller that owns the ledger for the whole run.
    ``problems`` maps each pair whose explanation is not finite, in pair
    order, to the reason; its result stays in ``results``.
    """

    results: tuple[PairResult, ...]
    schedule: FleetSchedule
    problems: dict[int, str] = field(default_factory=dict)

    @property
    def num_waves(self) -> int:
        return self.schedule.num_waves


class FleetExecutor:
    """Distill-then-interpret a fleet of pairs, one program per wave.

    The one place fleet options are checked and ``num_chips`` (or a
    :class:`~repro.hw.pod.TpuPod` device) resolves to the executing
    :attr:`device`: :class:`~repro.core.pipeline.ExplanationPipeline`
    and :class:`~repro.serve.loop.ExplanationService` build an executor
    and run on its device.  ``granularity`` selects the mask family
    (:meth:`plan_for`), ``block_shape`` the tile size for ``blocks``,
    ``eps``/``embedding`` configure the distillation solve
    (a negative or non-finite ``eps`` raises here, see
    :func:`check_eps`), ``reduction``/``fill_value`` the Eq. 5 scoring
    (a fill that is not a finite real number raises here, see
    :func:`~repro.core.masking.check_fill_value`).
    ``max_stack_bytes`` bounds the streamed *chunk* (and must hold at
    least one plane; ``None`` disables the guard); ``max_pairs_per_wave`` optionally caps
    wave width, and ``chunk_rows`` sets how many masked planes stream
    per chunk (default
    :data:`~repro.core.masking.DEFAULT_CHUNK_ROWS`, clamped to the
    budget).  ``precision`` selects the numeric mode of each wave's
    batched convolution (see the module docstring), at every
    granularity.  ``num_chips``, ``hbm_bytes``,
    ``max_pairs_per_wave``, ``chunk_rows`` and ``max_stack_bytes`` must
    be integers of at least 1 (not ``bool``) when given
    (:func:`~repro.hw.pod.is_count`); any other value raises
    ``ValueError`` here rather than at the first dispatch.

    Execution per wave: one host pass (:meth:`_compute_wave`) -- one
    stacked Eq. 4 solve yields every pair's kernel, then all pairs'
    masked variants and unmasked residual planes are convolved with
    per-row kernels in windows of the fused row space that may span
    several pairs, each window built from its masks' row bands and
    reduced to scores at once, so neither the bool mask stack nor the
    masked float stack ever exists in full; every window streams
    through :func:`~repro.core.masking.convolve_windows`.
    An ``l2`` wave of float64 pairs at exact precision convolves only
    its residual rows and scores its masks by linearity (see the module
    docstring).  Then the wave is priced: one
    ``device.program`` scope per pricing target, whose infeed is its
    pairs' data and whose outfeed their score planes
    (:meth:`_price_share`); the ledger prices one convolution per mask
    row however the host scored it.
    """

    def __init__(
        self,
        device: Device,
        granularity: str = "blocks",
        block_shape: tuple[int, int] | None = None,
        eps: float = 1e-6,
        embedding: OutputEmbedding | None = None,
        reduction: str = "l2",
        fill_value: float = 0.0,
        max_stack_bytes: int | None = DEFAULT_STACK_BUDGET_BYTES,
        max_pairs_per_wave: int | None = None,
        chunk_rows: int | None = None,
        precision=None,
        num_chips: int | None = None,
        placement: str = "data",
        interconnect=None,
        hbm_bytes: int | None = None,
    ) -> None:
        if granularity not in GRANULARITIES:
            raise ValueError(
                f"unknown granularity {granularity!r}; expected one of {GRANULARITIES}"
            )
        if granularity == "blocks" and block_shape is None:
            raise ValueError("blocks granularity requires a block_shape")
        if reduction not in REDUCTIONS:
            raise ValueError(
                f"unknown reduction {reduction!r}; expected one of {REDUCTIONS}"
            )
        if placement not in PLACEMENTS:
            raise ValueError(
                f"unknown placement {placement!r}; expected one of {PLACEMENTS}"
            )
        check_fill_value(fill_value)
        if num_chips is not None:
            num_chips = check_num_chips(num_chips)
        hbm_bytes = check_hbm_bytes(hbm_bytes)
        for name, value in (
            ("max_pairs_per_wave", max_pairs_per_wave),
            ("chunk_rows", chunk_rows),
            ("max_stack_bytes", max_stack_bytes),
        ):
            if value is not None and not is_count(value):
                raise ValueError(
                    f"{name} must be positive: None or an integer >= 1, got {value!r}"
                )
        self.precision = resolve_precision(precision)
        check_eps(eps)
        # Pod resolution: an explicit TpuPod device wins; otherwise
        # num_chips > 1 replicates the given device into a fresh pod
        # (num_chips=1/None keeps the plain single-device path, which
        # retains chip-level infeed pipelining).
        if isinstance(device, TpuPod):
            if num_chips is not None and num_chips != device.num_chips:
                raise ValueError(
                    f"num_chips={num_chips} disagrees with the supplied "
                    f"{device.num_chips}-chip pod"
                )
            self.pod: TpuPod | None = device
        elif num_chips is not None and num_chips > 1:
            self.pod = TpuPod.like(
                device, num_chips, interconnect=interconnect,
                hbm_bytes=hbm_bytes,
            )
        else:
            self.pod = None
        self.placement = placement
        self.device = self.pod if self.pod is not None else device
        # The capacity knob: an explicit override, else whatever the
        # device models (a pod reports its smallest member chip).  Kept
        # separately from max_stack_bytes so schedule-time budgeting can
        # clamp to it (see effective_stack_bytes).
        self.hbm_bytes = hbm_bytes
        self.granularity = granularity
        self.block_shape = block_shape
        self.eps = eps
        self.embedding = embedding or OutputEmbedding("identity")
        self._lifter = ConvolutionDistiller(embedding=self.embedding)
        self.reduction = reduction
        self.fill_value = fill_value
        self.max_stack_bytes = max_stack_bytes
        self.max_pairs_per_wave = max_pairs_per_wave
        self.chunk_rows = chunk_rows
        self._plans: dict[tuple, MaskSpec] = {}  # plan_for's memo
        self._layouts: dict[tuple, _PlanLayout] = {}  # _layout's memo
        self._fills: dict = {}  # _fill_for's memo

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    @property
    def effective_stack_bytes(self) -> int | None:
        """The stack budget after the HBM capacity clamp.

        ``max_stack_bytes`` bounded by the modeled on-device memory: an
        explicit ``hbm_bytes`` override when given, else the device's
        own :attr:`~repro.hw.device.Device.hbm_capacity_bytes` (a pod
        reports its smallest member chip, the chip any placement
        decision must fit).  ``None`` only when neither bound exists.
        """
        capacity = self.hbm_bytes
        if capacity is None:
            capacity = self.device.hbm_capacity_bytes
        if capacity is None:
            return self.max_stack_bytes
        if self.max_stack_bytes is None:
            return capacity
        return min(self.max_stack_bytes, capacity)

    def plan_for(self, x: np.ndarray) -> MaskSpec:
        """The lazy mask plan this executor scores ``x`` with.

        One mask per feature: a one-cell mask per element for
        ``elements`` (:meth:`~repro.core.masking.MaskSpec.elements`, the
        masks of ``blocks`` with ``(1, 1)`` tiles).  Built once per plane
        shape and kept, so every later pair of that shape gets the same
        :class:`~repro.core.masking.MaskSpec` object.  Raises
        ``ValueError`` when the plan cannot build, e.g. a block shape
        that does not tile ``x``.
        """
        shape = np.shape(x)
        if shape not in self._plans:
            self._plans[shape] = MaskSpec.for_granularity(
                self.granularity, shape, block_shape=self.block_shape
            )
        return self._plans[shape]

    def _layout(self, shape) -> _PlanLayout:
        """The :class:`_PlanLayout` of :meth:`plan_for`'s plan for ``shape``,
        built at the first wave of that shape."""
        layout = self._layouts.get(shape)
        if layout is None:
            layout = self._layouts[shape] = _PlanLayout(self, self._plans[shape], shape)
        return layout

    def schedule(self, pairs) -> FleetSchedule:
        """Wave-plan a fleet without executing it, checking its pairs as
        :meth:`run` does (empty fleets plan empty)."""
        return self._schedule(self._checked_pairs(pairs))

    def _schedule(self, pairs: list[CheckedPair]) -> FleetSchedule:
        """The waves of pairs :meth:`_checked_pairs` returned."""
        return FleetSchedule.plan(
            [pair.x.shape for pair in pairs],
            [pair.plan.num_masks for pair in pairs],
            max_stack_bytes=self.effective_stack_bytes,
            max_pairs_per_wave=self.max_pairs_per_wave,
            dtypes=[wave_dtype_key(pair.x, pair.y) for pair in pairs],
        )

    def check_pair(self, x, y) -> CheckedPair:
        """``(x, y)`` checked against the input contract, ready to run.

        The one home of the rules a pair must meet before any work, in
        order: ``x`` is a matrix; its plan builds (:meth:`plan_for`);
        ``x`` and ``y`` have a bool, integer, floating or complex dtype;
        both are finite (a NaN or an inf would score the pair NaN
        everywhere without an error); ``y`` lifts onto ``x``'s plane,
        as a matrix of ``x``'s shape or through the executor's
        :class:`OutputEmbedding`; and at ``eps = 0`` the spectrum of
        ``x`` has no zero bin (:func:`spectrum_problem`).  Raises
        ``ValueError`` with the reason of the first rule it breaks.
        """
        x, y = np.asarray(x), np.asarray(y)
        if x.ndim != 2:
            raise ValueError(f"x must be a matrix, got shape {x.shape}")
        plan = self.plan_for(x)
        for name, plane in (("x", x), ("y", y)):
            if plane.dtype.kind not in "biufc":
                raise ValueError(
                    f"{name} has dtype {plane.dtype}, not bool, integer, floating or complex"
                )
        for name, plane in (("x", x), ("y", y)):
            if np.count_nonzero(np.isfinite(plane)) != plane.size:
                raise ValueError(f"{name} holds non-finite values")
        try:
            y_plane = self._lifter.lift_outputs(y, 1, x.shape)[0]
        except ValueError as error:
            raise ValueError(
                f"y of shape {y.shape} cannot lift onto x's {x.shape} plane: {error}"
            ) from None
        problem = spectrum_problem(x, self.eps)
        if problem is not None:
            raise ValueError(problem)
        return CheckedPair(x, y, y_plane, plan, self)

    def _checked_pairs(self, pairs) -> list[CheckedPair]:
        """``pairs`` through :meth:`check_pair`, but for this executor's own."""
        checked = []
        for index, pair in enumerate(pairs):
            if isinstance(pair, CheckedPair) and pair.executor is self:
                checked.append(pair)
                continue
            try:
                x, y = pair
                checked.append(self.check_pair(x, y))
            except ValueError as error:
                raise ValueError(f"pair {index}: {error}") from None
        return checked

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, pairs) -> FleetRun:
        """Explain every pair; returns results in input order.

        ``pairs`` holds ``(x, y)`` pairs or :class:`CheckedPair`\\ s: a
        :class:`CheckedPair` this executor made runs as it is, and every
        other pair goes through :meth:`check_pair` first, so a pair that
        breaks the input contract raises ``ValueError`` naming the first
        such pair (``pair i: <reason>``), before any work.  An empty
        fleet returns an empty run (zero waves, zero simulated seconds)
        -- the service's idle drain path.

        The waves execute inside a ``device.pipeline()`` scope: wave
        ``i+1``'s dispatch + infeed overlaps wave ``i``'s compute, and
        the hidden host-link time is credited back to the ledger
        (``infeed_overlap``), so multi-wave fleets finish in
        ``infeed_0 + sum(max(compute_i + outfeed_i, infeed_{i+1})) +
        outfeed_last`` (intermediate outfeeds riding with their wave's
        compute) instead of the serial sum.

        Once a wave is assembled, its pairs' kernels, scores and
        residuals are checked for non-finite values in one pass
        (:meth:`_check_wave`): a finite pair whose Eq. 4 solve or
        reduction overflows is named in :attr:`FleetRun.problems`, and
        its wave mates are unaffected.
        """
        pairs = self._checked_pairs(pairs)
        if not pairs:
            return FleetRun(results=(), schedule=FleetSchedule(waves=()))
        schedule = self._schedule(pairs)
        if tracer.enabled:
            pid = tracer.pid_for(self.device)
            tracer.set_thread_name(pid, _FLEET_TID, "fleet")
            tracer.instant(
                "fleet.plan", "fleet",
                tracer.origin + self.device.trace_seconds, pid, _FLEET_TID,
                {
                    "waves": schedule.num_waves,
                    "pairs": len(pairs),
                    "placement": self.placement if self.pod is not None else "single",
                },
            )
        results: list[PairResult | None] = [None] * len(pairs)
        problems: dict[int, str] = {}
        if self.pod is not None:
            # Pod execution: the pod's stage model owns all cross-wave
            # overlap (wave i+1's collectives overlap wave i's compute);
            # chip-level pipeline scopes are not opened, so overlap is
            # never double-counted.
            self._run_pod(schedule, pairs, results, problems)
        else:
            with self.device.pipeline():
                for wave in schedule.waves:
                    numbers = self._compute_wave(wave, pairs)
                    self._price_share(self.device, numbers, slice(None), pairs, results)
                    self._check_wave(numbers, problems)
        return FleetRun(
            results=tuple(results), schedule=schedule,
            problems=dict(sorted(problems.items())),
        )

    @staticmethod
    def _check_wave(numbers, problems: dict) -> None:
        """Name each pair of an assembled wave whose explanation is not finite.

        One pass over the wave's kernels, scores and residuals: an Eq. 4
        solve or reduction that overflows leaves only numpy's
        ``RuntimeWarning``.  A pair's scores are its mask rows of the
        wave's flat scores.
        """
        indices = numbers.indices
        s = numbers.layout.num_masks
        scores = numbers.scores.reshape(len(indices), s + 1)[:, :s]
        finite = {
            name: np.isfinite(part).reshape(len(indices), -1).all(axis=1)
            for name, part in (
                ("kernel", numbers.kernels),
                ("scores", scores),
                ("residual", numbers.residuals),
            )
        }
        for local in np.flatnonzero(~np.logical_and.reduce(list(finite.values()))):
            names = ", ".join(name for name, ok in finite.items() if not ok[local])
            problems[indices[local]] = f"the explanation holds non-finite values ({names})"

    def _compute_wave(self, wave: WavePlan, pairs) -> _WaveNumbers:
        """Every number of one wave, computed once on the host.

        One stacked Eq. 4 solve gives every pair's kernel
        (:func:`~repro.core.transform._solve_stack`: two 2-D transforms
        when ``x`` and ``y`` promote alike).  Then one of two passes:

        * **The linearity wave**: an ``l2`` wave at exact precision whose
          pairs key as ``(float64, float64, float64)``
          (:func:`wave_dtype_key`) and whose plan's ``s x s`` cell matrix
          fits the window memory of the default chunk
          (``_PlanLayout.by_linearity``).  Its only convolutions are the
          pairs' unmasked planes (their residual rows): one
          :func:`~repro.fft.fft2d.rfft2_batch` over the stacked ``[x;
          K]`` gives both half spectra, and one ``irfft2_batch`` of
          their product (``x``'s spectrum the first operand) the
          predictions.  Its masks are scored from those residuals by
          :func:`~repro.core.interpretation.l2_scores_by_linearity` (two
          more transforms), and only the masks its guard flags go
          through the windows below (:meth:`_linearity_scores`).  Six
          2-D transforms a wave, twelve ``numpy.fft`` calls, when the
          guard flags nothing.
        * **The exact path**, every other wave: its whole row space --
          each pair's masked variants followed by its unmasked residual
          plane, as :func:`wave_row_map` lays it out -- streams as
          masked planes in ``rows_per_chunk`` windows that may span
          pairs through :func:`~repro.core.masking.convolve_windows`,
          and each window is scored with one reduction.

        Every line of every transform is transformed on its own, so the
        two passes give the same predictions bit for bit.  Everything
        here that depends only on the plan and the plane shape -- the
        row map, the chunk size, the path decision -- comes from the
        plan's :class:`_PlanLayout`.  Nothing is priced here: every
        score depends on its own pair alone, so however a placement
        splits the wave across chips, only the ledger changes.
        """
        indices = wave.pair_indices
        members = [pairs[i] for i in indices]
        num_pairs = len(members)
        layout = self._layout(wave.plane_shape)
        x_stack = np.stack([pair.x for pair in members])
        y_stack = np.stack([pair.y_plane for pair in members])
        kernels = _solve_stack(x_stack[:, np.newaxis], y_stack[:, np.newaxis], self.eps)
        sources, fills = fill_sources(x_stack, [self._fill_for(pair.x.dtype) for pair in members])
        spec = self.precision
        if (
            layout.by_linearity and (spec is None or spec.is_exact)
            and np.isrealobj(sources) and np.isrealobj(kernels)
            and wave_dtype_key(members[0].x, members[0].y) == _FLOAT64_KEY
        ):
            spectra = rfft2_batch(np.concatenate([sources, kernels]))
            kernel_spectra = spectra[num_pairs:]
            preds = irfft2_batch(spectra[:num_pairs] * kernel_spectra, n=sources.shape[-1])
            mask_scores = self._linearity_scores(
                wave, layout, sources, fills, kernels, kernel_spectra, y_stack, preds,
            )
            scores = np.full(num_pairs * (layout.num_masks + 1), np.nan)
            scores.reshape(num_pairs, -1)[:, : layout.num_masks] = mask_scores
        else:
            row_pair, row_slot, is_mask = layout.rows(num_pairs)
            scores = np.empty(row_pair.size)
            preds = []
            for convolved, rows in convolve_windows(
                sources, fills, kernels, layout.plan, row_pair, row_slot, is_mask,
                layout.rows_per_chunk, self.precision,
            ):
                scores[rows] = reduce_batch(y_stack[row_pair[rows]] - convolved, self.reduction)
                preds.append(convolved[~is_mask[rows]])
            preds = np.concatenate(preds)
        return _WaveNumbers(
            indices=indices,
            plane_shape=wave.plane_shape,
            kernels=kernels,
            scores=scores,
            preds=preds,
            residuals=_fit_residuals(preds, y_stack),
            pair_rows=[layout.num_masks + 1] * num_pairs,
            pair_base=layout.pair_base(num_pairs),
            layout=layout,
        )

    def _linearity_scores(
        self, wave, layout, sources, fills, kernels, kernel_spectra, y_stack, preds,
    ) -> np.ndarray:
        """The wave's ``(pairs, masks)`` l2 scores, by linearity, guard applied.

        Masks the guard of
        :func:`~repro.core.interpretation.l2_scores_by_linearity` flags
        are convolved exactly here, as their rows would be on the exact
        path, and a ``fleet.rescore`` instant records how many there were.
        """
        scores, rescore = l2_scores_by_linearity(
            sources, fills, y_stack - preds, kernel_spectra, layout.plan,
            layout.window_floats,
        )
        row_pair, row_slot = np.nonzero(rescore)
        if not row_pair.size:
            return scores
        for convolved, rows in convolve_windows(
            sources, fills, kernels, layout.plan, row_pair, row_slot,
            np.ones(row_pair.size, bool), layout.rows_per_chunk, self.precision,
        ):
            scores[row_pair[rows], row_slot[rows]] = reduce_batch(
                y_stack[row_pair[rows]] - convolved, "l2"
            )
        if tracer.enabled:
            pid = tracer.pid_for(self.device)
            tracer.set_thread_name(pid, _FLEET_TID, "fleet")
            tracer.instant(
                "fleet.rescore", "fleet",
                tracer.origin + self.device.trace_seconds, pid, _FLEET_TID,
                {"masks": int(row_pair.size), "pairs": len(wave.pair_indices)},
            )
        return scores

    def _fill_for(self, dtype: np.dtype):
        """:func:`~repro.core.masking.fill_for` of ``fill_value`` for a
        ``dtype`` plane, made once per dtype."""
        fill = self._fills.get(dtype)
        if fill is None:
            fill = self._fills[dtype] = fill_for(dtype, self.fill_value)
        return fill

    def _price_solve(self, device: Device, num_pairs: int, m: int, n: int) -> None:
        """Ledger rows of ``num_pairs`` Eq. 4 solves, in a ``fleet.solve`` span."""
        start = _span_start(device)
        _record_solve(device, num_pairs, 1, m, n)
        _fleet_span("fleet.solve", device, start, {"pairs": num_pairs})

    def _assemble_results(self, device, numbers, share: slice, results) -> None:
        """Reassembly of pairs ``share``: fold their scores and residuals.

        Each pair's scores are its slice of the wave's flat score
        vector, shaped as its plan's score grid.
        """
        start = _span_start(device)
        positions = range(len(numbers.indices))[share]
        layout = numbers.layout
        for local in positions:
            base = numbers.pair_base[local]
            scores = numbers.scores[base : base + layout.num_masks].reshape(
                layout.plan.output_shape
            )
            results[numbers.indices[local]] = PairResult(
                kernel=numbers.kernels[local], scores=scores,
                residual=float(numbers.residuals[local]),
            )
        _fleet_span("fleet.assemble", device, start, {"pairs": len(positions)})

    def _price_share(self, device, numbers, share: slice, pairs, results):
        """Price pairs ``share`` of a computed wave as one program on ``device``.

        The program's infeed is the pairs' data (at the precision's
        storage width; fp64 reproduces the legacy float64 feed) and its
        outfeed their score planes, at full width.  Inside it: the rows
        of their Eq. 4 solves, their kernel-spectrum batch and their
        rows' batched convolution, then their assembly.  A single chip
        prices a whole wave this way, the ``wave`` placement prices it
        on chip ``w % K`` and the ``data`` placement prices each chip's
        pair shard.  Returns the program's ``(infeed, outfeed)`` bytes.
        """
        indices = numbers.indices[share]
        infeed = feed_bytes([a for i in indices for a in pairs[i]], self.precision)
        outfeed = sum(pairs[i].x.nbytes for i in indices)
        m, n = numbers.plane_shape
        rows = sum(numbers.pair_rows[share])
        start = _span_start(device)
        with device.program(infeed_bytes=infeed, outfeed_bytes=outfeed):
            self._price_solve(device, len(indices), m, n)
            device._record_kernel_spectra(len(indices), m, n, spec=self.precision)
            device._record_batch_conv(rows, m, n, spec=self.precision)
            self._assemble_results(device, numbers, share, results)
        _fleet_span("fleet.wave", device, start, {"pairs": len(indices), "rows": rows})
        return infeed, outfeed

    # ------------------------------------------------------------------
    # Pod execution: each wave computed once, priced across K chips
    # ------------------------------------------------------------------
    def _run_pod(self, schedule, pairs, results, problems) -> None:
        """Drive every wave across the pod's chips and commit the ledger."""
        pod = self.pod
        wave_stats: list[PodWaveStats] = []
        for wave_index, wave in enumerate(schedule.waves):
            numbers = self._compute_wave(wave, pairs)
            before = [d.stats.seconds for d in pod.devices]
            if self.placement == "chunk":
                collectives = self._price_chunked(pod, numbers, pairs, results)
            elif self.placement == "wave":
                chip = wave_index % pod.num_chips
                collectives = dict(
                    self._price_data(pod, numbers, [chip], pairs, results),
                    chip_index=chip,
                )
            else:
                collectives = self._price_data(
                    pod, numbers, range(min(pod.num_chips, wave.num_pairs)), pairs, results
                )
            chip_seconds = tuple(
                device.stats.seconds - start
                for device, start in zip(pod.devices, before)
            )
            wave_stats.append(
                PodWaveStats(
                    wave_index=wave_index,
                    placement=self.placement,
                    num_pairs=wave.num_pairs,
                    num_rows=wave.num_rows,
                    chip_seconds=chip_seconds,
                    **collectives,
                )
            )
            self._check_wave(numbers, problems)
        pod.commit_run(wave_stats)

    def _price_data(self, pod, numbers, chips, pairs, results) -> dict:
        """The wave's pairs split contiguously across ``chips``.

        Chip ``chips[s]`` prices pair shard ``s`` as an ordinary program
        (:meth:`_price_share`): its own solves, its own spectra batch,
        its own rows.  Every chip feeds and drains *its own shard* over
        its own :class:`~repro.hw.pod.HostLink` -- the shards stream
        concurrently from the host, so the wave's host cost is the
        slowest link rather than a serial chip-0 feed plus a fabric
        scatter, and there are no collectives.  The ``data`` placement
        passes the first ``min(K, pairs)`` chips, so chips beyond the
        wave's pair count launch nothing; the ``wave`` placement passes
        chip ``w % K`` alone, which prices the whole wave, so a
        multi-wave schedule's waves execute *concurrently across chips*
        (:meth:`~repro.hw.pod.TpuPod.commit_run` groups the pinned
        stages per chip and charges the slowest chain).
        """
        infeed_seconds = [0.0] * pod.num_chips
        outfeed_seconds = [0.0] * pod.num_chips
        for chip, share in zip(chips, shard_slices(len(numbers.indices), len(chips))):
            infeed, outfeed = self._price_share(
                pod.devices[chip], numbers, share, pairs, results
            )
            link = pod.host_links[chip]
            infeed_seconds[chip] = link.feed_seconds(infeed)
            outfeed_seconds[chip] = link.feed_seconds(outfeed)
        return dict(
            active_chips=len(chips),
            dispatch_seconds=pod.launch_latency_seconds,
            launched_chips=len(chips),
            infeed_seconds=tuple(infeed_seconds),
            outfeed_seconds=tuple(outfeed_seconds),
        )

    @staticmethod
    def _overlap_windows(pair_row_counts, pair_base, active: int, root_rows: int):
        """Per-pair row windows for the overlapped chunk placement.

        Every pair's rows split across all ``active`` chips (root
        first, then the peers evenly), so each chip touches *every*
        pair -- peers never sit behind a late pair's spectrum for rows
        of an early one, which is what lets their streams interleave
        with the root's solve.  ``root_rows`` is the root's solve-aware
        global share; rounding happens per pair by largest remainder,
        so the global totals track the targets within one row per pair.
        Returns ``(windows, chip_rows)``: ``windows[c][j]`` is chip
        ``c``'s global ``(lo, hi)`` window of pair ``j`` (possibly
        empty) and ``chip_rows[c]`` its total row count.
        """
        num_rows = sum(pair_row_counts)
        weights = [root_rows / num_rows]
        if active > 1:
            weights += [(1.0 - weights[0]) / (active - 1)] * (active - 1)
        windows = [[] for _ in range(active)]
        chip_rows = [0] * active
        for j, r in enumerate(pair_row_counts):
            quotas = [r * w for w in weights]
            counts = [int(q) for q in quotas]
            leftover = r - sum(counts)
            by_fraction = sorted(
                range(active), key=lambda c: (counts[c] + 1 - quotas[c], c)
            )
            for c in by_fraction[:leftover]:
                counts[c] += 1
            cursor = pair_base[j]
            for c in range(active):
                windows[c].append((cursor, cursor + counts[c]))
                cursor += counts[c]
                chip_rows[c] += counts[c]
        return windows, chip_rows

    def _chunk_timeline(
        self, pod, active: int, windows, chip_rows, conv_seconds,
        infeed_seconds, outfeed_seconds, solve_seconds: float,
        num_pairs: int, spectrum_bytes: int,
    ) -> float:
        """Critical path of the overlapped solve/broadcast/stream wave.

        A discrete per-pair timeline: the root solves the pairs'
        kernels in sequence and streams each spectrum over the ring as
        solved, so pair ``j``'s spectrum reaches the peers at the solve
        prefix plus the stream's pipeline fill plus ``j + 1`` message
        transfers; each peer -- its full-plane infeed already done over
        its own host link -- convolves its window of pair ``j`` no
        earlier than that, and the root streams its own (solve-shrunk)
        share after the solve with no broadcast wait.  The returned
        body is the slowest chip's finish including its outfeed -- what
        replaces the serial solve-then-stream sum.
        """
        config = pod.interconnect.config
        fill = (active - 1) * config.link_latency_sec
        per_message = spectrum_bytes / config.link_bandwidth_bytes_per_sec
        solve_step = solve_seconds / num_pairs if num_pairs else 0.0
        ends = []
        for chip in range(active):
            rows_total = chip_rows[chip]
            scale = conv_seconds[chip] / rows_total if rows_total else 0.0
            if chip == 0:
                end = (
                    infeed_seconds[0] + solve_seconds
                    + conv_seconds[0] + outfeed_seconds[0]
                )
            else:
                t = infeed_seconds[chip]
                for j, (lo, hi) in enumerate(windows[chip]):
                    if hi <= lo:
                        continue
                    ready = (
                        infeed_seconds[0]
                        + solve_step * (j + 1)
                        + fill
                        + per_message * (j + 1)
                    )
                    t = max(t, ready) + (hi - lo) * scale
                end = t + outfeed_seconds[chip]
            ends.append(end)
        return max(ends)

    def _price_chunked(self, pod, numbers, pairs, results) -> dict:
        """Chunk placement: row sharding with the root solve overlapped.

        For a single over-wide plan (or any wave whose rows dwarf its
        pair count) the pairs cannot balance the chips, but the rows
        can.  The root launches a *solve program* -- every pair's Eq. 4
        kernel plus the wave's one recorded spectrum batch -- while
        every active chip infeeds the wave's planes over its own
        :class:`~repro.hw.pod.HostLink`; as each pair's spectrum is
        solved it streams to the peers over a pipelined ring broadcast
        (:meth:`~repro.hw.interconnect.Interconnect
        .broadcast_stream_seconds`, the wave's one remaining true
        collective), and each chip convolves + reduces its per-pair
        row windows (:meth:`_overlap_windows`), outfeeding its own
        score rows.  The root's measured solve span sets its shrunken
        row share, and the wave's body is the :meth:`_chunk_timeline`
        critical path instead of solve + stream in series.  Rows are
        scored once on the host (:meth:`_compute_wave`); each chip
        records its row share's batched convolution, and the root
        reassembles.
        """
        indices = numbers.indices
        root = pod.devices[0]
        wave_start = _span_start(root)
        num_rows = sum(numbers.pair_rows)
        active = min(pod.num_chips, num_rows)
        m, n = numbers.plane_shape
        full_infeed = feed_bytes([a for i in indices for a in pairs[i]], self.precision)
        full_outfeed = sum(pairs[i].x.nbytes for i in indices)

        # Root solve program: kernels plus the wave's one spectrum
        # batch, measured off the ledger so the row partition can
        # charge the root exactly the solve time it spends.
        launches = 1
        with root.program(infeed_bytes=full_infeed, outfeed_bytes=0):
            mark = root.stats.seconds
            self._price_solve(root, len(indices), m, n)
            root._record_kernel_spectra(len(indices), m, n, spec=self.precision)
            solve_seconds = root.stats.seconds - mark

        # Solve-aware root share: the root streams fewer rows so it
        # finishes level with peers that start behind the spectrum
        # stream; in the solve-starved regime its share clamps to 0.
        conv_total = root.batch_conv_seconds(num_rows, m, n, precision=self.precision)
        if active == 1:
            root_rows = num_rows
        elif conv_total <= 0:
            root_rows = num_rows // active
        else:
            per_row = conv_total / num_rows
            balanced = (num_rows * per_row - (active - 1) * solve_seconds) / (
                active * per_row
            )
            root_rows = min(num_rows, max(0, int(balanced)))
        windows, chip_rows = self._overlap_windows(
            numbers.pair_rows, numbers.pair_base, active, root_rows
        )
        per_chip_out = [
            int(round(full_outfeed * rows / num_rows)) for rows in chip_rows
        ]

        conv_seconds = [0.0] * active
        for chip in range(active):
            if chip_rows[chip] == 0:
                continue
            device = pod.devices[chip]
            with device.program(
                # The root's planes arrived with its solve program; the
                # peers pull the full wave over their own links.
                infeed_bytes=0 if chip == 0 else full_infeed,
                outfeed_bytes=per_chip_out[chip],
            ):
                device._record_batch_conv(chip_rows[chip], m, n, spec=self.precision)
            launches += 1
            conv_seconds[chip] = device.batch_conv_seconds(
                chip_rows[chip], m, n, precision=self.precision
            )
        self._assemble_results(root, numbers, slice(None), results)
        spectrum_bytes = m * n * COMPLEX_BYTES
        infeed_seconds = [0.0] * pod.num_chips
        outfeed_seconds = [0.0] * pod.num_chips
        for chip in range(active):
            link = pod.host_links[chip]
            infeed_seconds[chip] = link.feed_seconds(full_infeed)
            outfeed_seconds[chip] = link.feed_seconds(per_chip_out[chip])
        gated_body = self._chunk_timeline(
            pod, active, windows, chip_rows, conv_seconds,
            infeed_seconds, outfeed_seconds, solve_seconds,
            len(indices), spectrum_bytes,
        )
        _fleet_span(
            "fleet.wave", root, wave_start,
            {"pairs": len(indices), "rows": num_rows, "placement": "chunk"},
        )
        return dict(
            active_chips=active,
            broadcast_seconds=pod.interconnect.broadcast_stream_seconds(
                spectrum_bytes, len(indices), active
            ),
            broadcast_bytes=len(indices) * spectrum_bytes if active > 1 else 0,
            dispatch_seconds=pod.launch_latency_seconds,
            launched_chips=launches,
            infeed_seconds=tuple(infeed_seconds),
            outfeed_seconds=tuple(outfeed_seconds),
            solve_seconds=solve_seconds,
            gated_body_seconds=gated_body,
        )
