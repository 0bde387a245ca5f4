"""Parallel computation of multiple inputs (paper Section III-D).

Beyond sharding a single transform (Algorithm 1), the paper processes
*many* input-output pairs concurrently: "each input matrix is segmented
into pieces and each core obtains a slice of them... an internal table
is utilized to keep track of the distribution to guide the process of
reassembling."

This module provides that layer, organized around **waves** since the
fleet refactor: a wave is a group of equal-shape pairs fused into one
batched program (:mod:`repro.core.fleet` plans them), so multi-input
work costs one dispatch per wave rather than one per pair:

* :func:`partition_cores` -- divide the chip's cores into per-input
  groups (round-robin sharing when inputs outnumber cores);
* :class:`AssignmentTable` -- the paper's "internal table": which core
  holds which slice of which input, for reassembly and for audit (the
  cross-pair analogue is :func:`repro.core.fleet.wave_row_map`, whose
  row arrays map fused stack rows back to pairs);
* :class:`MultiInputScheduler` -- run a batch of 2-D transforms
  concurrently (elapsed time equal to the slowest core group, inputs
  side by side), plan scheduler waves (:meth:`~MultiInputScheduler
  .plan_waves`), and run whole wave-fused explanation fleets on the
  chip (:meth:`~MultiInputScheduler.explain_batch`);
* :func:`distill_batch` -- concurrent distillation of many pairs,
  wave-grouped so equal-shape pairs share scheduler partitions, with
  the per-group VPU (Hadamard) stage included in the elapsed/serial
  accounting;
* :func:`block_matmul_tasks` -- the block-partitioned matrix
  multiplication the paper uses for the same trick on plain matmuls.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.decomposition import DecomposedFourier, DecompositionReport, shard_slices
from repro.core.fleet import FleetExecutor, FleetRun, FleetSchedule, check_eps
from repro.hw.tpu import TpuChip


def partition_cores(num_cores: int, num_inputs: int) -> list[list[int]]:
    """Assign core indices to inputs as evenly as possible.

    With more cores than inputs, groups get ``num_cores // num_inputs``
    cores (earlier groups absorb the remainder).  With more inputs than
    cores, inputs share cores round-robin (group size 1, reused).
    """
    if num_cores <= 0:
        raise ValueError(f"core count must be positive, got {num_cores}")
    if num_inputs <= 0:
        raise ValueError(f"input count must be positive, got {num_inputs}")
    if num_inputs >= num_cores:
        return [[i % num_cores] for i in range(num_inputs)]
    groups: list[list[int]] = []
    slices = shard_slices(num_cores, num_inputs)
    for piece in slices:
        groups.append(list(range(piece.start, piece.stop)))
    return groups


@dataclass(frozen=True)
class Assignment:
    """One row of the reassembly table."""

    input_index: int
    stage: str
    core_id: int
    axis: int
    extent: slice


@dataclass
class AssignmentTable:
    """The paper's 'internal table' tracking slice distribution."""

    rows: list[Assignment] = field(default_factory=list)

    def record(self, assignment: Assignment) -> None:
        self.rows.append(assignment)

    def for_input(self, input_index: int) -> list[Assignment]:
        return [row for row in self.rows if row.input_index == input_index]

    def cores_for_input(self, input_index: int) -> set[int]:
        return {row.core_id for row in self.for_input(input_index)}

    def __len__(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class BatchResult:
    """Outcome of one parallel batch."""

    outputs: list[np.ndarray]
    reports: list[DecompositionReport]
    table: AssignmentTable
    elapsed_seconds: float

    @property
    def serial_seconds(self) -> float:
        """What the batch would cost run one input at a time."""
        return sum(report.elapsed_seconds for report in self.reports)


class MultiInputScheduler:
    """Concurrent execution of a batch of transforms on one chip.

    Each input gets a disjoint group of cores running Algorithm 1;
    groups run side by side, so batch elapsed time is the slowest
    group's, not the sum -- the paper's second acceleration lever.
    """

    def __init__(self, chip: TpuChip) -> None:
        self.chip = chip

    def _group_executor(self, core_ids: list[int]) -> DecomposedFourier:
        # A lightweight chip view exposing only the group's cores.
        view = _ChipView(self.chip, core_ids)
        return DecomposedFourier(view, cores=len(core_ids))

    def fft2_batch(self, inputs) -> BatchResult:
        """Forward-transform every input concurrently."""
        return self._run_batch(inputs, inverse=False)

    def ifft2_batch(self, inputs) -> BatchResult:
        """Inverse-transform every input concurrently."""
        return self._run_batch(inputs, inverse=True)

    def _run_batch(self, inputs, inverse: bool) -> BatchResult:
        matrices = [np.asarray(x) for x in inputs]
        if not matrices:
            raise ValueError("batch is empty")
        for x in matrices:
            if x.ndim != 2:
                raise ValueError(f"batch entries must be matrices, got shape {x.shape}")
        groups = partition_cores(self.chip.num_cores, len(matrices))
        table = AssignmentTable()
        outputs: list[np.ndarray] = []
        reports: list[DecompositionReport] = []
        group_times: list[float] = []
        for index, (x, core_ids) in enumerate(zip(matrices, groups)):
            executor = self._group_executor(core_ids)
            if inverse:
                result, report = executor.ifft2(x)
            else:
                result, report = executor.fft2(x)
            outputs.append(result)
            reports.append(report)
            group_times.append(report.elapsed_seconds)
            self._record_assignments(table, index, x, core_ids)
        # Groups execute concurrently on disjoint cores: elapsed time is
        # the slowest group.  Inputs sharing a core (batch > cores)
        # serialize within that core's group chain.
        elapsed = self._elapsed_with_sharing(groups, group_times)
        return BatchResult(
            outputs=outputs, reports=reports, table=table, elapsed_seconds=elapsed
        )

    def _record_assignments(
        self, table: AssignmentTable, index: int, x: np.ndarray, core_ids: list[int]
    ) -> None:
        m, n = x.shape
        row_slices = shard_slices(m, min(len(core_ids), m))
        for core_id, piece in zip(core_ids, row_slices):
            table.record(Assignment(index, "rows", core_id, 0, piece))
        col_slices = shard_slices(n, min(len(core_ids), n))
        for core_id, piece in zip(core_ids, col_slices):
            table.record(Assignment(index, "columns", core_id, 1, piece))

    @staticmethod
    def _elapsed_with_sharing(
        groups: list[list[int]], group_times: list[float]
    ) -> float:
        busy: dict[int, float] = {}
        for core_ids, seconds in zip(groups, group_times):
            anchor = core_ids[0]
            busy[anchor] = busy.get(anchor, 0.0) + seconds
        return max(busy.values())

    # ------------------------------------------------------------------
    # Wave-fused fleet execution (the cross-pair batching layer)
    # ------------------------------------------------------------------
    def plan_waves(
        self,
        pairs,
        granularity: str = "blocks",
        block_shape: tuple[int, int] | None = None,
        **executor_kwargs,
    ) -> FleetSchedule:
        """Wave-plan a fleet of pairs without executing it.

        Delegates to :class:`repro.core.fleet.FleetExecutor` planning:
        equal-shape pairs group into waves of at most
        ``max_pairs_per_wave`` pairs.
        """
        return self._fleet_executor(
            granularity, block_shape, **executor_kwargs
        ).schedule(pairs)

    def explain_batch(
        self,
        pairs,
        granularity: str = "blocks",
        block_shape: tuple[int, int] | None = None,
        **executor_kwargs,
    ) -> FleetRun:
        """Explain a fleet of pairs on this chip, one program per wave.

        The chip is presented through the device interface
        (:class:`repro.core.backend.TpuBackend`) and handed to the
        wave-fused :class:`~repro.core.fleet.FleetExecutor`: each wave's
        lazy mask plans and residual planes stream through a single
        cross-pair chunked batched convolution, so the fleet pays one
        dispatch per wave instead of one (plus a residual round trip)
        per pair, in ``O(chunk_rows * M * N)`` host memory.  The waves
        run double-buffered -- wave ``i+1``'s infeed overlaps wave
        ``i``'s compute, the chip ledger crediting the hidden time as an
        ``infeed_overlap`` event.
        Executor options pass through ``executor_kwargs`` -- notably
        ``precision="int8"|"bf16"|"fp32"|"fp64"`` runs every wave's
        batched convolution in that numeric mode (quantized infeed and
        MXU-rate pricing, scores bit-identical to a quantized loop),
        and ``num_chips=K`` / ``placement="data"|"chunk"|"wave"`` shard every
        wave across a :class:`~repro.hw.pod.TpuPod` of K clones of this
        chip with interconnect-priced collectives (scores still
        bit-identical; the run's ``stats`` are then the pod roll-up).
        The returned run carries the harvested device ledger in
        ``stats``.  An empty batch returns an empty run -- zero waves,
        zero simulated seconds, a zero ledger -- the serving layer's
        idle drain path.
        """
        executor = self._fleet_executor(
            granularity, block_shape, **executor_kwargs
        )
        executor.device.reset_stats()
        fleet = executor.run(pairs)
        return replace(fleet, stats=executor.device.take_stats())

    def _fleet_executor(
        self,
        granularity: str,
        block_shape: tuple[int, int] | None,
        **executor_kwargs,
    ) -> FleetExecutor:
        from repro.core.backend import TpuBackend

        return FleetExecutor(
            TpuBackend(self.chip),
            granularity=granularity,
            block_shape=block_shape,
            **executor_kwargs,
        )


class _ChipView:
    """A restricted view of a chip exposing a subset of its cores.

    Duck-types the ``TpuChip`` surface that :class:`DecomposedFourier`
    uses (``cores``, ``num_cores``, ``cross_replica_sum_seconds``) while
    charging communication to the parent chip's ledger.
    """

    def __init__(self, chip: TpuChip, core_ids: list[int]) -> None:
        if not core_ids:
            raise ValueError("a chip view needs at least one core")
        for core_id in core_ids:
            if not 0 <= core_id < chip.num_cores:
                raise ValueError(f"core id {core_id} outside chip of {chip.num_cores}")
        self._chip = chip
        self.cores = [chip.cores[i] for i in core_ids]

    @property
    def num_cores(self) -> int:
        return len(self.cores)

    def cross_replica_sum_seconds(self, nbytes: int, num_cores: int | None = None) -> float:
        cores = self.num_cores if num_cores is None else num_cores
        return self._chip.cross_replica_sum_seconds(nbytes, num_cores=cores)


@dataclass(frozen=True)
class BatchDistillationResult:
    """Kernels and timing of a concurrently distilled pair batch."""

    kernels: list[np.ndarray]
    elapsed_seconds: float
    serial_seconds: float
    vpu_seconds: float = 0.0  # total Hadamard-stage time across pairs

    @property
    def parallel_speedup(self) -> float:
        if self.elapsed_seconds == 0:
            return 1.0
        return self.serial_seconds / self.elapsed_seconds


def distill_batch(pairs, chip: TpuChip, eps: float = 1e-6) -> BatchDistillationResult:
    """Distill many (X, Y) pairs concurrently on one chip (Sec III-D).

    Each pair's solve needs three 2-D transforms; the batch scheduler
    runs them with core groups side by side, so the end-to-end elapsed
    time is paced by the slowest group rather than the pair count --
    the paper's "parallel computation of multiple inputs" applied to
    the whole distillation pipeline.  Pairs are grouped into the same
    equal-shape waves the fleet executor fuses
    (:meth:`repro.core.fleet.FleetSchedule.plan`), so mixed-shape
    batches process wave by wave while each wave's pairs run side by
    side.  The Hadamard stages are elementwise (VPU) work charged to
    the first core of each pair's group; those seconds count toward
    both ``elapsed_seconds`` (anchor cores serialize their pairs' VPU
    passes, groups run concurrently) and ``serial_seconds``.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("no pairs to distill")
    check_eps(eps)
    xs = [np.asarray(x) for x, _ in pairs]
    ys = [np.asarray(y) for _, y in pairs]
    for x, y in zip(xs, ys):
        if x.shape != y.shape or x.ndim != 2:
            raise ValueError(
                f"pairs must be equal-shape matrices, got {x.shape} and {y.shape}"
            )
    scheduler = MultiInputScheduler(chip)
    # Equal-shape waves (no mask stacks here, hence no byte budget).
    schedule = FleetSchedule.plan(
        [x.shape for x in xs], [0] * len(xs), max_stack_bytes=None
    )
    kernels: list[np.ndarray | None] = [None] * len(pairs)
    elapsed = serial = vpu_total = 0.0
    for wave in schedule.waves:
        indices = wave.pair_indices
        x_batch = scheduler.fft2_batch([xs[i] for i in indices])
        y_batch = scheduler.fft2_batch([ys[i] for i in indices])

        groups = partition_cores(chip.num_cores, len(indices))
        kernel_spectra = []
        vpu_times: list[float] = []
        for x_hat, y_hat, core_ids in zip(x_batch.outputs, y_batch.outputs, groups):
            vpu_core = chip.cores[core_ids[0]]
            before = vpu_core.stats.seconds
            x_conj = vpu_core.conjugate(x_hat)
            numerator = vpu_core.hadamard(y_hat, x_conj, op="mul")
            denominator = vpu_core.hadamard(x_hat, x_conj, op="mul")
            regularized = vpu_core.hadamard(
                denominator,
                np.full(denominator.shape, eps, dtype=np.complex128),
                op="add",
            )
            kernel_spectra.append(vpu_core.hadamard(numerator, regularized, op="div"))
            vpu_times.append(vpu_core.stats.seconds - before)

        k_batch = scheduler.ifft2_batch(kernel_spectra)
        for i, kernel in zip(indices, k_batch.outputs):
            if np.isrealobj(xs[i]) and np.isrealobj(ys[i]):
                kernels[i] = np.ascontiguousarray(kernel.real)
            else:
                kernels[i] = kernel
        # VPU passes serialize on each group's anchor core; groups run
        # concurrently -- the same sharing model as the transforms.
        vpu_elapsed = MultiInputScheduler._elapsed_with_sharing(groups, vpu_times)
        elapsed += (
            x_batch.elapsed_seconds
            + y_batch.elapsed_seconds
            + k_batch.elapsed_seconds
            + vpu_elapsed
        )
        serial += (
            x_batch.serial_seconds
            + y_batch.serial_seconds
            + k_batch.serial_seconds
            + sum(vpu_times)
        )
        vpu_total += sum(vpu_times)
    return BatchDistillationResult(
        kernels=kernels,
        elapsed_seconds=elapsed,
        serial_seconds=serial,
        vpu_seconds=vpu_total,
    )


@dataclass(frozen=True)
class BlockTask:
    """One block-product task in a partitioned matmul."""

    row_block: slice
    inner_block: slice
    col_block: slice
    core_id: int


def block_matmul_tasks(
    m: int, k: int, n: int, grid: tuple[int, int], num_cores: int
) -> list[BlockTask]:
    """Partition ``(m x k) @ (k x n)`` into a grid of block products.

    The paper: "Original matrices are partitioned into small blocks,
    then by performing multiplication between blocks and merging
    afterwards, we achieve same-level of parallel computing efficiency."
    Tasks are dealt to cores round-robin; summation over the inner
    dimension happens at merge (cross-replica sum).
    """
    gm, gn = grid
    if gm <= 0 or gn <= 0:
        raise ValueError(f"grid must be positive, got {grid}")
    if num_cores <= 0:
        raise ValueError(f"core count must be positive, got {num_cores}")
    row_slices = shard_slices(m, min(gm, m))
    col_slices = shard_slices(n, min(gn, n))
    inner = slice(0, k)
    tasks = []
    core = 0
    for row_block in row_slices:
        for col_block in col_slices:
            tasks.append(BlockTask(row_block, inner, col_block, core % num_cores))
            core += 1
    return tasks


def run_block_matmul(
    a: np.ndarray, b: np.ndarray, chip: TpuChip, grid: tuple[int, int]
) -> tuple[np.ndarray, float]:
    """Execute a block-partitioned matmul across the chip's cores.

    Returns the product and the elapsed seconds (slowest core plus the
    merge collective).
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"invalid operands: {a.shape} @ {b.shape}")
    m, k = a.shape
    n = b.shape[1]
    tasks = block_matmul_tasks(m, k, n, grid, chip.num_cores)
    out = np.zeros((m, n), dtype=np.result_type(a.dtype, b.dtype, np.float64))
    per_core: dict[int, float] = {}
    for task in tasks:
        core = chip.cores[task.core_id]
        before = core.stats.seconds
        out[task.row_block, task.col_block] = core.matmul(
            a[task.row_block, task.inner_block], b[task.inner_block, task.col_block]
        )
        per_core[task.core_id] = per_core.get(task.core_id, 0.0) + (
            core.stats.seconds - before
        )
    merge = chip.cross_replica_sum_seconds(out.size * out.itemsize)
    return out, max(per_core.values()) + merge
