"""Parallel computation of multiple inputs (paper Section III-D).

Beyond sharding a single transform (Algorithm 1), the paper processes
*many* input-output pairs concurrently: "each input matrix is segmented
into pieces and each core obtains a slice of them... an internal table
is utilized to keep track of the distribution to guide the process of
reassembling."

This module provides that layer on one chip's cores:

* :func:`partition_cores` -- divide the chip's cores into per-input
  groups (round-robin sharing when inputs outnumber cores);
* :class:`AssignmentTable` -- the paper's "internal table": which core
  holds which slice of which input, for reassembly and for audit (the
  cross-pair analogue is :func:`repro.core.fleet.wave_row_map`, whose
  row arrays map fused stack rows back to pairs);
* :class:`MultiInputScheduler` -- run a batch of 2-D transforms
  concurrently (elapsed time equal to the slowest core group, inputs
  side by side).

Whole explanation fleets -- many pairs distilled and interpreted, one
batched program per wave of equal-shape pairs -- run through
:class:`repro.core.fleet.FleetExecutor`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.decomposition import DecomposedFourier, DecompositionReport
from repro.hw.device import shard_slices
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
            result, report = self._group_executor(core_ids).fft2(x)
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


class _ChipView:
    """A restricted view of a chip exposing a subset of its cores.

    Duck-types the ``TpuChip`` surface that :class:`DecomposedFourier`
    uses (``config``, ``cores``, ``num_cores``,
    ``cross_replica_sum_seconds``), pricing communication with the
    parent chip's interconnect.
    """

    def __init__(self, chip: TpuChip, core_ids: list[int]) -> None:
        self._chip = chip
        self.config = chip.config
        self.cores = [chip.cores[i] for i in core_ids]

    @property
    def num_cores(self) -> int:
        return len(self.cores)

    def cross_replica_sum_seconds(self, nbytes: int, num_cores: int) -> float:
        return self._chip.cross_replica_sum_seconds(nbytes, num_cores=num_cores)
