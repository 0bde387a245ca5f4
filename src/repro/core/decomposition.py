"""Algorithm 1: data decomposition of the 2-D Fourier transform.

Section III-C observes that the 2-D DFT factors into independent 1-D
transforms: first every row, then every column of the intermediate
result.  In matmul form (Eq. 10-13) each stage is a product with a DFT
matrix, so a ``p``-core TPU can shard the work with **zero intra-stage
communication**: core ``c`` receives ``M/p`` rows (stage one) or ``N/p``
columns (stage two), multiplies its slice against the DFT matrix on its
own MXU, and the shards are reassembled between stages with one
cross-replica exchange -- the paper's ``tf.cross_replica_sum`` step.

:class:`DecomposedFourier` executes exactly that schedule against a
:class:`repro.hw.tpu.TpuChip`: every shard really runs through its
core's MXU (so precision effects are faithful) and elapsed time is the
slowest core per stage plus the reassembly collective, mirroring
Algorithm 1's structure.  Each stage's seconds come from
:func:`repro.hw.tpu.fourier_stage_seconds`, the price
:meth:`repro.core.backend.TpuBackend.fft2_seconds` reads too, so a
report's ``elapsed_seconds`` equals the backend's formula bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.fft.dft_matrix import dft_matrix, idft_matrix
from repro.hw.device import shard_slices
from repro.hw.tpu import TpuChip, fourier_stage_seconds


@dataclass(frozen=True)
class StageTiming:
    """Timing of one decomposition stage (rows or columns)."""

    name: str
    per_core_seconds: tuple[float, ...]
    reassembly_seconds: float

    @property
    def compute_seconds(self) -> float:
        """Critical path: the slowest participating core."""
        return max(self.per_core_seconds) if self.per_core_seconds else 0.0

    @property
    def elapsed_seconds(self) -> float:
        return self.compute_seconds + self.reassembly_seconds


@dataclass(frozen=True)
class DecompositionReport:
    """Full schedule record of one decomposed transform."""

    shape: tuple[int, int]
    cores_used: int
    stages: tuple[StageTiming, ...] = field(default_factory=tuple)

    @property
    def elapsed_seconds(self) -> float:
        return sum(stage.elapsed_seconds for stage in self.stages)

    @property
    def compute_seconds(self) -> float:
        return sum(stage.compute_seconds for stage in self.stages)

    @property
    def communication_seconds(self) -> float:
        return sum(stage.reassembly_seconds for stage in self.stages)


class DecomposedFourier:
    """Algorithm 1 executor over a multi-core TPU chip."""

    def __init__(self, chip: TpuChip, cores: int | None = None) -> None:
        if cores is not None and not 1 <= cores <= chip.num_cores:
            raise ValueError(
                f"requested {cores} cores but the chip has {chip.num_cores}"
            )
        self.chip = chip
        self.cores_used = cores or chip.num_cores

    # ------------------------------------------------------------------
    def _stage(
        self,
        name: str,
        operand: np.ndarray,
        transform_matrix: np.ndarray,
        axis: int,
    ) -> tuple[np.ndarray, StageTiming]:
        """Run one sharded stage, priced by :func:`fourier_stage_seconds`.

        ``axis=0``: shard rows, each core computes ``x_c @ W`` (row
        transforms).  ``axis=1``: shard columns, each core computes
        ``W @ x_c`` (column transforms).
        """
        cores = self.chip.cores
        per_core, reassembly = fourier_stage_seconds(
            self.chip, *operand.shape, axis, self.cores_used,
            cores[0].complex_matmul_real_products,
        )
        slices = shard_slices(operand.shape[axis], len(per_core))
        pieces = []
        for core, piece in zip(cores, slices):
            if axis == 0:
                pieces.append(core.matmul(operand[piece, :], transform_matrix))
            else:
                pieces.append(core.matmul(transform_matrix, operand[:, piece]))
        timing = StageTiming(
            name=name, per_core_seconds=per_core, reassembly_seconds=reassembly
        )
        return np.concatenate(pieces, axis=axis), timing

    def _transform(
        self, x: np.ndarray, matrix, name: str
    ) -> tuple[np.ndarray, DecompositionReport]:
        """Row stage against ``matrix(n)``, then column stage against ``matrix(m)``."""
        x = np.asarray(x)
        if x.ndim != 2:
            raise ValueError(f"{name} expects a matrix, got shape {x.shape}")
        m, n = x.shape
        rows_done, stage_rows = self._stage("rows", x, matrix(n), axis=0)
        result, stage_cols = self._stage("columns", rows_done, matrix(m), axis=1)
        report = DecompositionReport(
            shape=(m, n),
            cores_used=self.cores_used,
            stages=(stage_rows, stage_cols),
        )
        return result, report

    def fft2(self, x: np.ndarray) -> tuple[np.ndarray, DecompositionReport]:
        """Sharded forward 2-D DFT; returns the transform and its schedule."""
        return self._transform(x, dft_matrix, "fft2")

    def ifft2(self, x: np.ndarray) -> tuple[np.ndarray, DecompositionReport]:
        """Sharded inverse 2-D DFT."""
        return self._transform(x, idft_matrix, "ifft2")
