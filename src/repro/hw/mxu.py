"""The Matrix Multiply Unit: tiling arbitrary matmuls onto the systolic array.

A real MXU is a fixed ``rows x cols`` grid (the paper's is 256x256); any
larger product must be *tiled*: the weight operand is cut into
``rows x cols`` tiles, each tile is loaded (``rows`` cycles, hidden
behind the previous tile's streaming by the double weight FIFO), the
activation rows stream through, and partial results accumulate across
the reduction-dimension tiles in the accumulator banks.

Two execution paths share one cycle model:

* ``exact=True`` drives :class:`repro.hw.systolic.SystolicArray` tile by
  tile -- the ground truth, quadratic in array size, used for small
  shapes and for validating the analytic path (the simulator module
  loads only when that path runs);
* ``exact=False`` (default) computes the product numerically (with the
  configured precision's rounding) and prices it with the closed-form
  tile count -- what the benchmarks use for 1024x1024 sweeps.

**Precision model.**  :class:`MxuConfig.precision` names the datapath's
numeric mode via :func:`repro.hw.quantize.precision_spec` (the single
parsing point): ``int8`` and ``bf16`` stream one MAC per PE per cycle,
``fp32`` a quarter and ``fp64`` an eighth
(:attr:`~repro.hw.quantize.PrecisionSpec.macs_per_pe_per_cycle` scales
the streaming phase of :func:`matmul_cycles`).  The same cycle model
prices the *quantized batched-convolution axis*: when a wave of the
fleet executor runs at ``precision="int8"``,
:meth:`repro.core.backend.TpuBackend.batch_conv_seconds` reprices its
wide fused transforms through :meth:`repro.hw.tpu.TpuCoreConfig
.matmul_seconds` with the MXU config swapped to that precision -- so
the speed side of the accuracy-vs-precision trade-off comes from this
one model, whether the MXU mode is fixed chip-wide or chosen per wave.

Tests assert both paths return identical cycle counts and matching
numerics on randomized shapes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from repro.hw.quantize import (
    PrecisionSpec,
    precision_spec,
    quantized_matmul,
)


@dataclass(frozen=True)
class MxuConfig:
    """Geometry and numeric mode of one MXU."""

    rows: int = 256
    cols: int = 256
    precision: str = "int8"

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError(f"MXU geometry must be positive, got {self.rows}x{self.cols}")
        precision_spec(self.precision)  # validate eagerly

    @property
    def spec(self) -> PrecisionSpec:
        return precision_spec(self.precision)

    @property
    def num_pes(self) -> int:
        return self.rows * self.cols

    @property
    def macs_per_cycle(self) -> float:
        """Peak MACs per cycle (65,536 for the paper's 256x256 int8 MXU)."""
        return self.num_pes * self.spec.macs_per_pe_per_cycle


@dataclass(frozen=True)
class MxuStats:
    """Cycle breakdown of one tiled matmul."""

    cycles: int
    weight_load_cycles: int
    hidden_weight_load_cycles: int
    tiles: int
    macs: int

    @property
    def total_cycles(self) -> int:
        return self.cycles

    def utilization(self, config: MxuConfig) -> float:
        """Achieved MACs over peak MAC capacity for the elapsed cycles."""
        if self.cycles == 0:
            return 0.0
        return self.macs / (self.cycles * config.macs_per_cycle)


def streaming_cycles(m: int, rows: int, cols: int) -> int:
    """Closed-form cycle count for streaming ``m`` activation rows."""
    if m <= 0:
        raise ValueError(f"need at least one activation row, got {m}")
    return m + rows + cols - 2


def _tile_count(total: int, tile: int) -> int:
    return max(1, math.ceil(total / tile))


@functools.lru_cache(maxsize=1024)
def matmul_cycles(m: int, k: int, n: int, config: MxuConfig) -> MxuStats:
    """Closed-form cycle count for an ``m x k @ k x n`` product.

    A pure function of its small hashable arguments, computed once per
    distinct product: the TPU cost hooks price the same few shapes over
    and over.

    Per weight tile ``(kt, nt)``: the tile's weights load in ``rows``
    cycles (hidden behind the previous tile's streaming when ``m`` covers
    it -- double buffering), then ``m`` activation rows stream with a
    ``rows + cols - 2`` pipeline drain.  The first tile's load cannot be
    hidden.  fp32 mode runs each PE at a quarter MAC per cycle, which
    scales the streaming phase.
    """
    if m <= 0 or k <= 0 or n <= 0:
        raise ValueError(f"matmul dimensions must be positive, got {m}x{k}x{n}")
    tiles_k = _tile_count(k, config.rows)
    tiles_n = _tile_count(n, config.cols)
    tiles = tiles_k * tiles_n

    slowdown = 1.0 / config.spec.macs_per_pe_per_cycle
    stream_per_tile = int(round(streaming_cycles(m, config.rows, config.cols) * slowdown))

    load = config.rows  # cycles to install one weight tile
    hidden_per_tile = min(load, stream_per_tile)
    # First load is exposed; subsequent loads hide behind streaming.
    exposed_loads = load + (tiles - 1) * (load - hidden_per_tile)
    hidden = (tiles - 1) * hidden_per_tile

    cycles = tiles * stream_per_tile + exposed_loads
    return MxuStats(
        cycles=cycles,
        weight_load_cycles=tiles * load,
        hidden_weight_load_cycles=hidden,
        tiles=tiles,
        macs=m * k * n,
    )


@dataclass
class Mxu:
    """One Matrix Multiply Unit with a numeric mode and a cycle model."""

    config: MxuConfig = MxuConfig()

    def matmul(
        self, a: np.ndarray, b: np.ndarray, exact: bool = False
    ) -> tuple[np.ndarray, MxuStats]:
        """Multiply real matrices ``a @ b`` on this MXU.

        Returns the (precision-rounded) product and the cycle breakdown.
        ``exact=True`` runs the cycle-level systolic simulator tile by
        tile instead of the analytic model.
        """
        a = np.asarray(a)
        b = np.asarray(b)
        if a.ndim != 2 or b.ndim != 2:
            raise ValueError(f"MXU multiplies 2-D matrices, got {a.shape} and {b.shape}")
        if a.shape[1] != b.shape[0]:
            raise ValueError(f"inner dimensions disagree: {a.shape} @ {b.shape}")
        if np.iscomplexobj(a) or np.iscomplexobj(b):
            raise TypeError(
                "MXU operands are real; decompose complex products first "
                "(Device.matmul runs one as four real products)"
            )
        m, k = a.shape
        n = b.shape[1]
        stats = matmul_cycles(m, k, n, self.config)
        if exact:
            product = self._exact_tiled_product(a, b)
        else:
            product = self._numeric_product(a, b)
        return product, stats

    def _numeric_product(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.config.precision == "int8":
            return quantized_matmul(a, b, bits=8)
        spec = self.config.spec
        return np.asarray(spec.apply(a), dtype=np.float64) @ np.asarray(
            spec.apply(b), dtype=np.float64
        )

    def _exact_tiled_product(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Drive the cycle-level systolic array over every weight tile."""
        m, k = a.shape
        n = b.shape[1]
        rows, cols = self.config.rows, self.config.cols

        if self.config.precision == "int8":
            # Mirror the quantized path: integer grids, scales reapplied.
            from repro.hw.quantize import quantize  # local to avoid cycle

            qa = quantize(a, bits=8)
            qb = quantize(b, bits=8)
            a_vals = qa.values.astype(np.int64)
            b_vals = qb.values.astype(np.int64)
            rescale = qa.scale * qb.scale
        else:
            spec = self.config.spec
            a_vals = np.asarray(spec.apply(a), dtype=np.float64)
            b_vals = np.asarray(spec.apply(b), dtype=np.float64)
            rescale = 1.0

        from repro.hw.systolic import SystolicArray

        array = SystolicArray(rows=rows, cols=cols)
        out = np.zeros((m, n), dtype=np.float64)
        for k0 in range(0, k, rows):
            k1 = min(k0 + rows, k)
            a_tile = np.zeros((m, rows), dtype=a_vals.dtype)
            a_tile[:, : k1 - k0] = a_vals[:, k0:k1]
            for n0 in range(0, n, cols):
                n1 = min(n0 + cols, n)
                w_tile = np.zeros((rows, cols), dtype=b_vals.dtype)
                w_tile[: k1 - k0, : n1 - n0] = b_vals[k0:k1, n0:n1]
                result = array.matmul(a_tile, w_tile)
                out[:, n0:n1] += result.output[:, : n1 - n0].astype(np.float64)
        return out * rescale
