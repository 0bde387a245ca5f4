"""The simulated TPU chip, priced from its configuration.

:class:`TpuCoreConfig` is one TPU core as the paper describes it: a
Matrix Multiply Unit (systolic array, Section II-A / Figure 1) fed from
a unified buffer, with a vector unit for elementwise work and an HBM
slice.  Its :meth:`~TpuCoreConfig.matmul_seconds` and
:meth:`~TpuCoreConfig.elementwise_seconds` are the closed-form core
prices every TPU cost reads: they depend on the MXU geometry and
precision, the vector unit and the clock alone.

:class:`TpuChip` aggregates ``num_cores`` cores (the paper's experiments
use a 128-core TPUv2 slice) behind a host link with a per-launch
dispatch latency, plus a ring interconnect pricing
``cross_replica_sum`` for the reassembly steps of Algorithm 1.  The
chip records nothing itself: :class:`~repro.core.backend.TpuBackend`'s
device ledger holds every dispatch, infeed, outfeed and overlap credit,
and the :class:`~repro.core.decomposition.StageTiming` of an executed
Algorithm 1 holds each reassembly.  Pricing reads only the chip's
configuration; the cores (:class:`repro.hw.tpu_core.TpuCore`, each with
its own MXU and memories, priced by the same formulas) are built on the
first read of :attr:`TpuChip.cores`, by callers that execute on them.

The chip intentionally does **not** implement the sharded 2-D FFT --
that *is* the paper's contribution and lives in
:mod:`repro.core.decomposition`, which drives the cores through this
interface.  Its price is :func:`fourier_stage_seconds`, the one price of
an Algorithm 1 stage, which the executed decomposition and
:meth:`~repro.core.backend.TpuBackend.fft2_seconds` both read.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.hw.interconnect import Interconnect, InterconnectConfig
from repro.hw.mxu import MxuConfig, matmul_cycles
from repro.hw.quantize import precision_spec

COMPLEX128_BYTES = 16


@dataclass(frozen=True)
class TpuCoreConfig:
    """Parameters of one TPU core."""

    clock_hz: float = 700e6
    mxu: MxuConfig = field(default_factory=MxuConfig)
    vpu_lanes: int = 128
    vpu_ops_per_lane_per_cycle: float = 2.0
    hbm_capacity_bytes: int = 8 * 1024**3  # 8 GiB
    hbm_bandwidth_bytes_per_sec: float = 300e9
    unified_buffer_bytes: int = 24 * 1024 * 1024
    tdp_watts: float = 40.0

    def __post_init__(self) -> None:
        if self.clock_hz <= 0:
            raise ValueError("clock must be positive")
        if self.vpu_lanes <= 0 or self.vpu_ops_per_lane_per_cycle <= 0:
            raise ValueError("VPU geometry must be positive")
        # The same checks the cores' memory specs make, so a bad memory
        # geometry fails here rather than when the cores are first built.
        if self.hbm_capacity_bytes <= 0:
            raise ValueError("hbm: capacity must be positive")
        if self.hbm_bandwidth_bytes_per_sec <= 0:
            raise ValueError("hbm: bandwidth must be positive")
        if self.unified_buffer_bytes <= 0:
            raise ValueError("unified_buffer: capacity must be positive")

    def matmul_seconds(self, m: int, k: int, n: int, precision=None) -> float:
        """Cycle-model matmul time, optionally at an overridden precision.

        ``precision`` (a :class:`~repro.hw.quantize.PrecisionSpec` or
        name) reprices the product as if the MXU ran in that numeric
        mode -- the hook the quantized batched-convolution axis uses to
        translate int8/bf16 execution into cycles; ``None`` uses the
        core's configured :class:`~repro.hw.mxu.MxuConfig` precision.
        """
        mxu = self.mxu
        if precision is not None:
            mxu = replace(mxu, precision=precision_spec(precision).name)
        stats = matmul_cycles(m, k, n, mxu)
        return stats.cycles / self.clock_hz

    def elementwise_seconds(self, elements: int, flops_per_element: float = 1.0) -> float:
        """Vector-unit time for ``elements`` values of ``flops_per_element``."""
        lanes = self.vpu_lanes * self.vpu_ops_per_lane_per_cycle
        cycles = np.ceil(elements * flops_per_element / lanes)
        return float(cycles) / self.clock_hz


@dataclass(frozen=True)
class TpuChipConfig:
    """A pod slice: many cores behind one host link.

    Defaults mirror the paper's setup: TPUv2, 128 cores, 64 GB of HBM in
    aggregate (8 GiB per core here), and a Colab-style networked host
    attachment whose round-trip ``dispatch_latency_sec`` dominates small
    launches -- the practical reason measured TPU speedups sit at
    10-70x rather than the raw ALU ratio of several thousand.
    """

    num_cores: int = 128
    core: TpuCoreConfig = field(default_factory=TpuCoreConfig)
    interconnect: InterconnectConfig = field(default_factory=InterconnectConfig)
    # Colab-style networked attachment: ~0.6 GB/s effective gRPC feed
    # bandwidth and a 26 ms program-dispatch round trip.  These two
    # overheads -- not MXU throughput -- bound the measured speedups at
    # the paper's workload sizes (its own numbers imply the same), and
    # they are calibrated jointly with the CPU/GPU defaults.
    host_bandwidth_bytes_per_sec: float = 0.6e9
    dispatch_latency_sec: float = 26e-3

    def __post_init__(self) -> None:
        if self.num_cores <= 0:
            raise ValueError("need at least one core")
        if self.host_bandwidth_bytes_per_sec <= 0:
            raise ValueError("host bandwidth must be positive")
        if self.dispatch_latency_sec < 0:
            raise ValueError("dispatch latency cannot be negative")


class TpuChip:
    """A collection of TPU cores plus the fabric joining them.

    Not itself a :class:`~repro.hw.device.Device`: op-level sharding policy (Algorithm 1,
    block-matmul parallelism) is the paper's contribution and lives in
    ``repro.core``.  The chip supplies the mechanisms those policies
    need: per-core execution and the price of a cross-replica
    reduction.  It keeps no ledger of its own: the device ledger of the
    :class:`~repro.core.backend.TpuBackend` that wraps it records every
    dispatch, transfer and overlap credit.  Prices come from
    :attr:`config`; the cores exist only once :attr:`cores` is read.
    """

    def __init__(self, config: TpuChipConfig | None = None) -> None:
        self.config = config or TpuChipConfig()
        self._cores: list | None = None
        self.interconnect = Interconnect(self.config.interconnect)

    @property
    def num_cores(self) -> int:
        return self.config.num_cores

    @property
    def cores(self) -> list:
        """The ``num_cores`` cores, built on first read.

        Core ``i`` is a :class:`repro.hw.tpu_core.TpuCore` with id ``i``;
        later reads return the same list.
        """
        if self._cores is None:
            from repro.hw.tpu_core import TpuCore

            self._cores = [
                TpuCore(self.config.core, core_id=i)
                for i in range(self.config.num_cores)
            ]
        return self._cores

    def cross_replica_sum_seconds(self, nbytes: int, num_cores: int | None = None) -> float:
        """The paper's ``tf.cross_replica_sum`` reassembly barrier."""
        cores = self.num_cores if num_cores is None else num_cores
        return self.interconnect.all_reduce_seconds(nbytes, cores)

    def reset(self) -> None:
        """Clear the per-core ledgers of the cores built so far."""
        for core in self._cores or ():
            core.reset_stats()


def fourier_stage_seconds(
    chip: TpuChip, m: int, n: int, axis: int, cores: int, real_products: int
) -> tuple[tuple[float, ...], float]:
    """The price of one sharded stage of Algorithm 1 on an ``m x n`` plane.

    ``axis=0`` is the row stage: each of ``min(cores, m)`` cores
    multiplies its share of the rows by ``W_n``.  ``axis=1`` is the
    column stage: ``W_m`` times each core's share of the ``n`` columns.
    Shares follow :func:`repro.hw.device.shard_slices` (the first
    ``extent % shards`` cores take one extra line).

    Returns each core's compute seconds, ``real_products`` real MXU
    passes of :meth:`TpuCoreConfig.matmul_seconds` over its share, and
    the stage's reassembly seconds, the cross-replica sum of the full
    complex plane over the stage's cores.
    :meth:`~repro.core.backend.TpuBackend.fft2_seconds` and
    :class:`~repro.core.decomposition.DecomposedFourier` both price
    with it, so the formula equals the executed schedule bit for bit.
    """
    extent = (m, n)[axis]
    shards = min(cores, extent)
    base, longer = divmod(extent, shards)
    per_core: tuple[float, ...] = ()
    for lines, count in ((base + 1, longer), (base, shards - longer)):
        if count:
            product = (lines, n, n) if axis == 0 else (m, m, lines)
            seconds = real_products * chip.config.core.matmul_seconds(*product)
            per_core += (seconds,) * count
    reassembly = chip.cross_replica_sum_seconds(
        m * n * COMPLEX128_BYTES, num_cores=shards
    )
    return per_core, reassembly
