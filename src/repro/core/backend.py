"""The TPU as a :class:`~repro.hw.device.Device`: the proposed approach.

:class:`TpuBackend` is the deployment configuration the paper evaluates
as "TPU-based acceleration": a whole multi-core chip presented through
the common device interface, with

* matmuls row-sharded over the cores (block-matrix parallelism,
  Section III-D) and merged with an all-gather;
* 2-D Fourier transforms priced with the Algorithm 1 schedule
  (per-stage slowest core + reassembly collective);
* one *dispatch* round trip per launched program rather than per
  operation -- the structural advantage over the eager CPU/GPU
  baselines, and the reason the interpretation step becomes "a simple
  computation equivalent to one forward pass".

Every price is a function of the chip's configuration: the cost hooks
read the closed-form core formulas on
:class:`~repro.hw.tpu.TpuCoreConfig` (MXU geometry, precision, clock)
with the core count and interconnect, so pricing builds none of the
chip's cycle-level cores.

Functionally, results carry the configured MXU precision (int8
quantization or bf16 rounding) through the numeric hooks.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from repro.hw.device import Device
from repro.hw.interconnect import Interconnect, InterconnectConfig
from repro.hw.mxu import Mxu, MxuConfig
from repro.hw.pod import TpuPod, check_hbm_bytes, check_num_chips
from repro.hw.quantize import infeed_bytes_per_element, resolve_precision
from repro.hw.tpu import TpuChip, TpuChipConfig, TpuCoreConfig

COMPLEX128_BYTES = 16


def make_tpu_chip(
    num_cores: int = 128,
    precision: str = "bf16",
    mxu_rows: int = 256,
    mxu_cols: int = 256,
    **chip_kwargs,
) -> TpuChip:
    """Build a chip in the paper's configuration (TPUv2-like, 128 cores).

    ``precision`` selects the MXU numeric mode: ``int8`` for
    classification workloads (Table I), ``bf16`` for the Fourier-domain
    distillation solve (Tables II / Figure 4), ``fp32`` for validation.
    """
    core = TpuCoreConfig(
        mxu=MxuConfig(rows=mxu_rows, cols=mxu_cols, precision=precision)
    )
    return TpuChip(TpuChipConfig(num_cores=num_cores, core=core, **chip_kwargs))


def make_tpu_pod(
    num_chips: int,
    interconnect: Interconnect | InterconnectConfig | None = None,
    hbm_bytes: int | None = None,
    **chip_kwargs,
) -> TpuPod:
    """A :class:`~repro.hw.pod.TpuPod` of ``num_chips`` paper-config chips.

    Each member is an independent :class:`TpuBackend` built with
    :func:`make_tpu_chip` (``chip_kwargs`` forward there);
    ``interconnect`` prices the pod-level collectives and defaults to
    the same link model the intra-chip cores use.  ``hbm_bytes``
    overrides every member's aggregate HBM capacity -- the per-chip
    budget :meth:`repro.core.fleet.FleetSchedule.plan` constrains
    placement against.
    """
    num_chips = check_num_chips(num_chips)
    return TpuPod(
        [
            TpuBackend(make_tpu_chip(**chip_kwargs)).clone(hbm_bytes=hbm_bytes)
            if hbm_bytes is not None
            else TpuBackend(make_tpu_chip(**chip_kwargs))
            for _ in range(num_chips)
        ],
        interconnect=interconnect,
    )


class TpuBackend(Device):
    """Multi-core TPU chip behind the common device interface."""

    def __init__(self, chip: TpuChip | None = None) -> None:
        self.chip = chip or make_tpu_chip()
        super().__init__(name=f"tpu-chip-{self.chip.num_cores}c")

    def clone(self, hbm_bytes: int | None = None) -> "TpuBackend":
        """A fresh backend around an identically configured chip.

        Pod replication (:func:`repro.hw.pod.clone_device`) calls this:
        the clone shares the immutable chip config but nothing mutable
        -- its ledger and cores start clean, and it builds no cores.
        ``hbm_bytes`` overrides the clone's aggregate HBM capacity (split
        evenly across its cores), the per-chip capacity knob of
        heterogeneous pod construction.
        """
        trace = self.chip.trace
        config = self.chip.config
        hbm_bytes = check_hbm_bytes(hbm_bytes)
        if hbm_bytes is not None:
            config = replace(
                config,
                core=replace(
                    config.core,
                    hbm_capacity_bytes=max(1, hbm_bytes // config.num_cores),
                ),
            )
        return TpuBackend(TpuChip(config, trace=trace))

    @property
    def launch_latency_seconds(self) -> float:
        """The chip's program-dispatch round trip (the Colab host link)."""
        return self.chip.config.dispatch_latency_sec

    @property
    def hbm_capacity_bytes(self) -> int:
        """Aggregate HBM across the chip's cores (placement budget)."""
        return self.chip.num_cores * self.chip.config.core.hbm_capacity_bytes

    # ------------------------------------------------------------------
    # Cost hooks: the core formulas of the chip's configuration
    # ------------------------------------------------------------------
    def matmul_seconds(self, m: int, k: int, n: int, precision=None) -> float:
        """Row-sharded matmul: slowest core plus the merge collective.

        ``precision`` reprices the per-core compute with the MXU cycle
        model in that numeric mode (int8/bf16 full rate, fp32/fp64
        reduced -- see :class:`~repro.hw.quantize.PrecisionSpec`); the
        merge collective moves the same result bytes either way.
        """
        cores = min(self.chip.num_cores, m)
        shard_rows = math.ceil(m / cores)
        compute = self.chip.config.core.matmul_seconds(
            shard_rows, k, n, precision=precision
        )
        merge = self.chip.interconnect.all_gather_seconds(
            (m * n * 8) // cores, cores
        )
        return compute + merge

    def elementwise_seconds(self, elements: int, flops_per_element: float = 1.0) -> float:
        cores = self.chip.num_cores
        shard = math.ceil(elements / cores)
        return self.chip.config.core.elementwise_seconds(shard, flops_per_element)

    def transfer_seconds(self, nbytes: int) -> float:
        if nbytes == 0:
            return 0.0
        return nbytes / self.chip.config.host_bandwidth_bytes_per_sec

    def fft2_seconds(self, m: int, n: int) -> float:
        """Algorithm 1 schedule: two sharded stages with reassembly.

        Stage one shards the ``m`` rows (each core multiplies its slice
        by ``W_n``); stage two shards the ``n`` columns against ``W_m``.
        Each complex product costs ``complex_matmul_real_products`` real
        MXU passes.
        """
        if m <= 0 or n <= 0:
            raise ValueError(f"cannot transform an empty {m}x{n} plane")
        factor = self.complex_matmul_real_products
        payload = m * n * COMPLEX128_BYTES

        # Each stage is priced by its first shard, the longest of the
        # balanced split (``shard_slices``): ``ceil(extent / cores)``.
        core = self.chip.config.core
        cores_rows = min(self.chip.num_cores, m)
        stage_one = factor * core.matmul_seconds(-(-m // cores_rows), n, n)
        stage_one += self.chip.interconnect.all_reduce_seconds(payload, cores_rows)

        cores_cols = min(self.chip.num_cores, n)
        stage_two = factor * core.matmul_seconds(m, m, -(-n // cores_cols))
        stage_two += self.chip.interconnect.all_reduce_seconds(payload, cores_cols)
        return stage_one + stage_two

    # ------------------------------------------------------------------
    # Numeric hooks: route through the MXU's precision mode
    # ------------------------------------------------------------------
    def _matmul_compute(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        mxu = Mxu(self.chip.config.core.mxu)
        product, _ = mxu.matmul(np.asarray(a), np.asarray(b))
        return product

    # ------------------------------------------------------------------
    # Convolution: host round trip per call
    # ------------------------------------------------------------------
    def conv2d_circular(self, x: np.ndarray, k: np.ndarray, precision=None) -> np.ndarray:
        """Circular convolution with an explicit host round trip.

        The interpretation loop masks features *host-side* (Eq. 5's
        ``X'`` is built in numpy), so every masked convolution is a
        separate launch: the masked plane streams in, the result streams
        back, and the launch pays the dispatch latency.  This is the
        execution model of the paper's TF/Colab stack and the reason
        measured TPU interpretation time is overhead-bound rather than
        MXU-bound.  (The distillation *solve* has no data-dependent host
        logic and runs as one fused program -- see ``program``.)

        With ``precision`` set, the masked plane streams in at the
        spec's storage width (1 byte/element for int8) instead of the
        legacy fp32 feed; numerics quantize per
        :meth:`repro.hw.device.Device.conv2d_circular`.
        """
        spec = resolve_precision(precision)
        result = super().conv2d_circular(np.asarray(x), np.asarray(k), precision=spec)
        # fp32 (or quantized-width) masked plane in, fp64 residual plane
        # out (kernel stays resident on-device across the loop).
        in_bytes = infeed_bytes_per_element(spec)
        payload = int(np.asarray(x).size * in_bytes + np.asarray(result).size * 8)
        round_trip = self.chip.config.dispatch_latency_sec + self.transfer_seconds(
            payload
        )
        self.stats.record("conv_round_trip", round_trip, bytes_moved=payload)
        return result

    # ------------------------------------------------------------------
    # Batched convolution: one compiled program for the whole mask plan
    # ------------------------------------------------------------------
    def batch_conv_seconds(self, batch: int, m: int, n: int, precision=None) -> float:
        """One fused batched program instead of ``batch`` eager op chains.

        The ``batch`` forward (and inverse) transforms share their DFT
        matrices, so each matmul-form stage lowers to one *wide* sharded
        product -- ``W_m @ [x_1 | ... | x_B]`` is an ``m x m @ m x (B n)``
        matmul, and the per-plane right-multiplications stack row-wise
        into ``(B m) x n @ n x n`` -- amortizing the per-matmul merge
        collective that dominates small per-mask launches.  The ``batch``
        Hadamard products fuse into a single wide VPU pass.

        ``precision`` prices the wide products with the MXU cycle model
        in that numeric mode (the quantized-batch axis: int8/bf16 stream
        the systolic array at full rate, fp32/fp64 at 1/4 and 1/8);
        ``None`` keeps the chip's configured MXU mode.
        """
        if batch <= 0:
            raise ValueError(f"batch must be positive, got {batch}")
        factor = self.complex_matmul_real_products
        fused_transform = factor * (
            self.matmul_seconds(m, m, batch * n, precision=precision)
            + self.matmul_seconds(batch * m, n, n, precision=precision)
        )
        hadamard = self.elementwise_seconds(batch * m * n, flops_per_element=4.0)
        return 2.0 * fused_transform + hadamard

    def kernel_spectrum_batch_seconds(
        self, batch: int, m: int, n: int, precision=None
    ) -> float:
        """One fused wide transform for a wave's ``batch`` kernel spectra.

        The pairs of a wave share the DFT matrices, so their kernel
        transforms lower to the same wide sharded products as the data
        stack (see :meth:`batch_conv_seconds`, including its
        ``precision`` repricing) instead of ``batch`` separate launches
        -- equal-shape pairs share one kernel-spectrum batch.
        """
        if batch <= 0:
            raise ValueError(f"batch must be positive, got {batch}")
        factor = self.complex_matmul_real_products
        return factor * (
            self.matmul_seconds(m, m, batch * n, precision=precision)
            + self.matmul_seconds(batch * m, n, n, precision=precision)
        )

    def _record_kernel_spectra(self, batch: int, m: int, n: int, spec=None) -> None:
        """One ``fft2_kernel_batch`` record for the fused spectrum batch.

        Its row is priced once per batch size, shape and precision
        (:meth:`~repro.hw.device.Device.ledger_template`).
        """
        template = self.ledger_template(
            ("fft2_kernel_batch", batch, m, n, spec),
            lambda: ((
                "fft2_kernel_batch",
                self.kernel_spectrum_batch_seconds(batch, m, n, precision=spec),
                self.complex_matmul_real_products * batch * (m * m * n + m * n * n),
                0,
            ),),
        )
        self.stats.record_rows(template, 1)

    def _record_batch_conv(self, batch: int, m: int, n: int, spec=None) -> None:
        """One ``conv2d_batch`` record for the fused program.

        Inside a :meth:`program` scope the batch is part of the already
        dispatched program -- masks are data-independent, so the masked
        variants are built on-device from the resident input and nothing
        crosses the host link.  Standalone calls pay one launch round
        trip for the whole plan (one dispatch, one infeed of the fp32
        batch -- at the quantized storage width when ``spec`` is set --
        one outfeed of the fp64 results) -- in contrast with the loop
        path's one round trip *per mask*.  The ``conv2d_batch`` row is
        priced once per batch size, shape and precision.
        """
        template = self.ledger_template(
            ("conv2d_batch", batch, m, n, spec),
            lambda: ((
                "conv2d_batch",
                self.batch_conv_seconds(batch, m, n, precision=spec),
                2 * self.complex_matmul_real_products * batch * (m * m * n + m * n * n),
                0,
            ),),
        )
        self.stats.record_rows(template, 1)
        if not self.in_program:
            infeed_bytes = batch * m * n * infeed_bytes_per_element(spec)
            outfeed_bytes = batch * m * n * 8
            self.stats.record("dispatch", self.chip.config.dispatch_latency_sec)
            self.stats.record(
                "infeed", self.transfer_seconds(infeed_bytes), bytes_moved=infeed_bytes
            )
            self.stats.record(
                "outfeed", self.transfer_seconds(outfeed_bytes), bytes_moved=outfeed_bytes
            )

    # ------------------------------------------------------------------
    # Program scope: one dispatch per launch, not per op
    # ------------------------------------------------------------------
    def _begin_program(self, infeed_bytes: int) -> None:
        """One compiled-program launch: dispatch round trip + infeed."""
        self.stats.record("dispatch", self.chip.config.dispatch_latency_sec)
        if infeed_bytes:
            self.stats.record(
                "infeed", self.transfer_seconds(infeed_bytes), bytes_moved=infeed_bytes
            )

    def _end_program(self, outfeed_bytes: int) -> None:
        if outfeed_bytes:
            self.stats.record(
                "outfeed",
                self.transfer_seconds(outfeed_bytes),
                bytes_moved=outfeed_bytes,
            )

    def energy_joules(self, seconds: float) -> float:
        """Chip energy at per-core TDP across all cores."""
        return seconds * self.chip.config.core.tdp_watts * self.chip.num_cores
