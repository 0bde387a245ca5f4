"""One TPU core as a device, built only by callers that execute on it.

:class:`TpuCore` holds its own MXU (so products carry the configured
precision) and the specs of its HBM slice and unified buffer
(:mod:`repro.hw.memory`), and refuses a matmul whose working set its
HBM slice cannot hold.  Its prices are its configuration's
(:meth:`repro.hw.tpu.TpuCoreConfig.matmul_seconds`,
:meth:`~repro.hw.tpu.TpuCoreConfig.elementwise_seconds`) through the
common :class:`~repro.hw.device.Device` operations: the same formulas
the chip-level backend reads.  :attr:`repro.hw.tpu.TpuChip.cores`
builds the cores on first read.
"""

from __future__ import annotations

import numpy as np

from repro.hw.device import Device
from repro.hw.memory import MemoryCapacityError, hbm_spec, unified_buffer_spec
from repro.hw.mxu import Mxu
from repro.hw.tpu import TpuCoreConfig


class TpuCore(Device):
    """One TPU core: MXU + VPU + unified buffer + HBM slice.

    Priced from its configuration like every other device; executes
    matmuls on its MXU, so results carry the configured precision.
    """

    def __init__(self, config: TpuCoreConfig | None = None, core_id: int = 0) -> None:
        self.config = config or TpuCoreConfig()
        super().__init__(name=f"tpu-core-{core_id}")
        self.core_id = core_id
        self.mxu = Mxu(self.config.mxu)
        self.hbm = hbm_spec(
            capacity_bytes=self.config.hbm_capacity_bytes,
            bandwidth=self.config.hbm_bandwidth_bytes_per_sec,
        )
        self.unified_buffer = unified_buffer_spec(self.config.unified_buffer_bytes)

    # ------------------------------------------------------------------
    # Device cost hooks
    # ------------------------------------------------------------------
    def matmul_seconds(self, m: int, k: int, n: int, precision=None) -> float:
        """Cycle-model matmul time: :meth:`TpuCoreConfig.matmul_seconds`."""
        return self.config.matmul_seconds(m, k, n, precision=precision)

    def elementwise_seconds(self, elements: int, flops_per_element: float = 1.0) -> float:
        return self.config.elementwise_seconds(elements, flops_per_element)

    def transfer_seconds(self, nbytes: int) -> float:
        # Core-local transfer between HBM and the unified buffer.
        return self.hbm.transfer_seconds(nbytes)

    # ------------------------------------------------------------------
    # Numeric hooks: int8 quantization / bf16 rounding via the MXU
    # ------------------------------------------------------------------
    def _matmul_compute(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        product, _ = self.mxu.matmul(a, b)
        return product

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Matrix product on the MXU, once its working set fits in HBM."""
        a = np.asarray(a)
        b = np.asarray(b)
        # Malformed operands reach Device.matmul's shape errors first.
        if a.ndim == 2 and b.ndim == 2 and a.shape[1] == b.shape[0]:
            self._check_hbm_working_set(
                *a.shape, b.shape[1],
                complex_values=np.iscomplexobj(a) or np.iscomplexobj(b),
            )
        return super().matmul(a, b)

    def _check_hbm_working_set(
        self, m: int, k: int, n: int, complex_values: bool = False
    ) -> None:
        """Reject working sets the core's HBM slice cannot hold.

        Operands and the result must be resident; complex operands store
        separate real/imaginary planes.  A violation raises
        :class:`repro.hw.memory.MemoryCapacityError` instead of silently
        producing optimistic timing.
        """
        bytes_per_element = self.config.mxu.spec.bytes_per_element
        planes = 2 if complex_values else 1
        working_set = planes * bytes_per_element * (m * k + k * n + m * n)
        if working_set > self.hbm.capacity_bytes:
            raise MemoryCapacityError(
                f"{self.name}: matmul working set {working_set} B exceeds the "
                f"core's HBM slice of {self.hbm.capacity_bytes} B "
                f"({m}x{k} @ {k}x{n}, {self.config.mxu.precision})"
            )

    def utilization(self) -> float:
        """Achieved-vs-peak MAC utilization over the accumulated stats."""
        peak = self.config.mxu.macs_per_cycle * self.config.clock_hz
        if self.stats.seconds == 0:
            return 0.0
        return self.stats.macs / (self.stats.seconds * peak)

    def energy_joules(self, seconds: float) -> float:
        """Crude energy estimate at core TDP."""
        return seconds * self.config.tdp_watts
