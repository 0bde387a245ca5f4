"""A cycle-level TPU core, built only by callers that execute on it.

:class:`TpuCore` lowers every tensor operation to the small ISA of
:mod:`repro.hw.isa` and prices the program with the scheduler, so
instruction mixes are inspectable and overlap policies are ablatable.
It holds its own MXU and the specs of its HBM slice and unified buffer
(:mod:`repro.hw.memory`).  Its closed-form prices are its
configuration's (:meth:`repro.hw.tpu.TpuCoreConfig.matmul_seconds`,
:meth:`~repro.hw.tpu.TpuCoreConfig.elementwise_seconds`), which is all
the chip-level backend reads; :attr:`repro.hw.tpu.TpuChip.cores` builds
the cores on first read.
"""

from __future__ import annotations

import numpy as np

from repro.hw.device import Device
from repro.hw.isa import Instruction, Opcode, Program, Scheduler
from repro.hw.memory import MemoryCapacityError, hbm_spec, unified_buffer_spec
from repro.hw.mxu import Mxu, matmul_cycles
from repro.hw.tpu import TpuCoreConfig


class TpuCore(Device):
    """One TPU core: MXU + VPU + unified buffer + HBM slice.

    Cost flows through the ISA: each public op lowers to instructions,
    the scheduler prices them, and (when ``trace`` is enabled) the
    lowered program is retained for inspection.
    """

    def __init__(self, config: TpuCoreConfig | None = None, core_id: int = 0,
                 trace: bool = False) -> None:
        self.config = config or TpuCoreConfig()
        super().__init__(name=f"tpu-core-{core_id}")
        self.core_id = core_id
        self.mxu = Mxu(self.config.mxu)
        self.hbm = hbm_spec(
            capacity_bytes=self.config.hbm_capacity_bytes,
            bandwidth=self.config.hbm_bandwidth_bytes_per_sec,
        )
        self.unified_buffer = unified_buffer_spec(self.config.unified_buffer_bytes)
        self.scheduler = Scheduler(
            clock_hz=self.config.clock_hz,
            overlap_dma=self.config.overlap_dma,
            overlap_weight_load=self.config.overlap_weight_load,
        )
        self.trace_enabled = trace
        self.trace_program = Program()

    # ------------------------------------------------------------------
    # Lowering helpers
    # ------------------------------------------------------------------
    def _price(self, program: Program) -> float:
        result = self.scheduler.run(program)
        if self.trace_enabled:
            self.trace_program.extend(program)
        return result.seconds

    def _matmul_program(self, m: int, k: int, n: int) -> Program:
        stats = matmul_cycles(m, k, n, self.config.mxu)
        program = Program()
        load_per_tile = self.config.mxu.rows
        stream_cycles = max(0, stats.cycles - stats.weight_load_cycles + stats.hidden_weight_load_cycles)
        per_tile_stream = max(1, stream_cycles // stats.tiles)
        for tile in range(stats.tiles):
            program.emit(Instruction(Opcode.LOAD_WEIGHTS, cycles=load_per_tile,
                                     label=f"w{tile}"))
            program.emit(Instruction(Opcode.MATMUL, cycles=per_tile_stream,
                                     label=f"mm{tile}"))
        return program

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
        """Matrix product on the MXU, priced via the lowered ISA program."""
        a = np.asarray(a)
        b = np.asarray(b)
        if a.ndim != 2 or b.ndim != 2:
            raise ValueError(f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
        if a.shape[1] != b.shape[0]:
            raise ValueError(f"inner dimensions disagree: {a.shape} @ {b.shape}")
        m, k = a.shape
        n = b.shape[1]
        self._check_hbm_working_set(m, k, n, complex_values=np.iscomplexobj(a) or np.iscomplexobj(b))
        if np.iscomplexobj(a) or np.iscomplexobj(b):
            factor = self.complex_matmul_real_products
            program = Program()
            for _ in range(factor):
                program.extend(self._matmul_program(m, k, n))
            seconds = self._price(program)
            result = self._complex_matmul_compute(a, b)
            self.stats.record("matmul_complex", seconds, macs=factor * m * k * n)
            return result
        program = self._matmul_program(m, k, n)
        seconds = self._price(program)
        result = self._matmul_compute(a, b)
        self.stats.record("matmul", seconds, macs=m * k * n)
        return result

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
