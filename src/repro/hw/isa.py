"""A small TPU instruction set, program container, and scheduler.

The original TPU is a CISC coprocessor driven by a handful of
instructions (Read_Host_Memory, Read_Weights, MatrixMultiply/Convolve,
Activate, Write_Host_Memory).  We model that level of abstraction:
:func:`repro.hw.compiler.lower` *lowers* a graph of tensor operations
into an instruction stream, and the :class:`Scheduler` prices the stream
under an explicit overlap policy:

* DMA instructions (READ_HOST / WRITE_HOST) run on the DMA engine and
  overlap with compute when ``overlap_dma`` is set (double buffering);
* LOAD_WEIGHTS overlaps with the preceding MATMUL thanks to the MXU's
  double weight FIFO;
* CROSS_REPLICA_SUM occupies the interconnect, serialized with compute
  (it is a barrier in the paper's reassembly step).

Having the program be inspectable data (rather than timing sprinkled
through the device code) is what makes the ablations honest: the same
stream can be re-priced with overlap disabled.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator


class Opcode(enum.Enum):
    """Instruction kinds understood by the scheduler."""

    READ_HOST = "read_host"
    WRITE_HOST = "write_host"
    LOAD_WEIGHTS = "load_weights"
    MATMUL = "matmul"
    HADAMARD = "hadamard"
    TRANSPOSE = "transpose"
    ACTIVATE = "activate"
    CROSS_REPLICA_SUM = "cross_replica_sum"
    SYNC = "sync"


# Engines an instruction can occupy.  COMPUTE = MXU+VPU pipeline,
# DMA = host/HBM transfers, NETWORK = inter-core links.
_ENGINE_BY_OPCODE = {
    Opcode.READ_HOST: "dma",
    Opcode.WRITE_HOST: "dma",
    Opcode.LOAD_WEIGHTS: "compute",
    Opcode.MATMUL: "compute",
    Opcode.HADAMARD: "compute",
    Opcode.TRANSPOSE: "compute",
    Opcode.ACTIVATE: "compute",
    Opcode.CROSS_REPLICA_SUM: "network",
    Opcode.SYNC: "compute",
}


@dataclass(frozen=True)
class Instruction:
    """One lowered instruction with its pre-computed cost.

    ``cycles`` is compute-pipeline occupancy; ``seconds`` is used for
    engines that are not clocked by the core (DMA, network).  Exactly one
    of the two is non-zero for any instruction.
    """

    opcode: Opcode
    cycles: int = 0
    seconds: float = 0.0
    label: str = ""

    def __post_init__(self) -> None:
        if self.cycles < 0:
            raise ValueError(f"{self.opcode}: negative cycle cost")
        if self.seconds < 0:
            raise ValueError(f"{self.opcode}: negative seconds cost")

    @property
    def engine(self) -> str:
        return _ENGINE_BY_OPCODE[self.opcode]


@dataclass
class Program:
    """An ordered instruction stream for one core."""

    instructions: list[Instruction] = field(default_factory=list)

    def emit(self, instruction: Instruction) -> None:
        self.instructions.append(instruction)

    def extend(self, other: "Program") -> None:
        self.instructions.extend(other.instructions)

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def opcode_histogram(self) -> Counter:
        """Instruction mix, e.g. for asserting a lowering emitted DMA ops."""
        return Counter(instr.opcode for instr in self.instructions)

    def compute_cycles(self) -> int:
        """Raw (un-overlapped) compute-pipeline cycles in the stream."""
        return sum(i.cycles for i in self.instructions if i.engine == "compute")

    def disassemble(self, limit: int | None = None) -> str:
        """Human-readable listing of the instruction stream.

        One line per instruction: index, opcode, engine, cost, label.
        ``limit`` truncates long programs with an ellipsis summary.
        """
        lines = []
        shown = self.instructions if limit is None else self.instructions[:limit]
        for index, instruction in enumerate(shown):
            if instruction.engine == "compute":
                cost = f"{instruction.cycles:>8} cy"
            else:
                cost = f"{instruction.seconds * 1e6:>8.1f} us"
            label = f"  ; {instruction.label}" if instruction.label else ""
            lines.append(
                f"{index:>5}  {instruction.opcode.value:<18} "
                f"[{instruction.engine:<7}] {cost}{label}"
            )
        hidden = len(self.instructions) - len(shown)
        if hidden > 0:
            lines.append(f"  ... {hidden} more instruction(s)")
        return "\n".join(lines)


@dataclass(frozen=True)
class ScheduleResult:
    """Outcome of pricing a program."""

    seconds: float
    compute_seconds: float
    dma_seconds: float
    network_seconds: float
    hidden_weight_load_cycles: int

    @property
    def serial_seconds(self) -> float:
        """Time if no engine overlapped (the ablation upper bound)."""
        return self.compute_seconds + self.dma_seconds + self.network_seconds


@dataclass(frozen=True)
class Scheduler:
    """Prices a :class:`Program` under an overlap policy.

    ``clock_hz`` converts compute cycles to seconds.  With
    ``overlap_dma`` the DMA engine runs concurrently with compute, so
    elapsed time is ``max(compute, dma)``; the network (cross-replica
    sums) always serializes, acting as the barrier between the paper's
    decomposition stages.  With ``overlap_weight_load`` a LOAD_WEIGHTS
    that immediately follows a MATMUL is hidden up to that matmul's
    length (double-buffered weight FIFO).
    """

    clock_hz: float
    overlap_dma: bool = True
    overlap_weight_load: bool = True

    def __post_init__(self) -> None:
        if self.clock_hz <= 0:
            raise ValueError("clock must be positive")

    def run(self, program: Program) -> ScheduleResult:
        compute_cycles = 0
        dma_seconds = 0.0
        network_seconds = 0.0
        hidden_cycles = 0
        previous_matmul_cycles = 0

        for instruction in program:
            engine = instruction.engine
            if engine == "dma":
                dma_seconds += instruction.seconds
            elif engine == "network":
                network_seconds += instruction.seconds
            elif instruction.opcode == Opcode.LOAD_WEIGHTS:
                if self.overlap_weight_load:
                    hidden = min(instruction.cycles, previous_matmul_cycles)
                    hidden_cycles += hidden
                    compute_cycles += instruction.cycles - hidden
                else:
                    compute_cycles += instruction.cycles
                previous_matmul_cycles = 0
            else:
                compute_cycles += instruction.cycles
                if instruction.opcode == Opcode.MATMUL:
                    previous_matmul_cycles = instruction.cycles

        compute_seconds = compute_cycles / self.clock_hz
        if self.overlap_dma:
            elapsed = max(compute_seconds, dma_seconds) + network_seconds
        else:
            elapsed = compute_seconds + dma_seconds + network_seconds
        return ScheduleResult(
            seconds=elapsed,
            compute_seconds=compute_seconds,
            dma_seconds=dma_seconds,
            network_seconds=network_seconds,
            hidden_weight_load_cycles=hidden_cycles,
        )
