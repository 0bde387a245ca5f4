"""Execution tracing for the systolic array: waveforms and utilization.

EDA-style observability for the simulated hardware: a cycle-by-cycle
recorder that watches a :class:`repro.hw.systolic.SystolicArray` pass
and produces

* a per-cycle **utilization waveform** (fraction of PEs doing useful
  MACs) -- the fill/steady/drain envelope every systolic schedule has;
* a per-PE **activity heatmap** (MACs per cell over the pass);
* a **VCD dump** (IEEE 1364 value-change format) of scalar signals so
  the pass can be inspected in any waveform viewer (GTKWave etc.).

The recorder re-derives activity from the same wavefront schedule the
array implements (asserted against the array's own counters in tests),
so it needs no hooks inside the hot loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hw.mxu import streaming_cycles
from repro.hw.systolic import SystolicArray


@dataclass(frozen=True)
class SystolicTrace:
    """Recorded activity of one streaming pass."""

    rows: int
    cols: int
    stream_rows: int
    utilization: np.ndarray  # (cycles,) fraction of active PEs per cycle
    pe_activity: np.ndarray  # (rows, cols) MAC count per PE

    @property
    def cycles(self) -> int:
        return self.utilization.shape[0]

    @property
    def peak_utilization(self) -> float:
        return float(self.utilization.max()) if self.cycles else 0.0

    @property
    def mean_utilization(self) -> float:
        return float(self.utilization.mean()) if self.cycles else 0.0

    @property
    def steady_state_cycles(self) -> int:
        """Cycles at 100% utilization (the plateau of the envelope)."""
        return int(np.sum(self.utilization >= 1.0 - 1e-12))


def trace_pass(rows: int, cols: int, stream_rows: int) -> SystolicTrace:
    """Derive the activity trace of a dense streaming pass.

    In the wavefront schedule, PE ``(r, c)`` performs a useful MAC for
    input row ``i`` at cycle ``i + r + c``; with ``m`` dense input rows
    it is active during cycles ``[r + c, m - 1 + r + c]``.
    """
    if rows <= 0 or cols <= 0:
        raise ValueError(f"array geometry must be positive, got {rows}x{cols}")
    if stream_rows <= 0:
        raise ValueError(f"need at least one streamed row, got {stream_rows}")
    total = streaming_cycles(stream_rows, rows, cols)
    active_per_cycle = np.zeros(total, dtype=np.int64)
    # Count PEs whose activity window covers each cycle: the number of
    # (r, c) with r + c <= t and r + c >= t - (m - 1).
    diag_counts = np.zeros(rows + cols - 1, dtype=np.int64)
    for diagonal in range(rows + cols - 1):
        low = max(0, diagonal - (cols - 1))
        high = min(rows - 1, diagonal)
        diag_counts[diagonal] = high - low + 1
    for cycle in range(total):
        lo = max(0, cycle - (stream_rows - 1))
        hi = min(rows + cols - 2, cycle)
        if hi >= lo:
            active_per_cycle[cycle] = diag_counts[lo : hi + 1].sum()
    utilization = active_per_cycle / (rows * cols)
    pe_activity = np.full((rows, cols), stream_rows, dtype=np.int64)
    return SystolicTrace(
        rows=rows,
        cols=cols,
        stream_rows=stream_rows,
        utilization=utilization,
        pe_activity=pe_activity,
    )


def trace_matmul(array: SystolicArray, activations: np.ndarray, weights: np.ndarray) -> SystolicTrace:
    """Run a pass on the cycle-level array and return its derived trace.

    The derived active-PE integral is asserted against the array's own
    ``active_pe_cycles`` counter for dense (no-zero) activations.
    """
    result = array.matmul(activations, weights)
    trace = trace_pass(array.rows, array.cols, np.asarray(activations).shape[0])
    dense = np.count_nonzero(activations) == np.asarray(activations).size
    if dense:
        derived = int(round(trace.utilization.sum() * array.rows * array.cols))
        if abs(derived - result.active_pe_cycles) > 0:
            raise AssertionError(
                "trace schedule diverged from the cycle-level simulation: "
                f"derived {derived} active PE-cycles, simulated "
                f"{result.active_pe_cycles}"
            )
    return trace


def utilization_ascii(trace: SystolicTrace, width: int = 60, height: int = 8) -> str:
    """Render the utilization envelope as an ASCII sparkline block."""
    if width <= 0 or height <= 0:
        raise ValueError("plot dimensions must be positive")
    samples = np.interp(
        np.linspace(0, trace.cycles - 1, num=min(width, trace.cycles)),
        np.arange(trace.cycles),
        trace.utilization,
    )
    lines = []
    for level in range(height, 0, -1):
        threshold = (level - 0.5) / height
        row = "".join("#" if value >= threshold else " " for value in samples)
        lines.append(f"{threshold:4.2f} |{row}")
    lines.append("     +" + "-" * len(samples))
    lines.append(f"      0 .. {trace.cycles - 1} cycles "
                 f"(mean {trace.mean_utilization:.2f}, "
                 f"steady {trace.steady_state_cycles} cy)")
    return "\n".join(lines)


def write_vcd(trace: SystolicTrace, module: str = "systolic") -> str:
    """Serialize the trace as a Value Change Dump (IEEE 1364) string.

    Signals: ``active_pes`` (integer count) and ``busy`` (1-bit, any PE
    active).  One VCD time unit = one array cycle.
    """
    if not module.isidentifier():
        raise ValueError(f"module name {module!r} is not a valid identifier")
    counts = np.round(trace.utilization * trace.rows * trace.cols).astype(np.int64)
    bits = max(1, int(counts.max()).bit_length())
    header = [
        "$date repro systolic trace $end",
        "$version repro.hw.trace $end",
        "$timescale 1ns $end",
        f"$scope module {module} $end",
        f"$var wire {bits} ! active_pes $end",
        "$var wire 1 @ busy $end",
        "$upscope $end",
        "$enddefinitions $end",
    ]
    body = []
    previous_count = None
    previous_busy = None
    for cycle, count in enumerate(counts):
        busy = 1 if count > 0 else 0
        changes = []
        if count != previous_count:
            changes.append(f"b{count:b} !")
        if busy != previous_busy:
            changes.append(f"{busy}@")
        if changes:
            body.append(f"#{cycle}")
            body.extend(changes)
        previous_count = count
        previous_busy = busy
    body.append(f"#{len(counts)}")
    body.append("0@")
    return "\n".join(header + body) + "\n"
