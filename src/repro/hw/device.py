"""The common device abstraction shared by the CPU, GPU and TPU backends.

The paper deploys *the same algorithm* (matmul-form Fourier transforms,
data decomposition, parallel computation) on three hardware
configurations and compares time.  We mirror that: a :class:`Device`
executes tensor operations *functionally* (numpy math, with
device-specific numeric effects such as int8 quantization) while
accumulating *simulated time* in a :class:`DeviceStats` ledger.

Simulated seconds come from each backend's cost model -- they are the
numbers the paper's tables report.  Wall-clock time of the simulation
itself is irrelevant and never mixed in.

Backends implement the ``_*_seconds`` cost hooks and may override the
``_*_compute`` numeric hooks; the base class provides the operation
bookkeeping, composite ops (FFT-form convolution, chunk-streamed
batched convolution) and cost-only variants used by large workload
sweeps where materializing results is pointless.

Two program-level scopes model launch structure: :meth:`Device.program`
brackets one dispatched program (infeed / compute / outfeed), and
:meth:`Device.pipeline` double-buffers a *sequence* of programs --
while program ``i`` computes, program ``i+1``'s dispatch and infeed
stream into the spare buffer, so elapsed time follows
:func:`pipelined_elapsed_seconds` (``infeed_0 + sum(max(compute_i +
outfeed_i, infeed_{i+1})) + outfeed_last``, intermediate outfeeds
riding with their program's compute) and the hidden host-link time is
credited back to the ledger as a negative ``infeed_overlap`` row.
"""

from __future__ import annotations

import abc
import contextlib
import functools
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.fft.convolution import (
    _validate_batch_kernel,
    fft_circular_convolve2d,
    fft_circular_convolve2d_chunks,
)
from repro.fft.fft2d import fft2, ifft2
from repro.hw.quantize import resolve_precision
from repro.obs.tracer import tracer

#: Real flops one complex point-wise op costs per element: a complex
#: multiply (or divide, to first order) is 4 real multiplies + 2 adds
#: on the critical multiplier path, priced as 4 flops; a complex add or
#: subtract is just 2 real adds.
_COMPLEX_HADAMARD_FLOPS = {"mul": 4.0, "div": 4.0, "add": 2.0, "sub": 2.0}


def shard_slices(total: int, shards: int) -> list[slice]:
    """Balanced contiguous shards: the paper's "at most max{M,N}/p" rule.

    The first ``total % shards`` shards take one extra element; shards
    beyond ``total`` come back empty (``slice(t, t)``) so callers can zip
    shards against cores uniformly.
    """
    if total <= 0:
        raise ValueError(f"cannot shard a non-positive extent ({total})")
    if shards <= 0:
        raise ValueError(f"shard count must be positive, got {shards}")
    base = total // shards
    remainder = total % shards
    slices = []
    start = 0
    for index in range(shards):
        length = base + (1 if index < remainder else 0)
        slices.append(slice(start, start + length))
        start += length
    return slices


@dataclass(frozen=True)
class PipelineStage:
    """One program's cost split, as a double-buffering pipeline sees it.

    ``prologue`` is the host-link preamble that a double-buffered
    pipeline can hide under the *previous* stage's compute (program
    dispatch + input infeed); ``body`` is the on-device work; and
    ``epilogue`` the result outfeed.
    """

    prologue: float
    body: float
    epilogue: float

    @property
    def total(self) -> float:
        return self.prologue + self.body + self.epilogue


def pipelined_elapsed_seconds(stages) -> float:
    """Elapsed time of stages run double-buffered instead of serially.

    While stage ``i`` computes, stage ``i+1``'s prologue (dispatch +
    infeed) streams into the spare buffer, so only the part of each
    prologue that outlasts the previous compute is exposed::

        elapsed = prologue_0
                + sum_i max(body_i [+ epilogue_i], prologue_{i+1})
                + epilogue_last

    Intermediate epilogues ride with their stage's body (the host link
    is full duplex: wave ``i``'s outfeed and wave ``i+1``'s infeed are
    opposite directions); the last epilogue has nothing left to overlap
    and is charged in full.  A single stage degenerates to its serial
    total, and the result is never above the serial sum -- overlap can
    only hide time, not add it.
    """
    stages = list(stages)
    if not stages:
        return 0.0
    elapsed = stages[0].prologue
    for index, stage in enumerate(stages):
        last = index == len(stages) - 1
        work = stage.body + (0.0 if last else stage.epilogue)
        next_prologue = 0.0 if last else stages[index + 1].prologue
        elapsed += max(work, next_prologue)
    return elapsed + stages[-1].epilogue


#: Template rows one ``np.add.accumulate`` of :meth:`DeviceStats.record_rows`
#: spans at most, so a replay's scratch memory stays a few hundred KB
#: however many times it repeats a template.
_REPLAY_BLOCK_ROWS = 4096

#: Replays of at most this many rows record them one at a time: there a
#: ``record`` call per row costs less than the accumulate's fixed cost
#: and the layout it derives on a template's first replay.
_REPLAY_LOOP_ROWS = 16


class LedgerTemplate:
    """Ledger rows that :meth:`DeviceStats.record_rows` replays as a unit.

    ``rows`` is a tuple of ``(op, seconds, macs, bytes_moved)`` rows in
    record order; construction raises ``ValueError`` on a negative row.
    """

    def __init__(self, rows) -> None:
        self.rows = tuple(rows)
        for op, seconds, _, _ in self.rows:
            if seconds < 0:
                raise ValueError(f"negative simulated time for {op!r}")

    @functools.cached_property
    def replay(self) -> tuple:
        """What every replay reads, derived on the first one.

        ``(ops, counts, seconds, macs, bytes_moved)``: the distinct ops
        in first-seen order; each op's row count; a read-only
        ``(1 + len(ops), len(rows))`` array whose first line holds every
        row's seconds and line ``1 + k`` op ``k``'s seconds (zeros
        elsewhere); and one pass's integer MAC and byte totals.  A
        template replayed only in runs of at most
        :data:`_REPLAY_LOOP_ROWS` rows never builds it.
        """
        ops = tuple(dict.fromkeys(op for op, *_ in self.rows))
        seconds = np.zeros((1 + len(ops), len(self.rows)))
        for column, (op, value, _, _) in enumerate(self.rows):
            seconds[0, column] = seconds[1 + ops.index(op), column] = value
        seconds.setflags(write=False)
        counts = Counter(op for op, *_ in self.rows)
        return (
            ops, tuple(counts[op] for op in ops), seconds,
            sum(row[2] for row in self.rows), sum(row[3] for row in self.rows),
        )


class _PipelineLedger:
    """Stages observed inside one :meth:`Device.pipeline` scope."""

    def __init__(self) -> None:
        self.stages: list[PipelineStage] = []

    def add_stage(self, prologue: float, body: float, epilogue: float) -> None:
        self.stages.append(PipelineStage(prologue, body, epilogue))

    def overlap_savings(self) -> float:
        serial = sum(stage.total for stage in self.stages)
        return serial - pipelined_elapsed_seconds(self.stages)


@dataclass
class DeviceStats:
    """Accumulated simulated-execution ledger for one device."""

    seconds: float = 0.0
    macs: int = 0
    bytes_moved: int = 0
    op_counts: Counter = field(default_factory=Counter)
    op_seconds: dict[str, float] = field(default_factory=dict)

    def record(self, op: str, seconds: float, macs: int = 0, bytes_moved: int = 0) -> None:
        if seconds < 0:
            raise ValueError(f"negative simulated time for {op!r}")
        self.seconds += seconds
        self.macs += macs
        self.bytes_moved += bytes_moved
        self.op_counts[op] += 1
        self.op_seconds[op] = self.op_seconds.get(op, 0.0) + seconds

    def record_rows(self, template: LedgerTemplate, times: int) -> None:
        """Apply a :class:`LedgerTemplate`'s rows ``times`` times, in order.

        The ledger ends exactly as ``times`` passes of one
        :meth:`record` call per row would leave it, and a replay of at
        most :data:`_REPLAY_LOOP_ROWS` rows is just that.  Past it,
        :attr:`seconds` and each op's :attr:`op_seconds` advance through
        ``np.add.accumulate`` over the running value and the repeated
        rows, in blocks of at most :data:`_REPLAY_BLOCK_ROWS` rows that
        each start from the last block's final column -- the same float
        additions in the same order, because accumulate adds strictly
        left to right (an op's rows sit among zeros, and adding 0.0
        leaves a value's bits alone) -- and counts, MACs and bytes
        advance as integers.
        """
        if times < 0:
            raise ValueError(f"cannot replay a template {times} times")
        if times * len(template.rows) <= _REPLAY_LOOP_ROWS:
            for _ in range(times):
                for row in template.rows:
                    self.record(*row)
            return
        ops, counts, seconds, macs, moved = template.replay
        lines, width = seconds.shape
        block = min(times, max(1, _REPLAY_BLOCK_ROWS // width))
        running = np.empty((lines, 1 + width * block))
        running[:, 1:].reshape(lines, block, width)[...] = seconds[:, np.newaxis]
        carry = [self.seconds, *(self.op_seconds.get(op, 0.0) for op in ops)]
        for done in range(0, times, block):
            running[:, 0] = carry
            end = 1 + width * min(block, times - done)
            carry = np.add.accumulate(running[:, :end], axis=1)[:, -1]
        final = carry.tolist()
        self.seconds = final[0]
        self.macs += macs * times
        self.bytes_moved += moved * times
        for op, count, value in zip(ops, counts, final[1:]):
            self.op_counts[op] += count * times
            self.op_seconds[op] = value

    def credit(self, op: str, seconds: float) -> None:
        """Subtract overlapped time from the ledger, leaving an audit row.

        The double-buffering credit of :meth:`Device.pipeline`: every
        individual op record stays untouched (op counts and per-op
        seconds audit exactly as serial execution), while ``op`` appears
        with *negative* accumulated seconds so the hidden time is
        visible rather than silently vanished.
        """
        if seconds < 0:
            raise ValueError(f"negative credit for {op!r}")
        self.seconds -= seconds
        self.op_counts[op] += 1
        self.op_seconds[op] = self.op_seconds.get(op, 0.0) - seconds

    def merge(self, other: "DeviceStats") -> None:
        self.seconds += other.seconds
        self.macs += other.macs
        self.bytes_moved += other.bytes_moved
        self.op_counts.update(other.op_counts)
        for op, sec in other.op_seconds.items():
            self.op_seconds[op] = self.op_seconds.get(op, 0.0) + sec

    def copy(self) -> "DeviceStats":
        fresh = DeviceStats()
        fresh.merge(self)
        return fresh


class Device(abc.ABC):
    """A hardware backend: functional execution + simulated timing.

    Numeric results flow back to the caller; simulated seconds accumulate
    in :attr:`stats` until :meth:`take_stats` harvests them.
    """

    #: Number of real multiplies one complex multiply costs on hardware
    #: without native complex support (4 = naive; 3 = Karatsuba-style).
    complex_matmul_real_products: int = 4

    def __init__(self, name: str) -> None:
        self.name = name
        self.stats = DeviceStats()
        self._program_depth = 0
        self._pipeline: _PipelineLedger | None = None
        self._templates: dict = {}  # ledger_template's memo
        #: Simulated seconds this device's trace lane has advanced past
        #: what :attr:`stats` currently holds -- harvested ledgers and
        #: overlap credits move the base forward so span positions stay
        #: monotone across ``take_stats`` / ``reset_stats`` / credits.
        self._trace_base = 0.0

    # ------------------------------------------------------------------
    # Stats plumbing
    # ------------------------------------------------------------------
    @property
    def trace_seconds(self) -> float:
        """This device's monotone trace-lane position (simulated s)."""
        return self._trace_base + self.stats.seconds

    def reset_stats(self) -> None:
        self._trace_base += self.stats.seconds
        self.stats = DeviceStats()

    def take_stats(self) -> DeviceStats:
        """Return the accumulated ledger and start a fresh one."""
        harvested = self.stats
        self._trace_base += harvested.seconds
        self.stats = DeviceStats()
        return harvested

    def ledger_template(self, key: tuple, rows) -> LedgerTemplate:
        """The ledger template ``key`` names on this device, built once.

        ``rows()`` gives its ``(op, seconds, macs, bytes_moved)`` rows
        from the cost hooks on the first call for ``key``; every later
        call returns that :class:`LedgerTemplate`, for
        :meth:`DeviceStats.record_rows` to replay.  A key names
        everything the rows depend on besides the device's
        configuration, which does not change after construction.
        """
        template = self._templates.get(key)
        if template is None:
            template = self._templates[key] = LedgerTemplate(rows())
        return template

    # ------------------------------------------------------------------
    # Cost hooks every backend must provide (simulated seconds)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def matmul_seconds(self, m: int, k: int, n: int) -> float:
        """Simulated time of one real ``m x k @ k x n`` product."""

    @abc.abstractmethod
    def elementwise_seconds(self, elements: int, flops_per_element: float = 1.0) -> float:
        """Simulated time of an elementwise kernel over ``elements`` values."""

    @abc.abstractmethod
    def transfer_seconds(self, nbytes: int) -> float:
        """Simulated time to move ``nbytes`` between host and device."""

    # ------------------------------------------------------------------
    # Capability introspection (pod placement consults these)
    # ------------------------------------------------------------------
    @property
    def launch_latency_seconds(self) -> float:
        """Host round-trip latency of one program launch.

        Zero for eager backends (their per-op overheads live in the op
        costs themselves); accelerator backends with an explicit
        dispatch round trip override this so the pod's asynchronous
        per-chip host links (:class:`~repro.hw.pod.HostLink`) know how
        much launch latency a wave can hide under compute.
        """
        return 0.0

    @property
    def hbm_capacity_bytes(self) -> int | None:
        """On-device memory capacity, or ``None`` when unmodeled.

        Pod placement (:meth:`repro.core.fleet.FleetSchedule.plan`)
        consults this so per-chip working sets are capacity-constrained
        rather than assumed to fit.
        """
        return None

    # ------------------------------------------------------------------
    # Numeric hooks (backends override to inject quantization etc.)
    # ------------------------------------------------------------------
    def _matmul_compute(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.asarray(a) @ np.asarray(b)

    # ------------------------------------------------------------------
    # Public operations
    # ------------------------------------------------------------------
    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Real or complex matrix product with simulated timing."""
        a = np.asarray(a)
        b = np.asarray(b)
        if a.ndim != 2 or b.ndim != 2:
            raise ValueError(f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
        if a.shape[1] != b.shape[0]:
            raise ValueError(f"inner dimensions disagree: {a.shape} @ {b.shape}")
        m, k = a.shape
        n = b.shape[1]
        if np.iscomplexobj(a) or np.iscomplexobj(b):
            factor = self.complex_matmul_real_products
            seconds = factor * self.matmul_seconds(m, k, n)
            result = self._complex_matmul_compute(a, b)
            self.stats.record("matmul_complex", seconds, macs=factor * m * k * n)
            return result
        seconds = self.matmul_seconds(m, k, n)
        result = self._matmul_compute(a, b)
        self.stats.record("matmul", seconds, macs=m * k * n)
        return result

    def _complex_matmul_compute(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=np.complex128)
        b = np.asarray(b, dtype=np.complex128)
        real = self._matmul_compute(a.real, b.real) - self._matmul_compute(a.imag, b.imag)
        imag = self._matmul_compute(a.real, b.imag) + self._matmul_compute(a.imag, b.real)
        return real + 1j * imag

    def hadamard(self, a: np.ndarray, b: np.ndarray, op: str = "mul") -> np.ndarray:
        """Point-wise combine: ``mul``, ``div``, ``add`` or ``sub``.

        ``div`` is the paper's Eq. 4 Hadamard division; callers wanting
        regularization add it to the denominator beforehand.
        """
        a = np.asarray(a)
        b = np.asarray(b)
        if a.shape != b.shape:
            raise ValueError(f"hadamard operands must match, got {a.shape} and {b.shape}")
        operations = {
            "mul": np.multiply,
            "div": np.divide,
            "add": np.add,
            "sub": np.subtract,
        }
        if op not in operations:
            raise ValueError(f"unknown hadamard op {op!r}; expected one of {sorted(operations)}")
        if np.iscomplexobj(a) or np.iscomplexobj(b):
            flops_per_element = _COMPLEX_HADAMARD_FLOPS[op]
        else:
            flops_per_element = 1.0
        seconds = self.elementwise_seconds(a.size, flops_per_element=flops_per_element)
        result = operations[op](a, b)
        self.stats.record(f"hadamard_{op}", seconds)
        return result

    def conjugate(self, a: np.ndarray) -> np.ndarray:
        """Complex conjugate (VPU sign-flip pass over the imaginary plane)."""
        a = np.asarray(a)
        seconds = self.elementwise_seconds(a.size, flops_per_element=0.5)
        result = np.conj(a)
        self.stats.record("conjugate", seconds)
        return result

    def scale(self, a: np.ndarray, factor: float) -> np.ndarray:
        """Multiply by a scalar (VPU elementwise pass)."""
        a = np.asarray(a)
        seconds = self.elementwise_seconds(a.size)
        result = a * factor
        self.stats.record("scale", seconds)
        return result

    def transpose(self, a: np.ndarray) -> np.ndarray:
        """Matrix transpose (memory shuffle, no arithmetic)."""
        a = np.asarray(a)
        if a.ndim != 2:
            raise ValueError(f"transpose expects a matrix, got shape {a.shape}")
        seconds = self.elementwise_seconds(a.size, flops_per_element=0.5)
        result = a.T.copy()
        self.stats.record("transpose", seconds)
        return result

    @contextlib.contextmanager
    def program(self, infeed_bytes: int = 0, outfeed_bytes: int = 0):
        """Scope one dispatched program: charges data movement around it.

        Template method: the entry/exit cost semantics live in the
        :meth:`_begin_program` / :meth:`_end_program` hooks (CPU/GPU
        price the host transfers bracketing a batch of eager ops;
        accelerator backends add their launch round trip, e.g. the
        TPU's dispatch latency), while the depth bookkeeping behind
        :attr:`in_program` stays here so every backend gets it right.

        Inside a :meth:`pipeline` scope, each *top-level* program also
        registers as one pipeline stage, its ledger deltas split into
        prologue (dispatch + infeed), body (ops inside the scope) and
        epilogue (outfeed) for the double-buffering credit.
        """
        is_stage = self._pipeline is not None and self._program_depth == 0
        traced = tracer.enabled
        before = self.stats.seconds
        self._begin_program(infeed_bytes)
        after_begin = self.stats.seconds
        self._program_depth += 1
        try:
            yield self
        finally:
            self._program_depth -= 1
        before_end = self.stats.seconds
        self._end_program(outfeed_bytes)
        if is_stage and self._pipeline is not None:
            self._pipeline.add_stage(
                prologue=after_begin - before,
                body=before_end - after_begin,
                epilogue=self.stats.seconds - before_end,
            )
        if traced and tracer.enabled:
            end = self.stats.seconds
            base = tracer.origin + self._trace_base
            pid = tracer.pid_for(self)
            tracer.complete(
                "program", "device", base + before, end - before, pid, 0,
                {
                    "infeed_bytes": int(infeed_bytes),
                    "outfeed_bytes": int(outfeed_bytes),
                    "prologue": after_begin - before,
                    "body": before_end - after_begin,
                    "epilogue": end - before_end,
                    "depth": self._program_depth,
                },
            )
            if after_begin > before:
                tracer.complete(
                    "infeed", "device", base + before, after_begin - before,
                    pid, 0, {"bytes": int(infeed_bytes)},
                )
            if end > before_end:
                tracer.complete(
                    "outfeed", "device", base + before_end, end - before_end,
                    pid, 0, {"bytes": int(outfeed_bytes)},
                )

    @contextlib.contextmanager
    def pipeline(self):
        """Scope a double-buffered sequence of program launches.

        While one program computes, the next program's dispatch and
        infeed stream into the spare buffer -- the wave-aware infeed
        pipelining of the fleet executor.  Every program opened inside
        this scope becomes one stage; on exit the overlap savings
        (serial sum minus :func:`pipelined_elapsed_seconds`) are
        credited back to the ledger as a negative ``infeed_overlap``
        row, so elapsed time drops while every individual op record --
        dispatch counts, compute seconds, transfer bytes -- stays
        exactly as serial execution would have written it.

        With zero or one stage the credit is zero and the ledger is
        untouched, so a pipelined single-wave run times identically to
        a serial one.  Scopes do not nest.
        """
        if self._pipeline is not None:
            raise RuntimeError("pipeline scopes do not nest")
        self._pipeline = _PipelineLedger()
        traced = tracer.enabled
        start = self.stats.seconds
        try:
            yield self
        finally:
            ledger = self._pipeline
            self._pipeline = None
            savings = ledger.overlap_savings()
            if traced and tracer.enabled:
                end = self.stats.seconds  # before the credit lands
                base = tracer.origin + self._trace_base
                pid = tracer.pid_for(self)
                tracer.complete(
                    "pipeline", "device", base + start, end - start, pid, 0,
                    {"stages": len(ledger.stages), "infeed_overlap": savings},
                )
                if savings > 0:
                    tracer.instant(
                        "infeed_overlap", "device", base + end, pid, 0,
                        {"seconds": savings},
                    )
            if savings > 0:
                self.stats.credit("infeed_overlap", savings)
                # Keep the trace lane monotone: the credit rewinds the
                # ledger, not the timeline -- spans already sit at their
                # true positions.
                self._trace_base += savings

    def _begin_program(self, infeed_bytes: int) -> None:
        """Cost of entering a program scope (override for launch semantics)."""
        if infeed_bytes:
            self.host_to_device(infeed_bytes)

    def _end_program(self, outfeed_bytes: int) -> None:
        """Cost of leaving a program scope (override for launch semantics)."""
        if outfeed_bytes:
            self.device_to_host(outfeed_bytes)

    @property
    def in_program(self) -> bool:
        """True while executing inside a :meth:`program` scope.

        Batched operations consult this to decide whether they are part
        of an already-dispatched program (no extra launch cost) or a
        standalone launch of their own.
        """
        return self._program_depth > 0

    def host_to_device(self, nbytes: int) -> None:
        """Account an input DMA transfer."""
        seconds = self.transfer_seconds(nbytes)
        self.stats.record("host_to_device", seconds, bytes_moved=nbytes)

    def device_to_host(self, nbytes: int) -> None:
        """Account an output DMA transfer."""
        seconds = self.transfer_seconds(nbytes)
        self.stats.record("device_to_host", seconds, bytes_moved=nbytes)

    # ------------------------------------------------------------------
    # Fourier operations (matmul form -- the paper's Eq. 13 dataflow)
    # ------------------------------------------------------------------
    def fft2_seconds(self, m: int, n: int) -> float:
        """Simulated time of one 2-D DFT in matmul form.

        ``(W_M . x) . W_N`` = two complex products.  Backends with a
        cheaper native FFT (CPU/GPU running library FFTs) override this.
        """
        factor = self.complex_matmul_real_products
        return factor * (self.matmul_seconds(m, m, n) + self.matmul_seconds(m, n, n))

    def fft2(self, x: np.ndarray) -> np.ndarray:
        """2-D DFT with simulated matmul-form timing.

        The functional result uses the fast row-column kernels (bit-exact
        enough for all downstream math); the *cost* is the matmul form
        actually lowered onto this device.
        """
        x = np.asarray(x)
        if x.ndim != 2:
            raise ValueError(f"fft2 expects a matrix, got shape {x.shape}")
        m, n = x.shape
        seconds = self.fft2_seconds(m, n)
        result = fft2(x)
        factor = self.complex_matmul_real_products
        self.stats.record("fft2", seconds, macs=factor * (m * m * n + m * n * n))
        return result

    def _record_fft2_op(self, m: int, n: int, name: str = "fft2") -> None:
        """Ledger row for one 2-D transform the simulated device executes.

        Same seconds/macs as :meth:`fft2`/:meth:`ifft2` would record --
        used when the functional result comes from the shared host hot
        path instead of composing the device ops directly.
        """
        self.stats.record(*self._transform_row(name, m, n))

    def _transform_row(self, op: str, m: int, n: int) -> tuple:
        """The ``(op, seconds, macs, bytes_moved)`` row of one 2-D transform."""
        factor = self.complex_matmul_real_products
        return op, self.fft2_seconds(m, n), factor * (m * m * n + m * n * n), 0

    def ifft2(self, x: np.ndarray) -> np.ndarray:
        """Inverse 2-D DFT; same cost structure as :meth:`fft2`."""
        x = np.asarray(x)
        if x.ndim != 2:
            raise ValueError(f"ifft2 expects a matrix, got shape {x.shape}")
        m, n = x.shape
        seconds = self.fft2_seconds(m, n)
        result = ifft2(x)
        factor = self.complex_matmul_real_products
        self.stats.record("ifft2", seconds, macs=factor * (m * m * n + m * n * n))
        return result

    def conv2d_circular(self, x: np.ndarray, k: np.ndarray, precision=None) -> np.ndarray:
        """Circular convolution via the convolution theorem (Eq. 3).

        Composite of fft2(x), fft2(k), a Hadamard product and one
        inverse transform -- each op individually accounted.

        ``precision`` (a name or :class:`~repro.hw.quantize
        .PrecisionSpec`) rounds the input plane spatially and the kernel
        spectrum per component before the Hadamard product -- the
        quantized MXU datapath, numerically identical to the batched
        precision axis plane for plane.  The op ledger is unchanged
        (rounding is infeed-side staging, not an accounted kernel);
        ``None`` preserves exact execution.

        The functional result is delegated to the host hot path
        (:func:`repro.fft.convolution.fft_circular_convolve2d`: real
        half-spectrum transforms and the process-level kernel-spectrum
        cache), which is value-identical to composing the individual
        device ops; the *simulated* ledger still records the full
        fft2(k), fft2(x), Hadamard, ifft2 chain this device would
        execute -- host-side shortcuts never change simulated cost.
        """
        x = np.asarray(x)
        k = np.asarray(k)
        if x.shape != k.shape:
            raise ValueError(f"operands must share a shape, got {x.shape} and {k.shape}")
        if x.ndim != 2:
            raise ValueError(f"fft2 expects a matrix, got shape {x.shape}")
        spec = resolve_precision(precision)
        result = fft_circular_convolve2d(x, k, precision=spec)
        m, n = x.shape
        self._record_fft2_op(m, n)
        self._record_fft2_op(m, n)
        self.stats.record(
            "hadamard_mul", self.elementwise_seconds(m * n, flops_per_element=4.0)
        )
        self._record_fft2_op(m, n, name="ifft2")
        return result

    # ------------------------------------------------------------------
    # Batched convolution (the occlusion engine's device hot path)
    # ------------------------------------------------------------------
    def batch_conv_seconds(self, batch: int, m: int, n: int, precision=None) -> float:
        """Simulated time of ``batch`` circular convolutions that share
        one already-transformed ``m x n`` kernel spectrum.

        Eager default (CPU/GPU semantics): every plane in the batch
        still launches its own forward transform, Hadamard product and
        inverse transform, each paying the backend's per-op overhead --
        the CPU's ``op_overhead_sec`` framework dispatch or the GPU's
        ``kernel_launch_sec`` per CUDA kernel, inside the inherited
        per-op rooflines (and library-FFT pricing when configured).
        Only the kernel spectrum is amortized (its single ``fft2`` is
        priced separately by :meth:`conv2d_circular_batch_chunks`); data is
        assumed resident, staged by the caller's :meth:`program` scope.
        Accelerator backends override this to price one fused batched
        program instead.

        ``precision`` is accepted for interface symmetry and ignored
        here: eager backends *emulate* quantized arithmetic in float
        math, so a quantized batch costs what the exact batch costs --
        the paper's structural point that only the MXU turns reduced
        precision into speed (see
        :meth:`repro.core.backend.TpuBackend.batch_conv_seconds`).
        """
        if batch <= 0:
            raise ValueError(f"batch must be positive, got {batch}")
        per_plane = 2.0 * self.fft2_seconds(m, n) + self.elementwise_seconds(
            m * n, flops_per_element=4.0
        )
        return batch * per_plane

    def conv2d_circular_batch_chunks(
        self,
        chunks,
        kernel: np.ndarray,
        num_rows: int,
        row_kernel: np.ndarray | None = None,
        precision=None,
    ):
        """Circular convolution of a streamed stack against shared kernels.

        ``chunks`` yields ``(chunk, row_range)`` slices of a conceptual
        ``(num_rows, M, N)`` stack that is never materialized -- the
        lazy-mask-plan execution of scoring and fleet waves; convolved
        chunks are yielded back in order, so peak memory is one chunk
        regardless of ``num_rows``.

        ``kernel`` is one ``(M, N)`` plane shared by every row (a single
        pair's mask plan) or a ``(P, M, N)`` stack with ``row_kernel``
        mapping each row to its kernel plane (a cross-pair wave: many
        pairs' mask plans fused into one batch, each keeping its own
        distilled kernel).  Kernel spectra are computed (and recorded)
        exactly **once** per call -- the batched engine's structural
        saving over looping :meth:`conv2d_circular`, which re-transforms
        the same kernel on every mask; a kernel stack is recorded as one
        spectrum batch (:meth:`_record_kernel_spectra`).  One
        batched-convolution record for all ``num_rows`` planes is
        committed when the stream is created, delegated to
        :meth:`_record_batch_conv` so eager and compiled backends can
        model their dispatch semantics -- like a dispatched program, the
        cost stands even if the consumer abandons the stream early.
        Each output plane is bit-identical to :meth:`conv2d_circular` on
        the corresponding (input, kernel) planes.

        ``precision`` (a name or :class:`~repro.hw.quantize
        .PrecisionSpec`) quantizes every chunk spatially per plane and
        the kernel spectra per plane/component (see
        :func:`repro.fft.convolution.fft_circular_convolve2d_chunks`);
        the per-plane rounding keeps results bit-identical to quantized
        :meth:`conv2d_circular` calls at every chunk size, and the cost
        hooks receive the spec so compiled backends can price the
        quantized transforms.
        """
        kernel = np.asarray(kernel)
        spec = resolve_precision(precision)
        if kernel.ndim not in (2, 3):
            raise ValueError(
                f"conv2d_circular_batch_chunks expects a (M, N) or (P, M, N) "
                f"kernel, got shape {kernel.shape}"
            )
        num_rows = int(num_rows)
        if num_rows <= 0:
            raise ValueError(f"num_rows must be positive, got {num_rows}")
        kernel, _, row_kernel = _validate_batch_kernel(
            kernel, row_kernel, None, num_rows, "conv2d_circular_batch_chunks"
        )
        m, n = kernel.shape[-2], kernel.shape[-1]
        if kernel.ndim == 3:
            self._record_kernel_spectra(kernel.shape[0], m, n, spec=spec)
        else:
            self._record_fft2_op(m, n)  # once per stream, as "fft2"
        # The cost of the full batch is committed now, like a dispatched
        # program: the simulated device performs all num_rows
        # convolutions whether or not the host finishes reading the
        # stream, so an aborted consumer cannot leave a ledger holding
        # kernel spectra but no convolution work.
        self._record_batch_conv(num_rows, m, n, spec=spec)
        return fft_circular_convolve2d_chunks(
            chunks,
            kernel,
            row_kernel=row_kernel,
            num_rows=num_rows,
            precision=spec,
        )

    def kernel_spectrum_batch_seconds(
        self, batch: int, m: int, n: int, precision=None
    ) -> float:
        """Simulated time to transform a ``(batch, M, N)`` kernel stack.

        Eager default (CPU/GPU semantics): each kernel launches its own
        forward transform; ``precision`` is ignored here just as in
        :meth:`batch_conv_seconds` (eager float emulation).  Accelerator
        backends override this to price one fused wide transform for the
        whole stack at the requested precision.
        """
        if batch <= 0:
            raise ValueError(f"batch must be positive, got {batch}")
        return batch * self.fft2_seconds(m, n)

    def _record_kernel_spectra(self, batch: int, m: int, n: int, spec=None) -> None:
        """Eager ledger for a kernel-spectrum batch (CPU/GPU semantics).

        One ``fft2`` record per kernel: eager backends transform each
        pair's kernel as its own launch, mirroring the per-plane records
        of :meth:`_record_batch_conv`.  The recorded seconds sum exactly
        to :meth:`kernel_spectrum_batch_seconds` (``spec`` is ignored
        here, matching that hook's eager semantics).
        """
        template = self.ledger_template(
            ("fft2_kernel", m, n), lambda: (self._transform_row("fft2_kernel", m, n),)
        )
        self.stats.record_rows(template, batch)

    def _record_batch_conv(self, batch: int, m: int, n: int, spec=None) -> None:
        """Eager ledger for one batched convolution (CPU/GPU semantics).

        One record per per-plane operation: the batch executes as
        ``batch`` independent op chains, so op counts and per-op
        overheads are preserved -- only the kernel transform was
        amortized by the caller.  The recorded seconds sum exactly to
        :meth:`batch_conv_seconds` (``spec`` ignored, eager semantics).
        """
        template = self.ledger_template(
            ("batch_conv", m, n),
            lambda: (
                self._transform_row("fft2_batch", m, n),
                ("hadamard_mul_batch",
                 self.elementwise_seconds(m * n, flops_per_element=4.0), 0, 0),
                self._transform_row("ifft2_batch", m, n),
            ),
        )
        self.stats.record_rows(template, batch)

    # ------------------------------------------------------------------
    # Cost-only accounting (large workloads, e.g. Table I training time)
    # ------------------------------------------------------------------
    def account_matmul(self, m: int, k: int, n: int, count: int = 1, complex_ops: bool = False) -> float:
        """Record the cost of ``count`` matmuls without executing them."""
        factor = self.complex_matmul_real_products if complex_ops else 1
        seconds = count * factor * self.matmul_seconds(m, k, n)
        self.stats.record("matmul_accounted", seconds, macs=count * factor * m * k * n)
        return seconds

    def account_elementwise(self, elements: int, flops_per_element: float = 1.0, count: int = 1) -> float:
        """Record the cost of ``count`` elementwise kernels without executing."""
        seconds = count * self.elementwise_seconds(elements, flops_per_element)
        self.stats.record("elementwise_accounted", seconds)
        return seconds

    def account_transfer(self, nbytes: int, count: int = 1) -> float:
        """Record the cost of ``count`` host transfers without executing."""
        seconds = count * self.transfer_seconds(nbytes)
        self.stats.record("transfer_accounted", seconds, bytes_moved=count * nbytes)
        return seconds

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"
