"""A pod of simulated chips behind the common device interface.

The fleet executor saturates one simulated chip; the paper's multi-core
argument ("parallel computation of multiple inputs", Section III-D, and
the cross-replica reassembly sums) extends one level up: a **pod** of K
chips wired by an :class:`~repro.hw.interconnect.Interconnect` shards a
wave's cross-pair stack across the chips and prices the data movement
between them on the modeled links.

**Sharded host links.**  Every member chip owns a :class:`HostLink` --
its private host attachment, priced by the chip's own
``transfer_seconds`` / launch latency.  Pair shards stream to each chip
concurrently from the host (there is no chip-0 fabric scatter on the
data path any more), and each chip outfeeds its own score rows, so a
wave's host-side cost is the *slowest link*, not the sum.  The link's
program launch is **asynchronously queued**: the host enqueues the
wave's SPMD launch on all links and the round trip completes while the
chips already stream and compute, so only the part of the launch
latency that outlasts the wave's busy time is exposed -- a wave can
never finish faster than one launch round trip, but K chips never pay
K round trips on the critical path.  Per wave::

    elapsed = max(launch_round_trip,
                  max_c(infeed_c + compute_c + outfeed_c) + trailing collectives)
            + leading collectives

:class:`TpuPod` is itself a :class:`~repro.hw.device.Device`, so every
consumer that holds a device -- :class:`~repro.core.pipeline
.ExplanationPipeline`, the online :class:`~repro.serve.loop
.ExplanationService` clock, ``take_stats`` harvesting -- works unchanged
with a pod in the socket.  The pod does not execute sharded work itself;
the fleet executor drives the member chips and then calls
:meth:`TpuPod.commit_run` with the per-wave accounting, and the pod
reconciles its ledger:

* every chip's op rows are merged in (**sum over chips = total work**,
  the audit view);
* each wave's collectives land as positive ``pod_scatter`` /
  ``pod_broadcast`` / ``pod_gather`` rows;
* three negative credit rows bring ``stats.seconds`` down to
  **elapsed** time: ``pod_compute_overlap`` (work hidden because chips
  run concurrently -- ``sum`` minus the wave's critical path),
  ``host_link_overlap`` (launch round trips hidden by the asynchronous
  per-chip host links) and ``collective_overlap`` (stage time hidden
  under the previous wave's compute, the
  :func:`~repro.hw.device.pipelined_elapsed_seconds` double-buffering
  model that :meth:`Device.pipeline` applies to infeed).

So ``pod.stats.seconds`` is pod elapsed time, per-chip ledgers stay
auditable in :attr:`TpuPod.chip_stats`, and
:attr:`TpuPod.collective_log` itemizes every wave's collective seconds
plus its per-chip host-link columns.

Single ops executed directly on the pod (outside the fleet path)
delegate their cost and numerics to the root chip -- a pod prices like
its root for unsharded work.
"""

from __future__ import annotations

import inspect
import numbers
from dataclasses import dataclass, field

from repro.hw.device import (
    Device,
    DeviceStats,
    PipelineStage,
    pipelined_elapsed_seconds,
)
from repro.hw.interconnect import Interconnect, InterconnectConfig
from repro.obs.tracer import tracer


def is_count(value) -> bool:
    """Whether ``value`` is an integer >= 1 that is not a ``bool``.

    The one rule of every count option -- chips, HBM bytes, pairs per
    wave, chunk rows, stack bytes, batch pairs: ``int()`` alone would
    turn 2.7 into 2, a comparison would let 2.5 through to fail at the
    first use, and ``True`` is an ``Integral`` that would run as 1.
    """
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= 1


def check_num_chips(num_chips) -> int:
    """``num_chips`` as an ``int``; ``ValueError`` unless :func:`is_count`.

    The one chip-count check of every pod constructor.
    """
    if not is_count(num_chips):
        raise ValueError(f"num_chips must be an integer >= 1, got {num_chips!r}")
    return int(num_chips)


def check_hbm_bytes(hbm_bytes) -> int | None:
    """``hbm_bytes`` as an ``int``; ``ValueError`` unless ``None`` or
    :func:`is_count`.  The one HBM-budget check, whose error names the
    value passed, not a truncated one."""
    if hbm_bytes is None:
        return None
    if not is_count(hbm_bytes):
        raise ValueError(
            f"hbm_bytes must be None or an integer >= 1, got {hbm_bytes!r}"
        )
    return int(hbm_bytes)


def clone_device(device: Device, hbm_bytes: int | None = None) -> Device:
    """A fresh device of the same configuration (for pod replication).

    Prefers an explicit ``clone()`` method (``TpuBackend`` provides one
    rebuilding a chip from its config); otherwise rebuilds from the
    device's ``config`` dataclass (``CpuDevice``, ``GpuDevice``,
    ``TpuCore``).  The clone starts with a clean ledger and shares no
    mutable state with the original.  ``hbm_bytes`` overrides the
    clone's modeled memory capacity -- the per-chip HBM knob of
    capacity-constrained pod placement; it requires a capacity-aware
    ``clone()`` (``TpuBackend`` has one).
    """
    clone = getattr(device, "clone", None)
    if callable(clone):
        if hbm_bytes is None:
            return clone()
        try:
            accepts = "hbm_bytes" in inspect.signature(clone).parameters
        except (TypeError, ValueError):
            accepts = False
        if not accepts:
            raise TypeError(
                f"{type(device).__name__}.clone() does not take hbm_bytes; "
                "cannot build a capacity-overridden pod from it"
            )
        return clone(hbm_bytes=hbm_bytes)
    if hbm_bytes is not None:
        raise TypeError(
            f"cannot override HBM capacity on {type(device).__name__}: it "
            "has no capacity-aware clone()"
        )
    config = getattr(device, "config", None)
    if config is None:
        raise TypeError(
            f"cannot replicate {type(device).__name__}: it has neither a "
            "clone() method nor a config to rebuild from; construct the "
            "pod's member devices explicitly"
        )
    return type(device)(config)


@dataclass(frozen=True)
class HostLink:
    """One chip's private host attachment in a sharded pod.

    The pod's Amdahl fix: instead of chip 0 serially feeding the whole
    fleet and scattering shards over the fabric, every chip streams its
    own shard through its own link, priced by the chip's existing
    ``transfer_seconds`` model.  Launches are queued asynchronously --
    :attr:`launch_latency_seconds` is a *floor* on wave completion, not
    a serial prefix (see :class:`PodWaveStats`).
    """

    device: Device

    def feed_seconds(self, nbytes: int) -> float:
        """Host-link seconds to stream ``nbytes`` to or from the chip."""
        if nbytes < 0:
            raise ValueError(f"cannot transfer a negative byte count ({nbytes})")
        if nbytes == 0:
            return 0.0
        return self.device.transfer_seconds(nbytes)

    @property
    def launch_latency_seconds(self) -> float:
        """The chip's program-launch round trip over this link."""
        return self.device.launch_latency_seconds


@dataclass(frozen=True)
class PodWaveStats:
    """Collective and host-link accounting of one wave on a pod.

    ``chip_seconds[c]`` is chip ``c``'s full ledger delta for this wave
    (zero for chips the placement left idle); ``infeed_seconds`` /
    ``outfeed_seconds`` are the per-chip :class:`HostLink` columns
    (each chip's own shard feed, concurrent across chips);
    ``dispatch_seconds`` the launch round trip each launching chip
    recorded (``launched_chips`` of them), hidden by the asynchronous
    host links up to the wave floor; the collective fields are
    interconnect-priced seconds (and payload bytes) of the *remaining
    true collectives* -- for the overlapped chunk placement, the
    streamed kernel-spectra broadcast.  ``gated_body_seconds``
    optionally overrides the wave's busy critical path with a
    placement-computed pipeline timeline (the chunk placement's
    solve-overlap model); ``solve_seconds`` is the root's kernel-solve
    span inside it, kept for the audit columns.
    """

    wave_index: int
    placement: str
    num_pairs: int
    num_rows: int
    active_chips: int
    chip_seconds: tuple[float, ...]
    scatter_seconds: float = 0.0
    scatter_bytes: int = 0
    broadcast_seconds: float = 0.0
    broadcast_bytes: int = 0
    gather_seconds: float = 0.0
    gather_bytes: int = 0
    dispatch_seconds: float = 0.0
    launched_chips: int = 0
    infeed_seconds: tuple[float, ...] = ()
    outfeed_seconds: tuple[float, ...] = ()
    solve_seconds: float = 0.0
    gated_body_seconds: float | None = None
    chip_index: int | None = None  # wave placement: the chip this wave ran on

    @property
    def collective_seconds(self) -> float:
        return self.scatter_seconds + self.broadcast_seconds + self.gather_seconds

    @property
    def busy_seconds(self) -> tuple[float, ...]:
        """Per-chip infeed + compute + outfeed: the ledger delta minus
        the launch round trip the asynchronous host link hides."""
        dispatch = self.dispatch_seconds
        return tuple(
            max(0.0, seconds - dispatch) if seconds > 0.0 else 0.0
            for seconds in self.chip_seconds
        )

    @property
    def body_seconds(self) -> float:
        """The wave's busy critical path: the slowest chip's infeed +
        compute + outfeed (or the placement's gated timeline)."""
        if self.gated_body_seconds is not None:
            return self.gated_body_seconds
        return max(self.busy_seconds, default=0.0)

    @property
    def launch_exposed_seconds(self) -> float:
        """Launch latency the wave cannot hide: a wave never completes
        faster than one launch round trip."""
        trailing = self.body_seconds + self.gather_seconds
        return max(0.0, self.dispatch_seconds - trailing)

    @property
    def launch_hidden_seconds(self) -> float:
        """Launch round trips the asynchronous host links absorbed."""
        recorded = self.dispatch_seconds * self.launched_chips
        return max(0.0, recorded - self.launch_exposed_seconds)

    @property
    def stage(self) -> PipelineStage:
        """The wave as a double-buffering pipeline stage.

        The prologue -- leading collectives plus the exposed launch
        residual -- is what a pipelined pod hides under the previous
        wave's compute (the next wave's launch is already queued on
        the host links); the gather is the epilogue riding opposite
        the next wave's infeed.  A broadcast counts as a leading
        collective only for plain waves: a placement-gated body
        (``gated_body_seconds``) already carries its broadcast waits
        inside the timeline.
        """
        prologue = self.scatter_seconds + self.launch_exposed_seconds
        if self.gated_body_seconds is None:
            prologue += self.broadcast_seconds
        return PipelineStage(
            prologue=prologue,
            body=self.body_seconds,
            epilogue=self.gather_seconds,
        )


@dataclass(frozen=True)
class WaveWindow:
    """One wave's absolute position inside a committed run's timeline.

    All values are simulated seconds from the run's local zero:
    ``prologue_start`` is where the wave's leading collectives begin,
    ``body_start``/``body_end`` bracket the busy critical path, and
    ``end`` adds the gather epilogue.
    """

    prologue_start: float
    body_start: float
    body_end: float
    end: float


def wave_timeline(wave_stats):
    """Per-wave :class:`WaveWindow` positions plus the run's elapsed.

    Walks the committed waves exactly the way :meth:`TpuPod.commit_run`
    prices them -- shared waves chain double-buffered, chip-pinned waves
    partition into concurrent per-chip chains starting after the shared
    segment -- and returns ``(windows, elapsed)`` with ``windows``
    aligned to the input order.  The ``elapsed`` float is
    **bit-identical** to the ledger's: the accumulation order matches
    :func:`~repro.hw.device.pipelined_elapsed_seconds` term for term,
    so span positions derived from the windows reconcile with the pod
    ledger by ``==``, not by tolerance.
    """
    wave_stats = list(wave_stats)
    shared = [ws for ws in wave_stats if ws.chip_index is None]
    pinned: dict[int, list[PodWaveStats]] = {}
    for ws in wave_stats:
        if ws.chip_index is not None:
            pinned.setdefault(ws.chip_index, []).append(ws)

    def chain_windows(waves, base: float) -> dict:
        # Mirror pipelined_elapsed_seconds' accumulator: stage i's body
        # begins at the accumulated elapsed (its prologue has streamed
        # under the previous stage's work).
        windows: dict[int, WaveWindow] = {}
        stages = [ws.stage for ws in waves]
        if not stages:
            return windows
        elapsed = stages[0].prologue
        for index, (ws, stage) in enumerate(zip(waves, stages)):
            last = index == len(stages) - 1
            body_start = base + elapsed
            body_end = body_start + stage.body
            windows[id(ws)] = WaveWindow(
                prologue_start=body_start - stage.prologue,
                body_start=body_start,
                body_end=body_end,
                end=body_end + stage.epilogue,
            )
            work = stage.body + (0.0 if last else stage.epilogue)
            next_prologue = 0.0 if last else stages[index + 1].prologue
            elapsed += max(work, next_prologue)
        return windows

    def chain_elapsed(waves) -> float:
        return pipelined_elapsed_seconds(ws.stage for ws in waves)

    shared_elapsed = chain_elapsed(shared) if shared else 0.0
    windows = chain_windows(shared, 0.0)
    elapsed = shared_elapsed
    if pinned:
        elapsed += max(chain_elapsed(waves) for waves in pinned.values())
        for waves in pinned.values():
            windows.update(chain_windows(waves, shared_elapsed))
    return [windows[id(ws)] for ws in wave_stats], elapsed


@dataclass(frozen=True)
class PodCommit:
    """One :meth:`TpuPod.commit_run` entry in the pod's commit log.

    ``trace_base`` is the absolute session timestamp of the run's local
    zero when the commit was traced (``None`` when tracing was off), so
    the reconciler can re-derive every span position from the logged
    waves and compare against the recorded trace exactly.
    """

    num_waves: int
    elapsed: float
    serial: float
    credits: tuple  # ((op, seconds) pairs actually credited)
    trace_base: float | None


#: tid scheme of pod-category spans: shared waves use lanes 0..2
#: (body / leading collectives / gather); waves pinned to chip ``c``
#: use ``3 * (1 + c)`` upward; per-chip busy bars sit at ``64 + c``.
_POD_CHIP_BAR_TID = 64


class TpuPod(Device):
    """K member chips plus a shared interconnect, presented as one device."""

    def __init__(
        self,
        devices,
        interconnect: Interconnect | InterconnectConfig | None = None,
        name: str | None = None,
        hbm_bytes=None,
    ) -> None:
        devices = list(devices)
        if not devices:
            raise ValueError("a pod needs at least one chip device")
        for device in devices:
            if not isinstance(device, Device):
                raise TypeError(
                    f"pod members must be Device instances, got {type(device).__name__}"
                )
            if isinstance(device, TpuPod):
                raise TypeError("pods do not nest")
        if isinstance(interconnect, InterconnectConfig):
            interconnect = Interconnect(interconnect)
        self.devices = devices
        self.interconnect = interconnect if interconnect is not None else Interconnect()
        if hbm_bytes is None or isinstance(hbm_bytes, (numbers.Number, str)):
            overrides = [check_hbm_bytes(hbm_bytes)] * len(devices)
        else:
            overrides = [check_hbm_bytes(value) for value in hbm_bytes]
            if len(overrides) != len(devices):
                raise ValueError(
                    f"{len(overrides)} hbm_bytes entries for {len(devices)} chips"
                )
        self._hbm_overrides = tuple(overrides)
        super().__init__(name=name or f"pod-{len(devices)}x[{devices[0].name}]")
        self.host_links = [HostLink(device) for device in devices]
        self.chip_stats: list[DeviceStats] = [DeviceStats() for _ in devices]
        self.collective_log: list[PodWaveStats] = []
        self.commit_log: list[PodCommit] = []

    @classmethod
    def like(
        cls,
        device: Device,
        num_chips: int,
        interconnect: Interconnect | InterconnectConfig | None = None,
        hbm_bytes: int | None = None,
    ) -> "TpuPod":
        """A pod of ``num_chips`` fresh clones of ``device``.

        Every member (including chip 0) is a clone, so the template
        device's ledger is never aliased by the pod -- callers keep
        reading their own device while the pod accounts separately.
        ``hbm_bytes`` overrides each clone's modeled HBM capacity (the
        capacity-constrained-placement knob).
        """
        if isinstance(device, TpuPod):
            raise TypeError("cannot build a pod from a pod; pass the chip device")
        num_chips = check_num_chips(num_chips)
        return cls(
            [clone_device(device, hbm_bytes=hbm_bytes) for _ in range(num_chips)],
            interconnect=interconnect,
        )

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    @property
    def num_chips(self) -> int:
        return len(self.devices)

    @property
    def root(self) -> Device:
        """Chip 0: solves shared kernels (chunk placement), reassembles."""
        return self.devices[0]

    @property
    def chip_hbm_bytes(self) -> tuple:
        """Per-chip modeled HBM capacity (``None`` = unmodeled)."""
        return tuple(
            override if override is not None else device.hbm_capacity_bytes
            for override, device in zip(self._hbm_overrides, self.devices)
        )

    @property
    def min_chip_hbm_bytes(self) -> int | None:
        """The tightest member capacity, or ``None`` when unmodeled.

        What :meth:`repro.core.fleet.FleetSchedule.plan` consults: a
        placement decision must fit the smallest chip it may land on.
        """
        known = [v for v in self.chip_hbm_bytes if v is not None]
        return min(known) if known else None

    @property
    def hbm_capacity_bytes(self) -> int | None:
        return self.min_chip_hbm_bytes

    @property
    def launch_latency_seconds(self) -> float:
        return self.root.launch_latency_seconds

    # ------------------------------------------------------------------
    # Stats plumbing: the pod ledger is the roll-up
    # ------------------------------------------------------------------
    def reset_stats(self) -> None:
        super().reset_stats()
        for device in self.devices:
            device.reset_stats()
        self.chip_stats = [DeviceStats() for _ in self.devices]
        self.collective_log.clear()
        self.commit_log.clear()

    def commit_run(self, wave_stats) -> float:
        """Fold one sharded fleet run into the pod ledger; returns elapsed.

        Harvests every chip's ledger delta (merging the rows into both
        the per-chip audit ledgers and the pod roll-up), records the
        waves' collective rows, and reconciles ``stats.seconds`` from
        *total work* down to *elapsed* with the three negative credits
        described in the module docstring.  Waves carrying a
        ``chip_index`` (the ``"wave"`` placement) run **concurrently
        across chips**: their stages group per chip, each chip's
        sequence pipelines, and elapsed is the slowest chip's sequence
        plus the remaining shared waves.
        """
        wave_stats = list(wave_stats)
        traced = tracer.enabled
        entry_trace = self.trace_seconds  # the run's local zero
        work = DeviceStats()
        for index, device in enumerate(self.devices):
            delta = device.take_stats()
            self.chip_stats[index].merge(delta)
            work.merge(delta)
        self.stats.merge(work)
        rows_total = 0.0
        launch_hidden = 0.0
        for ws in wave_stats:
            launch_hidden += ws.launch_hidden_seconds
            if ws.scatter_seconds:
                self.stats.record(
                    "pod_scatter", ws.scatter_seconds, bytes_moved=ws.scatter_bytes
                )
                rows_total += ws.scatter_seconds
            if ws.broadcast_seconds:
                self.stats.record(
                    "pod_broadcast", ws.broadcast_seconds, bytes_moved=ws.broadcast_bytes
                )
                rows_total += ws.broadcast_seconds
            if ws.gather_seconds:
                self.stats.record(
                    "pod_gather", ws.gather_seconds, bytes_moved=ws.gather_bytes
                )
                rows_total += ws.gather_seconds
        serial = sum(ws.stage.total for ws in wave_stats)
        windows, elapsed = wave_timeline(wave_stats)
        credits = []
        if launch_hidden > 0:
            self.stats.credit("host_link_overlap", launch_hidden)
            credits.append(("host_link_overlap", launch_hidden))
        # What remains after the hidden launches and the wave-stage
        # shape is cross-chip concurrency: total work plus collective
        # rows, minus the serial stage walk, minus the launches already
        # credited.
        compute_overlap = work.seconds + rows_total - serial - launch_hidden
        if compute_overlap > 0:
            self.stats.credit("pod_compute_overlap", compute_overlap)
            credits.append(("pod_compute_overlap", compute_overlap))
        savings = serial - elapsed
        if savings > 0:
            self.stats.credit("collective_overlap", savings)
            credits.append(("collective_overlap", savings))
        self.collective_log.extend(wave_stats)
        base = tracer.origin + entry_trace if traced else None
        self.commit_log.append(
            PodCommit(
                num_waves=len(wave_stats),
                elapsed=elapsed,
                serial=serial,
                credits=tuple(credits),
                trace_base=base,
            )
        )
        if traced and tracer.enabled:
            self._trace_commit(wave_stats, windows, elapsed, serial, base, credits)
            # Park the lane at the run's far edge: the next commit's
            # spans must not regress into this one even when the ledger
            # (post-credit) sits below the timeline extent.
            run_extent = max([elapsed] + [w.end for w in windows])
            self._trace_base = entry_trace + run_extent - self.stats.seconds
        return elapsed

    def _trace_commit(
        self, wave_stats, windows, elapsed, serial, base, credits
    ) -> None:
        """Emit one committed run's span tree onto the pod's trace lanes.

        Lane scheme (per :data:`_POD_CHIP_BAR_TID`): shared waves put
        their body on tid 0, leading collectives (scatter, exposed
        launch, broadcast) on tid 1 and the gather epilogue on tid 2;
        chip-pinned waves shift the same three roles to ``3 * (1 +
        chip)``.  Per-chip busy bars (infeed / compute / outfeed, the
        :func:`repro.obs.export.format_wave_timeline` decomposition)
        land on ``64 + chip``.  Overlap credits become flow arrows from
        the run's start to its end, carrying the credited seconds; the
        reconciler rebuilds the pod ledger from exactly these events.
        """
        commit_index = len(self.commit_log) - 1
        pid = tracer.pid_for(self)
        tracer.set_thread_name(pid, 0, "waves")
        tracer.set_thread_name(pid, 1, "collectives")
        tracer.set_thread_name(pid, 2, "gather")
        tracer.instant(
            "commit", "pod", base, pid, 0,
            {
                "commit": commit_index,
                "elapsed": elapsed,
                "serial": serial,
                "num_waves": len(wave_stats),
            },
        )
        for ws, win in zip(wave_stats, windows):
            stage = ws.stage
            gated = ws.gated_body_seconds is not None
            if ws.chip_index is None:
                lane = 0
            else:
                lane = 3 * (1 + ws.chip_index)
                tracer.set_thread_name(pid, lane, f"chip {ws.chip_index} waves")
                tracer.set_thread_name(pid, lane + 1, f"chip {ws.chip_index} collectives")
                tracer.set_thread_name(pid, lane + 2, f"chip {ws.chip_index} gather")
            tags = {"commit": commit_index, "wave": ws.wave_index}
            tracer.complete(
                "wave", "pod", base + win.body_start, stage.body, pid, lane,
                {
                    **tags,
                    "placement": ws.placement,
                    "pairs": ws.num_pairs,
                    "rows": ws.num_rows,
                    "active_chips": ws.active_chips,
                    "gated": gated,
                },
            )
            cursor = base + win.prologue_start
            if ws.scatter_seconds > 0.0:
                tracer.complete(
                    "scatter", "pod", cursor, ws.scatter_seconds, pid, lane + 1,
                    {**tags, "bytes": ws.scatter_bytes},
                )
                cursor += ws.scatter_seconds
            if ws.launch_exposed_seconds > 0.0:
                tracer.complete(
                    "launch_exposed", "pod", cursor, ws.launch_exposed_seconds,
                    pid, lane + 1, dict(tags),
                )
                cursor += ws.launch_exposed_seconds
            if ws.dispatch_seconds > 0.0 or ws.launched_chips > 0:
                tracer.instant(
                    "launch", "pod", base + win.prologue_start, pid, lane + 1,
                    {
                        **tags,
                        "dispatch_seconds": ws.dispatch_seconds,
                        "launched_chips": ws.launched_chips,
                        "exposed": ws.launch_exposed_seconds,
                        "hidden": ws.launch_hidden_seconds,
                    },
                )
            if ws.broadcast_seconds > 0.0:
                if gated:
                    # A gated body already carries its broadcast waits
                    # inside the timeline; annotate instead of spanning.
                    tracer.instant(
                        "broadcast", "pod", base + win.body_start, pid, lane + 1,
                        {**tags, "seconds": ws.broadcast_seconds,
                         "bytes": ws.broadcast_bytes},
                    )
                else:
                    tracer.complete(
                        "broadcast", "pod", cursor, ws.broadcast_seconds,
                        pid, lane + 1, {**tags, "bytes": ws.broadcast_bytes},
                    )
                    cursor += ws.broadcast_seconds
            if ws.gather_seconds > 0.0:
                tracer.complete(
                    "gather", "pod", base + win.body_end, ws.gather_seconds,
                    pid, lane + 2, {**tags, "bytes": ws.gather_bytes},
                )
            busy = ws.busy_seconds
            for chip, chip_busy in enumerate(busy):
                if ws.chip_seconds[chip] <= 0.0:
                    continue
                tid = _POD_CHIP_BAR_TID + chip
                tracer.set_thread_name(pid, tid, f"chip {chip}")
                infeed = (
                    ws.infeed_seconds[chip]
                    if chip < len(ws.infeed_seconds) else 0.0
                )
                outfeed = (
                    ws.outfeed_seconds[chip]
                    if chip < len(ws.outfeed_seconds) else 0.0
                )
                compute = max(0.0, chip_busy - infeed - outfeed)
                cursor = base + win.body_start
                for name, dur in (
                    ("infeed", infeed), ("compute", compute), ("outfeed", outfeed)
                ):
                    if dur > 0.0:
                        tracer.complete(
                            name, "pod", cursor, dur, pid, tid,
                            {**tags, "chip": chip},
                        )
                    cursor += dur
        for op, seconds in credits:
            tracer.flow(
                op, "pod",
                src=(base, pid, 1),
                dst=(base + elapsed, pid, 2),
                args={"commit": commit_index, "seconds": seconds},
            )

    # ------------------------------------------------------------------
    # Cost and numeric hooks: unsharded work prices like the root chip
    # ------------------------------------------------------------------
    def matmul_seconds(self, m: int, k: int, n: int) -> float:
        return self.root.matmul_seconds(m, k, n)

    def elementwise_seconds(self, elements: int, flops_per_element: float = 1.0) -> float:
        return self.root.elementwise_seconds(elements, flops_per_element)

    def transfer_seconds(self, nbytes: int) -> float:
        return self.root.transfer_seconds(nbytes)

    def fft2_seconds(self, m: int, n: int) -> float:
        return self.root.fft2_seconds(m, n)

    def batch_conv_seconds(self, batch: int, m: int, n: int, precision=None) -> float:
        return self.root.batch_conv_seconds(batch, m, n, precision=precision)

    def kernel_spectrum_batch_seconds(
        self, batch: int, m: int, n: int, precision=None
    ) -> float:
        return self.root.kernel_spectrum_batch_seconds(batch, m, n, precision=precision)

    def _matmul_compute(self, a, b):
        return self.root._matmul_compute(a, b)
