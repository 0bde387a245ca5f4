"""Ledger↔span reconciliation: the trace as a *checked* model.

The acceptance invariant of the observability layer: the span tree a
traced pod run emits must reproduce the pod ledger's elapsed
decomposition **exactly** -- max-over-chips body, launch floor,
collective rows, overlap credits -- with ``==`` on floats, never a
tolerance.  :func:`reconcile_pod_trace` recomputes every span position
from ``pod.commit_log`` + ``pod.collective_log`` via
:func:`~repro.hw.pod.wave_timeline` (the same walk the emitter and the
ledger use) and cross-checks the recorded trace events and the
``DeviceStats`` rows against it.

This module imports :mod:`repro.hw.pod` and is therefore **not**
re-exported from ``repro.obs`` (the hardware layer imports the tracer;
pulling pod back in at package import would close the cycle) -- import
it directly: ``from repro.obs.reconcile import assert_reconciles``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hw.pod import TpuPod, wave_timeline
from repro.obs.tracer import Tracer, tracer as _global_tracer

#: The negative ledger rows a pod commit may write, in commit order.
CREDIT_OPS = ("host_link_overlap", "pod_compute_overlap", "collective_overlap")

#: The positive collective rows, paired with their wave-stat fields.
COLLECTIVE_OPS = (
    ("pod_scatter", "scatter_seconds"),
    ("pod_broadcast", "broadcast_seconds"),
    ("pod_gather", "gather_seconds"),
)


@dataclass
class ReconciliationReport:
    """Outcome of one reconciliation pass."""

    num_commits: int = 0
    num_traced_commits: int = 0
    num_waves: int = 0
    checks: int = 0
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def check(self, condition: bool, message: str) -> None:
        self.checks += 1
        if not condition:
            self.failures.append(message)

    def __repr__(self) -> str:
        state = "ok" if self.ok else f"{len(self.failures)} failures"
        return (
            f"<ReconciliationReport {state}: {self.checks} checks over "
            f"{self.num_traced_commits}/{self.num_commits} traced commits, "
            f"{self.num_waves} waves>"
        )


def _span_key(event) -> tuple:
    return (event.name, event.args.get("wave"), event.args.get("chip"))


def reconcile_pod_trace(
    pod: TpuPod, trace: Tracer | None = None, stats=None
) -> ReconciliationReport:
    """Cross-check a pod's recorded trace against its ledger, exactly.

    Walks every traced commit in ``pod.commit_log``: recomputes the
    per-wave :class:`~repro.hw.pod.WaveWindow` positions with
    :func:`~repro.hw.pod.wave_timeline`, asserts the recomputed elapsed
    equals the committed one, and requires every pod-category event --
    wave bodies, scatter/launch/broadcast prologue spans, gathers,
    per-chip infeed/compute/outfeed bars, credit flow arrows -- to sit
    at exactly the recomputed position with exactly the ledger
    duration (a missing span must correspond to a zero quantity).
    Then rebuilds the pod ledger's collective and credit rows from the
    logs in commit order and compares them ``==`` against ``stats``
    (default ``pod.stats``; pass a harvested copy when the ledger has
    been taken).
    """
    trace = trace if trace is not None else _global_tracer
    stats = stats if stats is not None else pod.stats
    report = ReconciliationReport(num_commits=len(pod.commit_log))

    pid = trace._pids.get(id(pod))
    events_by_commit: dict[int, list] = {}
    for event in trace.events:
        if event.category != "pod" or (pid is not None and event.pid != pid):
            continue
        commit = event.args.get("commit")
        if commit is not None:
            events_by_commit.setdefault(commit, []).append(event)

    offset = 0
    for index, commit in enumerate(pod.commit_log):
        waves = pod.collective_log[offset:offset + commit.num_waves]
        offset += commit.num_waves
        if commit.trace_base is None:
            continue
        report.num_traced_commits += 1
        report.num_waves += len(waves)
        base = commit.trace_base
        windows, elapsed = wave_timeline(waves)
        report.check(
            elapsed == commit.elapsed,
            f"commit {index}: recomputed elapsed {elapsed!r} != "
            f"committed {commit.elapsed!r}",
        )
        events = events_by_commit.get(index, [])
        spans: dict[tuple, list] = {}
        instants: dict[tuple, list] = {}
        flows: dict[str, float] = {}
        for event in events:
            if event.ph == "X":
                spans.setdefault(_span_key(event), []).append(event)
            elif event.ph == "i":
                instants.setdefault(_span_key(event), []).append(event)
            elif event.ph == "s":
                flows[event.name] = event.args.get("seconds")

        def expect_span(name, wave, chip, ts, dur, label):
            key = (name, wave, chip)
            found = spans.get(key, [])
            if dur > 0.0:
                report.check(
                    len(found) == 1,
                    f"commit {index} {label}: expected one {name!r} span, "
                    f"found {len(found)}",
                )
                if len(found) == 1:
                    event = found[0]
                    report.check(
                        event.ts == ts,
                        f"commit {index} {label}: {name!r} ts {event.ts!r} "
                        f"!= {ts!r}",
                    )
                    report.check(
                        event.dur == dur,
                        f"commit {index} {label}: {name!r} dur {event.dur!r} "
                        f"!= {dur!r}",
                    )
            else:
                report.check(
                    not found,
                    f"commit {index} {label}: {name!r} span recorded for a "
                    f"zero quantity",
                )

        for ws, win in zip(waves, windows):
            label = f"wave {ws.wave_index}"
            stage = ws.stage
            gated = ws.gated_body_seconds is not None
            expect_span(
                "wave", ws.wave_index, None,
                base + win.body_start, stage.body, label,
            )
            cursor = base + win.prologue_start
            expect_span(
                "scatter", ws.wave_index, None, cursor, ws.scatter_seconds, label
            )
            cursor += ws.scatter_seconds if ws.scatter_seconds > 0.0 else 0.0
            expect_span(
                "launch_exposed", ws.wave_index, None,
                cursor, ws.launch_exposed_seconds, label,
            )
            cursor += (
                ws.launch_exposed_seconds
                if ws.launch_exposed_seconds > 0.0 else 0.0
            )
            if gated:
                expect_span(
                    "broadcast", ws.wave_index, None, cursor, 0.0, label
                )
                if ws.broadcast_seconds > 0.0:
                    found = instants.get(("broadcast", ws.wave_index, None), [])
                    report.check(
                        len(found) == 1
                        and found[0].args.get("seconds") == ws.broadcast_seconds,
                        f"commit {index} {label}: gated broadcast instant "
                        f"missing or wrong",
                    )
            else:
                expect_span(
                    "broadcast", ws.wave_index, None,
                    cursor, ws.broadcast_seconds, label,
                )
            expect_span(
                "gather", ws.wave_index, None,
                base + win.body_end, ws.gather_seconds, label,
            )
            if ws.dispatch_seconds > 0.0 or ws.launched_chips > 0:
                found = instants.get(("launch", ws.wave_index, None), [])
                good = (
                    len(found) == 1
                    and found[0].args.get("dispatch_seconds") == ws.dispatch_seconds
                    and found[0].args.get("launched_chips") == ws.launched_chips
                    and found[0].args.get("exposed") == ws.launch_exposed_seconds
                    and found[0].args.get("hidden") == ws.launch_hidden_seconds
                )
                report.check(
                    good,
                    f"commit {index} {label}: launch instant missing or its "
                    f"args disagree with the wave stats",
                )
            busy = ws.busy_seconds
            for chip, chip_busy in enumerate(busy):
                if ws.chip_seconds[chip] <= 0.0:
                    continue
                infeed = (
                    ws.infeed_seconds[chip]
                    if chip < len(ws.infeed_seconds) else 0.0
                )
                outfeed = (
                    ws.outfeed_seconds[chip]
                    if chip < len(ws.outfeed_seconds) else 0.0
                )
                compute = max(0.0, chip_busy - infeed - outfeed)
                bar_cursor = base + win.body_start
                for name, dur in (
                    ("infeed", infeed),
                    ("compute", compute),
                    ("outfeed", outfeed),
                ):
                    expect_span(
                        name, ws.wave_index, chip, bar_cursor, dur,
                        f"{label} chip {chip}",
                    )
                    bar_cursor += dur
        report.check(
            flows == {op: seconds for op, seconds in commit.credits},
            f"commit {index}: credit flow events {flows!r} != committed "
            f"credits {dict(commit.credits)!r}",
        )

    # ------------------------------------------------------------------
    # Ledger rows: rebuild every pod row from the logs, in commit order,
    # with the same accumulation the ledger used.
    # ------------------------------------------------------------------
    for op, attr in COLLECTIVE_OPS:
        expected = 0.0
        for ws in pod.collective_log:
            value = getattr(ws, attr)
            if value:
                expected += value
        report.check(
            stats.op_seconds.get(op, 0.0) == expected,
            f"ledger row {op!r}: {stats.op_seconds.get(op, 0.0)!r} != "
            f"rebuilt {expected!r}",
        )
    for op in CREDIT_OPS:
        expected = 0.0
        for commit in pod.commit_log:
            for name, seconds in commit.credits:
                if name == op:
                    expected -= seconds
        report.check(
            stats.op_seconds.get(op, 0.0) == expected,
            f"credit row {op!r}: {stats.op_seconds.get(op, 0.0)!r} != "
            f"rebuilt {expected!r}",
        )
    return report


def assert_reconciles(
    pod: TpuPod, trace: Tracer | None = None, stats=None
) -> ReconciliationReport:
    """:func:`reconcile_pod_trace`, raising ``AssertionError`` on failure."""
    report = reconcile_pod_trace(pod, trace=trace, stats=stats)
    if not report.ok:
        detail = "\n  ".join(report.failures[:20])
        raise AssertionError(
            f"trace does not reconcile with the pod ledger "
            f"({len(report.failures)} failures):\n  {detail}"
        )
    return report
