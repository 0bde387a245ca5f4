"""Export contracts: Chrome trace-event schema, lanes, ASCII renderers.

The schema assertions run against a *real* traced pod-fleet run, not a
hand-built buffer: required keys per phase, microsecond timestamps
monotone per lane, properly nested complete spans on the device
program lane, paired flow ids, and labeled metadata.
"""

import json

import numpy as np
import pytest

from repro.core import FleetExecutor, TpuBackend, make_tpu_chip
from repro.hw.pod import PodWaveStats
from repro.obs.export import (
    US_PER_SECOND,
    chrome_trace_events,
    format_trace_ascii,
    format_wave_timeline,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.tracer import tracer

PLANE = (16, 16)
BLOCK = (4, 4)


def fleet_pairs(count=12, seed=0):
    rng = np.random.default_rng(seed)
    return [
        (rng.standard_normal(PLANE), rng.standard_normal(PLANE))
        for _ in range(count)
    ]


def traced_fleet(num_chips=2, placement="data"):
    executor = FleetExecutor(
        TpuBackend(make_tpu_chip(num_cores=8)),
        granularity="blocks", block_shape=BLOCK,
        num_chips=num_chips, placement=placement,
        max_pairs_per_wave=4,
    )
    tracer.enable()
    executor.run(fleet_pairs())
    tracer.disable()
    return executor


class TestChromeSchema:
    def test_document_shape_and_validator(self):
        traced_fleet()
        document = to_chrome_trace(tracer)
        assert document["displayTimeUnit"] == "ms"
        assert validate_chrome_trace(document) == []
        assert json.loads(json.dumps(document)) == document

    def test_required_keys_per_phase(self):
        traced_fleet()
        for event in chrome_trace_events(tracer):
            for key in ("ph", "name", "pid", "tid"):
                assert key in event
            if event["ph"] == "M":
                assert "name" in event["args"] or "sort_index" in event["args"]
                continue
            assert isinstance(event["ts"], float)
            if event["ph"] == "X":
                assert event["dur"] >= 0.0
            elif event["ph"] == "i":
                assert event["s"] == "t"
            elif event["ph"] in ("s", "f"):
                assert event["id"] is not None
                if event["ph"] == "f":
                    assert event["bp"] == "e"

    def test_timestamps_are_microseconds(self):
        tracer.enable()
        tracer.complete("a", "c", 0.25, 0.5)
        (record,) = (
            e for e in chrome_trace_events(tracer) if e["ph"] == "X"
        )
        assert record["ts"] == 0.25 * US_PER_SECOND
        assert record["dur"] == 0.5 * US_PER_SECOND

    def test_metadata_labels_every_process(self):
        traced_fleet()
        events = chrome_trace_events(tracer)
        named = {
            e["pid"]
            for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        used = {e["pid"] for e in events if e["ph"] != "M"}
        assert used <= named

    def test_flow_ids_pair_in_export(self):
        tracer.enable()
        tracer.flow("q", "serve", (0.0, 0, 0), (1.0, 0, 1))
        events = [e for e in chrome_trace_events(tracer) if e["ph"] in "sf"]
        assert [e["ph"] for e in events] == ["s", "f"]
        assert events[0]["id"] == events[1]["id"]
        assert validate_chrome_trace(to_chrome_trace(tracer)) == []

    def test_write_chrome_trace_round_trips(self, tmp_path):
        traced_fleet()
        path = tmp_path / "run.trace.json"
        written = write_chrome_trace(path, tracer)
        loaded = json.loads(path.read_text())
        assert loaded == written
        assert validate_chrome_trace(loaded) == []


class TestValidatorCatchesProblems:
    def test_rejects_non_document(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({"events": []}) != []

    def test_flags_missing_keys_and_bad_phases(self):
        doc = {"traceEvents": [
            {"ph": "X", "name": "a", "pid": 0, "tid": 0, "ts": 0.0, "dur": -1},
            {"ph": "?", "name": "b", "pid": 0, "tid": 0, "ts": 0.0},
            {"name": "c", "pid": 0, "tid": 0},
        ]}
        problems = validate_chrome_trace(doc)
        assert any("bad dur" in p for p in problems)
        assert any("unknown phase" in p for p in problems)
        assert any("missing 'ph'" in p for p in problems)

    def test_flags_unpaired_flows(self):
        doc = {"traceEvents": [
            {"ph": "s", "name": "q", "pid": 0, "tid": 0, "ts": 0.0, "id": 9},
        ]}
        assert any("flow 9" in p for p in validate_chrome_trace(doc))

    def test_flags_an_event_buffer_that_is_not_a_list(self):
        assert validate_chrome_trace({"traceEvents": {}}) == [
            "'traceEvents' must be a list"
        ]

    def test_flags_events_that_are_not_dicts(self):
        assert validate_chrome_trace({"traceEvents": [1, "x"]}) == [
            "event 0: not a dict",
            "event 1: not a dict",
        ]

    def test_flags_metadata_without_a_payload(self):
        doc = {"traceEvents": [
            {"ph": "M", "name": "process_name", "pid": 1, "tid": 0, "args": {}},
            {"ph": "M", "name": "process_sort_index", "pid": 1, "tid": 0,
             "args": {"sort_index": 1}},
        ]}
        assert validate_chrome_trace(doc) == [
            "event 0: metadata event without a payload"
        ]

    def test_flags_flow_events_without_an_id(self):
        doc = {"traceEvents": [
            {"ph": "f", "name": "credit", "pid": 0, "tid": 0, "ts": 1.0},
        ]}
        assert validate_chrome_trace(doc) == ["event 0: flow event without an id"]

    def test_flags_finishes_without_a_start(self):
        doc = {"traceEvents": [
            {"ph": "f", "name": "credit", "pid": 0, "tid": 0, "ts": 1.0, "id": 4},
        ]}
        assert validate_chrome_trace(doc) == ["flow 4: 1 finishes without a start"]


class TestLaneStructure:
    def test_timestamps_monotone_per_device_program_lane(self):
        """Device tid-0 lanes replay in order: program starts never
        step backwards on any chip's program lane."""
        executor = traced_fleet(num_chips=4)
        chip_pids = {
            tracer._pids[id(device)] for device in executor.pod.devices
        }
        for pid in chip_pids:
            starts = [
                e.ts for e in tracer.events
                if e.pid == pid and e.tid == 0 and e.ph == "X"
                and e.name == "program"
            ]
            assert starts == sorted(starts)

    def test_program_spans_nest_their_feed_children(self):
        """On each device program lane, infeed/outfeed child spans sit
        inside their program parent (proper X nesting)."""
        executor = traced_fleet(num_chips=2)
        chip_pids = {
            tracer._pids[id(device)] for device in executor.pod.devices
        }
        checked = 0
        for pid in chip_pids:
            lane = [
                e for e in tracer.events
                if e.pid == pid and e.tid == 0 and e.ph == "X"
            ]
            programs = [e for e in lane if e.name == "program"]
            for child in lane:
                if child.name == "program":
                    continue
                parents = [
                    p for p in programs
                    if p.ts <= child.ts and child.end <= p.end
                ]
                assert parents, f"{child.name} span outside any program"
                checked += 1
        assert checked > 0


class TestAsciiRenderers:
    def test_format_trace_ascii_covers_every_lane(self):
        traced_fleet()
        art = format_trace_ascii(tracer)
        assert "#" in art
        assert "pod" in art  # the pod process label
        assert "ms" in art

    def test_format_trace_ascii_empty(self):
        assert format_trace_ascii(tracer) == "(no spans recorded)"

    def test_format_trace_ascii_rejects_bad_width(self):
        with pytest.raises(ValueError):
            format_trace_ascii(tracer, width=0)

    def test_format_wave_timeline_bars_and_footer(self):
        executor = traced_fleet(num_chips=2)
        art = format_wave_timeline(executor.pod.collective_log)
        assert "wave " in art
        assert "chip" in art
        assert "#" in art
        assert "launch" in art
        assert art.splitlines()[-1].startswith("(")

    def test_format_wave_timeline_empty(self):
        assert format_wave_timeline([]) == "(no waves logged)"

    def test_format_wave_timeline_rejects_bad_width(self):
        with pytest.raises(ValueError, match="plot width must be positive"):
            format_wave_timeline([], width=0)

    def test_format_wave_timeline_names_every_collective_and_skips_idle_chips(self):
        wave = PodWaveStats(
            wave_index=0, placement="data", num_pairs=2, num_rows=8,
            active_chips=1, chip_seconds=(2e-3, 0.0),
            scatter_seconds=1e-4, broadcast_seconds=2e-4, gather_seconds=3e-4,
            infeed_seconds=(5e-4, 0.0), outfeed_seconds=(5e-4, 0.0),
        )
        lines = format_wave_timeline([wave], width=8).splitlines()
        assert [line.split("|")[0].strip() for line in lines if "|" in line] == [
            "chip  0"
        ]
        assert "|==####--| in   0.500 comp   1.000 out   0.500 ms" in lines[1]
        assert lines[2] == "  scatter 0.100 ms  broadcast 0.200 ms  gather 0.300 ms"
        assert lines[-1].startswith("(1 waves;")
