"""Contracts of the span tracer itself: recording, gating, identity."""

import pytest

from repro.obs.tracer import PHASES, TraceEvent, Tracer, tracer


class TestGating:
    def test_disabled_by_default_and_records_nothing(self):
        assert tracer.enabled is False
        assert tracer.complete("a", "c", 0.0, 1.0) is None
        assert tracer.instant("b", "c", 0.0) is None
        assert tracer.flow("f", "c", (0.0, 0, 0), (1.0, 0, 1)) is None
        assert len(tracer) == 0

    def test_enable_disable_round_trip(self):
        tracer.enable()
        assert tracer.complete("a", "c", 0.0, 1.0) is not None
        tracer.disable()
        assert tracer.complete("b", "c", 0.0, 1.0) is None
        assert [e.name for e in tracer.events] == ["a"]

    def test_tracing_context_restores_prior_state(self):
        with tracer.tracing():
            assert tracer.enabled
            tracer.complete("inside", "c", 0.0, 1.0)
        assert not tracer.enabled
        tracer.enable()
        with tracer.tracing():
            pass
        assert tracer.enabled

    def test_clear_drops_events_but_keeps_enablement(self):
        tracer.enable()
        tracer.complete("a", "c", 0.0, 1.0)
        tracer.set_process_name(3, "chip")
        tracer.origin = 5.0
        tracer.clear()
        assert tracer.enabled
        assert len(tracer) == 0
        assert tracer.process_names == {}
        assert tracer.origin == 0.0


class TestRecording:
    def test_complete_span_fields(self):
        tracer.enable()
        event = tracer.complete(
            "prog", "device", 1.5, 0.25, pid=2, tid=1, args={"depth": 3}
        )
        assert event == tracer.events[-1]
        assert event.ph == "X"
        assert (event.ts, event.dur, event.end) == (1.5, 0.25, 1.75)
        assert (event.pid, event.tid) == (2, 1)
        assert event.args == {"depth": 3}
        assert event.ph in PHASES

    def test_complete_rejects_negative_or_nonfinite_duration(self):
        tracer.enable()
        with pytest.raises(ValueError):
            tracer.complete("bad", "c", 0.0, -1.0)
        with pytest.raises(ValueError):
            tracer.complete("bad", "c", 0.0, float("nan"))

    def test_instant_has_zero_duration(self):
        tracer.enable()
        event = tracer.instant("mark", "serve", 2.0, pid=0, tid=1)
        assert event.ph == "i" and event.dur == 0.0 and event.end == 2.0

    def test_flow_emits_paired_events_with_fresh_ids(self):
        tracer.enable()
        first = tracer.flow("q", "serve", (0.0, 0, 0), (1.0, 0, 1), {"w": 1.0})
        second = tracer.flow("q", "serve", (2.0, 0, 0), (3.0, 0, 1))
        assert first != second
        s, f = tracer.events[0], tracer.events[1]
        assert (s.ph, f.ph) == ("s", "f")
        assert s.flow_id == f.flow_id == first
        assert s.args == f.args == {"w": 1.0}
        assert (s.ts, f.ts) == (0.0, 1.0)

    def test_args_are_copied_not_aliased(self):
        tracer.enable()
        payload = {"k": 1}
        event = tracer.complete("a", "c", 0.0, 1.0, args=payload)
        payload["k"] = 2
        assert event.args == {"k": 1}


class TestIdentity:
    def test_pid_for_is_stable_per_object(self):
        class Chip:
            name = "chip-x"

        chip, other = Chip(), Chip()
        assert tracer.pid_for(chip) == tracer.pid_for(chip)
        assert tracer.pid_for(chip) != tracer.pid_for(other)
        assert tracer.process_names[tracer.pid_for(chip)] == "chip-x"

    def test_pid_zero_is_never_allocated(self):
        class Obj:
            pass

        objs = [Obj() for _ in range(4)]  # kept alive: id() must not recycle
        pids = [tracer.pid_for(obj) for obj in objs]
        assert 0 not in pids
        assert pids == sorted(set(pids)) and len(set(pids)) == 4

    def test_thread_names(self):
        tracer.set_thread_name(0, 1, "dispatch")
        assert tracer.thread_names[(0, 1)] == "dispatch"


class TestViews:
    def test_repr_reports_state_and_event_count(self):
        trace = Tracer()
        assert repr(trace) == "<Tracer disabled, 0 events>"
        trace.enable()
        trace.complete("a", "c", 0.0, 1.0)
        trace.instant("b", "c", 0.5)
        assert repr(trace) == "<Tracer enabled, 2 events>"

    def test_spans_filters_by_category(self):
        tracer.enable()
        tracer.complete("a", "pod", 0.0, 1.0)
        tracer.complete("b", "device", 0.0, 1.0)
        tracer.instant("c", "pod", 0.0)
        assert [e.name for e in tracer.spans()] == ["a", "b"]
        assert [e.name for e in tracer.spans("pod")] == ["a"]

    def test_by_category_counts_every_phase(self):
        tracer.enable()
        tracer.complete("a", "pod", 0.0, 1.0)
        tracer.flow("f", "serve", (0.0, 0, 0), (1.0, 0, 1))
        assert tracer.by_category() == {"pod": 1, "serve": 2}

    def test_event_is_frozen(self):
        event = TraceEvent(ph="X", name="a", category="c", ts=0.0, dur=1.0)
        with pytest.raises(AttributeError):
            event.ts = 2.0

    def test_fresh_tracer_is_independent(self):
        mine = Tracer()
        mine.enable()
        mine.complete("a", "c", 0.0, 1.0)
        assert len(mine) == 1
        assert len(tracer) == 0
