"""Trace recording and timeline rendering tests."""

from repro.sim.trace import CounterSample, Trace, TraceEvent


def _event(name="t", kind="fwd", device=0, mb=0, start=0.0, end=1.0, layer=-1):
    return TraceEvent(name=name, kind=kind, device=device, microbatch=mb,
                      start=start, end=end, layer=layer)


def test_record_updates_makespan():
    trace = Trace()
    trace.record(_event(end=2.0))
    trace.record(_event(start=2.0, end=5.0))
    assert trace.makespan == 5.0


def test_by_kind_and_by_device():
    trace = Trace()
    trace.record(_event(kind="fwd", device=0))
    trace.record(_event(kind="bwd", device=1))
    assert len(trace.by_kind("fwd")) == 1
    assert len(trace.by_device(1)) == 1


def test_find_by_name():
    trace = Trace()
    trace.record(_event(name="special"))
    assert trace.find("special") is not None
    assert trace.find("missing") is None


def test_total_time():
    trace = Trace()
    trace.record(_event(kind="swap_out", start=0.0, end=1.5))
    trace.record(_event(kind="swap_out", start=2.0, end=3.0))
    assert trace.total_time("swap_out") == 2.5


def test_duration_property():
    assert _event(start=1.0, end=3.5).duration == 2.5


def test_gantt_rows_sorted_by_start():
    trace = Trace()
    trace.record(_event(device=0, start=5.0, end=6.0))
    trace.record(_event(device=0, start=1.0, end=2.0))
    rows = trace.gantt_rows()
    assert [row[1] for row in rows[0]] == [1.0, 5.0]


def test_render_timeline_marks_microbatches():
    trace = Trace()
    trace.record(_event(kind="fwd", device=0, mb=1, start=0.0, end=1.0))
    trace.record(_event(kind="bwd", device=0, mb=1, start=1.0, end=2.0))
    art = trace.render_timeline(width=20)
    assert "gpu0" in art
    assert "1" in art


def test_render_empty_trace():
    assert Trace().render_timeline() == "(empty trace)"


def test_trace_rows_are_named_tuples_with_fixed_fields():
    """Rows keep their field names, order and defaults: trace digests
    and chrome export read them by name."""
    assert TraceEvent._fields == ("name", "kind", "device", "microbatch",
                                  "start", "end", "layer")
    assert TraceEvent._field_defaults == {"layer": -1}
    assert CounterSample._fields == ("device", "time", "bytes_in_use")
    event = TraceEvent("f", "fwd", 0, 1, 0.5, 2.0)
    assert event.layer == -1 and event.duration == 1.5
    assert event == _event(name="f", mb=1, start=0.5, end=2.0)
    sample = CounterSample(device=1, time=0.0, bytes_in_use=64)
    assert (sample.device, sample.time, sample.bytes_in_use) == (1, 0.0, 64)
