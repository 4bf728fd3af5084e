"""The benchmark's span recorder: self time, coverage, Chrome export."""

import json
import time

from tracer import Tracer


def test_disabled_tracer_records_nothing():
    tracer = Tracer(False)
    with tracer.span("lang.parse"):
        pass
    assert tracer.spans == []


def test_self_time_subtracts_children_and_inherits_request_id():
    tracer = Tracer(True)
    with tracer.span("pass", rid="d1"):
        with tracer.span("lang.parse"):
            time.sleep(0.02)
        with tracer.span("mc.explicit"):
            time.sleep(0.03)
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["lang.parse"].rid == "d1"
    assert by_name["lang.parse"].parent == by_name["pass"].sid
    own = tracer.layer_self_seconds()
    root = by_name["pass"]
    assert abs(own["pass"] + own["lang.parse"] + own["mc.explicit"]
               - root.duration) < 1e-9
    table = tracer.stage_table()
    assert table.threads == 1
    assert abs(table.thread_seconds - root.duration) < 1e-9
    assert 0.9 < table.coverage <= 1.0


def test_bench_spans_are_not_layer_time():
    tracer = Tracer(True)
    with tracer.span("pass"):
        with tracer.span("lang.parse"):
            time.sleep(0.02)
        with tracer.span("bench.oracle"):
            time.sleep(0.02)
    table = tracer.stage_table()
    assert 0.4 < table.coverage < 0.6


def test_chrome_trace_is_complete_events(tmp_path):
    tracer = Tracer(True)
    with tracer.span("task", rid="t1"):
        with tracer.span("mc.symbolic"):
            pass
    path = tmp_path / "trace.json"
    tracer.write_chrome_trace(str(path), {"workload": "explore"})
    doc = json.loads(path.read_text())
    events = doc["traceEvents"]
    assert [e["name"] for e in events] == ["task", "mc.symbolic"]
    assert all(e["ph"] == "X" and e["dur"] >= 0 for e in events)
    assert events[1]["args"]["parent"] == events[0]["args"]["id"]
    assert doc["otherData"] == {"workload": "explore"}
