"""Self time: a span's duration minus the part its children cover."""

import pytest

from tracer import Tracer


def _span(tracer, name, start, end, parent=None, phase="timed"):
    tracer.phase = phase
    if parent is not None:
        tracer._stack.append(parent)
    idx = tracer.open(name)
    tracer.close(idx)
    if parent is not None:
        tracer._stack.pop()
    span = tracer.spans[idx]
    span.start, span.end = start, end
    return idx


def test_self_times_subtract_children():
    t = Tracer()
    q = _span(t, "checker.run_query", 0.0, 10.0)
    t.spans[q].attrs = {"kind": "ag", "guard_mode": "mlsl", "states": 100, "witness_steps": 0}
    _span(t, "traffic.standard_view", 1.0, 1.5, parent=q)
    e = _span(t, "mlsl.eval", 2.0, 8.0, parent=q)
    _span(t, "mlsl.eval", 9.0, 9.5)                     # direct, its own query
    _span(t, "checker.build", 20.0, 21.0, phase="setup")
    assert t.spans[e].qid == t.spans[q].qid
    assert t.spans[-2].qid != t.spans[q].qid

    self_s = t.self_times("timed")
    assert self_s == pytest.approx({"checker": 3.5, "traffic": 0.5, "mlsl": 6.5})
    assert t.self_times("setup") == pytest.approx({"checker": 1.0})

    m = t.layer_metrics(rounds=2)
    assert m["mlsl.eval.guard_calls"] == 0.5 and m["mlsl.eval.guard_s"] == pytest.approx(3.0)
    assert m["mlsl.eval.direct_calls"] == 0.5 and m["mlsl.eval.direct_s"] == pytest.approx(0.25)
    assert m["checker.guard_mlsl.query_s"] == pytest.approx(5.0)
    assert m["mlsl.eval.guard_share"] == pytest.approx(0.6)
    assert m["checker.ag.states_per_s"] == pytest.approx(10.0)
    assert m["checker.build_s"] == pytest.approx(0.5)
    assert sum(v for k, v in m.items() if k.endswith(".self_s")) == pytest.approx(5.25)
