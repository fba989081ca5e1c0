"""Spans around the calls into each lanecheck layer, kept in memory.

The tracer patches the module attributes the program calls through, so it
sees calls made by the program itself as well as by the benchmark: the
checker calls ``mlsl.eval``, ``traffic.standard_view`` and its own imported
``build_controller``, and ``load_scenario`` calls ``scenario.loads``.  Spans
are recorded only while ``phase`` is set (``"setup"`` or ``"timed"``), so
input generation and answer checks leave no spans.

Layers are the package's modules: scenario, automata, checker, mlsl and
traffic.  The cli is a front end that the benchmark does not call.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import time
from typing import Dict, List, Optional

LAYERS = ("scenario", "automata", "checker", "mlsl", "traffic")


class Span:
    __slots__ = ("name", "phase", "start", "end", "parent", "qid", "attrs")

    def __init__(self, name, phase, parent, qid):
        self.name = name
        self.phase = phase
        self.parent = parent
        self.qid = qid
        self.start = self.end = 0.0
        self.attrs: Dict[str, object] = {}

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self.phase: Optional[str] = None
        self._stack: List[int] = []
        self._qids = itertools.count(1)

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        # a top-level span is one query or evaluation; its children share its id
        qid = next(self._qids) if parent is None else self.spans[parent].qid
        span = Span(name, self.phase, parent, qid)
        idx = len(self.spans)
        self.spans.append(span)
        self._stack.append(idx)
        span.start = time.perf_counter()
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.phase is None:
                return fn(*args, **kwargs)
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return traced

    def wrap_run_query(self, fn, af_queries):
        """Engine.run_query: records the query kind, guard mode, verdict
        states and witness length."""
        @functools.wraps(fn)
        def traced(engine, query):
            if self.phase is None:
                return fn(engine, query)
            idx = self.open("checker.run_query")
            try:
                verdict = fn(engine, query)
            finally:
                self.close(idx)
            self.spans[idx].attrs = {
                "kind": "af" if isinstance(query, af_queries) else "ag",
                "guard_mode": engine.guard_mode,
                "states": verdict.states,
                "witness_steps": len(verdict.witness.steps) if verdict.witness else 0,
            }
            return verdict
        return traced

    @contextlib.contextmanager
    def installed(self, prog):
        """Patch the program's entry points for the duration of the block."""
        checker, mlsl, traffic = prog.checker, prog.mlsl, prog.traffic
        build_controller = self.wrap("automata.build_controller", prog.automata.build_controller)
        patches = [
            (prog.scenario, "loads", self.wrap("scenario.loads", prog.scenario.loads)),
            (prog.automata, "build_controller", build_controller),
            (checker, "build_controller", build_controller),
            (checker.Engine, "__init__", self.wrap("checker.build", checker.Engine.__init__)),
            (checker.Engine, "run_query", self.wrap_run_query(
                checker.Engine.run_query, (checker.LivenessAny, checker.LivenessCar))),
            (mlsl, "parse", self.wrap("mlsl.parse", mlsl.parse)),
            (mlsl, "eval", self.wrap("mlsl.eval", mlsl.eval)),
            (traffic, "standard_view", self.wrap("traffic.standard_view", traffic.standard_view)),
            (traffic, "apply_action", self.wrap("traffic.apply_action", traffic.apply_action)),
        ]
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
        try:
            for owner, attr, fn in patches:
                setattr(owner, attr, fn)
            yield self
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    # -- aggregation ----------------------------------------------------------

    def self_times(self, phase: str) -> Dict[str, float]:
        """Seconds per layer inside spans of the phase, minus child spans."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.seconds
        out: Dict[str, float] = {}
        for idx, span in enumerate(self.spans):
            if span.phase == phase:
                out[span.layer] = out.get(span.layer, 0.0) + span.seconds - child[idx]
        return out

    def layer_metrics(self, rounds: int) -> Dict[str, float]:
        """Per-layer totals over the traced rounds, divided by their number."""
        spans = self.spans
        m: Dict[str, float] = {}

        def add(key, value):
            m[key] = m.get(key, 0.0) + value

        for name in ("scenario.loads", "automata.build_controller", "checker.build",
                     "mlsl.parse", "traffic.standard_view"):
            add(f"{name}_s", 0.0)
            add(f"{name}_calls", 0)
        for kind in ("ag", "af", "guard_mlsl"):
            add(f"checker.{kind}.query_s", 0.0)
            add(f"checker.{kind}.states", 0)
        for key in ("checker.witness_steps", "mlsl.eval.direct_calls", "mlsl.eval.direct_s",
                    "mlsl.eval.guard_calls", "mlsl.eval.guard_s"):
            add(key, 0)
        for span in spans:
            if span.name == "checker.run_query":
                a = span.attrs
                kinds = [a["kind"]] + (["guard_mlsl"] if a["guard_mode"] == "mlsl" else [])
                for kind in kinds:
                    add(f"checker.{kind}.query_s", span.seconds)
                    add(f"checker.{kind}.states", a["states"])
                add("checker.witness_steps", a["witness_steps"])
            elif span.name == "mlsl.eval":
                parent = spans[span.parent] if span.parent is not None else None
                where = "guard" if parent is not None and parent.layer == "checker" else "direct"
                add(f"mlsl.eval.{where}_calls", 1)
                add(f"mlsl.eval.{where}_s", span.seconds)
            elif f"{span.name}_s" in m:
                add(f"{span.name}_s", span.seconds)
                add(f"{span.name}_calls", 1)

        for key in m:
            m[key] /= rounds
        for kind in ("ag", "af"):
            q = m[f"checker.{kind}.query_s"]
            m[f"checker.{kind}.states_per_s"] = m[f"checker.{kind}.states"] / q if q else 0.0
        guard = m["checker.guard_mlsl.query_s"]
        m["mlsl.eval.guard_share"] = m["mlsl.eval.guard_s"] / guard if guard else 0.0
        self_s = self.self_times("timed")
        for layer in LAYERS:
            m[f"{layer}.self_s"] = self_s.get(layer, 0.0) / rounds
        return m

    def dump(self, path) -> None:
        rows = [{"name": s.name, "phase": s.phase, "start": s.start, "end": s.end,
                 "parent": s.parent, "query": s.qid, **s.attrs} for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)
