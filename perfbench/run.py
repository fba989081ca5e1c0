"""Benchmark of lanecheck on sparse roads, dense roads and spatial formulas.

Run from the repository root (standard library only):

    python3 perfbench/run.py --workload sparse --seed 1 --seconds 24 --trace 0

Workloads; every road, snapshot and formula comes from --seed (inputs.py):

  sparse    four-car roads made of two overlapping pairs far apart, so two
            interaction groups, each under 8 queries (safety, no-deadlock,
            liveness-any, liveness-car=A; variants original and live), plus
            scenarios/fig1.scn under 3 variants x the same 4 queries
  dense     four-car chains where each car overlaps only its neighbours, so
            one interaction group, under the same 8 queries
  formulas  direct spatial-logic evaluations (the three C1 formulas,
            C7-shaped snapshots, random formulas with 1-3 horizontal chops)
            and three-lane fig1 checked with guard_mode="mlsl"

Load model: one client in one fresh single-threaded process, in a closed
loop; every query or evaluation waits for its answer before the next one
is issued.  A round is one generated input set; a run repeats whole rounds,
seeded by (--seed, round number), until --seconds have passed.

Timing: set-up (importing lanecheck, scenario.loads/load_scenario,
mlsl.parse and every Engine construction of a round) is kept apart from the
timed calls (Engine.run_query and direct mlsl.eval).  wall_s is the median
over rounds of a round's timed calls.  setup_s is the median of set-ups of
round 0's inputs, each in a fresh child process, sampled every SETUP_EVERY
seconds between timed calls.  Every answer is then checked outside the
timed region; a wrong or inconclusive answer counts as failed.

--trace 0 prints the end-to-end metrics.  --trace 1 first runs rounds
untraced for half of --seconds, then the same rounds again with spans around
every call into a layer (tracer.py), and prints per-layer metrics.  The last
line of standard output is one JSON object; the lines before it report every
metric with its unit and sample count.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import stats  # noqa: E402
from tracer import Tracer  # noqa: E402

# setup_s samples: one fresh set-up at the start of a run, then one between
# timed calls whenever this many seconds have passed since the last
SETUP_EVERY = 3.0

ROAD_VARIANTS = ("original", "live")
FIG1_VARIANTS = ("original", "original-plus-tw", "live")
QUERY_KINDS = ("safety", "no-deadlock", "liveness-any", "liveness-car")

# fig1.scn (variant, query) -> (outcome, states).  C2-C6 of
# tests/test_acceptance.py assert the ones marked; the rest were measured on
# the unchanged engine and pin it the same way.
FIG1_PINS = {
    ("original", "safety"): ("holds", 21684),                 # C2
    ("original", "no-deadlock"): ("holds", 21684),            # C3 outcome
    ("original", "liveness-any"): ("fails", 150),             # C4
    ("original", "liveness-car"): ("fails", 5928),
    ("original-plus-tw", "safety"): ("holds", 33060),
    ("original-plus-tw", "no-deadlock"): ("holds", 33060),
    ("original-plus-tw", "liveness-any"): ("holds", 270),     # C5
    ("original-plus-tw", "liveness-car"): ("fails", 9976),    # C6
    ("live", "safety"): ("holds", 25404),                     # C2
    ("live", "no-deadlock"): ("holds", 25404),                # C3 outcome
    ("live", "liveness-any"): ("holds", 246),
    ("live", "liveness-car"): ("holds", 7250),                # C6
}

# Generated roads, pinned per family: the generators keep every road of a
# family at exactly these answers (measured on the unchanged engine).
ROAD_PINS = {
    "sparse": {
        ("original", "safety"): ("holds", 173889),
        ("original", "no-deadlock"): ("holds", 173889),
        ("original", "liveness-any"): ("fails", 900),
        ("original", "liveness-car"): ("fails", 47538),
        ("live", "safety"): ("holds", 191844),
        ("live", "no-deadlock"): ("holds", 191844),
        ("live", "liveness-any"): ("holds", 1681),
        ("live", "liveness-car"): ("holds", 54750),
    },
    "dense": {
        ("original", "safety"): ("holds", 151348),
        ("original", "no-deadlock"): ("holds", 151348),
        ("original", "liveness-any"): ("fails", 900),
        ("original", "liveness-car"): ("fails", 43887),
        ("live", "safety"): ("holds", 177043),
        ("live", "no-deadlock"): ("holds", 177043),
        ("live", "liveness-any"): ("holds", 1681),
        ("live", "liveness-car"): ("holds", 52584),
    },
}

# the example-snapshot formulas of test_c1_example_formulas, with answers
C1_FORMULAS = (("<re(ego) ; free>", True),
               ("<cl(a) & cl(b) ; !cl(a) & cl(b)>", True),
               ("<cl(b) ; free ; re(d)>", False))
C1_BINDING = {"ego": "E", "a": "A", "b": "B", "d": "D"}

# guard_mode="mlsl" queries on three-lane fig1: one AG, one AF
GUARD_QUERIES = ("no-deadlock", "liveness-any")
# direct evaluations re-checked with chop_mode="sweep": every chop formula
# and every SWEEP_EVERY-th C7-style case
SWEEP_EVERY = 8


# ---------------------------------------------------------------------------
# the program under test


def load_program() -> Tuple[SimpleNamespace, float]:
    """Import lanecheck from this checkout; returns its modules and the
    import time."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    started = time.perf_counter()
    package = importlib.import_module("lanecheck")
    elapsed = time.perf_counter() - started
    _require_under(package, src)
    mods = {m: sys.modules[f"lanecheck.{m}"]
            for m in ("automata", "checker", "mlsl", "scenario", "traffic")}
    return SimpleNamespace(**mods), elapsed


def make_query(prog, kind: str, first_car: str):
    c = prog.checker
    if kind == "safety":
        return c.SafetyNoCollision()
    if kind == "no-deadlock":
        return c.NoDeadlock()
    if kind == "liveness-any":
        return c.LivenessAny()
    return c.LivenessCar(first_car)


# ---------------------------------------------------------------------------
# rounds


@dataclasses.dataclass
class Job:
    """One timed call and what it answered."""
    label: Tuple[str, ...]
    call: object                      # () -> answer
    engine: object = None             # set for queries
    query: object = None              # the query, or the formula evaluated
    answer: object = None
    seconds: float = 0.0


@dataclasses.dataclass
class RoundResult:
    wall_s: float = 0.0               # sum of the round's timed calls
    query_s: float = 0.0
    states: int = 0
    eval_lat: List[float] = dataclasses.field(default_factory=list)
    c1_s: Optional[float] = None
    af_peaks: List[Tuple[int, int]] = dataclasses.field(default_factory=list)  # (bytes, states)
    answers: int = 0
    failures: List[Tuple[tuple, str]] = dataclasses.field(default_factory=list)

    @property
    def failed(self) -> int:
        return len({label for label, _ in self.failures})


class Workload:
    """A round: inputs(seed, r) -> prepare -> setup (timed) -> jobs (timed)
    -> check.  prepare builds program-side input objects and is untimed."""

    name = ""

    def inputs(self, seed: int, r: int):
        raise NotImplementedError

    def prepare(self, prog, data):
        return data

    def setup(self, prog, data) -> List[Job]:
        raise NotImplementedError

    def check(self, prog, data, jobs: List[Job]) -> List[Tuple[tuple, str]]:
        """(label of the answer, what is wrong with it) for each failure."""
        raise NotImplementedError


def _query_job(label, engine, query) -> Job:
    return Job(label, lambda: engine.run_query(query), engine, query)


def _verdict_failures(prog, label, verdict):
    out = []
    if verdict.outcome == "inconclusive":
        out.append((label, f"inconclusive ({verdict.note})"))
    if verdict.witness is not None:
        try:
            prog.support.replay(verdict.witness)
        except (AssertionError, ValueError, prog.traffic.TrafficError) as e:
            out.append((label, f"witness does not replay: {e}"))
    return out


class Roads(Workload):
    """sparse and dense: 8 queries on a generated road (+ fig1 on sparse)."""

    def __init__(self, name: str):
        self.name = name
        self.make_road = inputs.sparse_road if name == "sparse" else inputs.dense_road

    def inputs(self, seed, r):
        return self.make_road(inputs.rng_for(self.name, seed, r))

    def setup(self, prog, road):
        jobs = []
        sc = prog.scenario.loads(inputs.road_text(road), source=f"{self.name}-road")
        jobs += self._jobs(prog, "road", sc, ROAD_VARIANTS)
        if self.name == "sparse":
            fig1 = prog.scenario.load_scenario(str(ROOT / "scenarios" / "fig1.scn"))
            jobs += self._jobs(prog, "fig1", fig1, FIG1_VARIANTS)
        return jobs

    @staticmethod
    def _jobs(prog, what, sc, variants):
        jobs = []
        first = sc.cars[0].name
        for variant in variants:
            s = dataclasses.replace(sc, variant=variant)
            for kind in QUERY_KINDS:
                q = make_query(prog, kind, first)
                jobs.append(_query_job((what, variant, kind), prog.checker.Engine.for_query(s, q), q))
        return jobs

    def check(self, prog, road, jobs):
        failures = []
        pins = {"road": ROAD_PINS[self.name], "fig1": FIG1_PINS}
        for job in jobs:
            what, variant, kind = job.label
            v = job.answer
            failures += _verdict_failures(prog, job.label, v)
            want = pins[what][(variant, kind)]
            if (v.outcome, v.states) != want:
                failures.append((job.label, f"got {(v.outcome, v.states)}, want {want}"))
        if self.name == "sparse":
            failures += self._product_check(prog, road, jobs)
        return failures

    @staticmethod
    def _product_check(prog, road, jobs):
        """AG state counts of a two-group road are the product of each group
        checked alone with the whole road's horizon."""
        horizon = inputs.effective_horizon(road.cars)
        groups = inputs.interaction_groups(road.cars, horizon)
        if len(groups) != 2:
            return [(("road",), f"groups {groups}, want two")]
        failures = []
        for job in jobs:
            what, variant, kind = job.label
            if what != "road" or kind not in ("safety", "no-deadlock"):
                continue
            product = 1
            for group in groups:
                part = inputs.Road(road.lanes, tuple(c for c in road.cars if c.name in group))
                sc = prog.scenario.loads(inputs.road_text(part, variant) + f"horizon {horizon}\n")
                q = make_query(prog, kind, sc.cars[0].name)
                product *= prog.checker.Engine.for_query(sc, q).run_query(q).states
            if job.answer.states != product:
                failures.append((job.label, f"{job.answer.states} states, "
                                            f"groups alone give {product}"))
        return failures


class Formulas(Workload):
    name = "formulas"

    def inputs(self, seed, r):
        return inputs.formula_cases(inputs.rng_for(self.name, seed, r))

    def prepare(self, prog, cases):
        """Snapshots and standard views for every case, and the C1 view."""
        tr = prog.traffic

        def snapshot(s):
            return tr.TrafficSnapshot(s.lanes, {
                c.name: tr.CarState(pos=c.pos, size=c.size, res=frozenset(c.res),
                                    clm=frozenset(c.clm)) for c in s.cars})

        prepared = []
        for case in cases:
            ts = snapshot(case.snapshot)
            view = tr.standard_view(ts, case.ego, case.snapshot.span())
            prepared.append((case, ts, view, {"ego": case.ego, **dict(case.binding)}))
        example = prog.support.example_snapshot()
        c1_view = tr.standard_view(example, "E", 36)
        return SimpleNamespace(cases=prepared, example=example, c1_view=c1_view)

    def setup(self, prog, data):
        m = prog.mlsl
        builders = {"cc_formula": m.cc_formula, "exists_pc_formula": m.exists_pc_formula,
                    "pc_formula": lambda: m.pc_formula("c")}
        jobs = []
        for text, _ in C1_FORMULAS:
            jobs.append(self._eval_job(prog, ("c1", text), data.example, data.c1_view,
                                       C1_BINDING, m.parse(text)))
        for k, (case, ts, view, nu) in enumerate(data.cases):
            f = builders[case.formula]() if case.formula in builders else m.parse(case.formula)
            jobs.append(self._eval_job(prog, ("case", k), ts, view, nu, f))
        sc = self.three_lane_fig1(prog)
        for kind in GUARD_QUERIES:
            q = make_query(prog, kind, sc.cars[0].name)
            engine = prog.checker.Engine.for_query(sc, q, guard_mode="mlsl")
            jobs.append(_query_job(("guard", kind), engine, q))
        return jobs

    @staticmethod
    def three_lane_fig1(prog):
        fig1 = prog.scenario.load_scenario(str(ROOT / "scenarios" / "fig1.scn"))
        cars = tuple(dataclasses.replace(c, lane=min(c.lane, 2)) for c in fig1.cars)
        return dataclasses.replace(fig1, lane_count=3, cars=cars)

    @staticmethod
    def _eval_job(prog, label, ts, view, nu, f) -> Job:
        m = prog.mlsl
        return Job(label, lambda: m.eval(ts, view, nu, f), query=f)

    def check(self, prog, data, jobs):
        m = prog.mlsl
        failures = []
        c1 = [j for j in jobs if j.label[0] == "c1"]
        for job, (text, want) in zip(c1, C1_FORMULAS):
            if job.answer is not want:
                failures.append((job.label, f"got {job.answer}, want {want}"))
        cases = [j for j in jobs if j.label[0] == "case"]
        for job, (case, ts, view, nu) in zip(cases, data.cases):
            got = job.answer
            if case.formula == "cc_formula":
                want = m.cc(ts, case.ego)
            elif case.formula == "exists_pc_formula":
                want = any(m.pc(ts, case.ego, c) for c in ts.cars)
            elif case.formula == "pc_formula":
                want = m.pc(ts, case.ego, nu["c"])
            else:
                want = None
            if want is not None and got != want:
                failures.append((job.label, f"{case.formula}: got {got}, interval check {want}"))
            if (want is None or job.label[1] % SWEEP_EVERY == 0) \
                    and got != m.eval(ts, view, nu, job.query, chop_mode="sweep"):
                failures.append((job.label, f"{case.formula}: fast and sweep chops disagree"))
        sc = self.three_lane_fig1(prog)
        for job in jobs:
            if job.label[0] != "guard":
                continue
            v = job.answer
            failures += _verdict_failures(prog, job.label, v)
            q = make_query(prog, job.label[1], sc.cars[0].name)
            ref = prog.checker.Engine.for_query(sc, q).run_query(q)
            if (v.outcome, v.states) != (ref.outcome, ref.states):
                failures.append((job.label, f"mlsl guards give {(v.outcome, v.states)}, "
                                            f"interval guards {(ref.outcome, ref.states)}"))
        return failures


WORKLOADS = {"sparse": Roads("sparse"), "dense": Roads("dense"), "formulas": Formulas()}


def set_phase(tracer: Optional[Tracer], phase: Optional[str]) -> None:
    if tracer is not None:
        tracer.phase = phase


def run_round(prog, wl: Workload, seed: int, r: int, tracer: Optional[Tracer] = None,
              between=None) -> RoundResult:
    data = wl.prepare(prog, wl.inputs(seed, r))
    set_phase(tracer, "setup")
    jobs = wl.setup(prog, data)
    result = RoundResult()
    set_phase(tracer, "timed")
    for job in jobs:
        started = time.perf_counter()
        job.answer = job.call()
        job.seconds = time.perf_counter() - started
        if between is not None:
            between()
    set_phase(tracer, None)
    for job in jobs:
        result.wall_s += job.seconds
        if job.label[0] in ("road", "fig1", "guard"):
            result.query_s += job.seconds
            result.states += job.answer.states
        else:
            result.eval_lat.append(job.seconds)
    c1 = [j.seconds for j in jobs if j.label[0] == "c1"]
    result.c1_s = sum(c1) if c1 else None
    result.answers = len(jobs)
    result.failures = wl.check(prog, data, jobs)
    if tracer is not None:
        result.af_peaks = af_peaks(prog, jobs)
    return result


def af_peaks(prog, jobs: List[Job]) -> List[Tuple[int, int]]:
    """Re-run each AF query under tracemalloc, apart from the timed and
    traced run, for the peak its region allocates."""
    out = []
    for job in jobs:
        if isinstance(job.query, (prog.checker.LivenessAny, prog.checker.LivenessCar)):
            tracemalloc.start()
            try:
                job.engine.run_query(job.query)
                out.append((tracemalloc.get_traced_memory()[1], job.answer.states))
            finally:
                tracemalloc.stop()
    return out


def run_rounds(prog, wl, seed, seconds: float = 0.0, count: Optional[int] = None,
               tracer: Optional[Tracer] = None, between=None) -> List[RoundResult]:
    """Whole rounds until `seconds` have passed (at least one), or `count`."""
    results: List[RoundResult] = []
    started = time.perf_counter()
    while not results or (time.perf_counter() - started < seconds if count is None
                          else len(results) < count):
        results.append(run_round(prog, wl, seed, len(results), tracer, between))
    return results


def setup_once(workload: str, seed: int) -> float:
    """Import lanecheck and set up round 0's inputs; returns the seconds."""
    wl = WORKLOADS[workload]
    prog, import_s = load_program()
    prog.support = load_support()
    prepared = wl.prepare(prog, wl.inputs(seed, 0))
    started = time.perf_counter()
    wl.setup(prog, prepared)
    return import_s + time.perf_counter() - started


class SetupProbe:
    """Samples setup_once in a fresh child process, as a command-line run
    would start, whenever called and SETUP_EVERY seconds have passed since
    the last sample, so that the samples spread over the run as the timed
    calls do."""

    def __init__(self, workload: str, seed: int):
        self.code = f"import run; print(run.setup_once({workload!r}, {seed}))"
        self.times: List[float] = []
        self.due = 0.0

    def __call__(self) -> None:
        if time.perf_counter() < self.due:
            return
        proc = subprocess.run([sys.executable, "-c", self.code], cwd=HERE, capture_output=True,
                              text=True, timeout=120, check=True)
        self.times.append(float(proc.stdout.split()[-1]))
        self.due = time.perf_counter() + SETUP_EVERY


def load_support():
    """The test suite's replay and example-snapshot helpers."""
    tests = str(ROOT / "tests")
    if tests not in sys.path:
        sys.path.insert(0, tests)
    return _require_under(importlib.import_module("support"), tests)


def _require_under(module, directory: str):
    """Refuse a module imported from anywhere but this checkout."""
    if not Path(module.__file__).resolve().is_relative_to(directory):
        raise ImportError(f"{module.__name__} comes from {module.__file__}, not {directory}")
    return module


# ---------------------------------------------------------------------------
# metrics


def end_to_end(results: List[RoundResult], setup_times: List[float]) -> Dict[str, Tuple[float, str, int]]:
    """name -> (value, unit, sample count)."""
    query_s = sum(r.query_s for r in results)
    states = sum(r.states for r in results)
    queries = sum(r.answers - len(r.eval_lat) for r in results)
    out = {"setup_s": (statistics.median(setup_times), "s", len(setup_times))} if setup_times else {}
    return {
        **out,
        "wall_s": (statistics.median(r.wall_s for r in results), "s", len(results)),
        "states_per_s": (states / query_s, "1/s", queries),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
    }


def eval_metrics(results: List[RoundResult]) -> Dict[str, Tuple[float, str, int]]:
    lat = [x for r in results for x in r.eval_lat]
    if not lat:
        return {}
    summary = stats.latency_summary(lat)
    out = {
        "evals_per_s": (len(lat) / sum(lat), "1/s", len(lat)),
        "eval_p50_ms": (summary["p50"] * 1000, "ms", len(lat)),
        "eval_p99_ms": (summary["p99"] * 1000, "ms", len(lat)),
        "c1_ms": (statistics.median(r.c1_s for r in results) * 1000, "ms", len(results)),
    }
    if "tail" in summary:
        out[f"eval_p{summary['tail_pct']}_ms"] = (summary["tail"] * 1000, "ms", len(lat))
    return out


def print_metrics(title: str, metrics: Dict[str, Tuple[float, str, int]]) -> None:
    print(f"# {title}")
    for name, (value, unit, n) in metrics.items():
        print(f"{name:34s} {value:14.6g} {unit:6s} n={n}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    wl = WORKLOADS[args.workload]

    # set-up time is an end-to-end metric, so the traced run takes no samples
    probe = None if args.trace else SetupProbe(args.workload, args.seed)
    try:
        prog, _ = load_program()
        prog.support = load_support()
        if probe is not None:
            probe()
    except ImportError as e:
        print(f"cannot import the program under test: {e}", file=sys.stderr)
        return 2

    results = run_rounds(prog, wl, args.seed, args.seconds / 2 if args.trace else args.seconds,
                         between=probe)
    all_results = list(results)
    if args.trace:
        tracer = Tracer()
        with tracer.installed(prog):
            traced = run_rounds(prog, wl, args.seed, count=len(results), tracer=tracer)
        all_results += traced
        n = len(traced)
        layers = tracer.layer_metrics(n)
        peak, states = max(p for r in traced for p in r.af_peaks)
        layers["checker.af.peak_alloc_mb"] = peak / 2**20
        layers["checker.af.bytes_per_state"] = peak / states
        untraced_wall = sum(r.wall_s for r in results) / n
        traced_wall = sum(r.wall_s for r in traced) / n
        self_total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        layers.update({
            "trace.untraced_wall_s": untraced_wall,
            "trace.traced_wall_s": traced_wall,
            "trace.overhead_s": traced_wall - untraced_wall,
            "trace.self_total_s": self_total,
            "trace.unaccounted_s": self_total - traced_wall,
        })
        out_dir = ROOT / "perfbench" / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"trace-{args.workload}-{args.seed}.json")

    attempted = sum(r.answers for r in all_results)
    failed = sum(r.failed for r in all_results)
    for r in all_results:
        for label, what in r.failures:
            print(f"FAILED {label}: {what}")
    e2e = end_to_end(results, probe.times if probe else [])
    print(f"# workload {args.workload} seed {args.seed}: {len(results)} rounds, "
          f"{attempted} answers, {failed} failed")
    print_metrics("end to end (untraced)", {
        **e2e, **eval_metrics(results),
        "failed_frac": (failed / attempted, "1", attempted)})
    if args.trace:
        per_layer = {k: (v, _unit(k), n) for k, v in sorted(layers.items())}
        print_metrics(f"per layer (traced, per round over {n} rounds)", per_layer)
        metrics = {k: {"value": per_layer[k][0], "unit": per_layer[k][1]} for k in PER_LAYER}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in e2e.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


# per-layer metrics in the result line: those measured on every workload
# (a layer a workload bypasses reads zero, which only counts can)
PER_LAYER = (
    "scenario.loads_s", "scenario.loads_calls",
    "automata.build_controller_s", "automata.build_controller_calls",
    "checker.build_s",
    "checker.ag.query_s", "checker.ag.states", "checker.ag.states_per_s",
    "checker.af.query_s", "checker.af.states", "checker.af.states_per_s",
    "checker.af.peak_alloc_mb", "checker.af.bytes_per_state",
    "checker.witness_steps", "checker.guard_mlsl.states",
    "mlsl.eval.direct_calls", "mlsl.eval.guard_calls", "traffic.standard_view_calls",
    "checker.self_s",
)


def _unit(name: str) -> str:
    if name.endswith("_calls") or name.endswith(".states") or name.endswith("witness_steps"):
        return "count"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("bytes_per_state"):
        return "B"
    if name.endswith("_share"):
        return "1"
    return "s"


if __name__ == "__main__":
    sys.exit(main())
