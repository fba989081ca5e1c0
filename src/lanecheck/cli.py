"""Command-line front end for the lane-change verifier.

Three subcommands: `check` runs a query against a scenario file and
reports the verdict (exit code 0 holds, 1 fails, 2 inconclusive),
`eval` evaluates a spatial formula on the initial snapshot from one
car's point of view, and `info` prints the parsed model.  Usage and
file errors exit with code 3 so scripts can tell them apart from
verdicts.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import List, Optional, Sequence

from . import checker, mlsl, traffic
from .automata import (
    Automaton,
    ClockConstraint,
    LaneExists,
    SpatialGuard,
    VARIANTS,
    build_controller,
)
from .checker import (
    BUDGET_ENV_VAR,
    LivenessAny,
    LivenessCar,
    NoDeadlock,
    Query,
    SafetyNoCollision,
    SystemState,
    Trace,
    Verdict,
)
from .scenario import Scenario, ScenarioError, load_scenario

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3

_EXIT_OF_OUTCOME = {
    "holds": EXIT_HOLDS,
    "fails": EXIT_FAILS,
    "inconclusive": EXIT_INCONCLUSIVE,
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; 2 means "inconclusive" here,
    # so route usage problems to 3 instead
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def parse_query(text: str) -> Query:
    """Parse a --query value into a checker query object."""
    if text == "no-deadlock":
        return NoDeadlock()
    if text == "safety":
        return SafetyNoCollision()
    if text == "liveness-any":
        return LivenessAny()
    if text.startswith("liveness-any="):
        names = [w.strip() for w in text[len("liveness-any="):].split(",")]
        names = [w for w in names if w]
        if not names:
            raise _UsageError("liveness-any= needs at least one car name")
        return LivenessAny(frozenset(names))
    if text.startswith("liveness-car="):
        name = text[len("liveness-car="):].strip()
        if not name:
            raise _UsageError("liveness-car= needs a car name")
        return LivenessCar(name)
    raise _UsageError(
        f"unknown query {text!r} (expected no-deadlock, safety, "
        "liveness-any[=cars] or liveness-car=<id>)"
    )


# ---------------------------------------------------------------------------
# rendering


def _fmt_lanes(lanes) -> str:
    return "{" + ",".join(str(k) for k in sorted(lanes)) + "}"


def render_state(state: SystemState) -> List[str]:
    """One line per automaton: location, clock, lanes, occupied space."""
    clocks = dict(state.clocks)
    registers = dict(state.registers)
    out = []
    for name, loc in state.locations:
        if name in registers:
            car = state.snapshot.car(name)
            n, l = registers[name]
            out.append(
                f"{name}: {loc} x={clocks[name]} n={n} l={l}"
                f" res={_fmt_lanes(car.res)} clm={_fmt_lanes(car.clm)}"
                f" pos=[{car.pos},{car.pos + car.size})"
            )
        else:
            out.append(f"{name}: {loc}")
    return out


def render_trace(trace: Trace) -> str:
    """Readable witness: the initial state, then the numbered steps.

    Lasso witnesses get a `# cycle:` marker before the first repeated
    step and a trailing comment naming the state the run loops back to.
    """
    lines = ["initial state:"]
    lines += ["  " + row for row in render_state(trace.initial)]
    if not trace.steps:
        lines.append("# the initial state is already a witness")
        return "\n".join(lines)
    for k, (step, _) in enumerate(trace.steps):
        if trace.cycle_start is not None and k == trace.cycle_start:
            lines.append("# cycle:")
        lines.append(f"{k + 1:4d}. {step}")
    if trace.cycle_start is not None:
        lines.append(f"# loops back to the state reached after step {trace.cycle_start}")
        lines.append("state at the loop point:")
        loop_state = trace.states()[trace.cycle_start]
        lines += ["  " + row for row in render_state(loop_state)]
    else:
        lines.append("final state:")
        lines += ["  " + row for row in render_state(trace.steps[-1][1])]
    return "\n".join(lines)


def _scenario_doc(path: str, sc: Scenario) -> dict:
    return {
        "path": path,
        "lane_count": sc.lane_count,
        "cars": [dataclasses.asdict(car) for car in sc.cars],
        "variant": sc.variant,
        "constants": dataclasses.asdict(sc.constants),
        "horizon": sc.effective_horizon(),
    }


# ---------------------------------------------------------------------------
# subcommands


def _load(path: str) -> Scenario:
    try:
        return load_scenario(path)
    except OSError as exc:
        raise _UsageError(f"cannot read scenario: {exc}") from exc


def _cmd_check(args) -> int:
    sc = _load(args.scenario)
    if args.variant is not None:
        sc = dataclasses.replace(sc, variant=args.variant)
    # budget None: the environment variable or the default (Engine)
    verdict = checker.run_query(sc, parse_query(args.query), budget=args.budget)

    if args.json:
        doc = {
            "scenario": _scenario_doc(args.scenario, sc),
            "query": args.query,
            "verdict": verdict.to_dict(),
        }
        print(json.dumps(doc, indent=2))
    else:
        _print_verdict(args, sc, verdict)

    if args.trace is not None:
        _write_trace(args.trace, verdict)
    return _EXIT_OF_OUTCOME[verdict.outcome]


def _print_verdict(args, sc: Scenario, verdict: Verdict) -> None:
    print(f"scenario  {args.scenario} ({len(sc.cars)} cars, {sc.lane_count} lanes)")
    print(f"variant   {sc.variant}")
    print(f"query     {args.query}")
    note = f"  ({verdict.note})" if verdict.note else ""
    print(f"verdict   {verdict.outcome}{note}")
    print(f"states    {verdict.states}  (explored {verdict.explored})")
    if verdict.witness is not None:
        print()
        print(render_trace(verdict.witness))


def _write_trace(path: str, verdict: Verdict) -> None:
    if verdict.witness is None:
        body = f"# no witness: verdict {verdict.outcome}\n"
    else:
        body = render_trace(verdict.witness) + "\n"
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(body)
    except OSError as exc:
        raise _UsageError(f"cannot write trace: {exc}") from exc


def _cmd_eval(args) -> int:
    sc = _load(args.scenario)
    ts = sc.snapshot()
    try:
        ts.car(args.car)
    except traffic.UnknownCar:
        raise _UsageError(
            f"unknown car {args.car!r} (scenario has {', '.join(sc.car_names())})"
        ) from None
    horizon = args.horizon if args.horizon is not None else sc.effective_horizon()
    try:
        phi = mlsl.parse(args.formula)
    except mlsl.ParseError as exc:
        raise _UsageError(f"bad formula: {exc}") from exc
    view = traffic.standard_view(ts, args.car, horizon)
    try:
        result = mlsl.eval(ts, view, {"ego": args.car}, phi)
    except mlsl.EvalError as exc:
        raise _UsageError(f"cannot evaluate: {exc}") from exc

    if args.json:
        print(json.dumps({
            "scenario": args.scenario,
            "car": args.car,
            "horizon": horizon,
            "formula": mlsl.format_formula(phi),
            "result": result,
        }, indent=2))
    else:
        print("true" if result else "false")
    return EXIT_HOLDS if result else EXIT_FAILS


def _cmd_info(args) -> int:
    sc = _load(args.scenario)
    controller = build_controller(sc.variant, "i", sc.constants)
    groups = checker.Engine.for_query(sc, NoDeadlock()).interaction_groups()
    if args.json:
        doc = _scenario_doc(args.scenario, sc)
        doc["controller"] = _automaton_doc(controller)
        doc["groups"] = [list(g) for g in groups]
        print(json.dumps(doc, indent=2))
        return EXIT_HOLDS

    print(f"scenario   {args.scenario}")
    print(f"lanes      {sc.lane_count}")
    print(f"cars       {len(sc.cars)}")
    for car in sc.cars:
        print(f"  {car.name}  lane {car.lane}  pos [{car.pos},{car.pos + car.size})"
              f"  size {car.size}")
    print(f"variant    {sc.variant}")
    c = sc.constants
    print(f"constants  t={c.t} t_lc={c.t_lc} t_w={c.t_w}"
          f" wait_lo={c.wait_lo} wait_hi={c.wait_hi}")
    print(f"horizon    {sc.effective_horizon()}"
          + ("" if sc.horizon is not None else "  (covers all cars)"))
    print("groups     " + " ".join("{" + ",".join(g) + "}" for g in groups)
          + "  (cars that can see or hit each other)")
    print(f"controller {len(controller.locations)} locations,"
          f" {len(controller.edges)} edges per car")
    if args.automata:
        print()
        for line in _render_automaton(controller):
            print(line)
    return EXIT_HOLDS


# ---------------------------------------------------------------------------
# automaton pretty-printing (info --automata)

_SPATIAL_TEXT = {
    "cc": "no reservation overlap",
    "pc-some": "some potential collision",
    "pc-none": "no potential collision",
    "claim-free": "target lane unclaimed",
}


def _delta_text(delta: int) -> str:
    if delta == 0:
        return "n"
    return f"n{'+' if delta > 0 else '-'}{abs(delta)}"


def _guard_text(guard) -> str:
    if isinstance(guard, ClockConstraint):
        return f"x {guard.op} {guard.bound}"
    if isinstance(guard, LaneExists):
        return f"lane {_delta_text(guard.delta)} exists"
    if isinstance(guard, SpatialGuard):
        text = _SPATIAL_TEXT[guard.kind]
        if guard.kind == "claim-free":
            return f"{text} ({_delta_text(guard.delta)})"
        return text
    return str(guard)


def _automaton_doc(autom: Automaton) -> dict:
    return {
        "name": autom.name,
        "initial": autom.initial,
        "locations": [
            {
                "name": loc.name,
                "clock_bound": loc.clock_bound,
                "spatial_invariant": None if loc.spatial_inv is None
                else _SPATIAL_TEXT[loc.spatial_inv.kind],
            }
            for loc in autom.locations
        ],
        "edges": [
            {
                "name": edge.name,
                "source": edge.source,
                "target": edge.target,
                "guards": [_guard_text(g) for g in edge.guards],
                "action": None if edge.action is None else str(edge.action),
                "resets_clock": bool(edge.reset_clock),
                "assigns": [f"{var} := {expr}" for var, expr in edge.assigns],
                "emits": edge.emit,
            }
            for edge in autom.edges
        ],
    }


def _render_automaton(autom: Automaton) -> List[str]:
    lines = [f"controller {autom.name} (initial {autom.initial})", "locations:"]
    for loc in autom.locations:
        marks = []
        if loc.clock_bound is not None:
            marks.append(f"x <= {loc.clock_bound}")
        if loc.spatial_inv is not None:
            marks.append(_SPATIAL_TEXT[loc.spatial_inv.kind])
        suffix = f"  [{', '.join(marks)}]" if marks else ""
        lines.append(f"  {loc.name}{suffix}")
    lines.append("edges:")
    for edge in autom.edges:
        parts = []
        if edge.guards:
            parts.append("when " + " and ".join(_guard_text(g) for g in edge.guards))
        effects = []
        if edge.action is not None:
            effects.append(str(edge.action))
        if edge.reset_clock:
            effects.append("x := 0")
        effects += [f"{var} := {expr}" for var, expr in edge.assigns]
        if effects:
            parts.append("do " + "; ".join(effects))
        if edge.emit:
            parts.append(f"emit {edge.emit}")
        detail = "  ".join(parts)
        lines.append(f"  {edge.name:13s} {edge.source} -> {edge.target}"
                     + (f"  {detail}" if detail else ""))
    return lines


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lanecheck",
        description="Explicit-state verifier for multi-lane lane-change protocols.",
        epilog=f"The {BUDGET_ENV_VAR} environment variable caps the distinct "
               "states of the whole road when --budget is not given.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p_check = sub.add_parser(
        "check", help="run a query against a scenario",
        description="Run a verification query and print the verdict. "
                    "Exit code: 0 holds, 1 fails, 2 inconclusive, 3 usage error.")
    p_check.add_argument("scenario", help="scenario file")
    p_check.add_argument(
        "--query", required=True,
        help="no-deadlock | safety | liveness-any[=A,B,...] | liveness-car=<id>")
    p_check.add_argument(
        "--variant", choices=VARIANTS, default=None,
        help="override the scenario's controller variant")
    p_check.add_argument(
        "--trace", metavar="FILE", default=None,
        help="write the witness trace (or a no-witness comment) to FILE")
    p_check.add_argument(
        "--budget", type=int, default=None, metavar="N",
        help="report inconclusive once the whole road has more than N "
             "distinct states (safety and no-deadlock may count them as a "
             "product of interaction groups without storing them)")
    p_check.add_argument(
        "--json", action="store_true", help="machine-readable output")
    p_check.set_defaults(func=_cmd_check)

    p_eval = sub.add_parser(
        "eval", help="evaluate a spatial formula on the initial snapshot",
        description="Evaluate a formula in one car's standard view of the "
                    "initial snapshot. Prints true or false; exit code 0 "
                    "for true, 1 for false.")
    p_eval.add_argument("scenario", help="scenario file")
    p_eval.add_argument("--car", required=True, help="the ego car")
    p_eval.add_argument(
        "--formula", required=True,
        help="e.g. \"<re(ego) ; free>\" (atoms: true, free, re(c), cl(c), "
             "u = v; connectives: !, &, ; <phi>, [upper / lower], exists c. phi)")
    p_eval.add_argument(
        "--horizon", type=int, default=None,
        help="view half-length (default: the scenario's horizon)")
    p_eval.add_argument(
        "--json", action="store_true", help="machine-readable output")
    p_eval.set_defaults(func=_cmd_eval)

    p_info = sub.add_parser(
        "info", help="print the parsed model",
        description="Print the parsed scenario and controller shape.")
    p_info.add_argument("scenario", help="scenario file")
    p_info.add_argument(
        "--automata", action="store_true",
        help="also print the controller's locations and edges")
    p_info.add_argument(
        "--json", action="store_true", help="machine-readable output")
    p_info.set_defaults(func=_cmd_info)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"lanecheck: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ScenarioError as exc:
        print(f"lanecheck: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (checker.CheckerError, mlsl.MlslError, traffic.TrafficError) as exc:
        print(f"lanecheck: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
