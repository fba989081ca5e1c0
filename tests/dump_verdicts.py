"""Print one JSON line per verdict of a fixed set of engine runs.

A change that must not move any verdict is checked by running this script
before and after it and comparing the outputs byte for byte:

    PYTHONPATH=src python tests/dump_verdicts.py > verdicts.jsonl

Each line holds the case label, the outcome, the state counts (states,
explored), the note and the witness (Trace.to_dict()).  The cases are
six roads (fig1, three-lane fig1, scenarios/fourcars.scn, an unsafe start,
a road whose liveness region has a stuck state, and a five-car road whose
packed space exceeds 2^28) × 3 variants × the 4 queries × {default budget
(1,000,000 on fourcars), budget 50} × both guard modes, plus three
check_ag/check_af cases on fig1 under `live`: 291 in all.  Arguments, when
given, are label prefixes: only the cases whose label starts with one of
them run.  `--list` prints the labels.  The tests certify every witness
of the interval-mode cases (oracles.certify).
"""

import json
import sys
from functools import partial
from pathlib import Path
from typing import Callable, Iterator, List, Tuple

from lanecheck.checker import (Engine, LivenessAny, LivenessCar, NoDeadlock,
                               SafetyNoCollision, Verdict)
from lanecheck.scenario import load_scenario
from oracles import Bad, Goal
from support import FIG1_CARS, FIVE_CARS

ROOT = Path(__file__).resolve().parent.parent
VARIANTS = ("original", "original-plus-tw", "live")
GUARD_MODES = ("interval", "mlsl")
FIG1 = [(c.name, c.lane, c.pos, c.size) for c in FIG1_CARS]


def roads() -> List[Tuple[str, int, list, int, int]]:
    """(name, lanes, cars, horizon, default budget) of every road."""
    four = load_scenario(str(ROOT / "scenarios" / "fourcars.scn"))
    four_cars = [(c.name, c.lane, c.pos, c.size) for c in four.cars]
    return [
        ("fig1", 4, FIG1, 36, None),
        ("three-lane-fig1", 3, [(n, min(lane, 2), p, s) for n, lane, p, s in FIG1], 36, None),
        ("fourcars", four.lane_count, four_cars, four.effective_horizon(), 1_000_000),
        # both cars reserve lane 0 where their extents overlap
        ("unsafe-start", 2, [("A", 0, 0, 5), ("B", 0, 3, 5)], 9, None),
        # only B sees A: A's liveness region has a stuck state
        ("stuck", 2, [("A", 0, 0, 10), ("B", 1, 5, 10)], 5, None),
        ("five-cars", 4, list(FIVE_CARS), 23, None),
    ]


def engine(lanes: int, cars: list, variant: str, query, **kwargs) -> Engine:
    """The engine Engine.for_query builds for query on this road."""
    if isinstance(query, LivenessCar):
        live: Tuple[str, ...] = (query.car,)
    elif isinstance(query, LivenessAny):
        live = tuple(c[0] for c in cars)
    else:
        live = ()
    return Engine(lanes, cars, variant=variant,
                  collision_observer=isinstance(query, SafetyNoCollision),
                  live_observers=live, **kwargs)


def answer(eng: Engine, question) -> Verdict:
    """eng's verdict on question: a query, or a Bad (check_ag) or Goal
    (check_af) of the oracles."""
    if isinstance(question, Bad):
        return eng.check_ag(question.test)
    if isinstance(question, Goal):
        return eng.check_af(question.test)
    return eng.run_query(question)


def cases() -> Iterator[Tuple[str, Callable[[], Engine], object]]:
    """(label, engine builder, question) of every case, in dump order."""
    for name, lanes, cars, horizon, budget in roads():
        queries = (("no-deadlock", NoDeadlock()), ("safety", SafetyNoCollision()),
                   ("liveness-any", LivenessAny()),
                   (f"liveness-car={cars[0][0]}", LivenessCar(cars[0][0])))
        for variant in VARIANTS:
            for qname, query in queries:
                for b in (budget, 50):
                    for mode in GUARD_MODES:
                        label = f"{name}/{variant}/{qname}/budget={b or 'default'}/{mode}"
                        yield label, partial(engine, lanes, cars, variant, query,
                                             horizon=horizon, budget=b, guard_mode=mode), query
    fig1 = partial(engine, 4, FIG1, "live", LivenessCar("A"), horizon=36)
    yield ("fig1/live/check_ag(A confirming)", fig1,
           Bad(lambda s: s.location("A") == "confirming"))
    yield ("fig1/live/check_af(A succeeds)", fig1,
           Goal(lambda s: s.location("observer(A)") == "success"))
    yield "fig1/live/check_af(false)", fig1, Goal(lambda s: False)


def main(argv: List[str]) -> int:
    listing = "--list" in argv
    prefixes = [a for a in argv if a != "--list"]
    for label, build, question in cases():
        if prefixes and not any(label.startswith(p) for p in prefixes):
            continue
        if listing:
            print(label)
            continue
        verdict = answer(build(), question)
        print(json.dumps({"case": label, **verdict.to_dict()}, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
