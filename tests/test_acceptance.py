"""Acceptance suite: the end-to-end checks the package promises to satisfy.

Each test prints one PASS/FAIL line (on the real stderr, so it shows up
even under pytest's capture) and carries timing or size details where
the behaviour is performance-sensitive.  Expected state counts are
regression pins: they were produced by this engine and cross-checked
against the independent reference implementation in oracles.py on
scaled-down roads.
"""

import dataclasses
import itertools
import random
import sys
import time
from contextlib import contextmanager

from lanecheck import mlsl
from lanecheck.automata import Constants
from lanecheck.checker import (
    Delay,
    Engine,
    Fire,
    LivenessAny,
    LivenessCar,
    NoDeadlock,
    SafetyNoCollision,
    run_query,
)
from lanecheck.scenario import Scenario, ScenarioCar, load_scenario
from lanecheck.traffic import CarState, TrafficSnapshot, standard_view

import oracles
import support
from support import example_snapshot, fig1, replay


def _report(num: int, name: str, status: str, detail: str = "") -> None:
    extra = f" ({detail})" if detail else ""
    line = f"ACCEPTANCE C{num} {name}: {status}{extra}"
    support.acceptance_lines.append(line)
    print(line, file=sys.__stderr__, flush=True)


@contextmanager
def criterion(num: int, name: str):
    info = {}
    try:
        yield info
    except BaseException:
        _report(num, name, "FAIL", info.get("detail", ""))
        raise
    _report(num, name, "PASS", info.get("detail", ""))


# -- C1: the three example formulas evaluate correctly, fast ----------------------


def test_c1_example_formulas():
    with criterion(1, "example snapshot formulas") as info:
        ts = example_snapshot()
        view = standard_view(ts, "E", 36)
        nu = {"ego": "E", "a": "A", "b": "B", "d": "D"}
        started = time.perf_counter()
        phi1 = mlsl.eval(ts, view, nu, mlsl.parse("<re(ego) ; free>"))
        phi2 = mlsl.eval(ts, view, nu, mlsl.parse("<cl(a) & cl(b) ; !cl(a) & cl(b)>"))
        phi3 = mlsl.eval(ts, view, nu, mlsl.parse("<cl(b) ; free ; re(d)>"))
        elapsed = time.perf_counter() - started
        info["detail"] = f"{elapsed * 1000:.1f} ms"
        assert phi1 is True
        assert phi2 is True
        assert phi3 is False
        assert elapsed < 0.5


# -- C2: collision freedom across the constant sweep ------------------------------


def test_c2_safety_constant_sweep():
    with criterion(2, "safety over 27 constant assignments") as info:
        runs = 0
        started = time.perf_counter()
        for t, t_lc, t_w in itertools.product((1, 2, 3), repeat=3):
            consts = Constants(t=t, t_lc=t_lc, t_w=t_w, wait_lo=1, wait_hi=4)
            for variant in ("original", "live"):
                v = run_query(fig1(variant, constants=consts), SafetyNoCollision())
                assert v.outcome == "holds", (variant, t, t_lc, t_w, v)
                runs += 1
                if (t, t_lc, t_w) == (2, 3, 1):
                    expected = 21684 if variant == "original" else 25404
                    assert v.states == expected, (variant, v.states)
        elapsed = time.perf_counter() - started
        info["detail"] = f"{runs} runs, {elapsed:.1f}s, target 60s"
        assert elapsed < 600


# -- C3: deadlock freedom ----------------------------------------------------------


def test_c3_deadlock_freedom():
    with criterion(3, "deadlock freedom") as info:
        started = time.perf_counter()
        for variant in ("original", "live"):
            v = run_query(fig1(variant), NoDeadlock())
            assert v.outcome == "holds", (variant, v)
        elapsed = time.perf_counter() - started
        info["detail"] = f"{elapsed:.1f}s, target 60s"
        assert elapsed < 600


# -- C4: the plain protocol livelocks ------------------------------------------------


def test_c4_livelock_rediscovered():
    with criterion(4, "plain-variant livelock lasso") as info:
        v = run_query(fig1("original"), LivenessAny())
        info["detail"] = f"{v.states} states"
        assert v.outcome == "fails"
        assert v.states == 150
        trace = v.witness
        assert trace is not None and trace.cycle_start is not None

        cycle_steps = trace.steps[trace.cycle_start:]
        assert cycle_steps
        # the livelock is instantaneous: claims and withdrawals only
        assert all(isinstance(step, Fire) for step, _ in cycle_steps)
        actors = {step.actor for step, _ in cycle_steps}
        assert {"A", "B"} <= actors

        # both contenders shuttle between cruising and claimed (by way of
        # confirming at most); nobody ever reaches changing
        cycle_states = trace.states()[trace.cycle_start:]
        for car in ("A", "B"):
            seen = {s.location(car) for s in cycle_states}
            assert seen <= {"cruising", "claimed", "confirming"}, (car, seen)
            assert {"cruising", "claimed"} <= seen, (car, seen)

        replay(trace)


# -- C5: held claims break the livelock ----------------------------------------------


def test_c5_timed_claims_restore_group_progress():
    with criterion(5, "timed claims give group liveness") as info:
        v = run_query(fig1("original-plus-tw"), LivenessAny())
        info["detail"] = f"{v.states} states"
        assert v.outcome == "holds"
        assert v.states == 270


# -- C6: individual starvation, fixed by the full protocol ----------------------------


def test_c6_starvation_and_its_fix():
    with criterion(6, "per-car starvation and the live fix") as info:
        starved = run_query(fig1("original-plus-tw"), LivenessCar("A"))
        assert starved.outcome == "fails"
        assert starved.states == 9976
        assert "fair cycle" in starved.note
        trace = starved.witness
        cycle = trace.steps[trace.cycle_start:]
        assert any(isinstance(step, Delay) for step, _ in cycle)
        assert all(s.location("observer(A)") != "success" for s in trace.states())
        replay(trace)

        counts = {}
        for car, expected in (("A", 7250), ("B", 8062), ("E", 2628)):
            v = run_query(fig1("live"), LivenessCar(car))
            assert v.outcome == "holds", (car, v)
            assert v.states == expected, (car, v.states)
            counts[car] = v.states
        info["detail"] = (f"starvation lasso {starved.states} states; "
                          f"live holds {counts}")


# -- C7: interval collision checks equal their formula reading ------------------------


def _random_snapshot(rng: random.Random) -> TrafficSnapshot:
    lanes = rng.randint(1, 6)
    cars = {}
    for k in range(rng.randint(1, 5)):
        r0 = rng.randrange(lanes)
        res = {r0}
        clm = set()
        if r0 + 1 < lanes and rng.random() < 0.25:
            res.add(r0 + 1)
        elif rng.random() < 0.5:
            side = [l for l in (r0 - 1, r0 + 1) if 0 <= l < lanes]
            if side:
                clm = {rng.choice(side)}
        cars[f"K{k}"] = CarState(
            pos=rng.randint(-10, 10), size=rng.randint(1, 4),
            res=frozenset(res), clm=frozenset(clm))
    return TrafficSnapshot(lanes, cars)


def test_c7_interval_checks_equal_formula_semantics():
    with criterion(7, "interval vs formula collision checks") as info:
        rng = random.Random(20260816)
        snapshots = 1000
        comparisons = 0
        for _ in range(snapshots):
            ts = _random_snapshot(rng)
            names = sorted(ts.cars)
            span = (max(c.pos + c.size for c in ts.cars.values())
                    - min(c.pos for c in ts.cars.values()) + 1)
            ego = rng.choice(names)
            view = standard_view(ts, ego, span)
            nu = {"ego": ego}
            assert mlsl.cc(ts, ego) == mlsl.eval(ts, view, nu, mlsl.cc_formula())
            comparisons += 1
            some = any(mlsl.pc(ts, ego, c) for c in names)
            assert some == mlsl.eval(ts, view, nu, mlsl.exists_pc_formula())
            comparisons += 1
            for other in names:
                got = mlsl.eval(ts, view, {"ego": ego, "c": other},
                                mlsl.pc_formula("c"))
                assert mlsl.pc(ts, ego, other) == got
                comparisons += 1
        info["detail"] = f"{snapshots} snapshots, {comparisons} comparisons, all agree"


# -- C8: wider roads and one more car stay within reach --------------------------------


def test_c8_scaling_wide_road():
    with criterion(8, "sixteen-lane road") as info:
        sc16 = load_scenario("scenarios/fig1-16lanes.scn")
        details = []
        for variant in ("original", "live"):
            sc = dataclasses.replace(sc16, variant=variant)
            started = time.perf_counter()
            safe = run_query(sc, SafetyNoCollision())
            alive = run_query(sc, NoDeadlock())
            elapsed = time.perf_counter() - started
            assert safe.outcome == "holds", (variant, safe)
            assert alive.outcome == "holds", (variant, alive)
            expected = 6_955_776 if variant == "original" else 9_547_824
            assert safe.states == alive.states == expected, (variant, safe, alive)
            details.append(f"{variant} {safe.states} states {elapsed:.0f}s")
        info["detail"] = "; ".join(details)


def test_c8_four_cars_terminate_within_budget():
    with criterion(8, "four-car scenario under a state budget") as info:
        sc = load_scenario("scenarios/fourcars.scn")
        budget = 1_000_000
        outcomes = {}
        started = time.perf_counter()
        for text, query in (
            ("no-deadlock", NoDeadlock()),
            ("safety", SafetyNoCollision()),
            ("liveness-any", LivenessAny()),
            ("liveness-car=A", LivenessCar("A")),
        ):
            v = run_query(sc, query, budget=budget)
            assert v.outcome in ("holds", "fails", "inconclusive"), (text, v)
            if text in ("no-deadlock", "safety"):
                # groups {A,B}, {D}, {E}: 417 * 52 * 52 states, over budget
                assert v.outcome == "inconclusive", (text, v)
                assert v.states == budget, (text, v)
                assert v.explored == 417 + 52 + 52, (text, v)
            else:
                # group {A,B}'s region has a zero-delay cycle, so the
                # product of the regions fails; explored counts the group
                # regions and the product, searched without being stored
                states, explored = ((1_350, 30 + 9 + 5 + 1_350) if text == "liveness-any"
                                    else (308_256, 114 + 52 + 52 + 308_256))
                assert (v.outcome, v.states, v.explored, v.note) == (
                    "fails", states, explored, "zero-delay cycle avoids the goal"), (text, v)
            outcomes[text] = v.outcome
        elapsed = time.perf_counter() - started
        info["detail"] = (f"budget {budget}, {elapsed:.0f}s, "
                          + ", ".join(f"{k}={v}" for k, v in outcomes.items()))


# -- C9: verdicts agree with an exhaustive reference on small roads ---------------------


def _random_small_scenario(rng: random.Random) -> Scenario:
    lanes = rng.randint(1, 3)
    cars = []
    cursor = rng.randint(-4, 0)
    for k in range(rng.randint(1, 2)):
        size = rng.randint(2, 4)
        cars.append(ScenarioCar(f"R{k}", rng.randrange(lanes), cursor, size))
        cursor += size + rng.randint(0, 3)
    return Scenario(
        lane_count=lanes,
        cars=tuple(cars),
        variant=rng.choice(("original", "original-plus-tw", "live")),
        constants=Constants(
            t=rng.randint(1, 3), t_lc=rng.randint(1, 3), t_w=rng.randint(1, 2),
            wait_lo=1, wait_hi=rng.randint(1, 3)),
    )


def test_c9_brute_force_cross_check():
    with criterion(9, "exhaustive cross-check on small roads") as info:
        rng = random.Random(1729)
        checked = 0
        for _ in range(12):
            sc = _random_small_scenario(rng)
            for query in (NoDeadlock(), SafetyNoCollision(),
                          LivenessAny(), LivenessCar(sc.cars[0].name)):
                eng = Engine.for_query(sc, query)
                got = eng.run_query(query).outcome
                if isinstance(query, NoDeadlock):
                    want = oracles.naive_no_deadlock(eng)
                elif isinstance(query, SafetyNoCollision):
                    want = oracles.naive_ag(eng, oracles.collision_bad)
                elif isinstance(query, LivenessCar):
                    want = oracles.naive_af(eng, oracles.success_goal([query.car]))
                else:
                    want = oracles.naive_af(
                        eng, oracles.success_goal(sc.car_names()))
                assert got == want, (sc, query, got, want)
                checked += 1
        info["detail"] = f"{checked} scenario/query pairs agree"
