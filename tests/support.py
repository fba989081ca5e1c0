"""Shared builders and replay helpers for the test suite."""

import re

# acceptance criterion results, replayed into the terminal summary by
# conftest.py so they survive pytest's output capture
acceptance_lines = []

from lanecheck import Constants, Scenario, ScenarioCar
from lanecheck.checker import Fire, Trace
from lanecheck.traffic import (
    Action,
    CarState,
    Claim,
    Reserve,
    Tau,
    TrafficSnapshot,
    WithdrawClaim,
    WithdrawReservation,
    apply_action,
)

FIG1_CARS = (
    ScenarioCar("A", lane=2, pos=10, size=5),
    ScenarioCar("B", lane=0, pos=12, size=5),
    ScenarioCar("E", lane=3, pos=40, size=5),
)

# five cars in one interaction group on four lanes, as (name, lane, pos,
# size): with the collision observer the packed space is 7.6e8 sids under
# original and 5.8e9 under live, half that without it, all above 2^28
FIVE_CARS = (("A", 0, 0, 6), ("B", 1, 4, 6), ("C", 2, 8, 6), ("D", 3, 12, 6), ("E", 2, 16, 6))


def fig1(variant="original", lane_count=4, constants=None, horizon=None) -> Scenario:
    return Scenario(
        lane_count=lane_count,
        cars=FIG1_CARS,
        variant=variant,
        constants=constants if constants is not None else Constants(),
        horizon=horizon,
    )


def example_snapshot(lane_count=4) -> TrafficSnapshot:
    """The running-example road: A and B both claim the same stretch of
    lane 1, E cruises ahead on lane 3, D is far beyond E's view."""
    return TrafficSnapshot(lane_count, {
        "A": CarState(pos=10, size=5, res={2}, clm={1}),
        "B": CarState(pos=12, size=5, res={0}, clm={1}),
        "E": CarState(pos=40, size=5, res={3}),
        "D": CarState(pos=100, size=5, res={1}),
    })


_ACTION_RE = re.compile(r"^([a-z-]+)(?:\((\d+)\))?$")


def parse_action(text: str) -> Action:
    """The inverse of the traffic actions' str()."""
    m = _ACTION_RE.match(text)
    if m is None:
        raise ValueError(f"unparseable action {text!r}")
    kind, arg = m.group(1), m.group(2)
    if kind == "claim":
        return Claim(int(arg))
    if kind == "withdraw-claim":
        return WithdrawClaim()
    if kind == "reserve":
        return Reserve()
    if kind == "withdraw-reservation":
        return WithdrawReservation(int(arg))
    if kind == "tau":
        return Tau()
    raise ValueError(f"unparseable action {text!r}")


def replay(trace: Trace) -> None:
    """Re-drive a trace through the traffic model, snapshot by snapshot.

    Every controller fire is applied via apply_action, which checks the
    action's own precondition; the resulting snapshot must equal the one
    the checker recorded.  Delays and observer steps leave it unchanged.
    """
    ts = trace.initial.snapshot
    controllers = {name for name, _ in trace.initial.registers}
    for step, state in trace.steps:
        if isinstance(step, Fire) and step.actor in controllers:
            ts = apply_action(ts, step.actor, parse_action(step.action))
        assert ts == state.snapshot, f"replay diverged after {step}"
    if trace.cycle_start is not None:
        states = trace.states()
        assert states[-1] == states[trace.cycle_start], "lasso does not close"
