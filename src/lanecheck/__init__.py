"""Explicit-state verification of multi-lane lane-change protocols.

The package models a motorway as numbered lanes with cars that claim
and reserve lane segments, drives each car with a small timed automaton
(several controller variants), and explores the discrete-time product
system exhaustively.  Queries cover collision freedom, deadlock freedom
and lane-change liveness; failed checks come back with a replayable
counterexample trace.  Spatial properties can also be stated directly
in an interval logic with horizontal and vertical chop and evaluated
over a car's view of the road.
"""

from .automata import Constants, VARIANTS, build_controller, canonical_variant
from .checker import (
    CheckerError,
    Delay,
    Engine,
    Fire,
    LivenessAny,
    LivenessCar,
    NoDeadlock,
    SafetyNoCollision,
    SystemState,
    Trace,
    Verdict,
    run_query,
)
from .scenario import (
    Scenario,
    ScenarioCar,
    ScenarioError,
    load_scenario,
    loads,
    write_scenario,
)
from .traffic import (
    CarState,
    Extent,
    TrafficError,
    TrafficSnapshot,
    View,
    apply_action,
    standard_view,
)

__version__ = "0.1.0"

__all__ = [
    "CarState",
    "CheckerError",
    "Constants",
    "Delay",
    "Engine",
    "Extent",
    "Fire",
    "LivenessAny",
    "LivenessCar",
    "NoDeadlock",
    "SafetyNoCollision",
    "Scenario",
    "ScenarioCar",
    "ScenarioError",
    "SystemState",
    "Trace",
    "TrafficError",
    "TrafficSnapshot",
    "VARIANTS",
    "Verdict",
    "View",
    "apply_action",
    "build_controller",
    "canonical_variant",
    "load_scenario",
    "loads",
    "run_query",
    "standard_view",
    "write_scenario",
]
