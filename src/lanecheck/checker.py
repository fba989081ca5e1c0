"""Explicit-state checking of lane-change controllers over a static road.

The network under check is one timed controller per car (plus optional
observers) running over a shared traffic snapshot.  Every car runs the
same controller, one template instantiated per car, so the engine
compiles it once into one table of configurations (location, clock
value, current lane n, target lane l); a car adds only its name, start
lane and extent.  Positions never move, so the reachable space is
finite: a system state is one configuration per car plus observer
locations.

Configurations are normalised, by inactive-clock reduction (Daws & Yovine,
"Reducing the number of clock variables of timed automata", RTSS 1996):
where a location neither bounds nor reads the clock, x is 0, and in
cruising and backoff, where nothing reads the target lane, l = n.  Every
location that reads its clock also bounds it, so no clock needs a cap.
This is the only encoding; the test oracles check its successors against
those of raw clocks and target lanes.

Time is discrete.  A step is either ``delay 1`` (every clock advances by
one, permitted only if no location's clock bound would be exceeded) or a
single edge firing (one automaton moves, instantaneously).  A controller
fire is disabled when its target state breaks the firing car's clock
bound or a spatial invariant between the firing car and another car: the
firing car's own invariant, or another controller's invariant against
the firing car alone.  Spatial invariants are pairwise (a car's lanes
meet no other car's inside its view), so in a state that keeps every
invariant this is the same as asking every controller's invariants in
the target state; the two part only where two other cars already break
one between them, which a fire neither mends nor is blocked by.  A delay
or an observer fire changes no lane, so it asks no spatial invariant
again (an unsafe start may still wait).

Two query styles are supported:

* ``check_ag``: no reachable state satisfies ``bad``; counterexamples are
  shortest paths.
* ``check_af``: every divergence-free, fair run eventually satisfies
  ``good``.  In the region reachable without passing a ``good`` state, a
  counterexample is a finite run into a stuck state (nothing can fire or
  delay), or a lasso whose cycle, inside one strongly connected component
  (SCC) of the region, is zero-delay (time never advances) or fair: every
  controller enabled anywhere in the SCC fires inside it.  Weak fairness
  asks that only of controllers enabled all along the cycle, so it counts
  more cycles.  The README and the test oracles refer here for this rule.

There is one successor generator; ``guard_mode`` only selects how it
decides, once per pair of cars, whether the pair can meet (see
``Engine``), and stays only for the benchmark harness.

Interaction groups.  Cars i and j interact when either sees the other
(their extents overlap inside its view) or, under the collision test,
their extents meet (that implies the first).  The connected components
of that relation are the interaction groups; a car's guards, its
invariant and the collision test only ever look at cars of its own
group.  ``run_query`` answers ``SafetyNoCollision`` and ``NoDeadlock``
one group at a time, on an engine restricted to the group (same
controller table, pair lists, horizon and budget, and the group's
observers), and multiplies the state counts.  That is exact because
every car starts cruising with a dead clock, so its start is its own
delay successor:

* Every product step projects onto one group's step (a fire, or the
  collision observer) or onto a delay in every group, so each group's
  part of a reachable product state is reachable in the group alone.
* Conversely, take one reachable state per group, reached by runs with
  d_g delays.  Padding each run at its start with max(d) - d_g delays
  (the start is a delay self-loop) makes the delay counts equal; then
  running every group's fires between the same two delays is a product
  run, since fires of one group neither read nor break the guards and
  invariants of another, and a product delay is enabled exactly when
  every group's is.  So the reachable product is the Cartesian product
  of the group reach sets, and when no group reaches a collision neither
  does the product.
* A product state is deadlocked (no fire now, nor after any number of
  delays) only if some group's part is: if every group reaches a fire
  after t_g delays without getting stuck, the product can delay
  min(t_g) times and then fire.

So when every group holds, the query holds with the product of the group
counts as its state count, or, when that product exceeds the budget, is
inconclusive with the budget as the count, exactly as a monolithic
search that never meets a bad state ends.  When the road has one group,
or any group fails or is inconclusive, the monolithic search runs
instead, so every failing verdict, its state count and its witness are
those of the whole product.  ``check_ag`` with a caller's predicate is
never decomposed.

``LivenessAny`` and ``LivenessCar`` are answered by group as well, on
engines without the collision observer, when the answer is ``holds`` or
a zero-delay cycle.  Each group searches the region of its own engine:
the states reachable without its watched cars' goal, or every reachable
state in a group without watched cars.  Since every start is a delay
fixpoint, the padding argument above shows that the road's region is
the product of the group regions: the goal is a disjunction over groups,
so a run avoids it exactly when each group's part avoids its own.  A
product stuck state (no fire anywhere, some group's clock bound blocks
the delay) projects onto a stuck state of that group, and a product
cycle of fires projects onto a cycle of fires in some group.

The road holds, with the product of the region sizes as its state count
(or is inconclusive at the budget, as above), when (a) no group region
has a stuck state, (b) none has a zero-delay cycle, and (c) some group's
region starves a controller in each SCC with an internal edge: the
controller is enabled in every state of the SCC and fires on none of its
internal edges.  That is exact: a product SCC with an internal delay
edge projects into one SCC of the group from (c), and that SCC has an
internal edge (the delay).  Its starved controller is enabled in every
state of the product SCC and fires on none of its internal edges, since
such a fire would project onto an internal fire of the group SCC.  So
the product SCC is not fair under the rule above, nor does any cycle in
it satisfy weak fairness.  A product SCC without an internal delay edge
is a cycle of fires, which (b) rules out.

The road fails with a zero-delay cycle, with the product of the region
sizes as its state count (or is inconclusive at the budget), when every
group region is built to the end without a stuck state and some group's
has a zero-delay cycle.  That is the whole road's answer: its region has
no stuck state either, so its search builds all of it, and its fire-only
pass finds a cycle, since a group's cycle of fires lifts to the product
with the other groups frozen.  Its witness needs no whole region.  That
pass is Tarjan's search with roots in state order, and state 0 is the
start, so it yields every SCC of the states reachable from the start
over fire edges before any other, in an order fixed by the depth-first
search from the start over the edge lists.  So the states reachable from
the start over fire edges alone (without goal states), numbered and
searched the same way, give the same first SCC with an internal edge
when they hold one, and the same cycle through it; the stem walks the
whole region's edges on demand.  When they hold none, the whole road is
searched.

When every group region is built to the end with no stuck state and no
zero-delay cycle, and none settles the query (each group's part is
OPEN), the road's region is searched as the product of the group
regions; the product is never stored (``_Product``).  When that product
exceeds the budget, the road is inconclusive at the budget without any
search, whatever the parts: the whole road's region is the product and
has no stuck state, so its search would stop at the budget as well.
A product state is numbered by the mixed radix of its group state
numbers.  Its edges, in ``_expand`` order, are every group's fire
edges, merged in road car order and then slot, then one
delay edge when every group's state keeps its own: a fire of one group
is enabled and avoids the goal exactly when it does in the group, and
the road's delay is enabled and avoids the goal exactly when each
group's is and does.  Its enabled mask is the union of the group masks.
That is exact.  Every region state is reachable from state 0, the start,
so the one depth-first search of Tarjan's pass from root 0, taking each
state's edges in ``_expand`` order, fixes the components, their order,
the first fair one, its first state and every breadth-first walk of the
witness, however the states are numbered.  No group region has a cycle
of fires, and a product cycle of fires projects onto one in some group,
so the product has none either, and the fire-only pass is skipped even
under ``original``.  The verdict, its state count and its witness are
the whole road's; ``explored`` counts the group states and the
product's.

Otherwise the whole road is searched once more, so other failing
liveness verdicts and their witnesses are those of the whole product
too; a group with a fair cycle of its own does not settle the query but
does not stop another group from settling it.  ``check_af`` with a
caller's predicate is never decomposed.
"""

from __future__ import annotations

import enum
import functools
import os
from array import array
from dataclasses import dataclass, replace
from typing import (Callable, Dict, FrozenSet, Iterable, Iterator, List,
                    NamedTuple, Optional, Sequence, Tuple, Union)

from . import mlsl, traffic
from .automata import (ActClaim, ActReserve, ActTau, ActWithdrawClaim,
                       ActWithdrawReservation, Automaton, ClockConstraint,
                       Constants, LaneExists, SpatialGuard, build_controller,
                       build_observer_collision, build_observer_live,
                       canonical_variant)
from .scenario import Scenario, ScenarioCar, covering_horizon
from .traffic import CarState, Claim, Extent, Reserve, Tau, TrafficSnapshot, \
    View, WithdrawClaim, WithdrawReservation

BUDGET_ENV_VAR = "LANECHECK_STATE_BUDGET"
DEFAULT_STATE_BUDGET = 10_000_000

# successor rows memoised per block of cars and per car, in each query
# (Engine._expand), about 180 B and 300 B each; misses past this many per
# memo are computed and not stored
_ROW_LIMIT = 1 << 14
# the note of a liveness failure by a cycle of fires alone
_ZERO_DELAY_NOTE = "zero-delay cycle avoids the goal"


class CheckerError(Exception):
    pass


# ---------------------------------------------------------------------------
# queries

@dataclass(frozen=True)
class NoDeadlock:
    """No reachable state is stuck with every action disabled forever."""


@dataclass(frozen=True)
class SafetyNoCollision:
    """No reachable state has two cars with overlapping reservations."""


@dataclass(frozen=True)
class LivenessAny:
    """Some watched car eventually completes a lane change (None = all cars)."""

    cars: Optional[FrozenSet[str]] = None

    def __post_init__(self):
        if self.cars is not None:
            object.__setattr__(self, "cars", frozenset(self.cars))


@dataclass(frozen=True)
class LivenessCar:
    """The given car eventually completes a lane change."""

    car: str


Query = Union[NoDeadlock, SafetyNoCollision, LivenessAny, LivenessCar]


def _watched_cars(query: Query, names: Sequence[str]) -> Tuple[str, ...]:
    """The cars a query watches, in names order: a LivenessCar's car, the
    cars of names a LivenessAny lists (all of them when it lists none),
    and none for an AG query."""
    if isinstance(query, LivenessCar):
        return (query.car,)
    if isinstance(query, LivenessAny):
        return tuple(names) if query.cars is None else tuple(
            w for w in names if w in query.cars)
    return ()


# ---------------------------------------------------------------------------
# states, steps, traces, verdicts

@dataclass(frozen=True)
class Delay:
    amount: int = 1

    def __str__(self) -> str:
        return f"delay {self.amount}"


@dataclass(frozen=True)
class Fire:
    actor: str
    edge: str
    action: str

    def __str__(self) -> str:
        return f"fire {self.actor} {self.edge} {self.action}"


Step = Union[Delay, Fire]


@dataclass(frozen=True, eq=False)
class SystemState:
    """One global state: traffic snapshot plus automaton bookkeeping.

    locations lists (automaton name, location) pairs for controllers and
    observers; clocks and registers cover controllers only, with registers
    holding the (current lane, target lane) pair of each car.
    """

    snapshot: TrafficSnapshot
    locations: Tuple[Tuple[str, str], ...]
    clocks: Tuple[Tuple[str, int], ...]
    registers: Tuple[Tuple[str, Tuple[int, int]], ...]

    def _key(self):
        return (self.snapshot.lane_count, self.locations, self.clocks, self.registers)

    def __eq__(self, other) -> bool:
        return isinstance(other, SystemState) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def location(self, name: str) -> str:
        for auto, loc in self.locations:
            if auto == name:
                return loc
        raise KeyError(name)

    def clock(self, name: str) -> int:
        for auto, x in self.clocks:
            if auto == name:
                return x
        raise KeyError(name)

    def lanes_of(self, name: str) -> Tuple[int, int]:
        """(current lane n, target lane l) of a controller."""
        for auto, nl in self.registers:
            if auto == name:
                return nl
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "cars": {
                name: {
                    "pos": c.pos,
                    "size": c.size,
                    "res": sorted(c.res),
                    "clm": sorted(c.clm),
                }
                for name, c in sorted(self.snapshot.cars.items())
            },
            "locations": dict(self.locations),
            "clocks": dict(self.clocks),
            "registers": {name: list(nl) for name, nl in self.registers},
        }


@dataclass(frozen=True)
class Trace:
    """A run: initial state, then steps with the state reached after each.

    For lasso counterexamples cycle_start is the index (into the state
    sequence, 0 = initial) the run loops back to: the state after the last
    step equals the state at cycle_start.
    """

    initial: SystemState
    steps: Tuple[Tuple[Step, SystemState], ...]
    cycle_start: Optional[int] = None

    def states(self) -> List[SystemState]:
        return [self.initial] + [s for _, s in self.steps]

    def to_dict(self) -> dict:
        steps = []
        for step, state in self.steps:
            if isinstance(step, Delay):
                d = {"kind": "delay", "amount": step.amount}
            else:
                d = {"kind": "fire", "actor": step.actor,
                     "edge": step.edge, "action": step.action}
            steps.append({"step": d, "state": state.to_dict()})
        return {
            "initial": self.initial.to_dict(),
            "steps": steps,
            "cycle_start": self.cycle_start,
        }


@dataclass(frozen=True)
class Verdict:
    outcome: str                      # "holds" | "fails" | "inconclusive"
    witness: Optional[Trace] = None
    states: int = 0                   # distinct product states
    note: str = ""
    explored: Optional[int] = None    # states the searches stored (default: states)

    def __post_init__(self):
        if self.outcome not in ("holds", "fails", "inconclusive"):
            raise CheckerError(f"bad outcome {self.outcome!r}")
        if self.explored is None:
            object.__setattr__(self, "explored", self.states)

    @property
    def holds(self) -> bool:
        return self.outcome == "holds"

    def to_dict(self) -> dict:
        return {
            "outcome": self.outcome,
            "states": self.states,
            "explored": self.explored,
            "note": self.note,
            "witness": None if self.witness is None else self.witness.to_dict(),
        }


# ---------------------------------------------------------------------------
# the controller's configuration table

_INV_NONE, _INV_CC, _INV_PCNONE = 0, 1, 2
_EMIT_CODE = {None: 0, "claiming": 1, "reserving": 2, "withdrawing": 3}

_INV_KIND = {None: _INV_NONE, "cc": _INV_CC, "pc-none": _INV_PCNONE}

# lanes a config holds, by location name: (reserved, claimed) as n/l picks
_L_DEAD_LOCS = ("cruising", "backoff")


def _loc_masks(loc_name: str, n: int, l: int) -> Tuple[int, int]:
    if loc_name in _L_DEAD_LOCS:
        return 1 << n, 0
    if loc_name in ("claimed", "confirming"):
        return 1 << n, 1 << l
    if loc_name == "changing":
        return (1 << n) | (1 << l), 0
    raise CheckerError(f"unknown controller location {loc_name!r}")


def _heard(obs: Automaton) -> Dict[int, Tuple[int, ...]]:
    """An observer's location after it hears a controller's emission,
    [emit code][location]: along its recv edge, or staying put without one."""
    locs = [loc.name for loc in obs.locations]
    recv = {(e.source, e.recv): locs.index(e.target) for e in obs.edges if e.recv}
    return {code: tuple(recv.get((here, chan), k) for k, here in enumerate(locs))
            for chan, code in _EMIT_CODE.items() if chan is not None}


@dataclass(frozen=True)
class _FireDesc:
    slot: int
    edge_name: str
    action_str: str
    guard: int               # lanes a spatial guard asks about (0: none)
    meets: bool              # it holds when they meet the lanes held nearby
    emit: int
    target: int              # target config id


class _CarTable:
    """All configurations of the controller every car of an engine runs,
    normalised as the module docstring says, with static guards already
    evaluated and per-config successor material precomputed.  Every car
    has the same variant, constants and lane count, so one table serves
    them all; a car's digit in a packed state is its config id here."""

    def __init__(self, autom: Automaton, lane_count: int):
        loc_names = [loc.name for loc in autom.locations]
        self.loc_names = loc_names
        loc_idx = {nm: k for k, nm in enumerate(loc_names)}

        # locations whose clock is never read nor bounded: x is pinned to 0
        dead_x = set()
        for loc in autom.locations:
            out = autom.edges_from(loc.name)
            reads_clock = any(
                isinstance(g, ClockConstraint) for e in out for g in e.guards
            )
            if loc.clock_bound is None and not reads_clock:
                dead_x.add(loc.name)

        configs: List[Tuple[int, int, int, int]] = []
        for loc in autom.locations:
            xs = (0,) if loc.name in dead_x else range(loc.clock_bound + 1)
            l_dead = loc.name in _L_DEAD_LOCS
            for x in xs:
                for n in range(lane_count):
                    ls = (n,) if l_dead else [l for l in (n - 1, n + 1)
                                              if 0 <= l < lane_count]
                    for l in ls:
                        configs.append((loc_idx[loc.name], x, n, l))

        self.configs = configs
        self.cfg_id = {c: k for k, c in enumerate(configs)}
        count = len(configs)
        self.count = count
        self.res_mask = [0] * count
        self.clm_mask = [0] * count
        self.inv = [0] * count
        self.delay_next = [-1] * count
        self.fires: List[Tuple[_FireDesc, ...]] = [()] * count

        for ci, (li, x, n, l) in enumerate(configs):
            loc = autom.locations[li]
            r, c = _loc_masks(loc.name, n, l)
            self.res_mask[ci] = r
            self.clm_mask[ci] = c
            self.inv[ci] = _INV_KIND[None if loc.spatial_inv is None
                                     else loc.spatial_inv.kind]

            # delay: x advances unless the location's bound forbids it
            if loc.name in dead_x:
                self.delay_next[ci] = ci
            elif x < loc.clock_bound:
                self.delay_next[ci] = self.cfg_id[(li, x + 1, n, l)]

            fires = []
            for edge in autom.edges_from(loc.name):
                guard, meets = 0, False
                ok = True
                for g in edge.guards:
                    if isinstance(g, ClockConstraint):
                        if not g.holds(x):
                            ok = False
                            break
                    elif isinstance(g, LaneExists):
                        if not 0 <= n + g.delta < lane_count:
                            ok = False
                            break
                    elif isinstance(g, SpatialGuard):
                        # pc-some and pc-none ask about the car's claim
                        if g.kind in ("pc-some", "pc-none"):
                            guard, meets = c, g.kind == "pc-some"
                        elif g.kind == "claim-free":
                            guard = 1 << n + g.delta
                        else:
                            raise CheckerError(f"unexpected guard {g.kind!r} on edge")
                    else:
                        raise CheckerError(f"unknown guard {g!r}")
                if not ok:
                    continue
                n2, l2 = n, l
                for var, expr in edge.assigns:
                    val = expr.resolve(n, l)
                    if var == "n":
                        n2 = val
                    elif var == "l":
                        l2 = val
                    else:
                        raise CheckerError(f"unknown register {var!r}")
                tgt = edge.target
                x2 = 0 if edge.reset_clock or tgt in dead_x else x
                if tgt in _L_DEAD_LOCS:
                    l2 = n2
                ti = loc_idx[tgt]
                target = self.cfg_id.get((ti, x2, n2, l2))
                if target is None:
                    # target clock bound below the carried clock value, or a
                    # lane pair that cannot arise: edge statically disabled
                    continue
                fires.append(_FireDesc(
                    slot=len(fires),
                    edge_name=edge.name,
                    action_str=str(self._concrete_action(edge.action, n, l)),
                    guard=guard,
                    meets=meets,
                    emit=_EMIT_CODE[edge.emit],
                    target=target,
                ))
            self.fires[ci] = tuple(fires)

        # the initial location is cruising: dead clock, l = n; by start lane
        self.initial = [self.cfg_id[(loc_idx[autom.initial], 0, lane, lane)]
                        for lane in range(lane_count)]

    @functools.cached_property
    def fires_acyclic(self) -> bool:
        """Whether the graph of the controller's own fires over its
        configurations has no cycle (Kahn's algorithm).  Computed on the
        first AF search that asks, not at build: _af_search skips its
        fire-only SCC pass when it is acyclic, since then no car's own
        fires can cycle."""
        indegree = [0] * self.count
        for fires in self.fires:
            for fd in fires:
                indegree[fd.target] += 1
        ready = [ci for ci in range(self.count) if not indegree[ci]]
        removed = 0
        while ready:
            removed += 1
            for fd in self.fires[ready.pop()]:
                indegree[fd.target] -= 1
                if not indegree[fd.target]:
                    ready.append(fd.target)
        return removed == self.count

    @staticmethod
    def _concrete_action(action, n: int, l: int) -> traffic.Action:
        if isinstance(action, ActClaim):
            return Claim(action.lane.resolve(n, l))
        if isinstance(action, ActWithdrawClaim):
            return WithdrawClaim()
        if isinstance(action, ActReserve):
            return Reserve()
        if isinstance(action, ActWithdrawReservation):
            return WithdrawReservation(action.lane.resolve(n, l))
        if isinstance(action, ActTau):
            return Tau()
        raise CheckerError(f"unknown action {action!r}")


def _mask_lanes(mask: int) -> FrozenSet[int]:
    lanes = set()
    lane = 0
    while mask:
        if mask & 1:
            lanes.add(lane)
        mask >>= 1
        lane += 1
    return frozenset(lanes)


# ---------------------------------------------------------------------------
# engine

def _state_budget(budget: Optional[int]) -> int:
    if budget is not None:
        if budget < 1:
            raise CheckerError(f"state budget must be positive, got {budget}")
        return budget
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return DEFAULT_STATE_BUDGET
    try:
        value = int(raw)
        if value < 1:
            raise ValueError
    except ValueError:
        raise CheckerError(f"{BUDGET_ENV_VAR} must be a positive integer, got {raw!r}")
    return value


def _drops_rows(query):
    """Wrap an Engine query so that the successor-row memos (_rows) are
    dropped when it returns: engines kept alive between queries hold no
    rows."""
    @functools.wraps(query)
    def run(self, *args, **kwargs):
        try:
            return query(self, *args, **kwargs)
        finally:
            self._rows = None
    return run


class Engine:
    """State-space explorer for one road, one protocol variant.

    cars is a sequence of (name, lane, pos, size) tuples, kept as
    ScenarioCar records.  Every car runs the same controller, compiled
    once into one _CarTable.  The initial snapshot is not collision-checked
    here (scenario loading does that), so deliberately unsafe starting
    points can be built for testing.

    Every spatial question is "another car's lanes meet ego's somewhere in
    ego's view" (pc, claim-free, cc) or "two cars' reservations meet"
    (collision).  That holds exactly when some single pair shares a lane
    and the pair's extents overlap inside the view.  The lane half is the
    bitmask AND that _expand does per state; the geometry half is fixed
    because positions never change, and _pair_graph decides it once per
    pair on the first expansion or query: by interval arithmetic
    (_view_overlap, _extents_meet) under guard_mode="interval", by
    formula (_probe_view, _probe_global) under guard_mode="mlsl".  Its
    _Pairs, the per-car neighbour lists, the colliding pairs and the
    interaction groups, is the only record of which cars can meet.  Both
    modes give the same pairs; guard_mode stays only because the
    benchmark harness (perfbench/) sets it and reads engine.guard_mode.
    ROADMAP item 5 moves the probes to the tests, and drops guard_mode,
    once item 2 has changed the harness.

    Successor rows.  The fires of car i that are enabled in a state, and
    the sid deltas they make, depend only on i's configuration, on the
    lanes of the cars in sees[i] (the guards and i's target invariant) and
    of those in seen_by[i] whose invariant is cc or pc-none (theirs
    against i's target), and on i's live observer digit when i is watched;
    so does i's part of the delay step.  Every spatial test has the form
    "some neighbour's mask meets X", which holds exactly when X meets the
    union of their masks, so _car_row memoises i's row on its
    configuration, four unions (occupied and reserved lanes of sees[i],
    reserved lanes of its cc watchers, claimed lanes of its pc-none
    watchers) and its live digit: on a dense chain far fewer keys than
    there are neighbourhoods.  The packing is in cars order, so the digits
    i's key is read from lie in one slice of the sid, from the first to
    the last of i and its neighbours.  The cars, in cars order, form
    blocks: a car joins the block before it when their slices nest (on a
    four-car chain {A,B} and {C,D}; a two-car group is one block).
    _expand looks up one row per block, keyed on the block's slice and its
    cars' live digits: the cars' fires in car and slot order, their summed
    delay delta (None when one is blocked), their enabled bits, and
    whether a colliding pair whose first car is in the block shares a
    reserved lane (the pair's second car sees or is seen by the first, so
    its digit is in the slice).  A miss builds the row from the car rows,
    so the state is unpacked only there.  Both memos live in _rows, built
    on the first expansion and dropped when run_query, check_ag or
    check_af returns; each holds at most _ROW_LIMIT rows (later misses
    are computed and not stored), and a block whose slice spans every
    car stores none: its key is the whole state, met again only when a
    state is expanded again.
    """

    def __init__(self, lane_count: int, cars: Sequence[Tuple[str, int, int, int]],
                 variant: str = "original", constants: Optional[Constants] = None,
                 *, collision_observer: bool = False,
                 live_observers: Sequence[str] = (),
                 guard_mode: str = "interval",
                 budget: Optional[int] = None,
                 horizon: Optional[int] = None):
        if lane_count < 1:
            raise CheckerError(f"need at least one lane, got {lane_count}")
        if not cars:
            raise CheckerError("no cars")
        if guard_mode not in ("interval", "mlsl"):
            raise CheckerError(f"guard_mode must be 'interval' or 'mlsl', got {guard_mode!r}")
        self.lane_count = lane_count
        self.variant = canonical_variant(variant)
        self.constants = constants or Constants()
        self.guard_mode = guard_mode
        self.budget = _state_budget(budget)

        seen = set()
        records = []
        for entry in cars:
            car = ScenarioCar(*entry)
            if car.name in seen:
                raise CheckerError(f"duplicate car {car.name!r}")
            seen.add(car.name)
            if not 0 <= car.lane < lane_count:
                raise CheckerError(f"car {car.name!r} starts off the road (lane {car.lane})")
            if car.size < 1:
                raise CheckerError(f"car {car.name!r} needs positive size")
            records.append(car)
        self._table = _CarTable(build_controller(self.variant, "i", self.constants),
                                lane_count)

        if horizon is None:
            horizon = covering_horizon(records)
        if horizon < 1:
            raise CheckerError("horizon must be positive")
        self.horizon = horizon

        # observers: collision first, then per-car trackers in cars order
        live_cars = tuple(live_observers)
        for w in live_cars:
            if w not in seen:
                raise CheckerError(f"live observer watches unknown car {w!r}")
        if len(set(live_cars)) != len(live_cars):
            raise CheckerError("duplicate live observer")
        self._layout(records,
                     build_observer_collision() if collision_observer else None,
                     [(w, build_observer_live(w)) for w in live_cars])

    def _layout(self, cars: List[ScenarioCar], coll_obs: Optional[Automaton],
                live: Sequence[Tuple[str, Automaton]]) -> None:
        """Cars, observers and the packed state encoding over them, on
        self._table."""
        n = len(cars)
        self._cars = cars
        self._ncars = n
        self.car_names = tuple(c.name for c in cars)
        self._coll_obs = coll_obs
        self._live_cars: Tuple[str, ...] = tuple(w for w, _ in live)
        self._live_obs = tuple(obs for _, obs in live)
        self._live_index = {w: k for k, w in enumerate(self._live_cars)}
        # every observer, in the order of their digits after the cars'
        self._observers = ((coll_obs,) if coll_obs is not None else ()) + self._live_obs
        # neighbour lists and groups, decided by _pair_graph on first use
        self._pairs: Optional[_Pairs] = None
        # successor-row memos, built on the first expansion (_row_cache)
        self._rows: Optional[Tuple[list, list]] = None

        radices = [self._table.count] * n
        if coll_obs is not None:
            radices.append(2)
        radices.extend(3 for _ in self._live_obs)
        self._radices = radices
        mults = [1] * len(radices)
        for k in range(len(radices) - 2, -1, -1):
            mults[k] = mults[k + 1] * radices[k + 1]
        self._mults = mults
        self._coll_digit = n if coll_obs is not None else -1
        self._live_digit0 = n + (1 if coll_obs is not None else 0)
        self._collide_code = n << 8

        # the live observers' transitions, the same for every observer
        self._heard = _heard(self._live_obs[0]) if live else None

        init_digits = ([self._table.initial[c.lane] for c in cars]
                       + [0] * (len(radices) - n))
        self._initial_sid = self._pack_digits(init_digits)

    # -- packing ------------------------------------------------------------

    def _pack_digits(self, digits: Sequence[int]) -> int:
        sid = 0
        for d, r in zip(digits, self._radices):
            sid = sid * r + d
        return sid

    def _unpack(self, sid: int) -> List[int]:
        digits = []
        for m, r in zip(self._mults, self._radices):
            digits.append((sid // m) % r)
        return digits

    def _snapshot_of(self, cfgs: Sequence[int]) -> TrafficSnapshot:
        res, clm = self._table.res_mask, self._table.clm_mask
        return TrafficSnapshot(self.lane_count, {
            car.name: CarState(pos=car.pos, size=car.size, res=_mask_lanes(res[c]),
                               clm=_mask_lanes(clm[c]))
            for car, c in zip(self._cars, cfgs)})

    # -- pair geometry ---------------------------------------------------------

    def _view_overlap(self, i: int, j: int) -> bool:
        """Whether the extents of cars i and j, both clipped to i's standard
        view, overlap."""
        a, b = self._cars[i], self._cars[j]
        return (max(a.pos, b.pos, a.pos - self.horizon)
                < min(a.pos + a.size, b.pos + b.size, a.pos + self.horizon))

    def _extents_meet(self, i: int, j: int) -> bool:
        """Whether the extents of cars i and j overlap, views aside."""
        return traffic.extents_meet(self._cars[i], self._cars[j])

    def _probe_view(self, i: int, j: int) -> bool:
        """_view_overlap(i, j) by exists_pc_formula in i's standard view of a
        two-lane road where i reserves lane 1 and claims lane 0, j reserves
        lane 0: true exactly when the extents overlap inside the view."""
        ego, other = self._cars[i], self._cars[j]
        ts = TrafficSnapshot(2, {
            ego.name: CarState(ego.pos, ego.size, res={1}, clm={0}),
            other.name: CarState(other.pos, other.size, res={0}),
        })
        view = traffic.standard_view(ts, ego.name, self.horizon)
        return mlsl.eval(ts, view, {"ego": ego.name}, mlsl.exists_pc_formula())

    def _probe_global(self, i: int, j: int) -> bool:
        """_extents_meet(i, j) by the collision formula on a one-lane road
        where both cars reserve the lane, viewed past every car's ends."""
        a, b = self._cars[i], self._cars[j]
        ts = TrafficSnapshot(1, {a.name: CarState(a.pos, a.size, res={0}),
                                 b.name: CarState(b.pos, b.size, res={0})})
        lo = min(t.pos for t in self._cars) - 1
        hi = max(t.pos + t.size for t in self._cars) + 1
        return mlsl.eval(ts, View(0, 0, Extent(lo, hi)), {"ego": a.name},
                         mlsl.collision_formula())

    # -- interaction groups ---------------------------------------------------

    def _pair_graph(self) -> "_Pairs":
        """Neighbour lists and interaction groups, each pair decided once, on
        first use, so guard_mode="mlsl" probes run during the first query
        and not at build."""
        if self._pairs is not None:
            return self._pairs
        n = self._ncars
        if self.guard_mode == "mlsl":
            overlaps, meets = self._probe_view, self._probe_global
        else:
            overlaps, meets = self._view_overlap, self._extents_meet
        sees: List[List[int]] = [[] for _ in range(n)]
        seen_by: List[List[int]] = [[] for _ in range(n)]
        collide: List[Tuple[int, int]] = []
        label = list(range(n))      # group label per car

        def join(i: int, j: int) -> None:
            a, b = label[i], label[j]
            if a != b:
                label[:] = [a if x == b else x for x in label]

        for i in range(n):
            for j in range(n):
                if i != j and overlaps(i, j):
                    sees[i].append(j)
                    seen_by[j].append(i)
                    join(i, j)
            # only the collision observer reads whether extents meet; it adds
            # no link anyway: of two cars whose extents meet, the one further
            # along sees the other in any view of positive horizon
            if self._coll_obs is not None:
                for j in range(i + 1, n):
                    if meets(i, j):
                        collide.append((i, j))
                        join(i, j)
        groups: Dict[int, List[int]] = {}
        for i in range(n):
            groups.setdefault(label[i], []).append(i)
        self._pairs = _Pairs(tuple(map(tuple, sees)), tuple(map(tuple, seen_by)),
                             tuple(collide), tuple(map(tuple, groups.values())))
        return self._pairs

    def interaction_groups(self) -> List[Tuple[str, ...]]:
        """Car names of each interaction group, in cars order."""
        return [tuple(self.car_names[i] for i in g)
                for g in self._pair_graph().groups]

    def _restrict(self, group: Sequence[int]) -> "Engine":
        """The engine of one interaction group: a copy of this one (the
        controller table, horizon and budget), laid out over the group's
        cars and observers, with its _Pairs re-indexed to the group (so no
        pair is decided again)."""
        pairs = self._pair_graph()
        index = {i: k for k, i in enumerate(group)}
        names = {self.car_names[i] for i in group}
        # attribute by attribute: an engine made by copy.copy, whose
        # __dict__ is filled in one update, ran _expand about 10% slower
        # (CPython 3.11)
        sub = object.__new__(type(self))
        for name, value in vars(self).items():
            setattr(sub, name, value)
        sub._layout([self._cars[i] for i in group], self._coll_obs,
                    [(w, obs) for w, obs in zip(self._live_cars, self._live_obs)
                     if w in names])
        # a group is closed under every link, and index keeps cars order
        sub._pairs = _Pairs(
            tuple(tuple(index[j] for j in pairs.sees[i]) for i in group),
            tuple(tuple(index[j] for j in pairs.seen_by[i]) for i in group),
            tuple((index[i], index[j]) for i, j in pairs.collide if i in index),
            (tuple(range(len(group))),))
        return sub

    # -- successor generation -------------------------------------------------

    def _expand(self, sid: int):
        """Successors of a packed state.

        Returns (succs, enabled_mask) where succs is a list of (code,
        successor sid); code is -1 for the delay step, i<<8|slot for a fire
        of controller i, and ncars<<8 for the collision observer.  succs
        lists the fires by car and slot, then the collision observer, then
        the delay, so a state has a fire exactly when its first edge is not
        the delay.  enabled_mask has bit i set when controller i can
        fire here.  Each block of cars adds its row from _rows, built from
        car rows on a miss (see the class docstring).
        """
        blocks, _ = self._rows or self._row_cache()
        succs: List[Tuple[int, int]] = []
        enabled = 0
        ddelta: Optional[int] = 0
        collides = False
        for top, div, live, limit, memo, cars, pairs in blocks:
            key = sid % top // div
            for m in live:
                key = key * 3 + sid // m % 3
            row = memo.get(key)
            if row is None:
                res, count = self._table.res_mask, self._table.count
                fires, dd, bits, hit = (), 0, 0, False
                for i in cars:
                    f, d = self._car_row(i, sid)
                    if f:
                        fires += f
                        bits |= 1 << i
                    dd = None if dd is None or d is None else dd + d
                for mi, mj in pairs:
                    if res[sid // mi % count] & res[sid // mj % count]:
                        hit = True
                row = fires, dd, bits, hit
                if len(memo) < limit:
                    memo[key] = row
            fires, dd, bits, hit = row
            for code, delta in fires:
                succs.append((code, sid + delta))
            enabled |= bits
            collides = collides or hit
            if ddelta is not None:
                ddelta = None if dd is None else ddelta + dd

        if collides:
            m = self._mults[self._coll_digit]
            if sid // m % 2 == 0:
                succs.append((self._collide_code, sid + m))
        if ddelta is not None:
            succs.append((-1, sid + ddelta))
        return succs, enabled

    def _row_cache(self) -> Tuple[list, list]:
        """_rows: the blocks, and per car i (its row memo, the multipliers of
        the digits of the cars in sees[i] and seen_by[i], of its own and of
        its live digit, 0 when unwatched).  A block is (top, divisor, live
        multipliers, store limit, memo, cars, multiplier pairs of the
        colliding pairs whose first car is in it), where sid % top //
        divisor is the slice of sid from the first to the last digit its
        cars' rows read."""
        pairs, mults, n = self._pair_graph(), self._mults, self._ncars
        live = [mults[self._live_digit0 + self._live_index[w]] if w in self._live_index else 0
                for w in self.car_names]
        spans, cars = [], []
        for i in range(n):
            near = (i,) + pairs.sees[i] + pairs.seen_by[i]
            lo, hi = min(near), max(near)
            if spans and (spans[-1][0] - lo) * (spans[-1][1] - hi) <= 0:
                # the slices nest: i joins the block, whose slice is the larger
                spans[-1] = min(lo, spans[-1][0]), max(hi, spans[-1][1])
                cars[-1].append(i)
            else:
                spans.append((lo, hi))
                cars.append([i])
        self._rows = [(mults[lo] * self._table.count, mults[hi],
                       tuple(live[i] for i in b if live[i]),
                       0 if hi - lo == n - 1 else _ROW_LIMIT, {}, b,
                       tuple((mults[i], mults[j]) for i, j in pairs.collide if i in b))
                      for (lo, hi), b in zip(spans, cars)], [
            ({}, [mults[j] for j in pairs.sees[i]], [mults[j] for j in pairs.seen_by[i]],
             mults[i], live[i]) for i in range(n)]
        return self._rows

    def _car_row(self, i: int, sid: int) -> Tuple[tuple, Optional[int]]:
        """Car i's enabled fires in sid, as ((code, sid delta), ...) in slot
        order, and the sid delta of its part of the delay step (None when
        its clock bound blocks waiting), memoised in _rows on the key the
        class docstring gives."""
        memo, sees, seen, m, k = self._rows[1][i]
        table = self._table
        res_mask, clm_mask, inv, count = table.res_mask, table.clm_mask, table.inv, table.count
        occ = res = wcc = wpc = 0
        for mj in sees:
            c = sid // mj % count
            occ |= res_mask[c] | clm_mask[c]
            res |= res_mask[c]
        for mj in seen:
            c = sid // mj % count
            if inv[c] == _INV_CC:
                wcc |= res_mask[c]
            elif inv[c] == _INV_PCNONE:
                wpc |= clm_mask[c]
        ci = sid // m % count
        cur = sid // k % 3 if k else 0
        key = ci, occ, res, wcc, wpc, cur
        row = memo.get(key)
        if row is None:
            fires = []
            for fd in table.fires[ci]:
                tgt = fd.target
                tr, tc = res_mask[tgt], clm_mask[tgt]
                # the guard, i's invariant in the target, then its watchers'
                if ((fd.guard & occ > 0) != fd.meets
                        or inv[tgt] == _INV_CC and tr & res
                        or inv[tgt] == _INV_PCNONE and tc & occ
                        or tr & wcc or (tr | tc) & wpc):
                    continue
                delta = (tgt - ci) * m
                if fd.emit and k:
                    delta += (self._heard[fd.emit][cur] - cur) * k
                fires.append(((i << 8) | fd.slot, delta))
            nx = table.delay_next[ci]
            row = tuple(fires), None if nx < 0 else (nx - ci) * m
            if len(memo) < _ROW_LIMIT:
                memo[key] = row
        return row

    def _step_of(self, sid: int, code: int) -> Step:
        if code == -1:
            return Delay(1)
        i = code >> 8
        if i == self._ncars:
            return Fire("collision-observer", "collision", "tau")
        ci = (sid // self._mults[i]) % self._table.count
        fd = self._table.fires[ci][code & 0xFF]
        return Fire(self.car_names[i], fd.edge_name, fd.action_str)

    # -- presentation ---------------------------------------------------------

    def _to_state(self, sid: int) -> SystemState:
        digits = self._unpack(sid)
        locations = []
        clocks = []
        registers = []
        table = self._table
        for name, ci in zip(self.car_names, digits):
            li, x, cn, cl = table.configs[ci]
            locations.append((name, table.loc_names[li]))
            clocks.append((name, x))
            registers.append((name, (cn, cl)))
        for obs, d in zip(self._observers, digits[self._ncars:]):
            locations.append((obs.name, obs.locations[d].name))
        return SystemState(
            snapshot=self._snapshot_of(digits[:self._ncars]),
            locations=tuple(locations),
            clocks=tuple(clocks),
            registers=tuple(registers),
        )

    def initial_state(self) -> SystemState:
        return self._to_state(self._initial_sid)

    # -- reachability (AG) ----------------------------------------------------

    @_drops_rows
    def check_ag(self, bad: Callable[[SystemState], bool]) -> Verdict:
        """No reachable state satisfies bad; witness is a shortest bad path."""
        return self._ag(lambda sid, exp: bad(self._to_state(sid)), False)

    def _ag(self, bad, needs_expansion: bool) -> Verdict:
        verdict, found = self._ag_search(bad, needs_expansion)
        if found is None:
            return verdict
        # the search and its visited set are gone; a second BFS meets the
        # states in the same order and stops where found was first reached
        return replace(verdict, witness=self._trace(
            lambda sid: self._expand(sid)[0], found))

    def _ag_search(self, bad, needs_expansion: bool) -> Tuple[Verdict, Optional[int]]:
        """Breadth-first search from the start for a bad state that stores
        no parents: the verdict without its witness, and the bad state, if
        one was found.

        The visited states are a paged bitmap: pages[p] holds the bits of
        sids 1024 * p .. 1024 * p + 1023 in a bytearray(128), made when the
        search first reaches one of them.  So the search stores one bit per
        sid of the pages it touches, whatever the size of the packed space
        (5.8e9 sids for five live cars with the collision observer).  A
        state alone in its page costs about 245 B, where a set would hold
        it in about 65 B.  The lookup runs once per edge and is written out
        in the loop: as a method call it took about 15% longer."""
        init = self._initial_sid
        if not needs_expansion and bad(init, None):
            return Verdict("fails", states=1), init
        pages: Dict[int, bytearray] = {init >> 10: bytearray(128)}
        pages[init >> 10][(init >> 3) & 127] = 1 << (init & 7)
        states = 1
        frontier = [init]
        while frontier:
            nxt = []
            for sid in frontier:
                expansion = self._expand(sid)
                if needs_expansion and bad(sid, expansion):
                    return Verdict("fails", states=states), sid
                for code, s2 in expansion[0]:
                    page = pages.get(s2 >> 10)
                    if page is None:
                        page = pages[s2 >> 10] = bytearray(128)
                    byte, bit = (s2 >> 3) & 127, 1 << (s2 & 7)
                    if page[byte] & bit:
                        continue
                    page[byte] |= bit
                    if states >= self.budget:
                        return Verdict(
                            "inconclusive", states=states,
                            note=f"state budget {self.budget} exhausted"), None
                    states += 1
                    if not needs_expansion and bad(s2, None):
                        return Verdict("fails", states=states), s2
                    nxt.append(s2)
            frontier = nxt
        return Verdict("holds", states=states), None

    @staticmethod
    def _bfs_path(start: int, succ, stop) -> List[Tuple[int, int, int]]:
        """The first walk from start, in breadth-first order over the edges
        (code, s2) of succ(sid), whose last edge satisfies stop(code, s2), as
        (sid, code, s2) triples.  Every witness is built from such walks."""
        prev: Dict[int, Optional[Tuple[int, int, int]]] = {start: None}
        frontier = [start]
        while frontier:
            nxt = []
            for sid in frontier:
                for code, s2 in succ(sid):
                    if stop(code, s2):
                        walk = [(sid, code, s2)]
                        while prev[walk[-1][0]] is not None:
                            walk.append(prev[walk[-1][0]])
                        return walk[::-1]
                    if s2 not in prev:
                        prev[s2] = (sid, code, s2)
                        nxt.append(s2)
            frontier = nxt
        raise CheckerError("no walk reaches the stop edge")

    def _trace(self, succ, goal: int, cycle: Sequence[Tuple[int, int, int]] = (),
               sid: Optional[Callable[[int], int]] = None) -> Trace:
        """The first walk from the start to goal over succ, then cycle (a
        closed walk from goal) when one is given.  The walks go over sids,
        or, when sid is given, over state numbers, the start as 0, that sid
        maps to sids for the steps of the trace."""
        init = self._initial_sid
        start = init if sid is None else 0
        stem = [] if goal == start else self._bfs_path(
            start, succ, lambda code, s2: s2 == goal)
        walk = stem + list(cycle)
        if sid is not None:
            walk = [(sid(k), code, sid(k2)) for k, code, k2 in walk]
        steps = tuple((self._step_of(s, code), self._to_state(s2))
                      for s, code, s2 in walk)
        return Trace(initial=self._to_state(init), steps=steps,
                     cycle_start=len(stem) if cycle else None)

    # -- inevitability (AF) ---------------------------------------------------

    @_drops_rows
    def check_af(self, good: Callable[[SystemState], bool]) -> Verdict:
        """Every fair, non-zeno run eventually satisfies good."""
        return self._af(lambda sid: good(self._to_state(sid)))

    def _af(self, good) -> Verdict:
        # [:2]: a name bound to the region and masks would keep the masks
        # alive while the witness is built
        verdict, witness = self._af_search(good)[:2]
        return verdict if witness is None else replace(verdict, witness=witness())

    def _af_search(self, good) -> Tuple[Verdict, Optional[Callable[[], Trace]], _Part,
                                         Optional[Tuple[_Region, List[int]]]]:
        """The search of _af: its verdict without the witness, a function
        that builds the witness (None when there is none), what the region
        says of a holding product answer (_by_group), and for an OPEN part
        the complete region with its enabled masks, from which _from_groups
        can search the road's (_Product).  The part is RULES_OUT when the
        build stopped early, ZERO_DELAY when the region has a zero-delay
        cycle, SETTLES when it starves a controller in every SCC with an
        internal edge (one enabled in each of its states that fires on
        none of its internal edges), and OPEN otherwise.  The region
        (_region) is every state reachable without passing a good state,
        with all its edges.

        The fire-only SCC pass is skipped when the controller's own fires
        cannot cycle (_CarTable.fires_acyclic, one flag for every car): a
        cycle of fires in the region would project onto a closed walk of
        some car's own fires, since the collision observer only ever moves
        from 0 to 1 and the progress observers move only with their car."""
        if good(self._initial_sid):
            return Verdict("holds", states=1), None, _Part.SETTLES, None
        region, enabled, stop = self._region(good, False)
        if stop is not None:
            if stop.outcome == "inconclusive":
                return stop, None, _Part.RULES_OUT, None
            # every state shallower than the stuck one is expanded: the
            # region's edges hold the search's walk to it
            stuck = len(enabled)
            return (stop, lambda: self._trace(region.edges, stuck, (), region.sid),
                    _Part.RULES_OUT, None)
        passes = [(False, region.succ(False))]
        if not self._table.fires_acyclic:
            passes.insert(0, (True, region.succ(True)))
        verdict, witness, part = self._scan(region, enabled.__getitem__, passes)
        return verdict, witness, part, (region, enabled) if part is _Part.OPEN else None

    def _scan(self, graph: Union[_Region, "_Product"], enabled: Callable[[int], int],
              passes: Sequence[Tuple[bool, Callable[[int], Iterable[int]]]]
              ) -> Tuple[Verdict, Optional[Callable[[], Trace]], _Part]:
        """The SCC passes of _af_search over a complete region or a
        _Product, in order: zero-delay cycles (fire edges only) for a pass
        (True, succ), fair ones for (False, succ), where succ gives the
        pass's edges to _tarjan.  A fair SCC is one where every controller
        enabled in some state (enabled(k)) also fires on an internal edge.
        Returns the verdict, its witness function and the part, as
        _af_search does."""
        states = graph.n
        member = bytearray(states)      # the SCC at hand (_cycles)
        loose = False       # some SCC with an internal edge starves no controller
        for fire_only, succ in passes:
            for scc, fired in _cycles(states, succ, graph.edges, member, self._ncars):
                if fire_only:
                    needed, note, part = fired, _ZERO_DELAY_NOTE, _Part.ZERO_DELAY
                else:
                    needed, always = 0, -1
                    note, part = "fair cycle avoids the goal", _Part.OPEN
                    for k in scc:
                        mask = enabled(k)
                        needed |= mask
                        always &= mask
                    loose = loose or not (always & ~fired)
                if fire_only or not needed & ~fired:
                    return (Verdict("fails", states=states, note=note),
                            lambda: self._trace(graph.edges, scc[0], self._lasso(
                                graph.edges, scc, member, needed, fire_only), graph.sid),
                            part)
        return Verdict("holds", states=states), None, _Part.OPEN if loose else _Part.SETTLES

    def _region(self, good, fire_only: bool) -> Tuple[_Region, List[int], Optional[Verdict]]:
        """The states reachable from the start without passing a good state
        (the start is not tested), numbered in breadth-first order with their
        edges in CSR form (_Region), fire edges only when fire_only; the enabled
        mask of each expanded state, apart, so that a witness walking the region
        does not hold the masks; and the verdict that stopped the build early: a
        run into a stuck state (nothing can fire or delay), order[len(enabled)],
        or the budget (None when it was built to its end).  A region that stopped
        early must not be searched for cycles: its later states were never expanded."""
        init = self._initial_sid
        region = _Region([init], array("q", [0]), array("i"), array("i"))
        order, offsets, targets, codes = region
        index = {init: 0}   # sid -> state number, read only while building
        enabled: List[int] = []     # a list: masks can exceed 64 bits
        for sid in order:   # grows while it is walked: a breadth-first queue
            succs, mask = self._expand(sid)
            if not succs:
                return region, enabled, Verdict("fails", states=len(order),
                                                note="run reaches a stuck state")
            if fire_only:
                succs = [edge for edge in succs if edge[0] != -1]
            enabled.append(mask)
            for code, s2 in succs:
                k2 = index.get(s2)
                if k2 is None:
                    if good(s2):
                        continue
                    if len(order) >= self.budget:
                        return region, enabled, Verdict(
                            "inconclusive", states=len(order),
                            note=f"state budget {self.budget} exhausted")
                    k2 = index[s2] = len(order)
                    order.append(s2)
                targets.append(k2)
                codes.append(code)
            offsets.append(len(targets))
        return region, enabled, None

    def _zero_delay_witness(self, good) -> Tuple[Optional[Trace], int]:
        """The witness _af_search builds for a zero-delay cycle, found
        without the whole region when the region has no stuck state and
        fits the budget (see _from_groups), and the number of states stored:
        None when it is not found this way or the build stopped early.

        It builds the fire-only region (_region): the states reachable
        from the start over fire edges alone, numbered as _af_search
        numbers the whole region, and runs the same fire-only SCC pass over
        it.  Both passes make one depth-first search from state 0, the
        start, over the same edge lists, and every state numbered here lies
        in that first search tree, so the first SCC with an internal edge
        found here is the first one the whole region yields; when there is
        none here, the whole region may still have one.  The cover cycle
        walks the same fire edges, and the stem walks _expand with good
        states dropped, which are the edges the whole region keeps."""
        region, _, stop = self._region(good, True)
        if stop is None:
            member = bytearray(region.n)
            # the region holds fire edges alone
            for scc, fired in _cycles(region.n, region.succ(False), region.edges,
                                      member, self._ncars):
                stem = lambda sid: [(code, s2) for code, s2 in self._expand(sid)[0]
                                    if not good(s2)]
                order = region.order
                cycle = [(order[k], code, order[k2]) for k, code, k2 in
                         self._lasso(region.edges, scc, member, fired, True)]
                return self._trace(stem, order[scc[0]], cycle), region.n
        return None, region.n

    def _lasso(self, edges, scc: List[int], member: bytearray, needed: int,
               fire_only: bool) -> List[Tuple[int, int, int]]:
        """The cycle of a witness in scc, the component that _cycles just
        yielded (member marks its states): a closed walk from scc[0] over
        the edges(k) inside scc, as (k, code, k2) triples of state numbers,
        that fires every controller in needed at least once, with no delays
        when fire_only."""
        def inside(k: int) -> List[Tuple[int, int]]:
            return [(code, k2) for code, k2 in edges(k)
                    if member[k2] and (code != -1 or not fire_only)]
        walk: List[Tuple[int, int, int]] = []
        cur = start = scc[0]
        for i in range(self._ncars):
            if needed >> i & 1:
                # ends with a fire of controller i (the delay's -1 >> 8 is -1)
                walk += self._bfs_path(cur, inside, lambda code, k2: code >> 8 == i)
                cur = walk[-1][2]
        if cur != start or not walk:
            walk += self._bfs_path(cur, inside, lambda code, k2: k2 == start)
        return walk

    # -- query dispatch ---------------------------------------------------------

    @_drops_rows
    def run_query(self, query: Query) -> Verdict:
        if not isinstance(query, (NoDeadlock, SafetyNoCollision, LivenessAny, LivenessCar)):
            raise CheckerError(f"unknown query {query!r}")
        if isinstance(query, SafetyNoCollision) and self._coll_obs is None:
            raise CheckerError("engine was built without the collision observer")
        return self._by_group(query)

    def _whole(self, query: Query) -> Verdict:
        """The monolithic search for query."""
        if isinstance(query, (LivenessAny, LivenessCar)):
            return self._af(self._goal(self._liveness_targets(query)))
        return self._ag(*self._bad(query))

    def _bad(self, query: Query):
        """The bad-state test of _ag_search for a NoDeadlock or
        SafetyNoCollision query, and whether it reads the expansion."""
        if isinstance(query, NoDeadlock):
            return self._deadlock_from, True
        unsafe = self._mults[self._coll_digit]
        return (lambda sid, exp: (sid // unsafe) % 2 == 1), False

    def _goal(self, watched: Sequence[str]) -> Callable[[int], bool]:
        """Whether some car of watched that this engine observes has
        completed a lane change in a state."""
        ms = tuple(self._mults[self._live_digit0 + k]
                   for w, k in self._live_index.items() if w in watched)
        if len(ms) == 1:
            m, = ms
            return lambda sid: sid // m % 3 == 2

        def goal(sid: int) -> bool:
            for m in ms:
                if sid // m % 3 == 2:
                    return True
            return False
        return goal

    def _by_group(self, query: Query) -> Verdict:
        """query one interaction group at a time when the road has more
        than one and, for liveness, no collision observer; otherwise, or
        when the groups do not settle it, the monolithic search."""
        liveness = isinstance(query, (LivenessAny, LivenessCar))
        watched = self._liveness_targets(query) if liveness else ()
        groups = self._pair_graph().groups
        explored = 0
        if len(groups) > 1 and not (liveness and self._coll_obs is not None):
            verdict, explored = self._from_groups(query, watched, groups)
            if verdict is not None:
                return verdict
        # the group regions are freed by now, so the whole-road search
        # peaks no higher than without them
        whole = self._whole(query)
        return replace(whole, explored=explored + whole.explored)

    def _from_groups(self, query: Query, watched: Sequence[str],
                     groups: Sequence[Tuple[int, ...]]) -> Tuple[Optional[Verdict], int]:
        """The answer of _by_group from the group searches, None when the
        whole road must be searched, and the number of states explored.

        When no group rules the answer out, and the product of the group
        state counts exceeds the budget, the answer is inconclusive at the
        budget, whatever the parts.  Otherwise the product is the answer
        when some group settles it (_group_part), or, for liveness, when
        some group region has a zero-delay cycle.  When every group region
        comes back OPEN, the road's region is their product, searched as a
        _Product.  That needs no test of the start: every start is its own
        delay successor (module docstring)."""
        explored, product, parts, factors = 0, 1, set(), []
        for group in groups:
            verdict, part, factor = self._group_factor(group, query, watched)
            explored += verdict.explored
            if part is _Part.RULES_OUT:
                return None, explored
            product *= verdict.states
            parts.add(part)
            factors.append(factor)
        if product > self.budget:
            return Verdict("inconclusive", states=self.budget, explored=explored,
                           note=f"state budget {self.budget} exhausted"), explored
        if _Part.ZERO_DELAY in parts:
            witness, stored = self._zero_delay_witness(self._goal(watched))
            explored += stored
            if witness is not None:
                return Verdict("fails", witness, states=product,
                               note=_ZERO_DELAY_NOTE, explored=explored), explored
        elif _Part.SETTLES in parts:
            return Verdict("holds", states=product, explored=explored), explored
        else:
            # every part is OPEN, which only liveness gives; no group
            # region has a cycle of fires, so neither has the product
            graph = _Product(factors)
            verdict, witness, _ = self._scan(graph, graph.enabled, ((False, graph.targets),))
            explored += product
            return replace(verdict, explored=explored,
                           witness=None if witness is None else witness()), explored
        return None, explored

    def _group_factor(self, group: Tuple[int, ...], query: Query, watched: Sequence[str]
                      ) -> Tuple[Verdict, _Part, Optional[Tuple[Tuple[int, ...], _Region,
                                                                List[int]]]]:
        """The verdict and part of group's engine (_group_part), and for an
        OPEN part what _Product reads of the group: its cars (road
        indices), its region with each state's part of the road's sid in
        place of its own sid, and its enabled masks.  The group's engine is
        not kept."""
        sub = self._restrict(group)
        verdict, part, found = sub._group_part(query, watched)
        if found is None:
            return verdict, part, None
        region, enabled = found
        places = [self._mults[i] for i in group] + [
            self._mults[self._live_digit0 + self._live_index[w]] for w in sub._live_cars]
        sids = [sum(d * m for d, m in zip(sub._unpack(sid), places)) for sid in region.order]
        return verdict, part, (group, region._replace(order=sids), enabled)

    @_drops_rows
    def _group_part(self, query: Query, watched: Sequence[str]
                    ) -> Tuple[Verdict, _Part, Optional[Tuple[_Region, List[int]]]]:
        """A group engine's search for _by_group, what it says of the
        product answer (_Part), and for an OPEN part the group's complete
        region with its enabled masks (_af_search).  An AG search settles
        it when it holds and rules it out otherwise.  A liveness region
        avoids the goal of the group's cars in watched (a group without any
        keeps every reachable state); its part is _af_search's.  No witness
        is built: the road's witness comes from the whole-road engine or
        the product of the group regions."""
        if isinstance(query, (LivenessAny, LivenessCar)):
            verdict, _, part, region = self._af_search(self._goal(watched))
            return verdict, part, region
        verdict, _ = self._ag_search(*self._bad(query))
        return verdict, _Part.SETTLES if verdict.holds else _Part.RULES_OUT, None

    def _liveness_targets(self, query) -> Tuple[str, ...]:
        wanted = _watched_cars(query, self.car_names)
        if isinstance(query, LivenessAny) and query.cars is not None:
            missing = set(query.cars) - set(self.car_names)
            if missing:
                raise CheckerError(f"liveness query names unknown cars {sorted(missing)}")
        if not wanted:
            raise CheckerError("liveness query watches no cars")
        for w in wanted:
            if w not in self._live_index:
                raise CheckerError(f"engine has no progress observer for {w!r}")
        return wanted

    def _deadlock_from(self, sid: int, expansion) -> bool:
        """Whether no fire is reachable from sid by delays alone.  A state
        has a fire exactly when its first edge is not the delay (_expand)."""
        succs = expansion[0]
        if succs and succs[0][0] != -1:
            return False
        seen = {sid}
        while succs and succs[0][0] == -1:
            # only the delay is left; follow delays until a fire shows up
            sid = succs[0][1]
            if sid in seen:
                return True
            seen.add(sid)
            succs = self._expand(sid)[0]
        return not succs

    @classmethod
    def for_query(cls, sc: Scenario, query: Query, **kwargs) -> "Engine":
        kwargs.setdefault("horizon", sc.effective_horizon())
        return cls(
            sc.lane_count,
            [(c.name, c.lane, c.pos, c.size) for c in sc.cars],
            variant=sc.variant,
            constants=sc.constants,
            collision_observer=isinstance(query, SafetyNoCollision),
            live_observers=_watched_cars(query, sc.car_names()),
            **kwargs,
        )


class _Pairs(NamedTuple):
    """Which cars of a road can meet, decided once per pair (_pair_graph)."""

    sees: Tuple[Tuple[int, ...], ...]       # [i]: cars j overlapping i in i's view
    seen_by: Tuple[Tuple[int, ...], ...]    # [i]: cars j that i overlaps in j's view
    collide: Tuple[Tuple[int, int], ...]    # (i, j), i < j, extents meet; needs coll_obs
    groups: Tuple[Tuple[int, ...], ...]     # interaction groups, in cars order


class _Part(enum.Enum):
    """What one interaction group's search says of the road's answer
    (Engine._by_group)."""

    RULES_OUT = "rules out"     # a stuck state, a failing AG search or the budget
    ZERO_DELAY = "zero-delay"   # a complete region with a zero-delay cycle
    OPEN = "open"               # neither rules the answer out nor settles it
    SETTLES = "settles"         # an AG search holds, or a region starves (_af_search)


class _Region(NamedTuple):
    """A numbered region (Engine._region).  order[k] is the sid of state k,
    in breadth-first discovery order, which is also the order states are
    expanded in.  State k's edges, in _expand order, are targets[e] (state
    numbers) and codes[e] (as in _expand) for e in range(offsets[k],
    offsets[k + 1]); a state found but not expanded has no entry there and
    reads as having no edges.  order stays a list, since sids can exceed
    64 bits."""

    order: List[int]
    offsets: array
    targets: array
    codes: array

    @property
    def n(self) -> int:
        return len(self.order)

    def sid(self, k: int) -> int:
        return self.order[k]

    def edges(self, k: int) -> List[Tuple[int, int]]:
        """The edges (code, state number) of state k."""
        if k + 1 >= len(self.offsets):
            return []
        a, b = self.offsets[k], self.offsets[k + 1]
        return list(zip(self.codes[a:b], self.targets[a:b]))

    def succ(self, fire_only: bool) -> Callable[[int], array]:
        """_tarjan's successor function over this complete region: the
        targets of each state's edges, of its fire edges alone when
        fire_only (a delay is a state's last edge)."""
        offsets, targets, codes = self.offsets, self.targets, self.codes
        if not fire_only:
            return lambda k: targets[offsets[k]:offsets[k + 1]]

        def fires(k: int) -> array:
            a, b = offsets[k], offsets[k + 1]
            return targets[a:b - 1] if b > a and codes[b - 1] == -1 else targets[a:b]
        return fires


class _Product:
    """The region of a liveness query on a road whose interaction groups'
    regions all came back OPEN (Engine._by_group), searched without being
    built: the product of the group regions (module docstring).

    State p numbers one state per group region by mixed radix, the first
    group's digit the most significant, so the start is 0.  Its edges are
    every group's fire edges, merged in road car order and then slot,
    then one delay edge when every group's state keeps its own; its
    enabled mask is the union of the group masks.  These are the edges
    and masks of the whole road's region, in _expand order.

    Per group, _digits holds (mult, size, fires, delays, masks, sids),
    each list indexed by the group's state number k: its fire edges as
    (road code, number delta) pairs, its delay edge's delta (None without
    one), its enabled mask in road car bits, and its part of the road's
    sid."""

    def __init__(self, factors: Sequence[Tuple[Tuple[int, ...], _Region, List[int]]]):
        """factors: per interaction group, in group order, its cars (road
        indices), its region holding each state's part of the road's sid
        as its order, and its enabled masks (Engine._group_factor)."""
        digits = []
        mult = 1
        for cars, region, enabled in reversed(factors):
            fires, delays, masks = [], [], []
            for k in range(region.n):
                out, delay = [], None
                for code, k2 in region.edges(k):
                    if code == -1:
                        delay = (k2 - k) * mult
                    else:
                        out.append(((cars[code >> 8] << 8) | (code & 0xFF), (k2 - k) * mult))
                fires.append(tuple(out))
                delays.append(delay)
                masks.append(sum(1 << i for j, i in enumerate(cars) if enabled[k] >> j & 1))
            digits.append((mult, region.n, fires, delays, masks, region.order))
            mult *= region.n
        self.n = mult
        self._digits = digits[::-1]
        cars = [c for c, _, _ in factors]
        # groups come in the order of their first cars; their fires need a
        # merge only when one group's cars run past the next group's first
        self._merge = any(max(a) > min(b) for a, b in zip(cars, cars[1:]))

    def edges(self, p: int) -> List[Tuple[int, int]]:
        """The edges (code, state number) of state p, in _expand order."""
        moves: List[Tuple[int, int]] = []     # (code, number delta)
        delay: Optional[int] = 0
        for mult, size, fires, delays, _, _ in self._digits:
            k = p // mult % size
            moves += fires[k]
            if delay is not None:
                d = delays[k]
                delay = None if d is None else delay + d
        if self._merge:
            moves.sort()
        out = [(code, p + d) for code, d in moves]
        if delay is not None:
            out.append((-1, p + delay))
        return out

    def targets(self, p: int) -> List[int]:
        """The targets of edges(p), in its order: _tarjan's successors."""
        return [p2 for _, p2 in self.edges(p)]

    def enabled(self, p: int) -> int:
        mask = 0
        for mult, size, _, _, masks, _ in self._digits:
            mask |= masks[p // mult % size]
        return mask

    def sid(self, p: int) -> int:
        return sum(sids[p // mult % size] for mult, size, _, _, _, sids in self._digits)


def _tarjan(n: int, succ: Callable[[int], Iterable[int]]) -> Iterator[List[int]]:
    """The strongly connected components with an internal edge of the graph
    over states 0..n - 1 whose edges leave state k for the states succ(k).

    Iterative Tarjan: roots are taken in state order and each state's
    edges in succ's order, so the components come out in one deterministic
    order, and in reverse topological order: when a path joins two of
    them, its end's is yielded first.  Each component lists its states as
    they leave the stack, its root last.  A component of one state is
    yielded only when it has an edge to itself.  A low-link is kept only
    while its state is on the depth-first path."""
    index = array("i", [-1]) * n    # discovery number; n once yielded
    looped = bytearray(n)           # 1 for a state with an edge to itself
    stack = array("i")              # Tarjan's stack
    path = []   # the path above v: (state, its edges not looked at yet, low-link)
    count = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        v, rest, low = root, iter(succ(root)), count
        index[root] = count
        count += 1
        stack.append(root)
        while True:
            for w in rest:
                iw = index[w]
                if iw < 0:
                    break
                if iw < low:
                    low = iw
                elif w == v:
                    looped[v] = 1
            else:
                if low == index[v]:
                    # off the stack: an index above all others never lowers low
                    comp = []
                    while not comp or comp[-1] != v:
                        comp.append(stack.pop())
                        index[comp[-1]] = n
                    if len(comp) > 1 or looped[v]:
                        yield comp
                if not path:
                    break
                inner = low
                v, rest, low = path.pop()
                if inner < low:
                    low = inner
                continue
            path.append((v, rest, low))
            v, rest, low = w, iter(succ(w)), count
            index[w] = count
            count += 1
            stack.append(w)


def _cycles(n: int, succ: Callable[[int], Iterable[int]],
            edges: Callable[[int], List[Tuple[int, int]]], member: bytearray,
            ncars: int) -> Iterator[Tuple[List[int], int]]:
    """_tarjan's components over succ, in its order, each with the mask
    of the controllers (codes below ncars << 8) that fire on an internal
    edge of edges(k), which lists state k's edges as (code, state) pairs.
    member[k] is 1 for the states of the component just yielded, and 0
    for every other state, until the generator resumes."""
    for scc in _tarjan(n, succ):
        for k in scc:
            member[k] = 1
        fired = 0
        for k in scc:
            for code, k2 in edges(k):
                if member[k2] and code != -1 and (code >> 8) < ncars:
                    fired |= 1 << (code >> 8)
        yield scc, fired
        for k in scc:
            member[k] = 0


# ---------------------------------------------------------------------------
# module-level entry point

def run_query(sc: Scenario, query: Query, **kwargs) -> Verdict:
    """Build the right engine for the query and run it."""
    return Engine.for_query(sc, query, **kwargs).run_query(query)
