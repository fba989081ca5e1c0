"""Explicit-state checking of lane-change controllers over a static road.

The network under check is one timed controller per car (plus optional
observers) running over a shared traffic snapshot.  Positions never move,
so the reachable space is finite: each car contributes a small set of
configurations (location, clock value, current lane n, target lane l) and
a system state is one configuration per car plus observer locations.

Time is discrete.  A step is either ``delay 1`` (every clock advances by
one, permitted only if no location's clock bound would be exceeded) or a
single edge firing (one automaton moves, instantaneously).  Location
invariants are global: a fire or delay whose target state violates any
automaton's clock bound or spatial invariant is disabled.

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
``Engine``).

Interaction groups.  Cars i and j interact when either sees the other
(their extents overlap inside its view) or, under the collision test,
their extents meet (that implies the first).  The connected components
of that relation are the interaction groups; a car's guards, its
invariant and the collision test only ever look at cars of its own
group.  ``run_query`` answers ``SafetyNoCollision`` and ``NoDeadlock``
one group at a time, on an engine restricted to the group (same car
tables, pair lists, horizon and budget, and the group's observers), and
multiplies the state counts.
That is exact when every car starts in a configuration whose delay step
leads back to itself (cruising with a dead clock, the normalised start):

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
a start is not a delay fixpoint, or any group fails or is inconclusive,
the monolithic search runs instead, so every failing verdict, its state
count and its witness are those of the whole product.  ``check_ag`` with
a caller's predicate is never decomposed.

``LivenessAny`` and ``LivenessCar`` are answered by group as well, but
only when the answer is ``holds``, under the same gate and with no
collision observer.  Each group searches the region of its own engine:
the states reachable without its watched cars' goal, or every reachable
state in a group without watched cars.  The road holds, with the
product of the region sizes as its state count (or is inconclusive at
the budget, as above), when (a) no group region has a stuck state, (b)
none has a zero-delay cycle, and (c) some group's region starves a
controller in each SCC with an internal edge: the controller is enabled
in every state of the SCC and fires on none of its internal edges.
That is exact:

* With delay-fixpoint starts, the padding argument above shows that the
  road's region is the product of the group regions: the goal is a
  disjunction over groups, so a run avoids it exactly when each group's
  part avoids its own.
* A product stuck state (no fire anywhere, some group's clock bound
  blocks the delay) projects onto a stuck state of that group, and a
  product cycle of fires projects onto a cycle of fires in some group.
* A product SCC with an internal delay edge projects into one SCC of the
  group from (c), and that SCC has an internal edge (the delay).  Its
  starved controller is enabled in every state of the product SCC and
  fires on none of its internal edges, since such a fire would project
  onto an internal fire of the group SCC.  So the product SCC is not
  fair under the rule above, nor does any cycle in it satisfy weak
  fairness.  A product SCC without an internal delay edge is a cycle of
  fires, which (b) rules out.

Otherwise the whole road is searched once more, so failing liveness
verdicts and their witnesses are those of the whole product too; a group
with a fair cycle of its own does not settle the query but does not
stop another group from settling it.  ``check_af`` with a caller's
predicate is never decomposed.
"""

from __future__ import annotations

import functools
import os
from array import array
from dataclasses import dataclass, replace
from typing import (Callable, Dict, FrozenSet, Iterator, List, NamedTuple,
                    Optional, Sequence, Set, Tuple, Union)

from . import mlsl, traffic
from .automata import (ActClaim, ActReserve, ActTau, ActWithdrawClaim,
                       ActWithdrawReservation, Automaton, ClockConstraint,
                       Constants, LaneExists, SpatialGuard, build_controller,
                       build_observer_collision, build_observer_live,
                       canonical_variant)
from .scenario import Scenario
from .traffic import CarState, Claim, Extent, Reserve, Tau, TrafficSnapshot, \
    View, WithdrawClaim, WithdrawReservation

BUDGET_ENV_VAR = "LANECHECK_STATE_BUDGET"
DEFAULT_STATE_BUDGET = 10_000_000

# dense visited bitmaps up to this many addressable states (32 MB)
_BITMAP_LIMIT = 1 << 28
# successor rows memoised per car and query (Engine._expand), about 240 B
# each; misses past this many are computed and not stored
_ROW_LIMIT = 1 << 14


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

    def format(self) -> str:
        lines = []
        for k, (step, _) in enumerate(self.steps):
            if self.cycle_start is not None and k == self.cycle_start:
                lines.append("# cycle:")
            lines.append(str(step))
        if not lines:
            lines.append("# initial state is already a witness")
        return "\n".join(lines)

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
# per-car configuration tables

_INV_NONE, _INV_CC, _INV_PCNONE = 0, 1, 2
_REQ_NONE, _REQ_PCSOME, _REQ_PCNONE, _REQ_CLAIMFREE = 0, 1, 2, 3
_EMIT_CODE = {None: 0, "claiming": 1, "reserving": 2, "withdrawing": 3}

_INV_KIND = {None: _INV_NONE, "cc": _INV_CC, "pc-none": _INV_PCNONE}

# lanes a config holds, by location name: (reserved, claimed) as n/l picks
_L_DEAD_LOCS = ("cruising", "backoff")


def _loc_masks(loc_name: str, n: int, l: int) -> Tuple[int, int]:
    if loc_name in ("cruising", "backoff"):
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
    action: traffic.Action
    action_str: str
    req: int                 # spatial guard kind
    req_lane: int            # lane for claim-free guards
    req_bit: int             # 1 << req_lane (0 when unused)
    emit: int
    target: int              # target config id


class _CarTable:
    """All reachable configurations of one controller, with static guards
    already evaluated and per-config successor material precomputed."""

    def __init__(self, name: str, lane: int, pos: int, size: int,
                 autom: Automaton, lane_count: int,
                 normalize: bool, clock_cap: Optional[int]):
        self.name = name
        self.lane0 = lane
        self.pos = pos
        self.size = size
        self.autom = autom
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
            if normalize and loc.clock_bound is None and not reads_clock:
                dead_x.add(loc.name)

        configs: List[Tuple[int, int, int, int]] = []
        for loc in autom.locations:
            if loc.name in dead_x:
                xs: Sequence[int] = (0,)
            else:
                hi = loc.clock_bound
                if clock_cap is not None:
                    hi = clock_cap if hi is None else min(hi, clock_cap)
                if hi is None:
                    raise CheckerError(
                        f"location {loc.name!r} has an unbounded live clock; "
                        f"pass clock_cap to explore it"
                    )
                xs = range(hi + 1)
            l_dead = loc.name in _L_DEAD_LOCS
            for x in xs:
                for n in range(lane_count):
                    if l_dead and normalize:
                        ls: Sequence[int] = (n,)
                    elif l_dead:
                        # stale targets are always within one lane of n
                        ls = [l for l in (n - 1, n, n + 1) if 0 <= l < lane_count]
                    else:
                        ls = [l for l in (n - 1, n + 1) if 0 <= l < lane_count]
                    for l in ls:
                        configs.append((loc_idx[loc.name], x, n, l))

        self.configs = configs
        self.cfg_id = {c: k for k, c in enumerate(configs)}
        count = len(configs)
        self.count = count
        self.res_mask = [0] * count
        self.clm_mask = [0] * count
        self.occ_mask = [0] * count
        self.inv = [0] * count
        self.delay_next = [-1] * count
        self.fires: List[Tuple[_FireDesc, ...]] = [()] * count
        self.loc_of = [0] * count

        for ci, (li, x, n, l) in enumerate(configs):
            loc = autom.locations[li]
            self.loc_of[ci] = li
            r, c = _loc_masks(loc.name, n, l)
            self.res_mask[ci] = r
            self.clm_mask[ci] = c
            self.occ_mask[ci] = r | c
            self.inv[ci] = _INV_KIND[None if loc.spatial_inv is None
                                     else loc.spatial_inv.kind]

            # delay: x advances unless the location's bound forbids it
            if loc.name in dead_x:
                self.delay_next[ci] = ci
            else:
                nx = x + 1
                if clock_cap is not None:
                    nx = min(nx, clock_cap)
                if loc.clock_bound is not None and nx > loc.clock_bound:
                    self.delay_next[ci] = -1
                else:
                    self.delay_next[ci] = self.cfg_id[(li, nx, n, l)]

            fires = []
            for edge in autom.edges_from(loc.name):
                req, req_lane = _REQ_NONE, -1
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
                        if g.kind == "pc-some":
                            req = _REQ_PCSOME
                        elif g.kind == "pc-none":
                            req = _REQ_PCNONE
                        elif g.kind == "claim-free":
                            req = _REQ_CLAIMFREE
                            req_lane = n + g.delta
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
                tgt = autom.location(edge.target)
                x2 = 0 if edge.reset_clock else x
                if normalize and tgt.name in dead_x:
                    x2 = 0
                if normalize and tgt.name in _L_DEAD_LOCS:
                    l2 = n2
                ti = loc_idx[tgt.name]
                target = self.cfg_id.get((ti, x2, n2, l2))
                if target is None:
                    # target clock bound below the carried clock value, or a
                    # lane pair that cannot arise: edge statically disabled
                    continue
                act = self._concrete_action(edge.action, n, l)
                fires.append(_FireDesc(
                    slot=len(fires),
                    edge_name=edge.name,
                    action=act,
                    action_str=str(act),
                    req=req,
                    req_lane=req_lane,
                    req_bit=0 if req_lane < 0 else 1 << req_lane,
                    emit=_EMIT_CODE[edge.emit],
                    target=target,
                ))
            self.fires[ci] = tuple(fires)

        init = (loc_idx[autom.initial], 0, lane, lane)
        if init not in self.cfg_id:
            raise CheckerError(f"initial configuration of {name!r} not enumerable")
        self.initial = self.cfg_id[init]

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

    def car_state(self, ci: int) -> CarState:
        return CarState(
            pos=self.pos,
            size=self.size,
            res=_mask_lanes(self.res_mask[ci]),
            clm=_mask_lanes(self.clm_mask[ci]),
        )


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
    """Wrap an Engine query so that the successor-row memo (_rows) is
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

    cars is a sequence of (name, lane, pos, size) tuples.  The initial
    snapshot is not collision-checked here (scenario loading does that),
    so deliberately unsafe starting points can be built for testing.

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
    interaction groups, is the only record of which cars can meet.

    Successor rows.  The fires of car i that are enabled in a state, and
    the sid deltas they make, depend on three things only: i's own
    configuration; the configurations of the cars in sees[i] (the guards
    and i's target invariant) and seen_by[i] (their invariants against
    i's target); and i's live observer digit, when i is watched.  So is
    i's part of the delay step.  The packing is in cars order, so those
    car digits lie in one slice of the sid, from the first to the last of
    i and its neighbours in cars order; that slice, times 3 plus the live
    digit, keys i's memo in _rows.  The slice may hold digits of cars in
    between that i does not read, which only splits one row over several
    keys.  _expand looks every car's row up by key and computes a missing
    one with _car_row, so a row is computed once per distinct
    neighbourhood and the state is never unpacked when all rows hit.
    The memo is built on the first expansion, holds at most _ROW_LIMIT
    rows per car (later misses are computed and not stored), and is
    dropped when run_query, check_ag or check_af returns; successors()
    and deadlock() keep it, so a walk of single steps reuses it.
    """

    def __init__(self, lane_count: int, cars: Sequence[Tuple[str, int, int, int]],
                 variant: str = "original", constants: Optional[Constants] = None,
                 *, collision_observer: bool = False,
                 live_observers: Sequence[str] = (),
                 guard_mode: str = "interval",
                 budget: Optional[int] = None,
                 normalize: bool = True,
                 clock_cap: Optional[int] = None,
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
        tables = []
        for entry in cars:
            name, lane, pos, size = entry[0], entry[1], entry[2], entry[3]
            if name in seen:
                raise CheckerError(f"duplicate car {name!r}")
            seen.add(name)
            if not 0 <= lane < lane_count:
                raise CheckerError(f"car {name!r} starts off the road (lane {lane})")
            if size < 1:
                raise CheckerError(f"car {name!r} needs positive size")
            autom = build_controller(self.variant, name, self.constants)
            tables.append(_CarTable(name, lane, pos, size, autom, lane_count,
                                    normalize, clock_cap))

        if horizon is None:
            lo = min(t.pos for t in tables)
            hi = max(t.pos + t.size for t in tables)
            horizon = (hi - lo) + 1
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
        self._layout(tables,
                     build_observer_collision() if collision_observer else None,
                     [(w, build_observer_live(w)) for w in live_cars])

    def _layout(self, tables: List[_CarTable], coll_obs: Optional[Automaton],
                live: Sequence[Tuple[str, Automaton]]) -> None:
        """Cars, observers and the packed state encoding over them."""
        n = len(tables)
        self._cars = tables
        self._ncars = n
        self.car_names = tuple(t.name for t in tables)
        self._coll_obs = coll_obs
        self._live_cars: Tuple[str, ...] = tuple(w for w, _ in live)
        self._live_obs = tuple(obs for _, obs in live)
        self._live_index = {w: k for k, w in enumerate(self._live_cars)}
        # every observer, in the order of their digits after the cars'
        self._observers = ((coll_obs,) if coll_obs is not None else ()) + self._live_obs
        # neighbour lists and groups, decided by _pair_graph on first use
        self._pairs: Optional[_Pairs] = None
        # per-car successor rows, built on the first expansion (_row_cache)
        self._rows: Optional[List[Tuple[int, int, int, Dict[int, tuple]]]] = None

        radices = [t.count for t in tables]
        if coll_obs is not None:
            radices.append(2)
        radices.extend(3 for _ in self._live_obs)
        self._radices = radices
        mults = [1] * len(radices)
        for k in range(len(radices) - 2, -1, -1):
            mults[k] = mults[k + 1] * radices[k + 1]
        self._mults = mults
        self.state_space = mults[0] * radices[0] if radices else 1
        self._coll_digit = n if coll_obs is not None else -1
        self._live_digit0 = n + (1 if coll_obs is not None else 0)
        self._collide_code = n << 8

        # per car: its live observer's digit index, and that observer's
        # transitions (_heard); -1 and None for unwatched cars
        watched = dict(live)
        self._live_k = [self._live_digit0 + self._live_index[t.name]
                        if t.name in watched else -1 for t in tables]
        self._live_next = [_heard(watched[t.name]) if t.name in watched else None
                           for t in tables]

        init_digits = [t.initial for t in tables] + [0] * (len(radices) - n)
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
        return TrafficSnapshot(
            self.lane_count,
            {t.name: t.car_state(c) for t, c in zip(self._cars, cfgs)},
        )

    # -- pair geometry ---------------------------------------------------------

    def _view_overlap(self, i: int, j: int) -> bool:
        """Whether the extents of cars i and j, both clipped to i's standard
        view, overlap."""
        a, b = self._cars[i], self._cars[j]
        return (max(a.pos, b.pos, a.pos - self.horizon)
                < min(a.pos + a.size, b.pos + b.size, a.pos + self.horizon))

    def _extents_meet(self, i: int, j: int) -> bool:
        """Whether the extents of cars i and j overlap, views aside."""
        a, b = self._cars[i], self._cars[j]
        return a.pos < b.pos + b.size and b.pos < a.pos + a.size

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
        """The engine of one interaction group: the parent's car tables,
        horizon and budget, its _Pairs re-indexed to the group (so no pair
        is decided again), and the group's observers."""
        pairs = self._pair_graph()
        index = {i: k for k, i in enumerate(group)}
        names = {self.car_names[i] for i in group}
        sub = object.__new__(type(self))
        sub.lane_count = self.lane_count
        sub.variant = self.variant
        sub.constants = self.constants
        sub.guard_mode = self.guard_mode
        sub.budget = self.budget
        sub.horizon = self.horizon
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

        Returns (succs, enabled_mask, any_fire) where succs is a list of
        (code, successor sid); code is -1 for the delay step, i<<8|slot for
        a fire of controller i, and ncars<<8 for the collision observer.
        succs lists the fires by car and slot, then the collision observer,
        then the delay.  enabled_mask has bit i set when controller i can
        fire here.

        Each car's fires, as (code, sid delta) pairs, and its delay delta
        come from its memo in _rows, keyed on the slice of sid holding the
        digits they are computed from, plus its live observer digit (see
        the class docstring and _row_cache); a miss computes them with
        _car_row and stores them while the memo has fewer than _ROW_LIMIT
        rows.  The collision test reads the colliding cars' digits alone,
        so a state whose rows all hit is never unpacked.  run_query,
        check_ag and check_af drop the memo when they return.
        """
        rows = self._rows or self._row_cache()
        mults = self._mults
        limit = _ROW_LIMIT
        succs: List[Tuple[int, int]] = []
        enabled = 0
        ddelta: Optional[int] = 0
        for i, (div, span, k, memo) in enumerate(rows):
            key = (sid // div) % span
            if k >= 0:
                key = key * 3 + (sid // mults[k]) % 3
            hit = memo.get(key)
            if hit is None:
                hit = self._car_row(i, sid)
                if len(memo) < limit:
                    memo[key] = hit
            fires, dd = hit
            if fires:
                enabled |= 1 << i
                for code, delta in fires:
                    succs.append((code, sid + delta))
            if ddelta is not None:
                ddelta = None if dd is None else ddelta + dd

        any_fire = bool(succs)
        cd = self._coll_digit
        if cd >= 0 and (sid // mults[cd]) % 2 == 0:
            cars, radices = self._cars, self._radices
            for i, j in self._pairs.collide:
                if (cars[i].res_mask[(sid // mults[i]) % radices[i]]
                        & cars[j].res_mask[(sid // mults[j]) % radices[j]]):
                    succs.append((self._collide_code, sid + mults[cd]))
                    any_fire = True
                    break

        if ddelta is not None:
            succs.append((-1, sid + ddelta))
        return succs, enabled, any_fire

    def _row_cache(self) -> List[Tuple[int, int, int, Dict[int, tuple]]]:
        """Per car i: (divisor, span, live digit index or -1, memo) such
        that (sid // divisor) % span is the slice of sid holding the digits
        of cars lo..hi, the first and last in cars order of i and the cars
        in sees[i] and seen_by[i]; with i's live observer digit appended,
        that key fixes every digit _car_row reads."""
        pairs = self._pair_graph()
        mults, radices = self._mults, self._radices
        rows = []
        for i in range(self._ncars):
            near = (i,) + pairs.sees[i] + pairs.seen_by[i]
            lo, hi = min(near), max(near)
            rows.append((mults[hi], mults[lo] * radices[lo] // mults[hi],
                         self._live_k[i], {}))
        self._rows = rows
        return rows

    def _car_row(self, i: int, sid: int) -> Tuple[Tuple[Tuple[int, int], ...], Optional[int]]:
        """Car i's enabled fires in sid, as ((code, sid delta), ...) in slot
        order, and the sid delta of its part of the delay step (None when
        its clock bound blocks waiting).

        Reads only i's digit, the digits of the cars in sees[i] (guards,
        i's target invariant) and seen_by[i] (their invariants against i's
        target), and i's live observer digit.
        """
        cars, mults, radices = self._cars, self._mults, self._radices
        pairs = self._pairs
        table = cars[i]
        ci = (sid // mults[i]) % radices[i]
        # lanes of the cars i sees, and of the cars that see i
        nb_res, nb_occ = [], []
        for j in pairs.sees[i]:
            c = (sid // mults[j]) % radices[j]
            nb_res.append(cars[j].res_mask[c])
            nb_occ.append(cars[j].occ_mask[c])
        watchers = []
        for j in pairs.seen_by[i]:
            c = (sid // mults[j]) % radices[j]
            t = cars[j]
            watchers.append((t.inv[c], t.res_mask[c], t.clm_mask[c]))
        clm_i = table.clm_mask[ci]
        k = self._live_k[i]

        fires = []
        for fd in table.fires[ci]:
            req = fd.req
            if req:
                if req == _REQ_PCSOME or req == _REQ_PCNONE:
                    hit = False
                    if clm_i:
                        for occ in nb_occ:
                            if clm_i & occ:
                                hit = True
                                break
                    if hit != (req == _REQ_PCSOME):
                        continue
                else:   # claim-free
                    bit = fd.req_bit
                    blocked = False
                    for occ in nb_occ:
                        if bit & occ:
                            blocked = True
                            break
                    if blocked:
                        continue
            # invariants in the target state: i's own against the cars it
            # sees, then those of the cars that see i
            tgt = fd.target
            tr = table.res_mask[tgt]
            tc = table.clm_mask[tgt]
            ok = True
            inv_i = table.inv[tgt]
            if inv_i == _INV_CC:
                for res in nb_res:
                    if tr & res:
                        ok = False
                        break
            elif inv_i == _INV_PCNONE and tc:
                for occ in nb_occ:
                    if tc & occ:
                        ok = False
                        break
            if ok:
                tocc = tr | tc
                for inv_j, res_j, clm_j in watchers:
                    if inv_j == _INV_CC:
                        if res_j & tr:
                            ok = False
                            break
                    elif inv_j == _INV_PCNONE:
                        if clm_j & tocc:
                            ok = False
                            break
            if not ok:
                continue
            delta = (tgt - ci) * mults[i]
            if fd.emit and k >= 0:
                cur = (sid // mults[k]) % 3
                nxt = self._live_next[i][fd.emit][cur]
                if nxt != cur:
                    delta += (nxt - cur) * mults[k]
            fires.append(((i << 8) | fd.slot, delta))

        nx = table.delay_next[ci]
        return tuple(fires), None if nx < 0 else (nx - ci) * mults[i]

    def _step_of(self, sid: int, code: int) -> Step:
        if code == -1:
            return Delay(1)
        i = code >> 8
        if i == self._ncars:
            return Fire("collision-observer", "collision", "tau")
        table = self._cars[i]
        ci = self._unpack(sid)[i]
        fd = table.fires[ci][code & 0xFF]
        return Fire(table.name, fd.edge_name, fd.action_str)

    # -- presentation ---------------------------------------------------------

    def _to_state(self, sid: int) -> SystemState:
        digits = self._unpack(sid)
        locations = []
        clocks = []
        registers = []
        for i, table in enumerate(self._cars):
            li, x, cn, cl = table.configs[digits[i]]
            locations.append((table.name, table.loc_names[li]))
            clocks.append((table.name, x))
            registers.append((table.name, (cn, cl)))
        for obs, d in zip(self._observers, digits[self._ncars:]):
            locations.append((obs.name, obs.locations[d].name))
        return SystemState(
            snapshot=self._snapshot_of(digits[:self._ncars]),
            locations=tuple(locations),
            clocks=tuple(clocks),
            registers=tuple(registers),
        )

    def _pack_state(self, state: SystemState) -> int:
        digits = []
        for table in self._cars:
            loc = state.location(table.name)
            x = state.clock(table.name)
            cn, cl = state.lanes_of(table.name)
            li = table.loc_names.index(loc) if loc in table.loc_names else -1
            ci = table.cfg_id.get((li, x, cn, cl))
            if ci is None:
                raise CheckerError(
                    f"state of {table.name!r} ({loc}, x={x}, n={cn}, l={cl}) "
                    f"is not an engine configuration"
                )
            digits.append(ci)
        for obs in self._observers:
            loc = state.location(obs.name)
            digits.append([l.name for l in obs.locations].index(loc))
        return self._pack_digits(digits)

    def initial_state(self) -> SystemState:
        return self._to_state(self._initial_sid)

    def successors(self, state: SystemState) -> List[Tuple[Step, SystemState]]:
        sid = self._pack_state(state)
        succs, _, _ = self._expand(sid)
        return [(self._step_of(sid, code), self._to_state(s2)) for code, s2 in succs]

    def deadlock(self, state: SystemState) -> bool:
        sid = self._pack_state(state)
        return self._deadlock_from(sid, self._expand(sid))

    # -- reachability (AG) ----------------------------------------------------

    @_drops_rows
    def check_ag(self, bad: Callable[[SystemState], bool],
                 initial: Optional[SystemState] = None) -> Verdict:
        """No reachable state satisfies bad; witness is a shortest bad path."""
        init = self._initial_sid if initial is None else self._pack_state(initial)
        return self._ag(init, lambda sid, exp: bad(self._to_state(sid)),
                        needs_expansion=False)

    def _ag(self, init: int, bad, *, needs_expansion: bool) -> Verdict:
        verdict, found = self._ag_search(init, bad, needs_expansion)
        if found is None:
            return verdict
        # the search and its visited set are gone; a second BFS meets the
        # states in the same order and stops where found was first reached
        return replace(verdict, witness=self._trace(
            init, lambda sid: self._expand(sid)[0], found))

    def _ag_search(self, init: int, bad,
                   needs_expansion: bool) -> Tuple[Verdict, Optional[int]]:
        """Breadth-first search for a bad state that stores no parents: the
        verdict without its witness, and the bad state, if one was found."""
        if not needs_expansion and bad(init, None):
            return Verdict("fails", states=1), init
        visited = _Visited(self.state_space)
        visited.add(init)
        states = 1
        frontier = [init]
        while frontier:
            nxt = []
            for sid in frontier:
                expansion = self._expand(sid)
                if needs_expansion and bad(sid, expansion):
                    return Verdict("fails", states=states), sid
                for code, s2 in expansion[0]:
                    if visited.add(s2):
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

    def _trace(self, init: int, succ, goal: int,
               cycle: Sequence[Tuple[int, int, int]] = ()) -> Trace:
        """The first walk from init to goal over succ, then cycle (a closed
        walk from goal) when one is given."""
        stem = [] if goal == init else self._bfs_path(
            init, succ, lambda code, s2: s2 == goal)
        steps = tuple((self._step_of(sid, code), self._to_state(s2))
                      for sid, code, s2 in stem + list(cycle))
        return Trace(initial=self._to_state(init), steps=steps,
                     cycle_start=len(stem) if cycle else None)

    # -- inevitability (AF) ---------------------------------------------------

    @_drops_rows
    def check_af(self, good: Callable[[SystemState], bool],
                 initial: Optional[SystemState] = None) -> Verdict:
        """Every fair, non-zeno run eventually satisfies good."""
        init = self._initial_sid if initial is None else self._pack_state(initial)
        return self._af(init, lambda sid: good(self._to_state(sid)))

    def _af(self, init: int, good) -> Verdict:
        verdict, witness, _ = self._af_search(init, good)
        return verdict if witness is None else replace(verdict, witness=witness())

    def _af_search(self, init: int, good) -> Tuple[
            Verdict, Optional[Callable[[], Trace]], Optional[bool]]:
        """The search of _af: its verdict without the witness, a function
        that builds the witness (None when there is none), and whether the
        region starves a controller in every SCC with an internal edge: one
        enabled in each of its states that fires on none of its internal
        edges.  That is None when a stuck state, a zero-delay cycle or the
        budget ended the search first, and False once a fair cycle is met.

        The region is every state reachable without passing a good state.
        Its states are numbered in breadth-first discovery order, which is
        also the order they are expanded in: order[k] is the sid of state
        k and index maps each sid back to k.  The edges kept inside the
        region are stored in CSR form: state k's edges, in _expand order,
        are targets[e] (state numbers) and codes[e] (as in _expand) for e
        in range(offsets[k], offsets[k + 1]); a state found but not
        expanded has no entry there and reads as having no edges.
        enabled[k] is state k's enabled mask.  order and enabled stay
        lists, since sids and masks can exceed 64 bits.  Witnesses walk the
        same arrays through succ, which maps state numbers back to sids."""
        if good(init):
            return Verdict("holds", states=1), None, True

        index: Dict[int, int] = {init: 0}
        order: List[int] = [init]
        enabled: List[int] = []
        offsets = array("q", [0])
        targets = array("i")
        codes = array("i")

        def succ(sid: int) -> List[Tuple[int, int]]:
            k = index[sid]
            if k + 1 >= len(offsets):
                return []
            return [(codes[e], order[targets[e]])
                    for e in range(offsets[k], offsets[k + 1])]

        for sid in order:   # grows while it is walked: a breadth-first queue
            succs, mask, _ = self._expand(sid)
            if not succs:
                # stuck state: no run from here can reach good.  Every
                # shallower state is expanded: succ holds the search's walk
                return (Verdict("fails", states=len(order),
                                note="run reaches a stuck state"),
                        lambda: self._trace(init, succ, sid), None)
            enabled.append(mask)
            for code, s2 in succs:
                k2 = index.get(s2)
                if k2 is None:
                    if good(s2):
                        continue
                    if len(order) >= self.budget:
                        return Verdict(
                            "inconclusive", states=len(order),
                            note=f"state budget {self.budget} exhausted"), None, None
                    k2 = index[s2] = len(order)
                    order.append(s2)
                targets.append(k2)
                codes.append(code)
            offsets.append(len(targets))

        # zero-delay cycles first (fire edges only), then fair ones: SCCs
        # where every controller ever enabled also fires
        ncars = self._ncars
        member = bytearray(len(order))      # 1 for the states of the SCC at hand
        loose = False       # some SCC with an internal edge starves no controller
        for fire_only in (True, False):
            for scc in _tarjan(offsets, targets, codes, fire_only):
                for k in scc:
                    member[k] = 1
                internal, fired = False, 0
                for k in scc:
                    for e in range(offsets[k], offsets[k + 1]):
                        code = codes[e]
                        if member[targets[e]] and (code != -1 or not fire_only):
                            internal = True
                            if code != -1 and (code >> 8) < ncars:
                                fired |= 1 << (code >> 8)
                if internal:
                    if fire_only:
                        needed, note = fired, "zero-delay cycle avoids the goal"
                    else:
                        needed, always, note = 0, -1, "fair cycle avoids the goal"
                        for k in scc:
                            needed |= enabled[k]
                            always &= enabled[k]
                        loose = loose or not (always & ~fired)
                    if fire_only or not needed & ~fired:
                        def witness():
                            cycle = self._cover_cycle(
                                order[scc[0]], succ, lambda sid: member[index[sid]],
                                needed, fire_only)
                            return self._trace(init, succ, cycle[0][0], cycle)
                        return (Verdict("fails", states=len(order), note=note), witness,
                                None if fire_only else False)
                for k in scc:
                    member[k] = 0
        return Verdict("holds", states=len(order)), None, not loose

    def _cover_cycle(self, start: int, succ, comp: Callable[[int], bool],
                     needed_mask: int, fire_only: bool) -> List[Tuple[int, int, int]]:
        """A closed walk from start over succ, inside the SCC whose states
        satisfy comp, that fires every controller in needed_mask at least
        once; no delays when fire_only."""
        def inside(sid: int) -> List[Tuple[int, int]]:
            return [(code, s2) for code, s2 in succ(sid)
                    if comp(s2) and (code != -1 or not fire_only)]
        walk: List[Tuple[int, int, int]] = []
        cur = start
        for i in range(self._ncars):
            if needed_mask >> i & 1:
                # ends with a fire of controller i (the delay's -1 >> 8 is -1)
                walk += self._bfs_path(cur, inside, lambda code, s2: code >> 8 == i)
                cur = walk[-1][2]
        if cur != start or not walk:
            walk += self._bfs_path(cur, inside, lambda code, s2: s2 == start)
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
        if isinstance(query, NoDeadlock):
            return self._ag(self._initial_sid, self._deadlock_from, needs_expansion=True)
        if isinstance(query, SafetyNoCollision):
            unsafe = self._mults[self._coll_digit]
            return self._ag(self._initial_sid, lambda sid, exp: (sid // unsafe) % 2 == 1,
                            needs_expansion=False)
        return self._af(self._initial_sid, self._goal(self._liveness_targets(query)))

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
        """query one interaction group at a time, when that is exact (see
        the module docstring); otherwise, or when the groups do not settle
        it, the monolithic search.

        The product is the answer when no group rules it out and some
        group settles it (_group_part)."""
        liveness = isinstance(query, (LivenessAny, LivenessCar))
        watched = self._liveness_targets(query) if liveness else ()
        groups = self._pair_graph().groups
        explored = 0
        if (len(groups) > 1 and not (liveness and self._coll_obs is not None)
                and all(t.delay_next[t.initial] == t.initial for t in self._cars)):
            product, settled = 1, False
            for group in groups:
                part, settles = self._restrict(group)._group_part(query, watched)
                explored += part.explored
                if settles is None:
                    break
                product *= part.states
                settled = settled or settles
            else:
                if settled:
                    if product <= self.budget:
                        return Verdict("holds", states=product, explored=explored)
                    return Verdict("inconclusive", states=self.budget, explored=explored,
                                   note=f"state budget {self.budget} exhausted")
        whole = self._whole(query)
        return replace(whole, explored=explored + whole.explored)

    def _group_part(self, query: Query, watched: Sequence[str]) -> Tuple[
            Verdict, Optional[bool]]:
        """A group engine's search for _by_group, and whether the group
        settles the product answer: None when it rules that answer out.  An
        AG search settles it when it holds.  A liveness region avoids the
        goal of the group's cars in watched (a group without any keeps every
        reachable state); it rules the product out with a stuck state, a
        zero-delay cycle or the budget, and settles it when it starves a
        controller in every SCC with an internal edge (_af_search)."""
        if isinstance(query, (LivenessAny, LivenessCar)):
            verdict, _, starved = self._af_search(self._initial_sid, self._goal(watched))
            return verdict, starved
        verdict = self._whole(query)
        return verdict, True if verdict.holds else None

    def _liveness_targets(self, query) -> Tuple[str, ...]:
        if isinstance(query, LivenessCar):
            wanted: Tuple[str, ...] = (query.car,)
        else:
            wanted = self.car_names if query.cars is None else tuple(
                w for w in self.car_names if w in query.cars)
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
        succs, _, any_fire = expansion
        seen = {sid}
        while succs and not any_fire:
            # only the delay is left; follow delays until a fire shows up
            sid = succs[-1][1]
            if sid in seen:
                return True
            seen.add(sid)
            succs, _, any_fire = self._expand(sid)
        return not any_fire

    @classmethod
    def for_query(cls, sc: Scenario, query: Query, **kwargs) -> "Engine":
        collision = isinstance(query, SafetyNoCollision)
        if isinstance(query, LivenessCar):
            live: Tuple[str, ...] = (query.car,)
        elif isinstance(query, LivenessAny):
            names = sc.car_names()
            live = names if query.cars is None else tuple(
                w for w in names if w in query.cars)
        else:
            live = ()
        kwargs.setdefault("horizon", sc.effective_horizon())
        return cls(
            sc.lane_count,
            [(c.name, c.lane, c.pos, c.size) for c in sc.cars],
            variant=sc.variant,
            constants=sc.constants,
            collision_observer=collision,
            live_observers=live,
            **kwargs,
        )


class _Pairs(NamedTuple):
    """Which cars of a road can meet, decided once per pair (_pair_graph)."""

    sees: Tuple[Tuple[int, ...], ...]       # [i]: cars j overlapping i in i's view
    seen_by: Tuple[Tuple[int, ...], ...]    # [i]: cars j that i overlaps in j's view
    collide: Tuple[Tuple[int, int], ...]    # (i, j), i < j, extents meet; needs coll_obs
    groups: Tuple[Tuple[int, ...], ...]     # interaction groups, in cars order


class _Visited:
    """Visited-set: dense bitmap when the address space is small enough."""

    def __init__(self, space: int):
        if space <= _BITMAP_LIMIT:
            self._bits = bytearray((space + 7) // 8)
            self._set = None
        else:
            self._bits = None
            self._set: Optional[Set[int]] = set()

    def add(self, sid: int) -> bool:
        """Insert; True when the state was new."""
        if self._bits is not None:
            byte, bit = sid >> 3, 1 << (sid & 7)
            if self._bits[byte] & bit:
                return False
            self._bits[byte] |= bit
            return True
        if sid in self._set:
            return False
        self._set.add(sid)
        return True


def _tarjan(offsets: array, targets: array, codes: array,
            fire_only: bool) -> Iterator[List[int]]:
    """Strongly connected components of a CSR graph over states
    0..len(offsets) - 2 (see Engine._af_search), over its fire edges alone
    (code != -1) when fire_only.

    Iterative Tarjan: roots are taken in state order and each state's
    edges in CSR order, so the components come out in one deterministic
    order, and in reverse topological order: when an edge joins two
    components, its target's is yielded first.  Each component lists its
    states as they leave the stack, its root last."""
    n = len(offsets) - 1
    index = array("i", [-1]) * n    # discovery number; n once yielded
    low = array("i", [0]) * n
    stack = array("i")              # Tarjan's stack
    path = array("i")               # the depth-first path, and for each of
    resume = array("q")             # its states the next edge to look at
    count = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = count
        count += 1
        stack.append(root)
        path.append(root)
        resume.append(offsets[root])
        while path:
            v = path[-1]
            e, end = resume[-1], offsets[v + 1]
            while e < end:
                w = targets[e]
                e += 1
                if fire_only and codes[e - 1] == -1:
                    continue
                if index[w] < 0:
                    break
                if index[w] < low[v]:
                    low[v] = index[w]
            else:
                path.pop()
                resume.pop()
                if path and low[v] < low[path[-1]]:
                    low[path[-1]] = low[v]
                if low[v] == index[v]:
                    comp = []
                    while not comp or comp[-1] != v:
                        comp.append(stack.pop())
                        # off the stack: an index above all others never lowers low
                        index[comp[-1]] = n
                    yield comp
                continue
            resume[-1] = e
            index[w] = low[w] = count
            count += 1
            stack.append(w)
            path.append(w)
            resume.append(offsets[w])


# ---------------------------------------------------------------------------
# module-level entry points

def successors(engine: Engine, state: SystemState) -> List[Tuple[Step, SystemState]]:
    return engine.successors(state)


def deadlock(engine: Engine, state: SystemState) -> bool:
    return engine.deadlock(state)


def check_ag(engine: Engine, bad: Callable[[SystemState], bool],
             initial: Optional[SystemState] = None) -> Verdict:
    return engine.check_ag(bad, initial)


def check_af(engine: Engine, good: Callable[[SystemState], bool],
             initial: Optional[SystemState] = None) -> Verdict:
    return engine.check_af(good, initial)


def run_query(sc: Scenario, query: Query, **kwargs) -> Verdict:
    """Build the right engine for the query and run it."""
    return Engine.for_query(sc, query, **kwargs).run_query(query)
