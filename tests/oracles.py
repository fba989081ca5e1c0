"""Slow reference checkers the engine's verdicts are compared against.

FormulaSuccessors is the definitional successor relation: it is built
from the automata and the traffic rules alone, on raw clocks and target
lanes, with guards and invariants as MLSL formulas on the full snapshot
and snapshots that follow traffic.apply_action.  It reads only the
engine's public settings.  definitional(engine) is that relation with
each successor normalised to the engine's encoding, and every oracle
here walks it unless it is handed another relation: explore, naive_ag,
naive_no_deadlock, naive_af, ag_witness, af_witness and certify.  So the
oracles share no successor code with the engine, and they check its
normalised car tables and pair lists as well as its searches.  They use
plain dictionaries over rich SystemState objects and networkx graph
algorithms: a different traversal (iterative DFS vs the checker's BFS),
different cycle machinery (networkx SCCs vs _tarjan) and a different
state representation (structured states vs packed integers).
ag_witness and af_witness rebuild counterexamples from their definition
as first breadth-first walks, with a deque.  certify re-derives every
step of a verdict's witness from the definitional relation and checks
that the witness ends as the verdict says.

expansion(engine, sid) is Engine._expand without its memos: car_row asks
each neighbour of a car in turn, and the collision observer each
colliding pair, where the engine memoises rows on unions of lane masks
and on blocks of cars.
"""

import dataclasses
from collections import deque
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import networkx as nx

from lanecheck import mlsl, traffic
from lanecheck.automata import (ActClaim, ActReserve, ActTau, ActWithdrawClaim,
                                ActWithdrawReservation, ClockConstraint, LaneExists,
                                build_controller, build_observer_collision,
                                build_observer_live)
from lanecheck.checker import (_INV_CC, _INV_PCNONE, Delay, Engine, Fire, LivenessCar,
                               NoDeadlock, SafetyNoCollision, Step, SystemState, Trace,
                               Verdict)
from lanecheck.traffic import CarState, Extent, TrafficSnapshot, View

Adjacency = Dict[SystemState, List[Tuple[Step, SystemState]]]
Relation = Callable[[SystemState], List[Tuple[Step, SystemState]]]


def definitional(engine: Engine) -> Relation:
    """FormulaSuccessors(engine) with each successor normalised: the
    engine's successor relation, by definition."""
    reference = FormulaSuccessors(engine)
    return lambda state: [(step, reference.normalise(s2)) for step, s2 in reference(state)]


def car_row(engine: Engine, i: int, sid: int):
    """Car i's enabled fires in sid, as ((code, sid delta), ...) in slot
    order, and the sid delta of its part of the delay step (None when its
    clock bound blocks waiting): Engine._car_row with no memo, asking each
    neighbour in turn.

    Reads only i's digit, the digits of the cars in sees[i] (guards, i's
    target invariant) and seen_by[i] (their invariants against i's
    target), and i's live observer digit.
    """
    mults, pairs, table = engine._mults, engine._pair_graph(), engine._table
    res_mask, clm_mask = table.res_mask, table.clm_mask
    inv, count = table.inv, table.count
    ci = (sid // mults[i]) % count
    # lanes of the cars i sees, and of the cars that see i
    nb_res, nb_occ = [], []
    for j in pairs.sees[i]:
        c = (sid // mults[j]) % count
        nb_res.append(res_mask[c])
        nb_occ.append(res_mask[c] | clm_mask[c])
    watchers = []
    for j in pairs.seen_by[i]:
        c = (sid // mults[j]) % count
        watchers.append((inv[c], res_mask[c], clm_mask[c]))
    name = engine.car_names[i]
    k = engine._live_digit0 + engine._live_index[name] if name in engine._live_index else -1

    fires = []
    for fd in table.fires[ci]:
        # the guard: whether the lanes it asks about meet a car i sees
        hit = False
        for occ in nb_occ:
            if fd.guard & occ:
                hit = True
                break
        if hit != fd.meets:
            continue
        # invariants in the target state: i's own against the cars it
        # sees, then those of the cars that see i
        tgt = fd.target
        tr = res_mask[tgt]
        tc = clm_mask[tgt]
        ok = True
        inv_i = inv[tgt]
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
            nxt = engine._heard[fd.emit][cur]
            if nxt != cur:
                delta += (nxt - cur) * mults[k]
        fires.append(((i << 8) | fd.slot, delta))

    nx = table.delay_next[ci]
    return tuple(fires), None if nx < 0 else (nx - ci) * mults[i]


def expansion(engine: Engine, sid: int):
    """Engine._expand(sid) with no memo: car_row's fires in cars order,
    then the collision observer, asking every colliding pair in turn, then
    the delay, made of every car's part."""
    mults = engine._mults
    succs, enabled, ddelta = [], 0, 0
    for i in range(engine._ncars):
        fires, dd = car_row(engine, i, sid)
        if fires:
            enabled |= 1 << i
        succs += [(code, sid + delta) for code, delta in fires]
        ddelta = None if ddelta is None or dd is None else ddelta + dd
    cd = engine._coll_digit
    if cd >= 0 and (sid // mults[cd]) % 2 == 0:
        res_mask, count = engine._table.res_mask, engine._table.count
        for i, j in engine._pair_graph().collide:
            if res_mask[(sid // mults[i]) % count] & res_mask[(sid // mults[j]) % count]:
                succs.append((engine._collide_code, sid + mults[cd]))
                break
    if ddelta is not None:
        succs.append((-1, sid + ddelta))
    return succs, enabled


def explore(engine: Engine, relation: Optional[Relation] = None,
            limit: int = 200_000) -> Tuple[SystemState, Adjacency]:
    """All reachable states with their successor lists, by DFS over
    relation (definitional(engine) by default)."""
    successors = relation or definitional(engine)
    init = engine.initial_state()
    adj: Adjacency = {}
    stack = [init]
    while stack:
        s = stack.pop()
        if s in adj:
            continue
        succ = successors(s)
        adj[s] = succ
        if len(adj) > limit:
            raise RuntimeError(f"oracle exploration exceeded {limit} states")
        for _, s2 in succ:
            if s2 not in adj:
                stack.append(s2)
    return init, adj


def is_deadlock(adj: Adjacency, state: SystemState) -> bool:
    """No fire possible now or after waiting any amount of time."""
    seen = []
    cur = state
    while cur not in seen:
        seen.append(cur)
        succs = adj[cur]
        if any(isinstance(step, Fire) for step, _ in succs):
            return False
        if not succs:
            return True
        cur = next(s2 for step, s2 in succs if isinstance(step, Delay))
    return True  # waiting loops forever without a fire


def naive_ag(engine: Engine, bad: Callable[[SystemState], bool],
             relation: Optional[Relation] = None) -> str:
    init, adj = explore(engine, relation)
    return "fails" if any(bad(s) for s in adj) else "holds"


def naive_no_deadlock(engine: Engine, relation: Optional[Relation] = None) -> str:
    init, adj = explore(engine, relation)
    return "fails" if any(is_deadlock(adj, s) for s in adj) else "holds"


def naive_af(engine: Engine, good: Callable[[SystemState], bool],
             relation: Optional[Relation] = None) -> str:
    """AF good under the checker's path rules (stated in the
    lanecheck.checker module docstring), recomputed with networkx.

    A counterexample is a reachable good-free run that is infinite and
    fair, or that gets stuck.  Concretely, inside the region reachable
    without touching a good state: a dead end; a cycle of fires only
    (time never advances); or a cycle on which every controller enabled
    anywhere around it actually fires (nobody is merely starved by the
    scheduler).
    """
    init, adj = explore(engine, relation)
    controllers = set(engine.car_names)

    if good(init):
        return "holds"
    region = set()
    frontier = [init]
    while frontier:
        s = frontier.pop()
        if s in region:
            continue
        region.add(s)
        for _, s2 in adj[s]:
            if not good(s2) and s2 not in region:
                frontier.append(s2)

    if any(not adj[s] for s in region):
        return "fails"  # stuck without reaching the goal

    fire_graph = nx.DiGraph()
    full_graph = nx.DiGraph()
    fired_on: Dict[Tuple[SystemState, SystemState], set] = {}
    for s in region:
        fire_graph.add_node(s)
        full_graph.add_node(s)
        for step, s2 in adj[s]:
            if s2 not in region:
                continue
            full_graph.add_edge(s, s2)
            if isinstance(step, Fire):
                fire_graph.add_edge(s, s2)
                if step.actor in controllers:
                    fired_on.setdefault((s, s2), set()).add(step.actor)

    for comp in nx.strongly_connected_components(fire_graph):
        if len(comp) > 1 or any(fire_graph.has_edge(s, s) for s in comp):
            return "fails"  # zeno loop

    for comp in nx.strongly_connected_components(full_graph):
        internal = [(u, v) for u in comp for v in full_graph.successors(u) if v in comp]
        if not internal:
            continue
        fired = set()
        for u, v in internal:
            fired |= fired_on.get((u, v), set())
        enabled = {
            step.actor
            for u in comp
            for step, _ in adj[u]
            if isinstance(step, Fire) and step.actor in controllers
        }
        if enabled <= fired:
            return "fails"  # fair cycle that never reaches the goal
    return "holds"


# --- witnesses ------------------------------------------------------------------


class Successors(dict):
    """relation(state) per state, computed on first lookup."""

    def __init__(self, relation: Relation):
        super().__init__()
        self.relation = relation

    def __missing__(self, state: SystemState):
        self[state] = succs = self.relation(state)
        return succs


def first_walk(adj, start: SystemState, stop, keep=lambda step, s2: True):
    """The walk from start, as (step, state) pairs, whose last step is the
    first one in breadth-first order over adj's steps that keep(step, s2)
    allows to satisfy stop(step, s2)."""
    parent = {start: None}
    queue = deque([start])
    while queue:
        s = queue.popleft()
        for step, s2 in adj[s]:
            if not keep(step, s2):
                continue
            if stop(step, s2):
                walk = [(step, s2)]
                while parent[s] is not None:
                    prev, prev_step = parent[s]
                    walk.append((prev_step, s))
                    s = prev
                return walk[::-1]
            if s2 not in parent:
                parent[s2] = (s, step)
                queue.append(s2)
    raise AssertionError("no walk ends in a step that satisfies stop")


def ag_witness(engine: Engine, bad: Callable[[SystemState], bool],
               relation: Optional[Relation] = None) -> Trace:
    """An AG witness by definition: the first walk in breadth-first order
    over relation (definitional(engine) by default) from the initial state
    that reaches a bad state (none if it is bad)."""
    init = engine.initial_state()
    adj = Successors(relation or definitional(engine))
    steps = () if bad(init) else first_walk(adj, init, lambda step, s2: bad(s2))
    return Trace(initial=init, steps=tuple(steps))


def af_witness(engine: Engine, good: Callable[[SystemState], bool],
               note: str, entry: Optional[SystemState],
               relation: Optional[Relation] = None) -> Trace:
    """An AF witness by definition, over relation (definitional(engine) by
    default), inside the region of states reachable without a good one.  A stuck run is the first walk to a state with no
    successor.  A lasso is the first walk to entry, the state the cycle
    starts at, then the cycle: from entry, for each controller in cars
    order that it must fire, the first walk inside entry's SCC ending with
    a fire of it, then the first walk back to entry.  A zero-delay cycle
    uses fires only and must fire every controller that fires inside the
    SCC; a fair one must fire every controller enabled anywhere in it."""
    adj = Successors(relation or definitional(engine))
    init = engine.initial_state()

    def outside(step, s2):
        return not good(s2)

    if "stuck" in note:
        steps = () if not adj[init] else first_walk(
            adj, init, lambda step, s2: not adj[s2], outside)
        return Trace(initial=init, steps=tuple(steps))
    zeno = "zero-delay" in note
    region, stack = set(), [init]
    while stack:
        s = stack.pop()
        if s not in region:
            region.add(s)
            stack.extend(s2 for step, s2 in adj[s] if outside(step, s2))
    graph = nx.DiGraph()
    graph.add_nodes_from(region)
    graph.add_edges_from((s, s2) for s in region for step, s2 in adj[s]
                         if s2 in region and (isinstance(step, Fire) or not zeno))
    comp = next(c for c in nx.strongly_connected_components(graph) if entry in c)
    controllers = set(engine.car_names)
    needed = {step.actor for s in comp for step, s2 in adj[s]
              if isinstance(step, Fire) and step.actor in controllers
              and (s2 in comp or not zeno)}

    def inside(step, s2):
        return s2 in comp and (isinstance(step, Fire) or not zeno)

    stem = [] if entry == init else first_walk(
        adj, init, lambda step, s2: s2 == entry, outside)
    cycle, cur = [], entry
    for name in engine.car_names:
        if name in needed:
            cycle += first_walk(adj, cur, lambda step, s2: isinstance(step, Fire)
                                and step.actor == name, inside)
            cur = cycle[-1][1]
    if cur != entry or not cycle:
        cycle += first_walk(adj, cur, lambda step, s2: s2 == entry, inside)
    return Trace(initial=init, steps=tuple(stem + cycle), cycle_start=len(stem))


def collision_bad(state: SystemState) -> bool:
    return state.location("collision-observer") == "unsafe"


def success_goal(cars) -> Callable[[SystemState], bool]:
    names = [f"observer({c})" for c in cars]

    def good(state: SystemState) -> bool:
        return any(state.location(n) == "success" for n in names)

    return good


# --- certifying witnesses -------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Bad:
    """The states an AG witness may end in: those test accepts, or the
    deadlocked ones when test is None."""

    test: Optional[Callable[[SystemState], bool]] = None


@dataclasses.dataclass(frozen=True)
class Goal:
    """The states a liveness witness must avoid."""

    test: Callable[[SystemState], bool]


def _target(query, names: Sequence[str]) -> Union[Bad, Goal]:
    if isinstance(query, NoDeadlock):
        return Bad()
    if isinstance(query, SafetyNoCollision):
        return Bad(collision_bad)
    if isinstance(query, LivenessCar):
        return Goal(success_goal([query.car]))
    return Goal(success_goal(names if query.cars is None else query.cars))


def counterexample_cycle(cycle: Sequence[Tuple[SystemState, Step, SystemState]],
                         adj, controllers) -> Optional[str]:
    """What kind of liveness counterexample the closed walk cycle, as
    (state, step, next state) triples, is under the checker's rule
    (lanecheck.checker module docstring): "zero-delay" when it has no
    delay, "fair" when it has one and fires every controller that has a
    fire in adj at one of its states (strong fairness on the cycle
    itself), and None otherwise."""
    if not any(isinstance(step, Delay) for _, step, _ in cycle):
        return "zero-delay"
    fired = {step.actor for _, step, _ in cycle if isinstance(step, Fire)}
    enabled = {step.actor for s, _, _ in cycle for step, _ in adj[s]
               if isinstance(step, Fire) and step.actor in controllers}
    return "fair" if enabled <= fired else None


def _same(a: SystemState, b: SystemState) -> bool:
    # SystemState equality leaves the snapshot out
    return a == b and a.snapshot == b.snapshot


def certify(engine: Engine, verdict: Verdict, bad_or_goal) -> None:
    """Assert that verdict's witness is a counterexample to bad_or_goal (a
    Bad, a Goal, or the query they stand for) on engine's road, re-derived
    from definitional(engine).

    The witness starts at the start, and each of its steps, with the same
    Step, state and snapshot, is in the definitional successor list of
    the state before it.  An AG witness ends in a bad state: for no
    deadlock, one with no fire now nor after any run of delays.  A
    liveness witness holds no goal state, and either ends in a stuck
    state, with no successor, or is a lasso whose cycle closes and is a
    counterexample cycle of the kind its note names."""
    if not isinstance(bad_or_goal, (Bad, Goal)):
        bad_or_goal = _target(bad_or_goal, engine.car_names)
    trace = verdict.witness
    assert verdict.outcome == "fails" and trace is not None, verdict
    adj = Successors(definitional(engine))
    states = trace.states()
    assert _same(trace.initial, engine.initial_state()), "the witness does not start at the start"
    for k, (step, state) in enumerate(trace.steps):
        assert any(s == step and _same(s2, state) for s, s2 in adj[states[k]]), \
            f"step {k} ({step}) is no successor of the state before it"
    end = states[-1]
    if isinstance(bad_or_goal, Bad):
        bad = bad_or_goal.test or (lambda s: is_deadlock(adj, s))
        assert trace.cycle_start is None and bad(end), "the AG witness ends in no bad state"
        return
    assert not any(map(bad_or_goal.test, states)), "the liveness witness meets the goal"
    start = trace.cycle_start
    if start is None:
        assert "stuck" in verdict.note and not adj[end], "the run ends in no stuck state"
        return
    assert _same(end, states[start]) and start < len(trace.steps), "the lasso does not close"
    cycle = [(states[k], trace.steps[k][0], states[k + 1])
             for k in range(start, len(trace.steps))]
    kind = counterexample_cycle(cycle, adj, engine.car_names)
    assert kind is not None and verdict.note.startswith(kind), \
        f"the cycle is no {verdict.note.split()[0]} counterexample cycle"


# --- reference successor relation ---------------------------------------------

_PC = mlsl.exists_pc_formula()
_CC = mlsl.cc_formula()
_COLLISION = mlsl.collision_formula()


class FormulaSuccessors:
    """The successor relation of an engine's automata, by definition, on
    raw states: every controller's clock and target lane as they are,
    whether or not anything reads them.

    It is built from the engine's public settings alone (lanes, variant,
    constants, horizon, cars and the observers its initial state holds),
    with build_controller, build_observer_collision and
    build_observer_live.  A state is a SystemState whose snapshot is
    carried along: each controller action is applied with
    traffic.apply_action.  A step is a controller fire, an observer fire
    or delay 1, listed in that order: controllers in cars order and each
    one's edges in automaton order, then the observers in the state's
    order, then the delay.

    * A controller fires an edge when its guards hold: clock constraints
      on x, lane arithmetic on n, and the spatial guards as MLSL formulas
      on the snapshot in the car's standard view: exists_pc_formula for
      pc-some and pc-none, and for claim-free the same formula on the
      snapshot with the car's claim on the wanted lane.  The watching
      observer of the car takes its recv edge for the edge's channel.
    * An observer fires an edge without recv when its guards hold; the
      collision guard is collision_formula on a view of the whole road.
    * A controller fire is kept when the target state keeps every
      controller's clock bound and the spatial invariants (cc_formula, or
      no exists_pc_formula for pc-none) between the firing car and each
      other car, as the checker module docstring states: the firing
      car's own on the full snapshot, and each other controller's on the
      snapshot of that controller and the firing car alone.
    * A delay advances every clock, saturating at cap (one more than any
      clock constant, so a saturated clock compares like a larger one),
      and is kept when every clock bound holds.
    * Neither a delay nor an observer fire changes a lane or a controller
      location, so neither asks a spatial invariant again: an unsafe
      start, which breaks cc, may still wait and be observed.

    normalise maps a raw state to the engine's encoding.  A clock or a
    target lane is dead at a location when no path from there reads it
    before resetting or assigning it (a clock is read by a guard or a
    location bound; a lane by an action or an assignment); a dead clock
    becomes 0 and a dead target lane becomes n.  Formula answers depend
    only on the question, the car and the lanes every car holds, so they
    are memoised on that key.
    """

    def __init__(self, engine: Engine):
        self.lane_count = engine.lane_count
        self.horizon = engine.horizon
        self.controllers = {c: build_controller(engine.variant, c, engine.constants)
                            for c in engine.car_names}
        known = {obs.name: obs for obs in map(build_observer_live, engine.car_names)}
        known["collision-observer"] = build_observer_collision()
        self.observers = [known[name] for name, _ in engine.initial_state().locations
                          if name not in self.controllers]
        autom = next(iter(self.controllers.values()))
        constants = [loc.clock_bound for loc in autom.locations
                     if loc.clock_bound is not None]
        constants += [g.bound for e in autom.edges for g in e.guards
                      if isinstance(g, ClockConstraint)]
        self.cap = max(constants) + 1
        self.dead_x = _dead_at(autom, lambda e: any(
            isinstance(g, ClockConstraint) for g in e.guards),
            lambda e: e.reset_clock,
            lambda loc: loc.clock_bound is not None)
        self.dead_l = _dead_at(autom, lambda e: _reads_l(e.action) or any(
            expr.var == "l" for _, expr in e.assigns),
            lambda e: any(var == "l" for var, _ in e.assigns))
        self.cache: dict = {}

    # -- states ---------------------------------------------------------------

    def normalise(self, state: SystemState) -> SystemState:
        clocks, registers = [], []
        for (c, x), (_, (n, l)) in zip(state.clocks, state.registers):
            loc = state.location(c)
            clocks.append((c, 0 if loc in self.dead_x else x))
            registers.append((c, (n, n if loc in self.dead_l else l)))
        return SystemState(state.snapshot, state.locations, tuple(clocks),
                           tuple(registers))

    def raw_forms(self, state: SystemState) -> List[SystemState]:
        """state, state with every dead clock at cap, and state with every
        dead target lane on a neighbouring lane where there is one: raw
        states that normalise to a normalised state."""
        capped = tuple((c, self.cap if state.location(c) in self.dead_x else x)
                       for c, x in state.clocks)
        moved = []
        for c, (n, l) in state.registers:
            if state.location(c) in self.dead_l:
                l = n + 1 if n + 1 < self.lane_count else max(n - 1, 0)
            moved.append((c, (n, l)))
        return [state, dataclasses.replace(state, clocks=capped),
                dataclasses.replace(state, registers=tuple(moved))]

    # -- the relation ---------------------------------------------------------

    def __call__(self, state: SystemState) -> List[Tuple[Step, SystemState]]:
        where = dict(state.locations)
        clocks = dict(state.clocks)
        lanes = dict(state.registers)
        ts = state.snapshot
        kept: List[Tuple[Step, SystemState]] = []
        for c, autom in self.controllers.items():
            x, (n, l) = clocks[c], lanes[c]
            for edge in autom.edges_from(where[c]):
                if not all(self._holds(g, ts, c, x, n) for g in edge.guards):
                    continue
                act = _traffic_action(edge.action, n, l)
                values = {"n": n, "l": l}
                for var, expr in edge.assigns:
                    values[var] = expr.resolve(n, l)
                where2 = dict(where, **{c: edge.target})
                for obs in self.observers:
                    if edge.emit is not None and obs.car == c:
                        where2[obs.name] = next(
                            (e.target for e in obs.edges_from(where[obs.name])
                             if e.recv == edge.emit), where[obs.name])
                target = (where2, dict(clocks, **{c: 0 if edge.reset_clock else x}),
                          dict(lanes, **{c: (values["n"], values["l"])}),
                          traffic.apply_action(ts, c, act))
                if self._invariants_hold(c, *target):
                    kept.append((Fire(c, edge.name, str(act)), self._state(state, *target)))
        for obs in self.observers:
            for edge in obs.edges_from(where[obs.name]):
                if edge.recv is None and all(self._holds(g, ts, None, 0, 0)
                                             for g in edge.guards):
                    kept.append((Fire(obs.name, edge.name, str(edge.action)),
                                 self._state(state, dict(where, **{obs.name: edge.target}),
                                             clocks, lanes, ts)))
        waited = {c: min(x + 1, self.cap) for c, x in clocks.items()}
        if self._clock_bounds_hold(where, waited):
            kept.append((Delay(1), self._state(state, where, waited, lanes, ts)))
        return kept

    @staticmethod
    def _state(like: SystemState, where, clocks, lanes, ts) -> SystemState:
        return SystemState(ts, tuple((a, where[a]) for a, _ in like.locations),
                           tuple((c, clocks[c]) for c, _ in like.clocks),
                           tuple((c, lanes[c]) for c, _ in like.registers))

    def _clock_bounds_hold(self, where, clocks) -> bool:
        for c, autom in self.controllers.items():
            bound = autom.location(where[c]).clock_bound
            if bound is not None and clocks[c] > bound:
                return False
        return True

    def _invariants_hold(self, firing, where, clocks, lanes, ts) -> bool:
        if not self._clock_bounds_hold(where, clocks):
            return False
        for c, autom in self.controllers.items():
            inv = autom.location(where[c]).spatial_inv
            if inv is None:
                continue
            pair = ts if c == firing else TrafficSnapshot(
                ts.lane_count, {firing: ts.car(firing), c: ts.car(c)})
            if inv.kind == "cc" and not self._ask("cc", pair, c):
                return False
            if inv.kind == "pc-none" and self._ask("pc", pair, c):
                return False
        return True

    def _holds(self, g, ts: TrafficSnapshot, c, x: int, n: int) -> bool:
        if isinstance(g, ClockConstraint):
            return g.holds(x)
        if isinstance(g, LaneExists):
            return 0 <= n + g.delta < self.lane_count
        if g.kind == "pc-some":
            return self._ask("pc", ts, c)
        if g.kind == "pc-none":
            return not self._ask("pc", ts, c)
        if g.kind == "claim-free":
            return not self._ask("pc-claim", ts, c, n + g.delta)
        if g.kind == "collision-some":
            return self._ask("collision", ts, None)
        raise AssertionError(f"unexpected guard {g}")

    def _ask(self, question: str, ts: TrafficSnapshot, ego, lane=None) -> bool:
        key = (question, ego, lane,
               tuple((c, car.res, car.clm) for c, car in sorted(ts.cars.items())))
        if key not in self.cache:
            self.cache[key] = self._formula_answer(question, ts, ego, lane)
        return self.cache[key]

    def _formula_answer(self, question: str, ts: TrafficSnapshot, ego, lane) -> bool:
        if question == "collision":
            lo = min(car.pos for car in ts.cars.values()) - 1
            hi = max(car.pos + car.size for car in ts.cars.values()) + 1
            view = View(0, self.lane_count - 1, Extent(lo, hi))
            return mlsl.eval(ts, view, {"ego": next(iter(ts.cars))}, _COLLISION)
        if question == "pc-claim":
            car = ts.car(ego)
            ts = ts.with_car(ego, CarState(car.pos, car.size, car.res, {lane}))
        view = traffic.standard_view(ts, ego, self.horizon)
        return mlsl.eval(ts, view, {"ego": ego}, _CC if question == "cc" else _PC)


def _dead_at(autom, reads, overwrites, held=lambda loc: False) -> set:
    """Locations of autom where a variable is dead: no path from there
    reaches a read of it (held(location), or reads(edge) on an edge
    taken) before an edge that overwrites it (a backward fixpoint)."""
    live = {loc.name for loc in autom.locations if held(loc)}
    live |= {e.source for e in autom.edges if reads(e)}
    grown = True
    while grown:
        before = len(live)
        live |= {e.source for e in autom.edges if e.target in live and not overwrites(e)}
        grown = len(live) > before
    return {loc.name for loc in autom.locations} - live


def _reads_l(action) -> bool:
    lane = getattr(action, "lane", None)
    return lane is not None and lane.var == "l"


def _traffic_action(action, n: int, l: int) -> traffic.Action:
    if isinstance(action, ActClaim):
        return traffic.Claim(action.lane.resolve(n, l))
    if isinstance(action, ActWithdrawClaim):
        return traffic.WithdrawClaim()
    if isinstance(action, ActReserve):
        return traffic.Reserve()
    if isinstance(action, ActWithdrawReservation):
        return traffic.WithdrawReservation(action.lane.resolve(n, l))
    if isinstance(action, ActTau):
        return traffic.Tau()
    raise AssertionError(f"unknown action {action!r}")
