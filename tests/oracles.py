"""Slow reference checkers the engine's verdicts are compared against.

formula_successors is a reference successor relation: it answers every
spatial guard by evaluating its MLSL formula on the full snapshot.  The
rest recomputes verdicts from the engine's successor relation only, using plain dictionaries over rich SystemState objects and networkx
graph algorithms: a different traversal (iterative DFS vs the checker's
BFS), different cycle machinery (networkx SCCs vs hand-rolled Tarjan) and
a different state representation (structured states vs packed integers).
ag_witness and af_witness rebuild counterexamples from their definition
as first breadth-first walks, over engine.successors and a deque.
"""

from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

import networkx as nx

from lanecheck import mlsl, traffic
from lanecheck.checker import (_INV_CC, _INV_PCNONE, _REQ_CLAIMFREE, _REQ_PCNONE,
                               _REQ_PCSOME, Delay, Engine, Fire, Step, SystemState,
                               Trace)
from lanecheck.traffic import CarState, Extent, View

Adjacency = Dict[SystemState, List[Tuple[Step, SystemState]]]


def explore(engine: Engine, limit: int = 200_000) -> Tuple[SystemState, Adjacency]:
    """All reachable states with their successor lists, by DFS."""
    init = engine.initial_state()
    adj: Adjacency = {}
    stack = [init]
    while stack:
        s = stack.pop()
        if s in adj:
            continue
        succ = engine.successors(s)
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


def naive_ag(engine: Engine, bad: Callable[[SystemState], bool]) -> str:
    init, adj = explore(engine)
    return "fails" if any(bad(s) for s in adj) else "holds"


def naive_no_deadlock(engine: Engine) -> str:
    init, adj = explore(engine)
    return "fails" if any(is_deadlock(adj, s) for s in adj) else "holds"


def naive_af(engine: Engine, good: Callable[[SystemState], bool]) -> str:
    """AF good under the checker's path rules (stated in the
    lanecheck.checker module docstring), recomputed with networkx.

    A counterexample is a reachable good-free run that is infinite and
    fair, or that gets stuck.  Concretely, inside the region reachable
    without touching a good state: a dead end; a cycle of fires only
    (time never advances); or a cycle on which every controller enabled
    anywhere around it actually fires (nobody is merely starved by the
    scheduler).
    """
    init, adj = explore(engine)
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
    """engine.successors(state) per state, computed on first lookup."""

    def __init__(self, engine: Engine):
        super().__init__()
        self.engine = engine

    def __missing__(self, state: SystemState):
        self[state] = succs = self.engine.successors(state)
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


def ag_witness(engine: Engine, bad: Callable[[SystemState], bool]) -> Trace:
    """An AG witness by definition: the first walk in breadth-first order
    from the initial state that reaches a bad state (none if it is bad)."""
    init = engine.initial_state()
    steps = () if bad(init) else first_walk(Successors(engine), init,
                                            lambda step, s2: bad(s2))
    return Trace(initial=init, steps=tuple(steps))


def af_witness(engine: Engine, good: Callable[[SystemState], bool],
               note: str, entry: Optional[SystemState]) -> Trace:
    """An AF witness by definition, inside the region of states reachable
    without a good one.  A stuck run is the first walk to a state with no
    successor.  A lasso is the first walk to entry, the state the cycle
    starts at, then the cycle: from entry, for each controller in cars
    order that it must fire, the first walk inside entry's SCC ending with
    a fire of it, then the first walk back to entry.  A zero-delay cycle
    uses fires only and must fire every controller that fires inside the
    SCC; a fair one must fire every controller enabled anywhere in it."""
    adj = Successors(engine)
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


# --- reference successor relation ---------------------------------------------

_PC = mlsl.exists_pc_formula()
_CC = mlsl.cc_formula()
_COLLISION = mlsl.collision_formula()


def formula_successors(engine: Engine, sid: int, cache: Optional[dict] = None):
    """Engine._expand(sid) recomputed with every spatial question asked of
    the formula evaluator on the whole snapshot, not of the pair lists.

    Guards are exists_pc_formula (pc-some, pc-none) and, for claim-free,
    exists_pc_formula on the snapshot with ego's claim swapped to the
    wanted lane; every car's invariant (cc_formula, pc-none) is checked on
    the target state; the collision observer asks the collision formula on
    a road-wide view.  Answers depend only on the question, the car and
    the lanes every car holds, so they are memoised in cache on that key;
    pass one dict per engine to share it across calls.
    """
    cache = {} if cache is None else cache
    cars = engine._cars
    n = engine._ncars
    digits = engine._unpack(sid)
    cfgs = digits[:n]

    def ask(question, i, lane=None):
        key = (question, i, lane,
               tuple((t.res_mask[c], t.clm_mask[c]) for t, c in zip(cars, cfgs)))
        if key not in cache:
            cache[key] = _formula_answer(engine, question, i, lane, cfgs)
        return cache[key]

    def violated(j):
        inv = cars[j].inv[cfgs[j]]
        return ((inv == _INV_CC and not ask("cc", j))
                or (inv == _INV_PCNONE and ask("pc", j)))

    succs: List[Tuple[int, int]] = []
    enabled = 0
    for i in range(n):
        table = cars[i]
        for fd in table.fires[cfgs[i]]:
            if fd.req == _REQ_PCSOME and not ask("pc", i):
                continue
            if fd.req == _REQ_PCNONE and ask("pc", i):
                continue
            if fd.req == _REQ_CLAIMFREE and ask("pc-claim", i, fd.req_lane):
                continue
            old = cfgs[i]
            cfgs[i] = fd.target
            broken = any(violated(j) for j in range(n))
            cfgs[i] = old
            if broken:
                continue
            enabled |= 1 << i
            new_digits = list(digits)
            new_digits[i] = fd.target
            if table.name in engine._live_index:
                w = engine._live_index[table.name]
                k = engine._live_digit0 + w
                loc = table.loc_names[table.configs[cfgs[i]][0]]
                emit = next(e.emit for e in table.autom.edges_from(loc)
                            if e.name == fd.edge_name)
                new_digits[k] = _observer_hears(engine._live_obs[w], digits[k], emit)
            succs.append(((i << 8) | fd.slot, engine._pack_digits(new_digits)))

    any_fire = bool(succs)
    cd = engine._coll_digit
    if cd >= 0 and digits[cd] == 0 and ask("collision", None):
        new_digits = list(digits)
        new_digits[cd] = 1
        succs.append((engine._collide_code, engine._pack_digits(new_digits)))
        any_fire = True

    delayed = [cars[i].delay_next[cfgs[i]] for i in range(n)]
    if all(d >= 0 for d in delayed):
        succs.append((-1, engine._pack_digits(delayed + digits[n:])))
    return succs, enabled, any_fire


def _observer_hears(obs, here: int, channel) -> int:
    """The observer's location index after a controller emits on channel:
    the target of its recv edge for the channel, or here when it has none."""
    names = [loc.name for loc in obs.locations]
    for e in obs.edges:
        if e.source == names[here] and e.recv is not None and e.recv == channel:
            return names.index(e.target)
    return here


def _formula_answer(engine: Engine, question: str, i, lane, cfgs) -> bool:
    ts = engine._snapshot_of(cfgs)
    if question == "collision":
        lo = min(t.pos for t in engine._cars) - 1
        hi = max(t.pos + t.size for t in engine._cars) + 1
        view = View(0, engine.lane_count - 1, Extent(lo, hi))
        return mlsl.eval(ts, view, {"ego": engine._cars[0].name}, _COLLISION)
    ego = engine._cars[i].name
    if question == "pc-claim":
        car = ts.car(ego)
        ts = ts.with_car(ego, CarState(car.pos, car.size, car.res, {lane}))
    view = traffic.standard_view(ts, ego, engine.horizon)
    return mlsl.eval(ts, view, {"ego": ego}, _CC if question == "cc" else _PC)
