"""Engine behaviour: exploration, verdicts, witnesses, budgets, query plumbing."""

import dataclasses
import random
import tracemalloc
from array import array

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from lanecheck import checker, mlsl, traffic
from lanecheck.automata import Constants
from lanecheck.checker import (
    BUDGET_ENV_VAR,
    CheckerError,
    Delay,
    Engine,
    Fire,
    LivenessAny,
    LivenessCar,
    NoDeadlock,
    SafetyNoCollision,
    Trace,
    run_query,
)
from lanecheck.scenario import Scenario, ScenarioCar, load_scenario
from lanecheck.traffic import CarState, TrafficSnapshot

import oracles
from support import fig1, replay


def tiny(variant="original", lanes=2, constants=None):
    return Scenario(
        lane_count=lanes,
        cars=(ScenarioCar("A", 0, 0, 4), ScenarioCar("B", 1, 2, 4)),
        variant=variant,
        constants=constants or Constants(),
    )


def three_lane_fig1(variant="original"):
    sc = fig1(variant)
    cars = tuple(dataclasses.replace(c, lane=min(c.lane, 2)) for c in sc.cars)
    return dataclasses.replace(sc, lane_count=3, cars=cars)


def road(lanes, cars, variant, horizon=None):
    return Scenario(lane_count=lanes, cars=tuple(ScenarioCar(*c) for c in cars),
                    variant=variant, constants=Constants(), horizon=horizon)


ALL_QUERIES = (NoDeadlock(), SafetyNoCollision(), LivenessAny(), LivenessCar("A"))


# --- state plumbing ------------------------------------------------------------


def test_initial_state_matches_scenario():
    sc = fig1()
    eng = Engine.for_query(sc, NoDeadlock())
    init = eng.initial_state()
    assert init.snapshot == sc.snapshot()
    for name in sc.car_names():
        assert init.location(name) == "cruising"
        assert init.clock(name) == 0
        lane = next(c.lane for c in sc.cars if c.name == name)
        assert init.lanes_of(name) == (lane, lane)


def test_initial_state_observer_digits():
    sc = fig1()
    safety = Engine.for_query(sc, SafetyNoCollision()).initial_state()
    assert safety.location("collision-observer") == "watching"
    live = Engine.for_query(sc, LivenessAny()).initial_state()
    for name in sc.car_names():
        assert live.location(f"observer({name})") == "tracking"


def test_successors_from_start():
    eng = Engine.for_query(fig1(), NoDeadlock())
    succs = eng.successors(eng.initial_state())
    fires = {str(step) for step, _ in succs if isinstance(step, Fire)}
    # A on lane 2 and B on lane 0 and E on lane 3 of a 4-lane road
    assert "fire A claim-up claim(3)" in fires
    assert "fire A claim-down claim(1)" in fires
    assert "fire B claim-up claim(1)" in fires
    assert "fire E claim-down claim(2)" in fires
    assert not any("B claim-down" in s for s in fires)
    assert not any("E claim-up" in s for s in fires)
    delays = [step for step, _ in succs if isinstance(step, Delay)]
    assert len(delays) == 1 and delays[0].amount == 1


def test_successor_states_are_live_engine_states():
    eng = Engine.for_query(fig1(), NoDeadlock())
    for _, s2 in eng.successors(eng.initial_state()):
        eng.successors(s2)   # packs back without error


def test_module_level_wrappers():
    eng = Engine.for_query(fig1(), NoDeadlock())
    init = eng.initial_state()
    assert checker.successors(eng, init) == eng.successors(init)
    assert checker.deadlock(eng, init) == eng.deadlock(init)


def test_random_walks_replay_through_traffic_rules():
    rng = random.Random(7)
    for variant in ("original", "live"):
        eng = Engine.for_query(fig1(variant), LivenessAny())
        state = eng.initial_state()
        steps = []
        for _ in range(80):
            succs = eng.successors(state)
            if not succs:
                break
            step, state = rng.choice(succs)
            steps.append((step, state))
        replay(Trace(initial=eng.initial_state(), steps=tuple(steps), cycle_start=None))


def test_foreign_state_is_rejected():
    state = Engine.for_query(fig1(), NoDeadlock()).initial_state()
    narrow = Engine(2, [("A", 0, 0, 5)])
    with pytest.raises(CheckerError) as err:
        narrow.successors(state)
    assert "not an engine configuration" in str(err.value)


def test_state_and_trace_documents():
    eng = Engine.for_query(fig1(), SafetyNoCollision())
    init = eng.initial_state()
    doc = init.to_dict()
    assert doc["cars"]["A"]["res"] == [2]
    assert doc["locations"]["A"] == "cruising"
    assert doc["locations"]["collision-observer"] == "watching"
    assert doc["clocks"]["A"] == 0
    assert doc["registers"]["A"] == [2, 2]
    step, s2 = eng.successors(init)[0]
    tr = Trace(initial=init, steps=((step, s2),), cycle_start=None)
    tdoc = tr.to_dict()
    assert len(tdoc["steps"]) == 1
    assert tdoc["cycle_start"] is None
    assert "fire" in tr.format() or "delay" in tr.format()


# --- deadlock ------------------------------------------------------------------


def test_lone_car_on_one_lane_is_deadlocked():
    eng = Engine(1, [("A", 0, 0, 5)])
    assert eng.deadlock(eng.initial_state())
    v = eng.run_query(NoDeadlock())
    assert v.outcome == "fails"
    assert v.witness is not None and v.witness.steps == ()


def test_fig1_start_is_not_deadlocked():
    eng = Engine.for_query(fig1(), NoDeadlock())
    assert not eng.deadlock(eng.initial_state())


def test_delay_chain_deadlock_is_detected():
    # plus-tw claim: the claim must be held t_w long before withdrawing,
    # so the car sits in claimed for a while; waiting never unblocks a
    # lone car on its way to nowhere, but claimed is not itself stuck
    eng = Engine(2, [("A", 0, 0, 5)], variant="original-plus-tw")
    init = eng.initial_state()
    succs = eng.successors(init)
    assert any(isinstance(s, Fire) for s, _ in succs)
    assert not eng.deadlock(init)


# --- reachability --------------------------------------------------------------


def test_check_ag_trivial_predicates():
    eng = Engine.for_query(tiny(), NoDeadlock())
    held = eng.check_ag(lambda s: False)
    assert held.outcome == "holds" and held.witness is None
    failed = eng.check_ag(lambda s: True)
    assert failed.outcome == "fails"
    assert failed.witness is not None and failed.witness.steps == ()
    assert failed.states == 1


def test_check_ag_witness_is_shortest_and_replays():
    eng = Engine.for_query(fig1(), NoDeadlock())
    v = eng.check_ag(lambda s: s.location("A") == "confirming")
    assert v.outcome == "fails"
    trace = v.witness
    assert trace.states()[-1].location("A") == "confirming"
    # cruising -> claimed -> confirming plus the t_w wait is not needed
    # in the plain variant, so two fires suffice
    assert len(trace.steps) == 2
    replay(trace)


def test_check_ag_explicit_initial():
    eng = Engine.for_query(fig1(), NoDeadlock())
    init = eng.initial_state()
    _, mid = next(
        (st, s2) for st, s2 in eng.successors(init)
        if isinstance(st, Fire) and st.actor == "A")
    v = eng.check_ag(lambda s: s.location("A") == "cruising", initial=mid)
    assert v.outcome == "fails"
    assert v.witness.initial == mid


def test_reachable_state_count_matches_reference():
    sc = tiny()
    eng = Engine.for_query(sc, NoDeadlock())
    v = eng.check_ag(lambda s: False)
    _, adj = oracles.explore(eng)
    assert v.states == len(adj)


# --- safety --------------------------------------------------------------------


def test_unsafe_start_produces_immediate_witness():
    eng = Engine(2, [("A", 0, 0, 5), ("B", 0, 3, 5)], collision_observer=True)
    v = eng.run_query(SafetyNoCollision())
    assert v.outcome == "fails"
    (step, last) = v.witness.steps[-1]
    assert step == Fire("collision-observer", "collision", "tau")
    assert last.location("collision-observer") == "unsafe"
    assert len(v.witness.steps) == 1


def test_safety_needs_the_observer():
    eng = Engine(2, [("A", 0, 0, 5)])
    with pytest.raises(CheckerError) as err:
        eng.run_query(SafetyNoCollision())
    assert "collision observer" in str(err.value)


def test_fig1_is_safe():
    v = run_query(fig1(), SafetyNoCollision())
    assert v.outcome == "holds"


# --- liveness plumbing -----------------------------------------------------------


def test_liveness_unknown_car():
    with pytest.raises(CheckerError):
        run_query(fig1(), LivenessCar("Z"))
    with pytest.raises(CheckerError) as err:
        run_query(fig1(), LivenessAny(cars=("A", "Z")))
    assert "unknown cars" in str(err.value)


def test_liveness_empty_watch_set():
    with pytest.raises(CheckerError) as err:
        run_query(fig1(), LivenessAny(cars=()))
    assert "watches no cars" in str(err.value)


def test_liveness_needs_observers():
    eng = Engine.for_query(fig1(), NoDeadlock())   # no live observers built
    with pytest.raises(CheckerError) as err:
        eng.run_query(LivenessCar("A"))
    assert "progress observer" in str(err.value)


def test_unknown_query_type():
    eng = Engine.for_query(fig1(), NoDeadlock())
    with pytest.raises(CheckerError):
        eng.run_query("liveness")


def test_check_af_trivial_goal():
    eng = Engine.for_query(tiny(), NoDeadlock())
    v = eng.check_af(lambda s: True)
    assert v.outcome == "holds" and v.states == 1


def test_check_af_unreachable_goal_reports_a_cycle():
    eng = Engine.for_query(tiny(), NoDeadlock())
    v = eng.check_af(lambda s: False)
    assert v.outcome == "fails"
    assert v.witness is not None and v.witness.cycle_start is not None
    replay(v.witness)


# --- liveness verdicts ----------------------------------------------------------


def test_liveness_by_variant():
    # boxed-in neighbours can never swap lanes, so per-variant differences
    # need the three-car road where only the two claimants conflict
    assert run_query(fig1("original"), LivenessAny()).outcome == "fails"
    assert run_query(fig1("original-plus-tw"), LivenessAny()).outcome == "holds"
    assert run_query(fig1("live"), LivenessCar("A")).outcome == "holds"
    # other cars' observers do not count towards liveness-car's goal
    eng = Engine.for_query(fig1("original-plus-tw"), LivenessAny())
    assert eng.run_query(LivenessCar("A")).outcome == "fails"


def test_boxed_in_cars_deadlock_under_guarded_claims():
    # in the live variant a claim needs unclaimed unreserved space; two
    # overlapping neighbours block each other completely and never fire
    v = run_query(tiny("live"), NoDeadlock())
    assert v.outcome == "fails"
    assert v.states == 1


def test_livelock_witness_is_a_zero_delay_lasso():
    v = run_query(tiny("original"), LivenessAny())
    assert v.outcome == "fails"
    trace = v.witness
    assert trace.cycle_start is not None
    cycle = trace.steps[trace.cycle_start:]
    assert cycle and all(isinstance(step, Fire) for step, _ in cycle)
    assert "zero-delay" in v.note
    replay(trace)


def test_starvation_witness_is_a_fair_cycle():
    sc = fig1("original-plus-tw")
    v = run_query(sc, LivenessCar("A"))
    assert v.outcome == "fails"
    assert "fair cycle" in v.note
    trace = v.witness
    cycle = trace.steps[trace.cycle_start:]
    assert any(isinstance(step, Delay) for step, _ in cycle)
    # the cycle makes progress for someone, just never for A
    assert all(s.location("observer(A)") != "success" for s in trace.states())
    replay(trace)


def stuck_road():
    # at horizon 5 only B sees A: A's claim on B's lane looks free to A, but
    # B's invariant blocks A's reservation, so A waits in confirming until
    # its clock bound stops time, and B's claims are blocked by A
    return road(2, [("A", 0, 0, 10), ("B", 1, 5, 10)], "live", horizon=5)


def test_stuck_state_witness():
    eng = Engine.for_query(stuck_road(), LivenessCar("A"))
    v = eng.run_query(LivenessCar("A"))
    assert (v.outcome, v.states, v.note) == ("fails", 6, "run reaches a stuck state")
    last = v.witness.states()[-1]
    assert last.location("A") == "confirming" and not eng.successors(last)
    replay(v.witness)


def test_witnesses_are_first_breadth_first_walks():
    dense = [("A", 1, 10, 4), ("B", 3, 13, 5), ("C", 0, 17, 6), ("D", 2, 22, 5)]
    cases = []

    def ag(eng, bad, v):
        cases.append((v, oracles.ag_witness(eng, bad)))

    def af(eng, good, v):
        entry = None if v.witness.cycle_start is None else \
            v.witness.states()[v.witness.cycle_start]
        cases.append((v, oracles.af_witness(eng, good, v.note, entry)))

    eng = Engine.for_query(tiny(), NoDeadlock())
    ag(eng, lambda s: True, eng.check_ag(lambda s: True))
    eng = Engine(2, [("A", 0, 0, 5), ("B", 0, 3, 5)], collision_observer=True)
    ag(eng, oracles.collision_bad, eng.run_query(SafetyNoCollision()))
    eng = Engine.for_query(fig1(), NoDeadlock())
    confirming = lambda s: s.location("A") == "confirming"
    ag(eng, confirming, eng.check_ag(confirming))
    eng = Engine.for_query(tiny("live"), NoDeadlock())
    adj = oracles.Successors(eng)
    ag(eng, lambda s: oracles.is_deadlock(adj, s), eng.run_query(NoDeadlock()))
    # the dense benchmark chain, a large state space
    eng = Engine(4, dense)
    assert eng.state_space == 7_311_616
    both = lambda s: s.location("B") == s.location("C") == "changing"
    ag(eng, both, eng.check_ag(both))
    for sc, query in ((tiny("original"), LivenessAny()),
                      (fig1("original-plus-tw"), LivenessCar("A")),
                      (stuck_road(), LivenessCar("A"))):
        eng = Engine.for_query(sc, query)
        cars = sc.car_names() if isinstance(query, LivenessAny) else [query.car]
        af(eng, oracles.success_goal(cars), eng.run_query(query))

    notes = [v.note for v, _ in cases]
    assert [v.outcome for v, _ in cases] == ["fails"] * 8
    assert [len(v.witness.steps) for v, _ in cases] == [0, 1, 2, 0, 6, 5, 31, 5]
    assert "zero-delay" in notes[5] and "fair" in notes[6] and "stuck" in notes[7]
    for v, want in cases:
        assert v.witness == want, v.note
        replay(v.witness)


# --- the liveness region: SCC pass and memory ----------------------------------------


@st.composite
def _csr_graphs(draw):
    """A random region graph in the CSR form of Engine._af_search: each
    state's edges as (target, code) with code -1 for a delay."""
    n = draw(st.integers(1, 12))
    code = st.sampled_from([-1, -1, 0, 1, 1 << 8, (1 << 8) | 2, 2 << 8])
    adj = draw(st.lists(st.lists(st.tuples(st.integers(0, n - 1), code), max_size=4),
                        min_size=n, max_size=n))
    offsets, targets, codes = array("q", [0]), array("i"), array("i")
    for out in adj:
        for w, c in out:
            targets.append(w)
            codes.append(c)
        offsets.append(len(targets))
    return adj, offsets, targets, codes


@given(_csr_graphs(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_tarjan_matches_networkx(graph, fire_only):
    adj, offsets, targets, codes = graph
    g = nx.DiGraph()
    g.add_nodes_from(range(len(adj)))
    g.add_edges_from((v, w) for v, out in enumerate(adj) for w, c in out
                     if c != -1 or not fire_only)
    sccs = list(checker._tarjan(offsets, targets, codes, fire_only))
    assert sorted(map(sorted, sccs)) == sorted(map(sorted, nx.strongly_connected_components(g)))
    # reverse topological order: an edge's target component comes out first
    yielded = {v: k for k, comp in enumerate(sccs) for v in comp}
    for v, w in g.edges:
        assert yielded[w] <= yielded[v], (v, w)


def test_liveness_region_memory_per_state():
    # the whole-road search stores its region as numbered states with CSR
    # edges; allocation counts do not depend on the machine's speed
    eng = Engine.for_query(fig1("original"), LivenessCar("A"))
    tracemalloc.start()
    try:
        v = eng._whole(LivenessCar("A"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (v.outcome, v.states) == ("fails", 5_928)
    assert v.witness is not None
    assert peak / v.states <= 300, peak / v.states


# --- verdict equality against the reference implementation -------------------------


@pytest.mark.parametrize("variant", ["original", "live"])
@pytest.mark.parametrize("query", ALL_QUERIES, ids=lambda q: type(q).__name__)
def test_engine_matches_reference(variant, query):
    sc = tiny(variant)
    eng = Engine.for_query(sc, query)
    got = eng.run_query(query).outcome
    if isinstance(query, NoDeadlock):
        want = oracles.naive_no_deadlock(eng)
    elif isinstance(query, SafetyNoCollision):
        want = oracles.naive_ag(eng, oracles.collision_bad)
    elif isinstance(query, LivenessCar):
        want = oracles.naive_af(eng, oracles.success_goal([query.car]))
    else:
        want = oracles.naive_af(eng, oracles.success_goal(sc.car_names()))
    assert got == want


# --- determinism and engine options -------------------------------------------------


def test_repeated_runs_are_identical():
    for query in (SafetyNoCollision(), LivenessAny()):
        first = run_query(fig1(), query)
        second = run_query(fig1(), query)
        assert first == second


def _guard_mode_roads(variant):
    asym = [("A", 0, 0, 10), ("B", 1, 5, 10)]
    return {
        "tiny": tiny(variant),
        "three-lane fig1": three_lane_fig1(variant),
        "touching extents": road(2, [("A", 0, 0, 4), ("B", 1, 4, 4)], variant),
        # at horizon 5 only B sees A; at 6 both see each other
        "asymmetric clip h5": road(2, asym, variant, horizon=5),
        "asymmetric clip h6": road(2, asym, variant, horizon=6),
        "asymmetric clip plus C": road(3, asym + [("C", 2, 12, 6)], variant, horizon=6),
    }


def test_guard_modes_agree(monkeypatch):
    calls = []
    real_eval = mlsl.eval

    def counted_eval(*args, **kwargs):
        calls.append(args)
        return real_eval(*args, **kwargs)

    monkeypatch.setattr(mlsl, "eval", counted_eval)
    for variant in ("original", "live"):
        for name, sc in _guard_mode_roads(variant).items():
            for query in ALL_QUERIES:
                fast = run_query(sc, query, guard_mode="interval")
                del calls[:]
                eng = Engine.for_query(sc, query, guard_mode="mlsl")
                assert not calls, "building the engine evaluated formulas"
                slow = eng.run_query(query)
                if not isinstance(query, SafetyNoCollision):
                    # only the collision observer asks whether extents meet
                    assert all(args[3] != mlsl.collision_formula() for args in calls)
                assert fast.outcome == slow.outcome, (variant, name, query)
                assert fast.states == slow.states, (variant, name, query)
                assert fast.witness == slow.witness, (variant, name, query)


@settings(max_examples=200, deadline=None)
@given(pa=st.integers(-6, 6), sa=st.integers(1, 8), pb=st.integers(-6, 6),
       sb=st.integers(1, 8), horizon=st.integers(1, 10))
def test_pair_probes_share_one_geometry(pa, sa, pb, sb, horizon):
    cars = [("A", 0, pa, sa), ("B", 1, pb, sb)]
    probed, interval = (Engine(2, cars, guard_mode=mode, horizon=horizon,
                               collision_observer=True)._pair_graph()
                        for mode in ("mlsl", "interval"))
    assert probed.sees == interval.sees
    assert probed.collide == interval.collide
    # meeting extents link no cars that views do not (interaction groups)
    assert not interval.collide or interval.sees != ((), ())
    # the collision check asks the same pair question of reservations
    ts = TrafficSnapshot(1, {"A": CarState(pa, sa, {0}), "B": CarState(pb, sb, {0})})
    view = traffic.standard_view(ts, "A", horizon)
    assert mlsl.eval(ts, view, {"ego": "A"}, mlsl.cc_formula()) == (probed.sees[0] == ())


def test_formula_successors_match_engine():
    # one engine walks every reachable state, so later states hit the rows
    # that earlier ones memoised
    fig = three_lane_fig1("original")
    roads = [
        (fig.lane_count, [(c.name, c.lane, c.pos, c.size) for c in fig.cars],
         {"horizon": fig.effective_horizon()}),
        # an unsafe start, so the collision formula fires
        (2, [("A", 0, 0, 5), ("B", 0, 3, 5)], {"collision_observer": True}),
    ]
    for variant in ("original", "live"):
        roads.append((2, [("A", 0, 0, 4), ("B", 1, 2, 4)],
                      {"variant": variant, "collision_observer": True,
                       "live_observers": ("A", "B")}))
        # at horizon 5 only B sees A, so A's fires meet B's invariant only
        roads.append((2, [("A", 0, 0, 10), ("B", 1, 5, 10)],
                      {"variant": variant, "horizon": 5}))
        # a three-car chain (A-B, B-C), every car watched: the row keys
        # carry live observer digits
        roads.append((3, [("A", 0, 0, 4), ("B", 2, 3, 4), ("C", 0, 6, 4)],
                      {"variant": variant, "collision_observer": True,
                       "live_observers": ("A", "B", "C")}))
    # A and B interact, C far away sits between them in cars order, so the
    # row keys of A and B span C's digit
    roads.append((2, [("A", 0, 0, 4), ("C", 1, 40, 4), ("B", 1, 2, 4)],
                  {"collision_observer": True}))
    roads.append((3, [("A", 0, 0, 4), ("B", 2, 2, 4)],
                  {"normalize": False, "clock_cap": 6}))
    for lanes, cars, kwargs in roads:
        eng = Engine(lanes, cars, **kwargs)
        probed = Engine(lanes, cars, guard_mode="mlsl", **kwargs)
        cache = {}
        seen = {eng._initial_sid}
        stack = [eng._initial_sid]
        while stack:
            sid = stack.pop()
            expansion = eng._expand(sid)
            assert oracles.formula_successors(eng, sid, cache) == expansion, sid
            assert probed._expand(sid) == expansion, sid
            for _, s2 in expansion[0]:
                if s2 not in seen:
                    seen.add(s2)
                    stack.append(s2)


def _answer(v):
    return (v.outcome, v.states, v.explored, v.note, v.witness)


def test_row_memo_cap_and_lifetime(monkeypatch):
    def answers():
        out = []
        for sc in (fig1, three_lane_fig1):
            for variant in ("original", "original-plus-tw", "live"):
                for query in ALL_QUERIES:
                    eng = Engine.for_query(sc(variant), query)
                    out.append(_answer(eng.run_query(query)))
                    assert eng._rows is None
        eng = Engine.for_query(three_lane_fig1(), LivenessCar("A"))
        out.append(_answer(eng.check_ag(lambda s: False)))
        assert eng._rows is None
        out.append(_answer(eng.check_af(lambda s: False)))
        assert eng._rows is None
        return out

    want = answers()
    monkeypatch.setattr(checker, "_ROW_LIMIT", 1)
    expand = Engine._expand
    largest = []

    def spy(self, sid):
        out = expand(self, sid)
        largest.append(max(len(memo) for *_, memo in self._rows))
        return out

    monkeypatch.setattr(Engine, "_expand", spy)
    assert answers() == want
    assert max(largest) == 1


def test_row_memo_misses_on_a_dense_chain(monkeypatch):
    # the first road of the benchmark's dense workload (seed 1, round 0):
    # one interaction group, each car overlapping only its neighbours
    eng = Engine(4, [("A", 1, 10, 4), ("B", 3, 13, 5), ("C", 0, 17, 6), ("D", 2, 22, 5)],
                 collision_observer=True)
    misses = [0] * 4
    expansions = []
    car_row, expand = Engine._car_row, Engine._expand

    def count_miss(self, i, sid):
        misses[i] += 1
        return car_row(self, i, sid)

    def count_expansion(self, sid):
        expansions.append(sid)
        return expand(self, sid)

    monkeypatch.setattr(Engine, "_car_row", count_miss)
    monkeypatch.setattr(Engine, "_expand", count_expansion)
    v = eng.run_query(SafetyNoCollision())
    assert (v.outcome, v.states) == ("holds", 151_348)
    assert len(expansions) == 151_348
    # A and D key on two cars, B and C on three
    assert misses == [417, 8365, 8365, 417]
    assert sum(misses) < 0.15 * len(expansions)


def test_bad_guard_mode():
    with pytest.raises(CheckerError):
        run_query(tiny(), NoDeadlock(), guard_mode="fast")


def test_unnormalized_clocks_keep_verdicts():
    sc = tiny("original-plus-tw")
    for query in ALL_QUERIES:
        base = run_query(sc, query)
        raw = run_query(sc, query, normalize=False, clock_cap=6)
        assert base.outcome == raw.outcome, query
        assert base.states <= raw.states


def test_unbounded_clock_needs_a_cap():
    with pytest.raises(CheckerError) as err:
        run_query(tiny(), NoDeadlock(), normalize=False)
    assert "clock_cap" in str(err.value)


# --- interaction groups ------------------------------------------------------------


def _grouped_road(rng):
    """A road of 2-3 interaction groups: clusters of 1-2 cars (2 in the
    first) whose extents overlap, 20 apart.  Small enough for the
    monolithic search."""
    ngroups = rng.randint(2, 3)
    lanes = 2 if ngroups == 3 else rng.randint(2, 3)
    cars = []
    for g in range(ngroups):
        for k in range(2 if g == 0 else rng.randint(1, 2)):
            cars.append((f"G{g}{k}", rng.randrange(lanes), 20 * g + rng.randint(0, 1),
                         rng.randint(2, 4)))
    return lanes, cars, ngroups


def _same_answer(got, want):
    assert (got.outcome, got.states, got.note) == (want.outcome, want.states, want.note)
    assert got.witness == want.witness


def _group_engine(lanes, cars, query, **kwargs):
    liveness = isinstance(query, (LivenessAny, LivenessCar))
    return Engine(lanes, cars, collision_observer=isinstance(query, SafetyNoCollision),
                  live_observers=[c[0] for c in cars] if liveness else (), **kwargs)


@pytest.mark.parametrize("guard_mode", ["interval", "mlsl"])
def test_group_decomposition_matches_monolithic_search(guard_mode, monkeypatch):
    whole_road = []
    whole = Engine._whole
    monkeypatch.setattr(Engine, "_whole",
                        lambda self, query: whole_road.append(self) or whole(self, query))
    rng = random.Random(31)
    seen = set()
    for _ in range(8):
        lanes, cars, ngroups = _grouped_road(rng)
        for variant in ("original", "original-plus-tw", "live"):
            for query in (SafetyNoCollision(), NoDeadlock(), LivenessAny(),
                          LivenessCar(cars[0][0])):
                eng = _group_engine(lanes, cars, query, variant=variant,
                                    guard_mode=guard_mode)
                whole_road.clear()
                got = eng.run_query(query)
                decomposed = eng not in whole_road
                assert len(eng.interaction_groups()) == ngroups
                _same_answer(got, eng._whole(query))
                seen.add((isinstance(query, (LivenessAny, LivenessCar)), decomposed))
    # decomposed and fallback answers, for AG and for liveness
    assert len(seen) == 4


def test_group_runs_share_the_parent_tables(monkeypatch):
    eng = Engine.for_query(fig1(), SafetyNoCollision())
    built = []
    monkeypatch.setattr(checker, "build_controller",
                        lambda *args: built.append(args))
    v = eng.run_query(SafetyNoCollision())
    assert not built
    assert eng.interaction_groups() == [("A", "B"), ("E",)]
    assert (v.outcome, v.states, v.explored) == ("holds", 417 * 52, 417 + 52)


def test_interaction_groups_close_over_chains():
    # overlap is not transitive, groups are: C meets B, B meets A, A misses C
    chain = Engine(2, [("C", 0, 6, 4), ("D", 1, 30, 4), ("A", 0, 0, 4), ("B", 1, 3, 4)])
    assert chain.interaction_groups() == [("C", "A", "B"), ("D",)]


def test_group_product_against_budget():
    # fig1 safety: groups of 417 and 52 states; fig1 live liveness-car=A:
    # regions of 125 and 58.  A budget of exactly the product, one below
    # it, and one below group {A,B}, which makes that group inconclusive,
    # so the whole road is searched as well
    for variant, query, sizes, low in (("original", SafetyNoCollision(), (417, 52), 50),
                                       ("live", LivenessCar("A"), (125, 58), 100)):
        product = sizes[0] * sizes[1]
        for budget, outcome, explored in ((product, "holds", sum(sizes)),
                                          (product - 1, "inconclusive", sum(sizes)),
                                          (low, "inconclusive", 2 * low)):
            eng = Engine.for_query(fig1(variant), query, budget=budget)
            v = eng.run_query(query)
            _same_answer(v, eng._whole(query))
            assert (v.outcome, v.states, v.explored) == (outcome, min(budget, product),
                                                         explored)


def test_liveness_holds_as_a_product_of_group_regions():
    # (scenario, query, region sizes per group); fig1's answers are also
    # compared with the whole-road search, which takes seconds on fourcars
    fourcars = dataclasses.replace(load_scenario("scenarios/fourcars.scn"), variant="live")
    for sc, query, sizes in ((fig1("live"), LivenessCar("A"), (125, 58)),
                             (fig1("original-plus-tw"), LivenessAny(), (45, 6)),
                             (fourcars, LivenessCar("A"), (125, 58, 58))):
        eng = Engine.for_query(sc, query)
        v = eng.run_query(query)
        product = 1
        for size in sizes:
            product *= size
        assert (v.outcome, v.states, v.explored) == ("holds", product, sum(sizes))
        if sc is not fourcars:
            _same_answer(v, eng._whole(query))
    # original-plus-tw: {A,B} alone has a fair cycle; only {E} starves a
    # controller in each of its SCCs, and that settles the product
    eng = Engine.for_query(fig1("original-plus-tw"), LivenessAny())
    ab = eng._restrict(eng._pair_graph().groups[0])._whole(LivenessAny())
    assert (ab.outcome, ab.note) == ("fails", "fair cycle avoids the goal")


def test_liveness_with_the_collision_observer_is_not_decomposed():
    eng = Engine(4, [(c.name, c.lane, c.pos, c.size) for c in fig1().cars], "live",
                 collision_observer=True, live_observers=("A",))
    v = eng.run_query(LivenessCar("A"))
    assert v.explored == v.states
    _same_answer(v, eng._whole(LivenessCar("A")))


def test_failing_group_falls_back_to_the_whole_road():
    # an unsafe start in one group, a lone car in the other
    unsafe = [("A", 0, 0, 5), ("B", 0, 3, 5), ("C", 1, 40, 5)]
    # two lone cars on one lane: each group deadlocks at once
    stuck = [("A", 0, 0, 5), ("B", 0, 20, 5)]
    # stuck_road's pair, whose region has a stuck state, and a lone car E
    # that would settle liveness on its own
    timelock = [("A", 0, 0, 10), ("B", 1, 5, 10), ("E", 0, 40, 5)]
    for lanes, cars, query, kwargs in ((2, unsafe, SafetyNoCollision(), {}),
                                       (1, stuck, NoDeadlock(), {}),
                                       (2, timelock, LivenessAny(),
                                        {"variant": "live", "horizon": 5})):
        eng = _group_engine(lanes, cars, query, **kwargs)
        v = eng.run_query(query)
        assert v.outcome == "fails"
        _same_answer(v, eng._whole(query))
        assert v.explored > v.states
        replay(v.witness)


def test_unnormalized_start_is_not_decomposed():
    cars = [("A", 0, 0, 4), ("B", 1, 20, 4)]
    for query in ALL_QUERIES:
        eng = _group_engine(2, cars, query, variant="original-plus-tw",
                            normalize=False, clock_cap=6)
        assert len(eng.interaction_groups()) == 2
        v = eng.run_query(query)
        assert v.explored == v.states
        _same_answer(v, eng._whole(query))


# --- budgets -------------------------------------------------------------------------


def test_budget_makes_searches_inconclusive():
    v = run_query(fig1(), SafetyNoCollision(), budget=50)
    assert v.outcome == "inconclusive"
    assert not v.holds
    assert "state budget 50 exhausted" in v.note
    va = run_query(fig1("original-plus-tw"), LivenessCar("A"), budget=50)
    assert va.outcome == "inconclusive"
    assert v.states == va.states == 50


def test_budget_env_var(monkeypatch):
    monkeypatch.setenv(BUDGET_ENV_VAR, "60")
    v = run_query(fig1(), SafetyNoCollision())
    assert v.outcome == "inconclusive"
    assert "60" in v.note
    # an explicit budget beats the environment
    assert run_query(fig1(), SafetyNoCollision(), budget=10 ** 9).outcome == "holds"


@pytest.mark.parametrize("raw", ["zero", "-5", "0", "1.5"])
def test_budget_env_var_garbage(monkeypatch, raw):
    monkeypatch.setenv(BUDGET_ENV_VAR, raw)
    with pytest.raises(CheckerError):
        run_query(tiny(), NoDeadlock())


@pytest.mark.parametrize("budget", [0, -1])
def test_explicit_budget_must_be_positive(budget):
    with pytest.raises(CheckerError, match="positive"):
        run_query(tiny(), NoDeadlock(), budget=budget)


def test_engine_construction_errors():
    with pytest.raises(CheckerError):
        Engine(0, [("A", 0, 0, 5)])
    with pytest.raises(CheckerError):
        Engine(2, [])
    with pytest.raises(CheckerError):
        Engine(2, [("A", 0, 0, 5), ("A", 1, 9, 5)])
    with pytest.raises(CheckerError):
        Engine(2, [("A", 7, 0, 5)])
    with pytest.raises(CheckerError):
        Engine(2, [("A", 0, 0, 0)])
    with pytest.raises(CheckerError):
        Engine(2, [("A", 0, 0, 5)], live_observers=("B",))
    with pytest.raises(CheckerError):
        Engine(2, [("A", 0, 0, 5)], live_observers=("A", "A"))
    with pytest.raises(CheckerError):
        Engine(2, [("A", 0, 0, 5)], horizon=0)
