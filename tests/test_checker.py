"""Engine behaviour: exploration, verdicts, witnesses, budgets, query plumbing."""

import dataclasses
import gc
import itertools
import json
import random
import tracemalloc
import weakref
from array import array

import networkx as nx
import pytest
import hypothesis
from hypothesis import given, settings, strategies as st

from lanecheck import checker, mlsl, traffic
from lanecheck.automata import VARIANTS, ClockConstraint, Constants, build_controller
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
from lanecheck.cli import render_trace
from lanecheck.scenario import Scenario, ScenarioCar, load_scenario
from lanecheck.traffic import CarState, TrafficSnapshot

import dump_verdicts
import oracles
from support import FIVE_CARS, fig1, replay


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


def _steps(eng, sid):
    """The engine's successors of sid, as (step, successor sid) pairs."""
    return [(eng._step_of(sid, code), s2) for code, s2 in eng._expand(sid)[0]]


def _deadlocked(eng, sid):
    return eng._deadlock_from(sid, eng._expand(sid))


def test_successors_from_start():
    eng = Engine.for_query(fig1(), NoDeadlock())
    succs = _steps(eng, eng._initial_sid)
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
    # every successor sid lies in the packed space, and its state is in
    # the engine's normal form
    eng = Engine.for_query(fig1(), NoDeadlock())
    reference = oracles.FormulaSuccessors(eng)
    for _, s2 in _steps(eng, eng._initial_sid):
        digits = eng._unpack(s2)
        assert all(d < r for d, r in zip(digits, eng._radices))
        assert eng._pack_digits(digits) == s2
        state = eng._to_state(s2)
        assert reference.normalise(state) == state
        _steps(eng, s2)


def test_random_walks_replay_through_traffic_rules():
    rng = random.Random(7)
    for variant in ("original", "live"):
        eng = Engine.for_query(fig1(variant), LivenessAny())
        sid = eng._initial_sid
        steps = []
        for _ in range(80):
            succs = _steps(eng, sid)
            if not succs:
                break
            step, sid = rng.choice(succs)
            steps.append((step, eng._to_state(sid)))
        replay(Trace(initial=eng.initial_state(), steps=tuple(steps), cycle_start=None))


def test_state_and_trace_documents():
    eng = Engine.for_query(fig1(), SafetyNoCollision())
    init = eng.initial_state()
    doc = init.to_dict()
    assert doc["cars"]["A"]["res"] == [2]
    assert doc["locations"]["A"] == "cruising"
    assert doc["locations"]["collision-observer"] == "watching"
    assert doc["clocks"]["A"] == 0
    assert doc["registers"]["A"] == [2, 2]
    step, s2 = _steps(eng, eng._initial_sid)[0]
    tr = Trace(initial=init, steps=((step, eng._to_state(s2)),), cycle_start=None)
    tdoc = tr.to_dict()
    assert len(tdoc["steps"]) == 1
    assert tdoc["cycle_start"] is None
    assert "fire" in render_trace(tr) or "delay" in render_trace(tr)


# --- deadlock ------------------------------------------------------------------


def test_lone_car_on_one_lane_is_deadlocked():
    eng = Engine(1, [("A", 0, 0, 5)])
    assert _deadlocked(eng, eng._initial_sid)
    v = eng.run_query(NoDeadlock())
    assert v.outcome == "fails"
    assert v.witness is not None and v.witness.steps == ()


def test_fig1_start_is_not_deadlocked():
    eng = Engine.for_query(fig1(), NoDeadlock())
    assert not _deadlocked(eng, eng._initial_sid)


def test_delay_chain_deadlock_is_detected():
    # plus-tw claim: the claim must be held t_w long before withdrawing,
    # so the car sits in claimed for a while; waiting never unblocks a
    # lone car on its way to nowhere, but claimed is not itself stuck
    eng = Engine(2, [("A", 0, 0, 5)], variant="original-plus-tw")
    succs = _steps(eng, eng._initial_sid)
    assert any(isinstance(s, Fire) for s, _ in succs)
    assert not _deadlocked(eng, eng._initial_sid)


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
    assert last.location("A") == "confirming" and not oracles.definitional(eng)(last)
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
    adj = oracles.Successors(oracles.definitional(eng))
    ag(eng, lambda s: oracles.is_deadlock(adj, s), eng.run_query(NoDeadlock()))
    # the dense benchmark chain, a large state space
    eng = Engine(4, dense)
    both = lambda s: s.location("B") == s.location("C") == "changing"
    ag(eng, both, eng.check_ag(both))
    # on the last road the first walk inside the fair SCC to a fire of A
    # passes a fire of B, so a cover cycle leg for A that stopped at a
    # fire of any later controller would end early
    for sc, query in ((tiny("original"), LivenessAny()),
                      (fig1("original-plus-tw"), LivenessCar("A")),
                      (stuck_road(), LivenessCar("A")),
                      (road(3, [("A", 2, 4, 4), ("B", 0, 6, 4)], "original-plus-tw",
                            horizon=3), LivenessCar("A"))):
        eng = Engine.for_query(sc, query)
        cars = sc.car_names() if isinstance(query, LivenessAny) else [query.car]
        af(eng, oracles.success_goal(cars), eng.run_query(query))
    # a goal that the first walk over every edge passes through: the stems
    # to tiny's zero-delay cycle and to the stuck state of stuck_road's
    # cars under original-plus-tw start with A's claim, and must start
    # with B's inside the region.  The zero-delay witness that _by_group
    # builds from the start's fire edges walks the same stem
    a_first = lambda s: s.location("A") == "claimed" and s.location("B") == "cruising"
    stuck_cars = [(c.name, c.lane, c.pos, c.size) for c in stuck_road().cars]
    for eng in (Engine(2, [("A", 0, 0, 4), ("B", 1, 2, 4)]),
                Engine(2, stuck_cars, "original-plus-tw", horizon=5)):
        af(eng, a_first, eng.check_af(a_first))
    eng = Engine(2, [("A", 0, 0, 4), ("B", 1, 2, 4)])
    zero_delay, stored = eng._zero_delay_witness(lambda sid: a_first(eng._to_state(sid)))
    assert (zero_delay, stored) == (cases[-2][0].witness, 3)

    notes = [v.note for v, _ in cases]
    assert [v.outcome for v, _ in cases] == ["fails"] * 11
    assert [len(v.witness.steps) for v, _ in cases] == [0, 1, 2, 0, 6, 5, 31, 5, 25, 6, 5]
    assert "zero-delay" in notes[5] and "fair" in notes[6] and "stuck" in notes[7]
    assert "fair" in notes[8] and cases[8][0].states == 62
    assert "zero-delay" in notes[9] and "stuck" in notes[10]
    for v, want in cases:
        assert v.witness == want, v.note
        replay(v.witness)


# --- the liveness region: SCC pass and memory ----------------------------------------


@st.composite
def _csr_graphs(draw):
    """A random region in the CSR form of checker._Region: each state's
    fire edges as (target, code), then at most one delay edge (code -1),
    last, as _expand and _region list them."""
    n = draw(st.integers(1, 12))
    code = st.sampled_from([0, 1, 1 << 8, (1 << 8) | 2, 2 << 8])
    adj = []
    for _ in range(n):
        out = draw(st.lists(st.tuples(st.integers(0, n - 1), code), max_size=4))
        if draw(st.booleans()):
            out.append((draw(st.integers(0, n - 1)), -1))
        adj.append(out)
    offsets, targets, codes = array("q", [0]), array("i"), array("i")
    for out in adj:
        for w, c in out:
            targets.append(w)
            codes.append(c)
        offsets.append(len(targets))
    return adj, checker._Region({}, list(range(n)), offsets, targets, codes)


@given(_csr_graphs(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_tarjan_matches_networkx(graph, fire_only):
    # the components with an internal edge (fire edges alone when
    # fire_only), over the region's successor function
    adj, region = graph
    g = nx.DiGraph()
    g.add_nodes_from(range(len(adj)))
    g.add_edges_from((v, w) for v, out in enumerate(adj) for w, c in out
                     if c != -1 or not fire_only)
    sccs = list(checker._tarjan(region.n, region.succ(fire_only)))
    cyclic = [comp for comp in nx.strongly_connected_components(g)
              if len(comp) > 1 or g.has_edge(*2 * tuple(comp))]
    assert sorted(map(sorted, sccs)) == sorted(map(sorted, cyclic))
    # reverse topological order: when a path joins two components, its
    # end's comes out first
    yielded = {v: k for k, comp in enumerate(sccs) for v in comp}
    for v in yielded:
        for w in nx.descendants(g, v):
            if w in yielded:
                assert yielded[w] <= yielded[v], (v, w)


def test_fire_graph_acyclicity_matches_networkx():
    # each car table's flag against its graph of own fires, config to config
    for variant in VARIANTS:
        for t, t_lc, t_w in itertools.product((1, 2, 3), repeat=3):
            consts = Constants(t=t, t_lc=t_lc, t_w=t_w, wait_lo=1, wait_hi=4)
            for lanes in (1, 2, 3, 4):
                table = Engine(lanes, [("A", 0, 0, 4)], variant, consts)._table
                g = nx.DiGraph()
                g.add_nodes_from(range(table.count))
                g.add_edges_from((ci, fd.target) for ci, fires in enumerate(table.fires)
                                 for fd in fires)
                assert table.fires_acyclic == nx.is_directed_acyclic_graph(g), (
                    variant, consts, lanes)


@st.composite
def _small_roads(draw):
    """A road of two or three cars close together, any variant, with or
    without the collision and progress observers."""
    lanes = draw(st.integers(2, 3))
    cars = [(name, draw(st.integers(0, lanes - 1)), draw(st.integers(0, 6)),
             draw(st.integers(2, 5)))
            for name in "ABC"[:draw(st.integers(2, 3 if lanes < 3 else 2))]]
    return Engine(lanes, cars, draw(st.sampled_from(VARIANTS)),
                  collision_observer=draw(st.booleans()),
                  live_observers=[c[0] for c in cars] if draw(st.booleans()) else (),
                  horizon=draw(st.sampled_from([None, 3, 5])))


@given(_small_roads())
@settings(max_examples=60, deadline=None)
def test_acyclic_fire_graphs_leave_no_zero_delay_cycle(eng):
    # when no car's own fires can cycle, neither can the fires of the whole
    # reachable graph, observers included: _af_search may skip that pass
    hypothesis.assume(eng._table.fires_acyclic)
    index = {eng._initial_sid: 0}
    order = [eng._initial_sid]
    offsets, targets, codes = array("q", [0]), array("i"), array("i")
    for sid in order:
        for code, s2 in eng._expand(sid)[0]:
            if s2 not in index:
                index[s2] = len(order)
                order.append(s2)
            targets.append(index[s2])
            codes.append(code)
        offsets.append(len(targets))
    fires = lambda k: [targets[e] for e in range(offsets[k], offsets[k + 1])
                       if codes[e] != -1]
    assert list(checker._tarjan(len(order), fires)) == []


@given(_small_roads(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_fire_only_region_gives_the_whole_search_witness(eng, first):
    # watching the first car or every car: when the whole region has no
    # stuck state, a zero-delay witness built from the fire-only region is
    # the whole-road search's, after storing no more states
    hypothesis.assume(eng._live_cars)
    good = eng._goal(eng._live_cars[:1] if first else eng._live_cars)
    _, _, stop = eng._region(good, False)
    witness, stored = eng._zero_delay_witness(good)
    if stop is None and witness is not None:
        v = eng._af(good)
        assert (v.witness, v.note) == (witness, checker._ZERO_DELAY_NOTE)
        assert stored <= v.states


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
    # every engine-reachable state, as it is and in two raw forms (dead
    # clocks at the cap, dead target lanes moved): the definitional
    # relation's successors, normalised, are the engine's, in its order.
    # One engine walks every reachable state, so later states hit the rows
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
    # timed claims: a live clock in claimed, a dead one in cruising
    roads.append((3, [("A", 0, 0, 4), ("B", 2, 2, 4)], {"variant": "original-plus-tw"}))
    # A and B already break cc, so a fire of C asks only the invariants
    # between C and each other car, not A's against B
    roads.append((2, [("A", 0, 0, 5), ("B", 0, 3, 5), ("C", 1, 2, 5)],
                  {"collision_observer": True}))
    for lanes, cars, kwargs in roads:
        eng = Engine(lanes, cars, **kwargs)
        probed = Engine(lanes, cars, guard_mode="mlsl", **kwargs)
        reference = oracles.FormulaSuccessors(eng)
        seen = {eng._initial_sid}
        stack = [eng._initial_sid]
        while stack:
            sid = stack.pop()
            expansion = eng._expand(sid)
            assert probed._expand(sid) == expansion, sid
            state = eng._to_state(sid)
            want = [(step, eng._to_state(s2)) for step, s2 in _steps(eng, sid)]
            for raw in reference.raw_forms(state):
                assert reference.normalise(raw) == state
                got = [(step, reference.normalise(s2)) for step, s2 in reference(raw)]
                # SystemState equality leaves the snapshot out
                assert got == want, raw
                assert [s2.snapshot for _, s2 in got] == [s2.snapshot for _, s2 in want]
            for _, s2 in expansion[0]:
                if s2 not in seen:
                    seen.add(s2)
                    stack.append(s2)


def _answer(v):
    return (v.outcome, v.states, v.explored, v.note, v.witness)


def _memos(eng):
    """The block memos and the car-row memos of eng._rows, each field of a
    block named, so that a change to its layout fails here."""
    blocks, cars = eng._rows
    block_memos = [memo for _top, _div, _live, _limit, memo, _cars, _pairs in blocks]
    car_memos = [memo for memo, _sees, _seen, _mult, _live in cars]
    assert all(isinstance(memo, dict) for memo in block_memos + car_memos)
    return block_memos, car_memos


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
        largest.append([max(map(len, memos)) for memos in _memos(self)])
        return out

    monkeypatch.setattr(Engine, "_expand", spy)
    assert answers() == want
    # each kind of memo holds one row at the cap, and held one somewhere
    assert [max(sizes) for sizes in zip(*largest)] == [1, 1]


def test_row_memo_misses_on_a_dense_chain(monkeypatch):
    # the first road of the benchmark's dense workload (seed 1, round 0):
    # one interaction group, each car overlapping only its neighbours
    eng = Engine(4, [("A", 1, 10, 4), ("B", 3, 13, 5), ("C", 0, 17, 6), ("D", 2, 22, 5)],
                 collision_observer=True)
    calls = [0] * 4
    expansions = []
    memos = []
    car_row, expand = Engine._car_row, Engine._expand

    def count_call(self, i, sid):
        calls[i] += 1
        return car_row(self, i, sid)

    def count_expansion(self, sid):
        expansions.append(sid)
        out = expand(self, sid)
        memos[:] = _memos(self)
        return out

    monkeypatch.setattr(Engine, "_car_row", count_call)
    monkeypatch.setattr(Engine, "_expand", count_expansion)
    v = eng.run_query(SafetyNoCollision())
    assert (v.outcome, v.states) == ("holds", 151_348)
    assert len(expansions) == 151_348
    block_memos, car_memos = memos
    # blocks {A,B} and {C,D}, keyed on the digits of A-C and B-D: two
    # lookups per expansion, and a miss asks each car of its block once
    assert len(block_memos) == 2
    assert calls == [8365] * 4
    assert [len(memo) for memo in block_memos] == [8365, 8365]
    assert sum(calls[::2]) < 0.15 * len(expansions)
    # every car row computed was stored: keys on lane-mask unions repeat
    # across far more neighbour configurations than the blocks' keys
    assert [len(memo) for memo in car_memos] == [190, 603, 603, 190]
    assert max(map(len, block_memos + car_memos)) < checker._ROW_LIMIT


def test_a_two_car_group_stores_no_block_rows(monkeypatch):
    # a block whose slice spans every car is keyed on the whole state,
    # whose keys never repeat in one search, so it stores nothing; its car
    # rows still repeat
    expand = Engine._expand
    sizes = []

    def spy(self, sid):
        out = expand(self, sid)
        sizes.append([sum(map(len, memos)) for memos in _memos(self)])
        return out

    monkeypatch.setattr(Engine, "_expand", spy)
    for query in ALL_QUERIES:
        eng = Engine.for_query(tiny(), query)
        eng.run_query(query)
        assert len(eng._pair_graph().groups) == 1
    stored_blocks, stored_cars = zip(*sizes)
    assert max(stored_blocks) == 0
    assert 0 < max(stored_cars) < len(sizes)


@st.composite
def _near_roads_and_a_far_car(draw):
    """Two or three cars close together, and maybe one far ahead of them
    at any place in cars order: any variant, horizon 2-5 or covering, with
    or without the collision observer, watching any cars in any order."""
    lanes = draw(st.integers(2, 3))
    cars = [[name, draw(st.integers(0, lanes - 1)), draw(st.integers(0, 6)),
             draw(st.integers(2, 5))] for name in "ABC"[:draw(st.integers(2, 3))]]
    if draw(st.booleans()):
        cars.insert(draw(st.integers(0, len(cars))), ["F", draw(st.integers(0, lanes - 1)), 40, 3])
    names = [c[0] for c in cars]
    return Engine(lanes, cars, draw(st.sampled_from(VARIANTS)),
                  collision_observer=draw(st.booleans()),
                  live_observers=draw(st.lists(st.sampled_from(names), unique=True)),
                  horizon=draw(st.sampled_from([None, 2, 3, 4, 5])))


@given(_near_roads_and_a_far_car())
@settings(max_examples=300, deadline=None)
def test_memoised_rows_match_a_memo_free_expansion(eng):
    # the first 1,500 states of the breadth-first search, so that block
    # and car rows are both stored and hit
    order = [eng._initial_sid]
    seen = set(order)
    for sid in order:
        expansion = eng._expand(sid)
        assert expansion == oracles.expansion(eng, sid), sid
        for _, s2 in expansion[0]:
            if s2 not in seen and len(seen) < 1500:
                seen.add(s2)
                order.append(s2)


def test_every_start_is_its_own_delay_successor():
    # the group decomposition pads group runs with waits at their start,
    # which needs a start that waiting leaves unchanged (checker module
    # docstring); the car tables pin dead clocks, and need every clock a
    # location reads to be bounded there
    for variant in VARIANTS:
        for t, t_lc, t_w in itertools.product((1, 2, 3), repeat=3):
            consts = Constants(t=t, t_lc=t_lc, t_w=t_w, wait_lo=1, wait_hi=4)
            eng = Engine(3, [("A", 0, 0, 4), ("B", 1, 2, 4), ("C", 2, 30, 4)],
                         variant, consts)
            table = eng._table
            assert eng._unpack(eng._initial_sid) == [table.initial[lane] for lane in (0, 1, 2)]
            for ci in table.initial:
                assert table.delay_next[ci] == ci, (variant, consts)
            autom = build_controller(variant, "A", consts)
            for loc in autom.locations:
                if any(isinstance(g, ClockConstraint)
                       for e in autom.edges_from(loc.name) for g in e.guards):
                    assert loc.clock_bound is not None, (variant, loc.name)


def test_verdict_dump_runs_one_case(capsys):
    labels = [label for label, *_ in dump_verdicts.cases()]
    assert len(set(labels)) == len(labels) == 291
    case = "fig1/original/safety/budget=default/interval"
    assert dump_verdicts.main([case]) == 0
    line, = capsys.readouterr().out.splitlines()
    doc = json.loads(line)
    assert (doc["case"], doc["outcome"], doc["states"], doc["explored"], doc["witness"]) == (
        case, "holds", 417 * 52, 417 + 52, None)


def test_certifier_accepts_every_dump_witness():
    # every witness of the interval half of the verdict dump, re-derived
    # step by step from the definitional relation
    certified = 0
    for label, build, question in dump_verdicts.cases():
        if label.endswith("/mlsl"):
            continue
        eng = build()
        v = dump_verdicts.answer(eng, question)
        if v.witness is not None:
            oracles.certify(eng, v, question)
            certified += 1
    assert certified == 60


def test_certifier_rejects_broken_witnesses():
    # two adjacent steps swapped
    eng = Engine.for_query(fig1(), NoDeadlock())
    confirming = oracles.Bad(lambda s: s.location("A") == "confirming")
    v = eng.check_ag(confirming.test)
    oracles.certify(eng, v, confirming)
    first, second, *rest = v.witness.steps
    swapped = dataclasses.replace(v.witness, steps=(second, first, *rest))
    with pytest.raises(AssertionError, match="step 0"):
        oracles.certify(eng, dataclasses.replace(v, witness=swapped), confirming)
    # a fair lasso with E's leg cut out of its cover cycle: from the start,
    # the first walk to A's abort of a claim, then back, neither through a
    # fire of E or the goal.  It closes and waits, and A and B fire on it,
    # but E, enabled at the start, never does
    eng = Engine.for_query(fig1("original-plus-tw"), LivenessCar("A"))
    v = eng.run_query(LivenessCar("A"))
    oracles.certify(eng, v, LivenessCar("A"))
    start, goal = eng.initial_state(), oracles.success_goal(["A"])
    adj = oracles.Successors(oracles.definitional(eng))
    keep = lambda step, s2: not goal(s2) and getattr(step, "actor", None) != "E"
    cycle = oracles.first_walk(adj, start, lambda step, s2: step == Fire(
        "A", "abort-claim", "withdraw-claim"), keep)
    cycle += oracles.first_walk(adj, cycle[-1][1], lambda step, s2: s2 == start, keep)
    assert {step.actor for step, _ in cycle if isinstance(step, Fire)} == {"A", "B"}
    assert any(isinstance(step, Delay) for step, _ in cycle)
    assert any(getattr(step, "actor", None) == "E" for step, _ in adj[start])
    cut = Trace(initial=start, steps=tuple(cycle), cycle_start=0)
    with pytest.raises(AssertionError, match="no fair counterexample cycle"):
        oracles.certify(eng, dataclasses.replace(v, witness=cut), LivenessCar("A"))


def test_bad_guard_mode():
    with pytest.raises(CheckerError):
        run_query(tiny(), NoDeadlock(), guard_mode="fast")


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
    # every answer is the whole-road search's; the runs cover answers from
    # the group searches alone and from the whole-road search, for AG and
    # for liveness, and liveness answers from the product of the group
    # regions.  A budget of 30 sends some of each kind to the whole road
    how = []
    whole, product = Engine._whole, checker._Product
    monkeypatch.setattr(Engine, "_whole",
                        lambda self, query: how.append("whole") or whole(self, query))
    monkeypatch.setattr(checker, "_Product",
                        lambda *args: how.append("product") or product(*args))
    rng = random.Random(31)
    seen = set()
    for _ in range(8):
        lanes, cars, ngroups = _grouped_road(rng)
        for variant in ("original", "original-plus-tw", "live"):
            for query in (SafetyNoCollision(), NoDeadlock(), LivenessAny(),
                          LivenessCar(cars[0][0])):
                for budget in (None, 30):
                    eng = _group_engine(lanes, cars, query, variant=variant,
                                        guard_mode=guard_mode, budget=budget)
                    how.clear()
                    got = eng.run_query(query)
                    assert len(how) <= 1
                    assert len(eng.interaction_groups()) == ngroups
                    _same_answer(got, whole(eng, query))
                    seen.add((isinstance(query, (LivenessAny, LivenessCar)),
                              how[0] if how else "groups"))
    assert seen == {(False, "groups"), (False, "whole"),
                    (True, "groups"), (True, "product"), (True, "whole")}


def test_group_runs_share_the_parent_tables(monkeypatch):
    eng = Engine.for_query(fig1(), SafetyNoCollision())
    built = []
    monkeypatch.setattr(checker, "build_controller",
                        lambda *args: built.append(args))
    v = eng.run_query(SafetyNoCollision())
    assert not built
    assert eng.interaction_groups() == [("A", "B"), ("E",)]
    assert (v.outcome, v.states, v.explored) == ("holds", 417 * 52, 417 + 52)


def test_one_controller_table_per_engine(monkeypatch):
    # every car runs the same controller, so an engine compiles it once,
    # and each of its group engines reads that same table
    built = []
    build = checker.build_controller
    monkeypatch.setattr(checker, "build_controller",
                        lambda *args: built.append(args) or build(*args))
    eng = Engine.for_query(load_scenario("scenarios/fourcars.scn"), SafetyNoCollision())
    assert len(built) == 1
    groups = eng._pair_graph().groups
    assert len(groups) == 3
    for group in groups:
        assert eng._restrict(group)._table is eng._table
    assert len(built) == 1


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
    # fig1 original liveness-car=A: regions of 114 (with a zero-delay
    # cycle) and 52 (with a fair one), so neither settles a holding
    # answer.  The product fails at a budget of exactly 5,928, after the
    # 64 states reachable from the start over fires, and is inconclusive
    # below it
    for budget, outcome, explored in ((5_928, "fails", 114 + 52 + 64),
                                      (5_927, "inconclusive", 114 + 52)):
        eng = Engine.for_query(fig1(), LivenessCar("A"), budget=budget)
        v = eng.run_query(LivenessCar("A"))
        _same_answer(v, eng._whole(LivenessCar("A")))
        assert (v.outcome, v.states, v.explored) == (outcome, min(budget, 5_928), explored)
    # fig1 original-plus-tw liveness-car=A: regions of 172 and 58, both
    # OPEN, so the road fails on their product, searched at a budget of
    # exactly 9,976; below it, the groups answer inconclusive at the budget
    # without a search of the whole road
    for budget, outcome, explored in ((9_976, "fails", 9_976),
                                      (9_975, "inconclusive", 0),
                                      (5_000, "inconclusive", 0)):
        eng = Engine.for_query(fig1("original-plus-tw"), LivenessCar("A"), budget=budget)
        v = eng.run_query(LivenessCar("A"))
        _same_answer(v, eng._whole(LivenessCar("A")))
        assert (v.outcome, v.states, v.explored) == (outcome, budget, 172 + 58 + explored)


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


def _fig1_cars(variant, order):
    sc = fig1(variant)
    cars = {c.name: c for c in sc.cars}
    return dataclasses.replace(sc, cars=tuple(cars[name] for name in order))


def test_product_of_group_regions_matches_the_whole_road(monkeypatch):
    # when every group region comes back OPEN, run_query searches their
    # product without the whole-road engine's _expand or _whole, and gives
    # the verdict of the group searches followed by the whole-road search,
    # witness and explored included.  Roads: fig1; fig1 with its cars
    # listed A, E, B, so that groups {A,B} and {E} interleave in car order;
    # and _grouped_road roads
    calls = []
    expand, whole, product = Engine._expand, Engine._whole, checker._Product
    monkeypatch.setattr(Engine, "_expand",
                        lambda self, sid: calls.append(self) or expand(self, sid))
    monkeypatch.setattr(Engine, "_whole",
                        lambda self, query: calls.append("whole") or whole(self, query))
    monkeypatch.setattr(checker, "_Product",
                        lambda *args: calls.append("product") or product(*args))
    engines = []
    for variant in VARIANTS:
        for order in ("ABE", "AEB"):
            for query in (LivenessAny(), LivenessCar("A"), LivenessCar("B"), LivenessCar("E")):
                engines.append((order, variant, query,
                                Engine.for_query(_fig1_cars(variant, order), query)))
    rng = random.Random(7)
    for _ in range(6):
        lanes, cars, _ = _grouped_road(rng)
        for variant in VARIANTS:
            for query in (LivenessAny(), LivenessCar(cars[0][0])):
                engines.append(("grouped", variant, query,
                                _group_engine(lanes, cars, query, variant=variant)))
    taken = []
    for road, variant, query, eng in engines:
        calls.clear()
        v = eng.run_query(query)
        if "product" not in calls:
            continue
        assert eng not in calls and "whole" not in calls, (road, query)
        taken.append((road, variant, query))
        watched = eng._liveness_targets(query)
        explored = sum(eng._restrict(g)._group_part(query, watched)[0].explored
                       for g in eng._pair_graph().groups)
        want = whole(eng, query)
        assert v == dataclasses.replace(want, explored=explored + want.explored), (road, query)
        if v.witness is not None:
            replay(v.witness)
    for order in ("ABE", "AEB"):
        assert (order, "original-plus-tw", LivenessCar("A")) in taken
    grouped = [t for t in taken if t[0] == "grouped"]
    assert {variant for _, variant, _ in grouped} == set(VARIANTS), grouped


def test_product_search_memory_per_state():
    # fig1 original-plus-tw liveness-car=A fails on the product of its
    # group regions (172 x 58 states) and stores no whole-road region;
    # allocation counts do not depend on the machine's speed
    eng = Engine.for_query(fig1("original-plus-tw"), LivenessCar("A"))
    tracemalloc.start()
    try:
        v = eng.run_query(LivenessCar("A"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (v.outcome, v.states, v.explored) == ("fails", 9_976, 172 + 58 + 9_976)
    assert v.witness is not None
    assert peak / v.states <= 100, peak / v.states


def test_whole_road_search_after_open_groups_holds_no_group_region(monkeypatch):
    # fig1 original-plus-tw liveness-car=A with its cars listed E, A, B, at
    # a budget of 100: group {E} comes back OPEN with its 58 states, then
    # {A,B} is inconclusive, so the whole road is searched.  By then no
    # group region is alive
    regions, whole, factor = [], Engine._whole, Engine._group_factor

    def kept(self, *args):
        out = factor(self, *args)
        if out[2] is not None:
            regions.append(weakref.ref(out[2][1].offsets))
        return out

    def fallback(self, query):
        gc.collect()
        assert regions and all(r() is None for r in regions)
        return whole(self, query)
    monkeypatch.setattr(Engine, "_group_factor", kept)
    monkeypatch.setattr(Engine, "_whole", fallback)
    eng = Engine.for_query(_fig1_cars("original-plus-tw", "EAB"), LivenessCar("A"),
                           budget=100)
    assert eng.interaction_groups() == [("E",), ("A", "B")]
    v = eng.run_query(LivenessCar("A"))
    assert (v.outcome, v.states, v.explored) == ("inconclusive", 100, 58 + 100 + 100)
    assert len(regions) == 1


def test_zero_delay_failures_come_from_the_group_regions(monkeypatch):
    # original: some group region has a zero-delay cycle and none a stuck
    # state, so the product fails without the whole-road search.  explored
    # is the group regions plus the states reachable from the start over
    # fires alone (fig1 liveness-car=A: 114 + 52 + 64)
    fourcars = load_scenario("scenarios/fourcars.scn")
    pins = {("fig1", "any"): (150, 71), ("fig1", "car"): (5_928, 230),
            ("three-lane", "any"): (50, 33), ("three-lane", "car"): (1_330, 105),
            ("fourcars", "any"): (1_350, 224), ("fourcars", "car"): (308_256, 666)}
    whole = Engine._whole
    called = []
    monkeypatch.setattr(Engine, "_whole", lambda self, query: called.append(query))
    for name, sc in (("fig1", fig1()), ("three-lane", three_lane_fig1()),
                     ("fourcars", fourcars)):
        for kind, query in (("any", LivenessAny()), ("car", LivenessCar("A"))):
            eng = Engine.for_query(sc, query)
            v = eng.run_query(query)
            assert not called, (name, kind)
            assert (v.states, v.explored) == pins[name, kind], (name, kind)
            want = whole(eng, query)
            assert want.note == "zero-delay cycle avoids the goal"
            _same_answer(v, want)
            replay(v.witness)


def test_zero_delay_failure_without_a_cycle_from_the_start():
    # A and B two lanes apart: their claims meet only after one of them has
    # changed lanes, which takes delays, so the fires from the start reach
    # no cycle and the whole road is searched after the groups
    eng = Engine(4, [("A", 0, 0, 4), ("B", 3, 1, 4), ("E", 0, 40, 4)],
                 live_observers=("A",))
    ab = eng._restrict(eng._pair_graph().groups[0])._whole(LivenessCar("A"))
    assert (ab.outcome, ab.note) == ("fails", "zero-delay cycle avoids the goal")
    assert eng._zero_delay_witness(eng._goal(("A",))) == (None, 48)
    v = eng.run_query(LivenessCar("A"))
    want = eng._whole(LivenessCar("A"))
    _same_answer(v, want)
    assert (v.outcome, v.states, v.note) == ("fails", 6_396,
                                             "zero-delay cycle avoids the goal")
    # the group regions ({A,B}, then E's 52 states), the fires from the
    # start, then the whole road
    assert v.explored == ab.states + 52 + 48 + want.explored
    replay(v.witness)


def test_group_control_flow_reads_no_note(monkeypatch):
    # _by_group takes its next step from each group's typed part, never
    # from the text of a verdict's note
    search = Engine._af_search

    def blank_notes(self, good):
        verdict, *rest = search(self, good)
        return (dataclasses.replace(verdict, note="?"), *rest)
    monkeypatch.setattr(Engine, "_af_search", blank_notes)
    v = run_query(fig1(), LivenessCar("A"))
    assert (v.outcome, v.states, v.explored, v.note) == (
        "fails", 5_928, 114 + 52 + 64, "zero-delay cycle avoids the goal")


def test_group_parts():
    # what each group's search says of the road's answer, in group order,
    # with the group's state count: one road per kind of part
    P = checker._Part

    def parts(eng, query):
        liveness = isinstance(query, (LivenessAny, LivenessCar))
        watched = eng._liveness_targets(query) if liveness else ()
        return [(part, v.states) for v, part, _ in
                (eng._restrict(g)._group_part(query, watched) for g in eng._pair_graph().groups)]

    unsafe, _, timelock = _failing_group_roads()
    for (eng, query), want in (
            (unsafe, [(P.RULES_OUT, 2), (P.SETTLES, 18)]),
            (timelock, [(P.RULES_OUT, 6), (P.SETTLES, 6)])):
        assert parts(eng, query) == want, query
    for variant, query, want in (
            ("original", LivenessCar("A"), [(P.ZERO_DELAY, 114), (P.OPEN, 52)]),
            ("original", LivenessAny(), [(P.ZERO_DELAY, 30), (P.SETTLES, 5)]),
            ("original-plus-tw", LivenessAny(), [(P.OPEN, 45), (P.SETTLES, 6)]),
            ("live", LivenessCar("A"), [(P.SETTLES, 125), (P.OPEN, 58)])):
        assert parts(Engine.for_query(fig1(variant), query), query) == want, (variant, query)
    eng = Engine.for_query(fig1(), SafetyNoCollision(), budget=50)
    assert parts(eng, SafetyNoCollision())[0][0] is P.RULES_OUT


def test_liveness_with_the_collision_observer_is_not_decomposed():
    eng = Engine(4, [(c.name, c.lane, c.pos, c.size) for c in fig1().cars], "live",
                 collision_observer=True, live_observers=("A",))
    v = eng.run_query(LivenessCar("A"))
    assert v.explored == v.states
    _same_answer(v, eng._whole(LivenessCar("A")))


def _failing_group_roads():
    """(engine, query) pairs where some interaction group fails."""
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
        yield _group_engine(lanes, cars, query, **kwargs), query


def test_failing_group_falls_back_to_the_whole_road():
    for eng, query in _failing_group_roads():
        v = eng.run_query(query)
        assert v.outcome == "fails"
        _same_answer(v, eng._whole(query))
        assert v.explored > v.states
        replay(v.witness)


def test_failing_group_builds_one_witness(monkeypatch):
    # the group searches hand over without a witness; only the whole
    # road builds one
    traced = []
    trace = Engine._trace
    monkeypatch.setattr(Engine, "_trace",
                        lambda self, *args: traced.append(self) or trace(self, *args))
    for eng, query in _failing_group_roads():
        traced.clear()
        v = eng.run_query(query)
        assert v.outcome == "fails" and traced == [eng], query


# --- budgets and visited states -----------------------------------------------------


def test_ag_searches_over_a_space_above_2_to_the_28_match_the_oracle():
    # few of the sids of FIVE_CARS are reachable, so the visited pages
    # are sparse; run_query and the whole-road search must both give the
    # oracle's answer and state count
    cars = list(FIVE_CARS)
    for variant, states in (("original", 1_242), ("original-plus-tw", 8_700), ("live", 39)):
        for query in (SafetyNoCollision(), NoDeadlock()):
            collision = isinstance(query, SafetyNoCollision)
            eng = Engine(4, cars, variant, collision_observer=collision)
            assert eng._mults[0] * eng._radices[0] > 1 << 28
            # the one oracle walk over the engine's own successor relation:
            # the definitional relation costs 2.4-5.4 ms per state on this
            # road, about 21 s for the 8,700 states of original-plus-tw
            _, adj = oracles.explore(eng, oracles.engine_relation(eng))
            bad = oracles.collision_bad if collision else \
                lambda s: oracles.is_deadlock(adj, s)
            want = "fails" if any(bad(s) for s in adj) else "holds"
            assert len(adj) == states
            for v in (eng.run_query(query), eng._whole(query)):
                assert (v.outcome, v.states) == (want, states), (variant, query)
            if variant != "live":
                eng = Engine(4, cars, variant, collision_observer=collision, budget=50)
                for v in (eng.run_query(query), eng._whole(query)):
                    assert (v.outcome, v.states) == ("inconclusive", 50), (variant, query)


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
