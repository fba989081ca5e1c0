"""Spatial formula evaluation: atoms, chops, parsing, fast rows against the sweep."""

import pytest
from hypothesis import example, given, settings, strategies as st

from lanecheck import mlsl
from lanecheck.mlsl import (
    And,
    Cl,
    EvalError,
    ExistsCar,
    Free,
    HChop,
    Not,
    ParseError,
    Re,
    TrueF,
    VarEq,
    VChop,
    cc,
    cc_formula,
    exists_pc_formula,
    format_formula,
    or_,
    parse,
    pc,
    pc_formula,
    somewhere,
)
from lanecheck.traffic import CarState, Extent, TrafficSnapshot, View, standard_view

from support import example_snapshot


def ev(ts, view, phi, nu=None, mode="fast"):
    binding = {"ego": sorted(ts.cars)[0]} if ts.cars else {"ego": "?"}
    if nu:
        binding.update(nu)
    return mlsl.eval(ts, view, binding, phi, chop_mode=mode)


# --- the running example ------------------------------------------------------


NU = {"ego": "E", "a": "A", "b": "B", "d": "D"}


def test_reserved_space_then_free_space_ahead():
    ts = example_snapshot()
    view = standard_view(ts, "E", 36)
    phi = parse("<re(ego) ; free>")
    assert mlsl.eval(ts, view, NU, phi)


def test_overlapping_claims_then_single_claim():
    ts = example_snapshot()
    view = standard_view(ts, "E", 36)
    phi = parse("<cl(a) & cl(b) ; !cl(a) & cl(b)>")
    assert mlsl.eval(ts, view, NU, phi)


def test_far_away_car_is_not_in_the_view():
    ts = example_snapshot()
    view = standard_view(ts, "E", 36)
    phi = parse("<cl(b) ; free ; re(d)>")
    assert not mlsl.eval(ts, view, NU, phi)


def test_somewhere_reserved_ego():
    ts = example_snapshot()
    view = standard_view(ts, "E", 36)
    assert mlsl.eval(ts, view, NU, somewhere(Re("ego")))


def test_wider_horizon_reveals_the_far_car():
    ts = example_snapshot()
    assert not mlsl.eval(ts, standard_view(ts, "E", 36), NU, somewhere(Re("d")))
    assert mlsl.eval(ts, standard_view(ts, "E", 200), NU, somewhere(Re("d")))


# --- atom semantics ------------------------------------------------------------


def one_car(pos=10, size=5, res={1}, clm=frozenset(), lanes=4):
    return TrafficSnapshot(lanes, {"A": CarState(pos, size, res, clm)})


def test_atoms_need_a_single_lane():
    ts = one_car()
    wide = View(0, 3, Extent(10, 15))
    assert not ev(ts, wide, Re("ego"))
    assert not ev(ts, wide, Free())


def test_atoms_need_positive_length():
    ts = one_car()
    point = View(1, 1, Extent(12, 12))
    assert not ev(ts, point, Re("ego"))
    assert not ev(ts, point, Free())
    assert ev(ts, point, TrueF())


def test_re_on_exact_and_partial_extent():
    ts = one_car()  # occupies [10, 15] on lane 1
    assert ev(ts, View(1, 1, Extent(10, 15)), Re("ego"))
    assert ev(ts, View(1, 1, Extent(11, 13)), Re("ego"))    # inside the car
    assert not ev(ts, View(1, 1, Extent(8, 15)), Re("ego"))  # sticks out
    assert not ev(ts, View(2, 2, Extent(10, 15)), Re("ego")) # wrong lane


def test_cl_uses_the_claimed_lane():
    ts = one_car(clm={2})
    assert ev(ts, View(2, 2, Extent(10, 15)), Cl("ego"))
    assert not ev(ts, View(1, 1, Extent(10, 15)), Cl("ego"))
    assert not ev(ts, View(2, 2, Extent(10, 15)), Re("ego"))


def test_free_ignores_lanes_but_sees_every_car():
    # Def-style free: no car may occupy the open interval, on any lane
    ts = one_car()  # lane 1, [10, 15]
    assert ev(ts, View(3, 3, Extent(20, 30)), Free())
    assert not ev(ts, View(3, 3, Extent(12, 30)), Free())
    # touching only at the endpoint is fine
    assert ev(ts, View(3, 3, Extent(15, 30)), Free())


def test_var_eq():
    ts = TrafficSnapshot(2, {
        "A": CarState(0, 5, res={0}),
        "B": CarState(10, 5, res={1}),
    })
    v = View(0, 1, Extent(0, 20))
    assert ev(ts, v, VarEq("c", "d"), nu={"c": "A", "d": "A"})
    assert not ev(ts, v, VarEq("c", "d"), nu={"c": "A", "d": "B"})


def test_exists_ranges_over_visible_cars():
    ts = TrafficSnapshot(2, {
        "A": CarState(0, 5, res={0}),
        "B": CarState(100, 5, res={1}),
    })
    v = View(0, 1, Extent(0, 20))
    b_here = ExistsCar("c", And(VarEq("c", "x"), TrueF()))
    assert ev(ts, v, b_here, nu={"x": "A"})
    assert not ev(ts, v, b_here, nu={"x": "B"})  # B is out of sight


# --- chops ---------------------------------------------------------------------


def test_hchop_splits_at_car_boundary():
    ts = one_car()  # [10, 15] on lane 1
    v = View(1, 1, Extent(10, 30))
    assert ev(ts, v, HChop(Re("ego"), Free()))
    assert not ev(ts, v, HChop(Free(), Re("ego")))


def test_nested_chops_over_free_space():
    # needs split points that are no car endpoint
    ts = TrafficSnapshot(1, {})
    v = View(0, 0, Extent(0, 10))
    assert ev(ts, v, parse("(free ; free) ; free"), nu={"ego": "?"})


def test_vchop_orders_lanes_bottom_up():
    ts = TrafficSnapshot(2, {
        "A": CarState(0, 5, res={0}),
        "B": CarState(0, 5, res={1}),
    })
    v = View(0, 1, Extent(0, 5))
    assert ev(ts, v, parse("[re(b) / re(a)]"), nu={"a": "A", "b": "B"})
    assert not ev(ts, v, parse("[re(a) / re(b)]"), nu={"a": "A", "b": "B"})


def test_vchop_empty_upper_part():
    ts = one_car(res={1}, lanes=2)
    v = View(1, 1, Extent(10, 15))
    # the upper band may be empty, so a single-lane view still splits
    assert ev(ts, v, VChop(lower=Re("ego"), upper=TrueF()))


# --- concrete syntax -----------------------------------------------------------


def test_parse_precedence():
    f = parse("cl(a) & cl(b) ; !cl(a) & cl(b)")
    assert f == HChop(And(Cl("a"), Cl("b")), And(Not(Cl("a")), Cl("b")))


def test_parse_exists_reaches_right():
    f = parse("exists c. re(c) ; free")
    assert f == ExistsCar("c", HChop(Re("c"), Free()))


def test_parse_somewhere_brackets():
    assert parse("<free>") == somewhere(Free())


def test_parse_reports_position():
    with pytest.raises(ParseError) as err:
        parse("re(ego) ;; free")
    assert "position" in str(err.value) or err.value.args


@pytest.mark.parametrize("text", ["re(", "free free", "<re(ego)", "exists . true", ""])
def test_parse_rejects_junk(text):
    with pytest.raises(ParseError):
        parse(text)


_vars = st.sampled_from(["ego", "c", "d"])
_atoms = st.one_of(
    st.just(TrueF()),
    st.just(Free()),
    _vars.map(Re),
    _vars.map(Cl),
    st.tuples(_vars, _vars).map(lambda p: VarEq(*p)),
)
_formulas = st.recursive(
    _atoms,
    lambda sub: st.one_of(
        sub.map(Not),
        st.tuples(sub, sub).map(lambda p: And(*p)),
        st.tuples(sub, sub).map(lambda p: HChop(*p)),
        st.tuples(sub, sub).map(lambda p: VChop(lower=p[0], upper=p[1])),
        st.tuples(_vars, sub).map(lambda p: ExistsCar(*p)),
        sub.map(somewhere),
    ),
    max_leaves=12,
)


@given(_formulas)
def test_format_parse_round_trip(f):
    assert parse(format_formula(f)) == f


# --- evaluation errors -----------------------------------------------------------


def test_eval_requires_ego_binding():
    ts = one_car()
    with pytest.raises(EvalError):
        mlsl.eval(ts, View(0, 3, Extent(0, 20)), {}, TrueF())


def test_eval_unbound_variable():
    ts = one_car()
    with pytest.raises(EvalError):
        ev(ts, View(1, 1, Extent(0, 20)), Re("nobody"))


def test_eval_unknown_car_binding():
    ts = one_car()
    with pytest.raises(EvalError):
        ev(ts, View(1, 1, Extent(0, 20)), Re("c"), nu={"c": "ghost"})


def test_free_vars_cache_stays_bounded():
    # the sweep asks _free_vars of every chop it memoises, and each entry
    # keeps its formula alive: more distinct formulas than the bound must
    # not grow the cache past it
    mlsl._free_vars.cache_clear()
    ts = one_car()
    for k in range(300):
        phi = HChop(Re("ego"), VarEq("ego", f"v{k}"))
        assert ev(ts, View(1, 1, Extent(10, 15)), phi, nu={f"v{k}": "A"}, mode="sweep")
    info = mlsl._free_vars.cache_info()
    assert info.misses > 256
    assert info.currsize <= 256


def test_eval_rejects_bad_chop_mode():
    ts = one_car()
    with pytest.raises(ValueError):
        mlsl.eval(ts, View(1, 1, Extent(0, 20)), {"ego": "A"}, TrueF(), chop_mode="best")


# --- bottom-up rows (fast) against the top-down sweep of every split point ----


@st.composite
def _snapshots(draw):
    lanes = draw(st.integers(1, 4))
    cars = {}
    for idx in range(draw(st.integers(1, 4))):
        r0 = draw(st.integers(0, lanes - 1))
        two = r0 + 1 < lanes and draw(st.booleans())
        clm = frozenset()
        if not two:
            side = [l for l in (r0 - 1, r0 + 1) if 0 <= l < lanes]
            if side and draw(st.booleans()):
                clm = frozenset({draw(st.sampled_from(side))})
        cars[f"C{idx}"] = CarState(
            pos=draw(st.integers(-8, 8)),
            size=draw(st.integers(1, 5)),
            res=frozenset({r0, r0 + 1}) if two else frozenset({r0}),
            clm=clm,
        )
    return TrafficSnapshot(lanes, cars)


@st.composite
def _eval_cases(draw):
    ts = draw(_snapshots())
    lo = draw(st.integers(0, ts.lane_count - 1))
    hi = draw(st.integers(lo, ts.lane_count - 1))
    r = draw(st.integers(-12, 12))
    t = draw(st.integers(r, 12))
    names = sorted(ts.cars)
    nu = {v: draw(st.sampled_from(names)) for v in ("ego", "c", "d")}
    phi = draw(_formulas)
    return ts, View(lo, hi, Extent(r, t)), nu, phi


@settings(max_examples=1000, deadline=None)
@given(_eval_cases())
def test_fast_chop_agrees_with_sweep(case):
    ts, view, nu, phi = case
    fast = mlsl.eval(ts, view, nu, phi, chop_mode="fast")
    sweep = mlsl.eval(ts, view, nu, phi, chop_mode="sweep")
    assert fast == sweep


def test_fast_chop_agrees_with_sweep_across_long_car_free_gaps():
    # the random cases keep extents within [-12, 12], so they rarely split
    # far from every car end and from both extent ends; here a 30-unit gap
    # between two cars offers such split points for every view end below
    ts = TrafficSnapshot(3, {"A": CarState(0, 4, res={0}, clm={1}),
                             "B": CarState(34, 4, res={0, 1})})
    nu = {"ego": "A", "c": "B"}
    formulas = ("free ; free ; free", "re(ego) ; free ; re(c)", "<free ; free> ; re(c)",
                "[true ; free ; free ; re(c) / re(ego) ; free ; true]")
    ends = (-2, 1, 6, 19, 30, 35, 38)
    held = set()
    for text in formulas:
        phi = parse(text)
        for r in ends:
            for t in ends[ends.index(r):]:
                for band in ((0, 0), (1, 1), (0, 1)):
                    view = View(*band, Extent(r, t))
                    fast = mlsl.eval(ts, view, nu, phi)
                    assert fast == mlsl.eval(ts, view, nu, phi, chop_mode="sweep"), \
                        (text, band, r, t)
                    if fast:
                        held.add(text)
    assert held == set(formulas)


def test_memo_keys_of_nodes_with_different_free_variables_stay_apart():
    # a memo key that appended a node's binding digits right after the node
    # number let a node with fewer free variables read another node's row
    # here; the fast rows then said True
    ts = TrafficSnapshot(1, {"C0": CarState(1, 1, res={0})})
    view = View(0, 0, Extent(0, 1))
    nu = {"ego": "C0", "c": "C0", "d": "C0"}
    phi = somewhere(And(And(VarEq("ego", "c"), VarEq("ego", "c")), And(TrueF(), Re("ego"))))
    assert not mlsl.eval(ts, view, nu, phi, chop_mode="sweep")
    assert not mlsl.eval(ts, view, nu, phi)


# --- <phi> against its definition: phi somewhere in the view ----------------------


def _holds_in_some_subview(ts, view, nu, phi):
    """phi holds, by the sweep, on some sub-band (empty ones included) of
    the view's lanes crossed with some [s, u] inside its extent."""
    lo, hi = view.extent.lo, view.extent.hi
    return any(mlsl.eval(ts, View(a, b, Extent(s, u)), nu, phi, chop_mode="sweep")
               for a in range(view.lane_lo, view.lane_hi + 2)
               for b in range(a - 1, view.lane_hi + 1)
               for s in range(lo, hi + 1)
               for u in range(s, hi + 1))


_payloads = st.one_of(
    st.sampled_from([
        Not(Re("ego")),                                   # <!re(ego)>
        somewhere(Re("c")),                               # <<re(c)>>
        somewhere(somewhere(And(Re("ego"), Not(Cl("d"))))),
        HChop(Re("d"), Free()),
        VChop(lower=Re("ego"), upper=Cl("d")),
        And(Not(VarEq("d", "ego")), HChop(Free(), Re("d"))),
    ]),
    st.recursive(_atoms, lambda sub: st.one_of(
        sub.map(Not),
        st.tuples(sub, sub).map(lambda p: And(*p)),
        st.tuples(sub, sub).map(lambda p: HChop(*p)),
        st.tuples(sub, sub).map(lambda p: VChop(lower=p[0], upper=p[1])),
        sub.map(somewhere),
    ), max_leaves=5),
)


@st.composite
def _somewhere_cases(draw):
    ts = draw(_snapshots())
    lo = draw(st.integers(0, min(ts.lane_count, 3) - 1))
    hi = draw(st.integers(lo, min(ts.lane_count, 3) - 1))
    r = draw(st.integers(-10, 10))
    t = r + draw(st.integers(0, 4))  # short extents, points (t == r) included
    names = sorted(ts.cars)
    nu = {v: draw(st.sampled_from(names)) for v in ("ego", "c", "d")}
    return ts, View(lo, hi, Extent(r, t)), nu, draw(_payloads)


# points (r == t): no positive-length atom holds there, !re(ego) does
_POINT_ROAD = TrafficSnapshot(2, {"A": CarState(0, 4, res={0}), "B": CarState(2, 4, res={1})})
_POINT_NU = {"ego": "A", "c": "B", "d": "B"}


@settings(max_examples=300, deadline=None)
@given(_somewhere_cases())
@example((_POINT_ROAD, View(0, 1, Extent(2, 2)), _POINT_NU, Not(Re("ego"))))
@example((_POINT_ROAD, View(0, 1, Extent(2, 2)), _POINT_NU, somewhere(Re("c"))))
@example((_POINT_ROAD, View(0, 1, Extent(6, 6)), _POINT_NU, Free()))
@example((_POINT_ROAD, View(0, 1, Extent(1, 3)), _POINT_NU, somewhere(somewhere(Re("c")))))
def test_somewhere_is_phi_on_some_subview(case):
    ts, view, nu, phi = case
    assert mlsl.eval(ts, view, nu, somewhere(phi)) == _holds_in_some_subview(ts, view, nu, phi)


@settings(max_examples=200, deadline=None)
@given(_somewhere_cases())
@example((_POINT_ROAD, View(0, 1, Extent(3, 3)), _POINT_NU, And(Not(VarEq("d", "ego")), Re("d"))))
@example((_POINT_ROAD, View(1, 1, Extent(0, 5)), _POINT_NU, And(Not(VarEq("d", "ego")), Re("d"))))
def test_somewhere_under_exists_binds_the_car_inside(case):
    # exists d. <phi>: some car visible in the view, bound to d inside <phi>
    ts, view, nu, phi = case
    lo, hi = view.extent.lo, view.extent.hi
    want = any(car.pos <= hi and car.pos + car.size >= lo
               and _holds_in_some_subview(ts, view, {**nu, "d": name}, phi)
               for name, car in sorted(ts.cars.items()))
    assert mlsl.eval(ts, view, nu, ExistsCar("d", somewhere(phi))) == want


def test_somewhere_row_takes_the_least_end_over_every_start():
    # on lane 0 the payload holds on [0, 6] (re(ego) ; re(c)) and on [3, 4]
    # (cl(d)): the row of <phi> from 0 starts at 4, though the first start
    # where phi holds gives 6; "<phi> ; re(c)" on [0, 6] needs the split at 5
    ts = TrafficSnapshot(2, {"A": CarState(0, 5, res={0}), "B": CarState(5, 5, res={0}),
                             "D": CarState(3, 1, res={1}, clm={0})})
    nu = {"ego": "A", "c": "B", "d": "D"}
    phi = HChop(somewhere(or_(HChop(Re("ego"), Re("c")), Cl("d"))), Re("c"))
    view = View(0, 0, Extent(0, 6))
    assert mlsl.eval(ts, view, nu, phi, chop_mode="sweep")
    assert mlsl.eval(ts, view, nu, phi)


# --- interval encodings of the controller checks -----------------------------------


def test_cc_detects_reservation_overlap():
    ts = TrafficSnapshot(2, {
        "A": CarState(0, 5, res={0}),
        "B": CarState(3, 5, res={0}),
        "C": CarState(20, 5, res={1}),
    })
    assert not cc(ts, "A")
    assert not cc(ts, "B")
    assert cc(ts, "C")


def test_pc_detects_claim_conflicts():
    ts = TrafficSnapshot(3, {
        "A": CarState(0, 5, res={0}, clm={1}),
        "B": CarState(3, 5, res={2}, clm={1}),
        "C": CarState(3, 5, res={1}),
    })
    assert pc(ts, "A", "B")    # claim meets claim
    assert pc(ts, "A", "C")    # claim meets reservation
    assert not pc(ts, "A", "A")
    assert not pc(ts, "C", "A")  # C claims nothing


def test_interval_checks_match_formulas_on_example():
    ts = example_snapshot()
    h = 200  # wide enough to see every car
    for egoname in sorted(ts.cars):
        view = standard_view(ts, egoname, h)
        nu = {"ego": egoname}
        assert cc(ts, egoname) == mlsl.eval(ts, view, nu, cc_formula())
        got = mlsl.eval(ts, view, nu, exists_pc_formula())
        want = any(pc(ts, egoname, c) for c in ts.cars)
        assert got == want
        for other in sorted(ts.cars):
            nu2 = {"ego": egoname, "c": other}
            assert pc(ts, egoname, other) == mlsl.eval(ts, view, nu2, pc_formula("c"))
