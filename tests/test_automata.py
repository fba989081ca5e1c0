"""Controller and observer construction across the protocol variants."""

import pytest

from lanecheck.automata import (
    ActClaim,
    ActReserve,
    ActTau,
    ActWithdrawClaim,
    ActWithdrawReservation,
    Automaton,
    ClockConstraint,
    Constants,
    Edge,
    LaneExists,
    LaneExpr,
    Location,
    SpatialGuard,
    VARIANTS,
    build_controller,
    build_observer_collision,
    build_observer_live,
    canonical_variant,
)


def edge(auto, name):
    found = [e for e in auto.edges if e.name == name]
    assert len(found) == 1, name
    return found[0]


# --- parameters and guard atoms ---------------------------------------------


def test_constants_defaults():
    c = Constants()
    assert (c.t, c.t_lc, c.t_w, c.wait_lo, c.wait_hi) == (2, 3, 1, 1, 4)


@pytest.mark.parametrize("kwargs", [
    {"t": 0}, {"t_lc": 0}, {"t_w": -1}, {"wait_lo": 0},
    {"wait_hi": 0}, {"wait_lo": 5, "wait_hi": 4},
])
def test_constants_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        Constants(**kwargs)


def test_clock_constraint_holds():
    assert ClockConstraint("<=", 3).holds(3)
    assert not ClockConstraint("<=", 3).holds(4)
    assert ClockConstraint(">=", 2).holds(2)
    assert not ClockConstraint(">=", 2).holds(1)
    assert ClockConstraint("==", 1).holds(1)
    assert not ClockConstraint("==", 1).holds(0)
    assert str(ClockConstraint(">=", 2)) == "x >= 2"


@pytest.mark.parametrize("op,bound", [("<", 1), ("!=", 1), (">=", -1)])
def test_clock_constraint_rejects(op, bound):
    with pytest.raises(ValueError):
        ClockConstraint(op, bound)


def test_spatial_guard_kinds():
    assert str(SpatialGuard("cc")) == "cc"
    assert str(SpatialGuard("claim-free", +1)) == "claim-free(n+1)"
    with pytest.raises(ValueError):
        SpatialGuard("overlap")


def test_lane_expr_resolution():
    assert LaneExpr("n", +1).resolve(n=2, l=0) == 3
    assert LaneExpr("l").resolve(n=2, l=0) == 0
    assert str(LaneExpr("n", -1)) == "n-1"
    assert str(LaneExpr("l")) == "l"
    assert str(LaneExists(+1)) == "0 <= n+1 <= N"


def test_action_render():
    assert str(ActClaim(LaneExpr("n", 1))) == "claim(n+1)"
    assert str(ActWithdrawClaim()) == "withdraw-claim"
    assert str(ActReserve()) == "reserve"
    assert str(ActWithdrawReservation(LaneExpr("l"))) == "withdraw-reservation(l)"
    assert str(ActTau()) == "tau"


# --- variant selection --------------------------------------------------------


def test_variant_names():
    assert canonical_variant("original") == "original"
    assert canonical_variant("live") == "live"
    assert canonical_variant("live-no-qwait") == "original-plus-tw"
    with pytest.raises(ValueError):
        canonical_variant("best")


def test_alias_builds_the_same_controller():
    assert build_controller("live-no-qwait", "A") == build_controller("original-plus-tw", "A")


@pytest.mark.parametrize("variant", VARIANTS)
def test_every_variant_builds(variant):
    auto = build_controller(variant, "A")
    assert auto.kind == "controller"
    assert auto.car == "A"
    assert auto.initial == "cruising"


# --- shared protocol skeleton ---------------------------------------------------


def test_common_shape():
    c = Constants()
    for variant in VARIANTS:
        auto = build_controller(variant, "A", c)
        assert auto.location("cruising").spatial_inv == SpatialGuard("cc")
        assert auto.location("cruising").clock_bound is None
        assert auto.location("confirming").clock_bound == c.t
        assert auto.location("confirming").spatial_inv == SpatialGuard("pc-none")
        assert auto.location("changing").clock_bound == c.t_lc

        up, down = edge(auto, "claim-up"), edge(auto, "claim-down")
        assert up.action == ActClaim(LaneExpr("n", +1))
        assert down.action == ActClaim(LaneExpr("n", -1))
        assert up.assigns == (("l", LaneExpr("n", +1)),)
        assert up.emit == "claiming"
        assert LaneExists(+1) in up.guards and LaneExists(-1) in down.guards

        proceed = edge(auto, "proceed")
        assert proceed.target == "confirming" and proceed.reset_clock

        reserve = edge(auto, "reserve")
        assert reserve.action == ActReserve()
        assert reserve.guards == (SpatialGuard("pc-none"),)
        assert reserve.reset_clock and reserve.emit == "reserving"

        complete = edge(auto, "complete")
        assert complete.guards == (ClockConstraint(">=", c.t_lc),)
        assert complete.action == ActWithdrawReservation(LaneExpr("l"))
        assert complete.assigns == (("n", LaneExpr("l")),)
        assert complete.target == "cruising"

        for name in ("abort-claim", "abort-confirm"):
            ab = edge(auto, name)
            assert ab.action == ActWithdrawClaim()
            assert ab.emit == "withdrawing"
            assert SpatialGuard("pc-some") in ab.guards


def test_original_claims_are_untimed():
    auto = build_controller("original", "A")
    assert [loc.name for loc in auto.locations] == [
        "cruising", "claimed", "confirming", "changing"]
    assert len(auto.edges) == 7
    assert auto.location("claimed").clock_bound is None
    assert not edge(auto, "claim-up").reset_clock
    # nothing forces the claim to be held: withdrawing is free immediately
    assert edge(auto, "abort-claim").guards == (SpatialGuard("pc-some"),)
    assert edge(auto, "proceed").guards == (SpatialGuard("pc-none"),)
    assert edge(auto, "abort-claim").target == "cruising"


def test_plus_tw_holds_claims_for_tw():
    c = Constants(t_w=2)
    auto = build_controller("original-plus-tw", "A", c)
    assert len(auto.locations) == 4 and len(auto.edges) == 7
    assert auto.location("claimed").clock_bound == 2
    assert edge(auto, "claim-up").reset_clock
    hold = ClockConstraint(">=", 2)
    assert hold in edge(auto, "abort-claim").guards
    assert hold in edge(auto, "proceed").guards
    assert edge(auto, "abort-claim").target == "cruising"


def test_live_adds_backoff_and_guarded_claims():
    c = Constants()
    auto = build_controller("live", "A", c)
    assert [loc.name for loc in auto.locations] == [
        "cruising", "claimed", "confirming", "changing", "backoff"]
    assert len(auto.edges) == 8
    assert auto.location("backoff").clock_bound == c.wait_hi

    assert SpatialGuard("claim-free", +1) in edge(auto, "claim-up").guards
    assert SpatialGuard("claim-free", -1) in edge(auto, "claim-down").guards

    for name in ("abort-claim", "abort-confirm"):
        ab = edge(auto, name)
        assert ab.target == "backoff" and ab.reset_clock

    resume = edge(auto, "resume")
    assert resume.source == "backoff" and resume.target == "cruising"
    assert resume.guards == (ClockConstraint(">=", c.wait_lo),)


def test_constants_flow_into_bounds():
    c = Constants(t=5, t_lc=7, t_w=3, wait_lo=2, wait_hi=9)
    auto = build_controller("live", "B", c)
    assert auto.location("claimed").clock_bound == 3
    assert auto.location("confirming").clock_bound == 5
    assert auto.location("changing").clock_bound == 7
    assert auto.location("backoff").clock_bound == 9
    assert edge(auto, "complete").guards == (ClockConstraint(">=", 7),)
    assert edge(auto, "resume").guards == (ClockConstraint(">=", 2),)


# --- automaton structural validation ---------------------------------------------


def test_duplicate_locations_rejected():
    with pytest.raises(ValueError):
        Automaton("x", None, "observer",
                  (Location("a"), Location("a")), "a", ())


def test_missing_initial_rejected():
    with pytest.raises(ValueError):
        Automaton("x", None, "observer", (Location("a"),), "b", ())


def test_dangling_edge_rejected():
    with pytest.raises(ValueError):
        Automaton("x", None, "observer", (Location("a"),), "a",
                  (Edge("go", "a", "nowhere"),))


def test_location_lookup():
    auto = build_controller("original", "A")
    assert auto.location("claimed").name == "claimed"
    with pytest.raises(KeyError):
        auto.location("parked")
    names = {e.name for e in auto.edges_from("cruising")}
    assert names == {"claim-up", "claim-down"}


# --- observers -------------------------------------------------------------------


def test_collision_observer_shape():
    obs = build_observer_collision()
    assert obs.kind == "observer" and obs.car is None
    assert obs.initial == "watching"
    (trip,) = obs.edges
    assert trip.source == "watching" and trip.target == "unsafe"
    assert trip.guards == (SpatialGuard("collision-some"),)


def test_live_observer_tracks_claim_lifecycle():
    obs = build_observer_live("A")
    assert obs.car == "A" and obs.initial == "tracking"
    moves = {(e.source, e.recv): e.target for e in obs.edges}
    assert moves[("tracking", "claiming")] == "claimed"
    assert moves[("claimed", "reserving")] == "success"
    assert moves[("claimed", "withdrawing")] == "tracking"
    # success is not sticky: the next claim re-arms the observer
    assert moves[("success", "claiming")] == "claimed"
