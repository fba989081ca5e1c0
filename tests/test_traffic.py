"""Traffic model: car states, snapshots, actions, views."""

import pytest
from hypothesis import given, strategies as st

from lanecheck.traffic import (
    ActionRejected,
    CarState,
    Claim,
    Extent,
    InvariantViolation,
    Reserve,
    Tau,
    TrafficError,
    TrafficSnapshot,
    UnknownCar,
    View,
    WithdrawClaim,
    WithdrawReservation,
    apply_action,
    standard_view,
)


# --- car state invariants ---------------------------------------------------


def test_car_state_normal():
    car = CarState(pos=0, size=5, res={1})
    assert car.extent == Extent(0, 5)
    assert car.clm == frozenset()


def test_car_state_two_adjacent_reservations():
    assert CarState(0, 5, res={1, 2}).res == frozenset({1, 2})


@pytest.mark.parametrize("kwargs", [
    dict(pos=0, size=0, res={1}),                  # empty car
    dict(pos=0, size=5, res=set()),                # no reservation
    dict(pos=0, size=5, res={0, 1, 2}),            # three reservations
    dict(pos=0, size=5, res={0, 2}),               # gap between reservations
    dict(pos=0, size=5, res={1}, clm={1}),         # claim equals reservation
    dict(pos=0, size=5, res={1}, clm={3}),         # claim not adjacent
    dict(pos=0, size=5, res={1, 2}, clm={0}),      # three lanes held
])
def test_car_state_rejects(kwargs):
    with pytest.raises(InvariantViolation):
        CarState(**kwargs)


def test_snapshot_checks_lane_bounds():
    with pytest.raises(TrafficError):
        TrafficSnapshot(2, {"A": CarState(0, 5, res={2})})
    with pytest.raises(TrafficError):
        TrafficSnapshot(0, {})


def test_snapshot_car_lookup():
    ts = TrafficSnapshot(2, {"A": CarState(0, 5, res={0})})
    assert ts.car("A").res == frozenset({0})
    with pytest.raises(UnknownCar):
        ts.car("Z")


def test_with_car_leaves_original_alone():
    ts = TrafficSnapshot(2, {"A": CarState(0, 5, res={0})})
    ts2 = ts.with_car("A", CarState(0, 5, res={1}))
    assert ts.car("A").res == frozenset({0})
    assert ts2.car("A").res == frozenset({1})


# --- actions ----------------------------------------------------------------


def road(**cars) -> TrafficSnapshot:
    return TrafficSnapshot(4, cars)


def test_claim_sets_one_lane():
    ts = road(A=CarState(0, 5, res={1}))
    ts2 = apply_action(ts, "A", Claim(2))
    assert ts2.car("A").clm == frozenset({2})
    assert ts2.car("A").res == frozenset({1})


@pytest.mark.parametrize("car,action", [
    (CarState(0, 5, res={1}, clm={2}), Claim(0)),   # already claiming
    (CarState(0, 5, res={1, 2}), Claim(0)),         # mid lane change
    (CarState(0, 5, res={1}), Claim(3)),            # not adjacent
    (CarState(0, 5, res={1}), Claim(7)),            # off the road
    (CarState(0, 5, res={1}), WithdrawClaim()),     # nothing to withdraw
    (CarState(0, 5, res={1}), Reserve()),           # nothing to reserve
    (CarState(0, 5, res={1}), WithdrawReservation(2)),  # lane 2 not held
])
def test_rejected_actions(car, action):
    with pytest.raises(ActionRejected):
        apply_action(road(A=car), "A", action)


def test_reserve_merges_claim():
    ts = road(A=CarState(0, 5, res={1}, clm={2}))
    ts2 = apply_action(ts, "A", Reserve())
    assert ts2.car("A").res == frozenset({1, 2})
    assert ts2.car("A").clm == frozenset()


def test_withdraw_reservation_keeps_named_lane():
    ts = road(A=CarState(0, 5, res={1, 2}))
    ts2 = apply_action(ts, "A", WithdrawReservation(2))
    assert ts2.car("A").res == frozenset({2})


def test_withdraw_claim():
    ts = road(A=CarState(0, 5, res={1}, clm={0}))
    assert apply_action(ts, "A", WithdrawClaim()).car("A").clm == frozenset()


def test_tau_changes_nothing():
    ts = road(A=CarState(0, 5, res={1}))
    assert apply_action(ts, "A", Tau()) == ts


def test_actions_leave_other_cars_alone():
    ts = road(A=CarState(0, 5, res={1}), B=CarState(9, 3, res={0}))
    ts2 = apply_action(ts, "A", Claim(0))
    assert ts2.car("B") == ts.car("B")


def test_full_lane_change_round_trip():
    # claim, reserve, withdraw the old lane: the car ends on the new lane
    ts = road(A=CarState(0, 5, res={1}))
    ts = apply_action(ts, "A", Claim(2))
    ts = apply_action(ts, "A", Reserve())
    ts = apply_action(ts, "A", WithdrawReservation(2))
    assert ts.car("A").res == frozenset({2})
    assert ts.car("A").clm == frozenset()


@given(start=st.integers(0, 3), st_data=st.data())
def test_random_legal_walk_keeps_invariants(start, st_data):
    """Any sequence of accepted actions keeps the car well-formed."""
    ts = TrafficSnapshot(4, {"A": CarState(0, 4, res={start})})
    for _ in range(12):
        car = ts.car("A")
        moves = [Tau()]
        if len(car.res) == 1 and not car.clm:
            (r,) = car.res
            moves += [Claim(r + d) for d in (-1, 1) if 0 <= r + d < 4]
        if car.clm:
            moves += [WithdrawClaim(), Reserve()]
        if len(car.res) == 2:
            moves += [WithdrawReservation(l) for l in car.res]
        ts = apply_action(ts, "A", st_data.draw(st.sampled_from(moves)))
        assert 1 <= len(ts.car("A").res) <= 2  # CarState revalidated on build


# --- views -------------------------------------------------------------------


def test_standard_view_spans_all_lanes():
    ts = road(A=CarState(10, 5, res={1}))
    v = standard_view(ts, "A", 20)
    assert (v.lane_lo, v.lane_hi) == (0, 3)
    assert v.extent == Extent(-10, 30)
    assert v.owner == "A"


def test_standard_view_needs_positive_horizon():
    ts = road(A=CarState(10, 5, res={1}))
    with pytest.raises(TrafficError):
        standard_view(ts, "A", 0)


def test_empty_lane_band_is_allowed():
    # vertical chops produce bands like [2, 1]; anything lower errors
    View(2, 1, Extent(0, 1))
    with pytest.raises(ValueError):
        View(2, 0, Extent(0, 1))
