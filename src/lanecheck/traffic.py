"""Highway traffic model: snapshots, views, and claim/reserve transitions.

A snapshot records, for every car, its position interval along the road,
the lanes it has reserved (is driving on) and the lane it may have claimed
(signalled intent to move into).  Views restrict a snapshot to a lane band
and a bounded stretch of road around an observing car; all spatial
reasoning happens inside views.

Space is integer-valued and positions never change during checking: cars
share one constant speed, so relative distances are frozen and the only
dynamics are claims and reservations.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import FrozenSet, Mapping, Optional


class TrafficError(Exception):
    """Base class for traffic model errors."""


class UnknownCar(TrafficError):
    pass


class InvariantViolation(TrafficError):
    """A car state breaks the reservation/claim structural rules."""


class ActionRejected(TrafficError):
    """An action's precondition does not hold in the current snapshot."""


@dataclass(frozen=True, order=True)
class Extent:
    """A closed interval [lo, hi] of road positions.  May be a point."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty extent [{self.lo}, {self.hi}]")

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


@dataclass(frozen=True)
class CarState:
    """One car: its occupied interval and the lanes it holds.

    pos is the lower end of the occupied interval; size covers physical
    length plus braking distance, so the car occupies [pos, pos + size].

    Invariants (checked at construction):
      * 1 or 2 reserved lanes, at most 1 claimed lane
      * reserved and claimed lanes disjoint, at most 2 lanes in total
      * two reserved lanes are adjacent
      * a claimed lane is adjacent to some reserved lane
    """

    pos: int
    size: int
    res: FrozenSet[int]
    clm: FrozenSet[int] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "res", frozenset(self.res))
        object.__setattr__(self, "clm", frozenset(self.clm))
        if self.size <= 0:
            raise InvariantViolation(f"car size must be positive, got {self.size}")
        if not 1 <= len(self.res) <= 2:
            raise InvariantViolation(f"need 1 or 2 reserved lanes, got {sorted(self.res)}")
        if len(self.clm) > 1:
            raise InvariantViolation(f"at most one claimed lane, got {sorted(self.clm)}")
        if self.res & self.clm:
            raise InvariantViolation("reserved and claimed lanes overlap")
        if len(self.res) + len(self.clm) > 2:
            raise InvariantViolation("a car may hold at most two lanes in total")
        if len(self.res) == 2:
            a, b = sorted(self.res)
            if b - a != 1:
                raise InvariantViolation(f"reserved lanes {a} and {b} are not adjacent")
        for c in self.clm:
            if not any(abs(c - r) == 1 for r in self.res):
                raise InvariantViolation(
                    f"claimed lane {c} not adjacent to reservation {sorted(self.res)}"
                )

    @property
    def extent(self) -> Extent:
        return Extent(self.pos, self.pos + self.size)


def extents_meet(a, b) -> bool:
    """Whether the extents of two cars (anything with pos and size)
    overlap.  The test is strict (merely touching endpoints do not count):
    a car whose visible part has zero length can never satisfy a re/cl
    atom, so the formula side never sees touching as overlap either."""
    return a.pos < b.pos + b.size and b.pos < a.pos + a.size


class Action:
    """Base class for traffic-level controller actions (concrete lanes)."""

    __slots__ = ()


@dataclass(frozen=True)
class Claim(Action):
    lane: int

    def __str__(self) -> str:
        return f"claim({self.lane})"


@dataclass(frozen=True)
class WithdrawClaim(Action):
    def __str__(self) -> str:
        return "withdraw-claim"


@dataclass(frozen=True)
class Reserve(Action):
    def __str__(self) -> str:
        return "reserve"


@dataclass(frozen=True)
class WithdrawReservation(Action):
    lane: int

    def __str__(self) -> str:
        return f"withdraw-reservation({self.lane})"


@dataclass(frozen=True)
class Tau(Action):
    def __str__(self) -> str:
        return "tau"


@dataclass(frozen=True)
class TrafficSnapshot:
    """All cars on a road with lanes 0 .. lane_count - 1."""

    lane_count: int
    cars: Mapping[str, CarState] = field(default_factory=dict)

    def __post_init__(self):
        if self.lane_count < 1:
            raise TrafficError(f"need at least one lane, got {self.lane_count}")
        object.__setattr__(self, "cars", dict(self.cars))
        for name, car in self.cars.items():
            for lane in car.res | car.clm:
                if not 0 <= lane < self.lane_count:
                    raise TrafficError(
                        f"car {name!r} uses lane {lane}, road has lanes 0..{self.lane_count - 1}"
                    )

    def car(self, name: str) -> CarState:
        try:
            return self.cars[name]
        except KeyError:
            raise UnknownCar(name) from None

    def with_car(self, name: str, car: CarState) -> "TrafficSnapshot":
        new = dict(self.cars)
        new[name] = car
        return TrafficSnapshot(self.lane_count, new)


def apply_action(ts: TrafficSnapshot, actor: str, action: Action) -> TrafficSnapshot:
    """Apply one car's action to the snapshot, checking its precondition."""
    car = ts.car(actor)
    if isinstance(action, Tau):
        return ts
    if isinstance(action, Claim):
        if len(car.res) != 1 or car.clm:
            raise ActionRejected(
                f"{actor}: {action} needs exactly one reservation and no claim"
            )
        if not 0 <= action.lane < ts.lane_count:
            raise ActionRejected(f"{actor}: {action} targets a lane off the road")
        try:
            new_car = replace(car, clm=frozenset({action.lane}))
        except InvariantViolation as e:
            raise ActionRejected(f"{actor}: {action}: {e}") from None
        return ts.with_car(actor, new_car)
    if isinstance(action, WithdrawClaim):
        if len(car.clm) != 1:
            raise ActionRejected(f"{actor}: {action}: no claim to withdraw")
        return ts.with_car(actor, replace(car, clm=frozenset()))
    if isinstance(action, Reserve):
        if len(car.clm) != 1:
            raise ActionRejected(f"{actor}: {action}: no claim to turn into a reservation")
        return ts.with_car(actor, replace(car, res=car.res | car.clm, clm=frozenset()))
    if isinstance(action, WithdrawReservation):
        if action.lane not in car.res:
            raise ActionRejected(f"{actor}: {action}: lane {action.lane} is not reserved")
        return ts.with_car(actor, replace(car, res=frozenset({action.lane})))
    raise TrafficError(f"unknown action {action!r}")


@dataclass(frozen=True)
class View:
    """A lane band [lane_lo, lane_hi] crossed with a road extent.

    The band may be empty (lane_hi == lane_lo - 1), which arises from
    degenerate vertical chops during formula evaluation.
    """

    lane_lo: int
    lane_hi: int
    extent: Extent
    owner: Optional[str] = None

    def __post_init__(self):
        if self.lane_hi < self.lane_lo - 1:
            raise ValueError(f"bad lane band [{self.lane_lo}, {self.lane_hi}]")


def standard_view(ts: TrafficSnapshot, e: str, h: int) -> View:
    """The full lane band, h road units each way around car e."""
    if h <= 0:
        raise TrafficError(f"horizon must be positive, got {h}")
    c = ts.car(e)
    return View(0, ts.lane_count - 1, Extent(c.pos - h, c.pos + h), owner=e)
