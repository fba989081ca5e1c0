"""Timed lane-change controllers and the observer automata that watch them.

Each controller owns one car and drives it through a claim/confirm/reserve
protocol: from `cruising` it may claim an adjacent lane (`claimed`), must
withdraw on a potential collision or else commit (`confirming`), reserve
the lane and cross (`changing`), then drop the old reservation.  Guards
and invariants mix clock bounds, lane-arithmetic checks, and spatial
collision predicates.

Three variants are built from the same skeleton:

* original        -- the plain protocol; claims carry no timing, which
                     lets two cars claim and withdraw against each other
                     in zero time forever
* original-plus-tw - claims hold for at least t_w time before the car
                     decides, which forces real time into every cycle
                     (alias: live-no-qwait)
* live            -- additionally backs off for a nondeterministic
                     1..wait_hi delay after a withdrawn claim and only
                     claims space nobody else has marked, making every
                     individual car's change eventually succeed

Controllers notify per-car channels (claiming, reserving, withdrawing) so
observers can track progress without constraining the controlled cars.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple


@dataclass(frozen=True)
class Constants:
    """Protocol timing parameters (model time units)."""

    t: int = 2          # max time between confirming a claim and reserving
    t_lc: int = 3       # time a lane crossing takes
    t_w: int = 1        # min time a claim is held before deciding
    wait_lo: int = 1    # back-off window after a withdrawn claim
    wait_hi: int = 4

    def __post_init__(self):
        for name in ("t", "t_lc", "t_w", "wait_lo", "wait_hi"):
            if getattr(self, name) < 1:
                raise ValueError(f"constant {name} must be positive")
        if self.wait_lo > self.wait_hi:
            raise ValueError("wait_lo must not exceed wait_hi")


# --- guard atoms -----------------------------------------------------------


@dataclass(frozen=True)
class ClockConstraint:
    """x <op> bound, over the automaton's single clock."""

    op: str
    bound: int

    def __post_init__(self):
        if self.op not in ("<=", ">=", "=="):
            raise ValueError(f"bad clock operator {self.op!r}")
        if self.bound < 0:
            raise ValueError("clock bounds are non-negative")

    def holds(self, x: int) -> bool:
        if self.op == "<=":
            return x <= self.bound
        if self.op == ">=":
            return x >= self.bound
        return x == self.bound

    def __str__(self) -> str:
        return f"x {self.op} {self.bound}"


@dataclass(frozen=True)
class LaneExists:
    """The lane n + delta lies on the road (0 .. lane_count-1)."""

    delta: int

    def __str__(self) -> str:
        return f"0 <= n{self.delta:+d} <= N"


@dataclass(frozen=True)
class SpatialGuard:
    """A collision predicate over the current snapshot.

    kind:
      cc          -- ego's reservation overlaps no other reservation
      pc-some     -- some car's claim/reservation overlaps ego's claim
      pc-none     -- negation of pc-some
      claim-free  -- the space ego would claim on lane n+delta overlaps
                     no other car's claim or reservation (delta required)
      collision-some -- two distinct cars' reservations overlap
                        (observer use; ego-independent)
    """

    kind: str
    delta: int = 0

    _KINDS = ("cc", "pc-some", "pc-none", "claim-free", "collision-some")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"bad spatial guard kind {self.kind!r}")

    def __str__(self) -> str:
        return self.kind if self.kind != "claim-free" else f"claim-free(n{self.delta:+d})"


GuardAtom = object  # ClockConstraint | LaneExists | SpatialGuard


# --- actions with symbolic lane expressions --------------------------------


@dataclass(frozen=True)
class LaneExpr:
    """var + offset, resolved against the controller's data variables."""

    var: str   # "n" or "l"
    offset: int = 0

    def resolve(self, n: int, l: int) -> int:
        base = n if self.var == "n" else l
        return base + self.offset

    def __str__(self) -> str:
        return self.var if self.offset == 0 else f"{self.var}{self.offset:+d}"


@dataclass(frozen=True)
class ActClaim:
    lane: LaneExpr

    def __str__(self) -> str:
        return f"claim({self.lane})"


@dataclass(frozen=True)
class ActWithdrawClaim:
    def __str__(self) -> str:
        return "withdraw-claim"


@dataclass(frozen=True)
class ActReserve:
    def __str__(self) -> str:
        return "reserve"


@dataclass(frozen=True)
class ActWithdrawReservation:
    lane: LaneExpr

    def __str__(self) -> str:
        return f"withdraw-reservation({self.lane})"


@dataclass(frozen=True)
class ActTau:
    def __str__(self) -> str:
        return "tau"


# --- structure -------------------------------------------------------------


@dataclass(frozen=True)
class Location:
    name: str
    clock_bound: Optional[int] = None      # invariant x <= clock_bound
    spatial_inv: Optional[SpatialGuard] = None


@dataclass(frozen=True)
class Edge:
    name: str
    source: str
    target: str
    guards: Tuple[GuardAtom, ...] = ()
    action: object = ActTau()
    reset_clock: bool = False
    assigns: Tuple[Tuple[str, LaneExpr], ...] = ()   # ("l", n+1) or ("n", l)
    emit: Optional[str] = None    # channel kind: claiming / reserving / withdrawing
    recv: Optional[str] = None


@dataclass(frozen=True)
class Automaton:
    name: str
    car: Optional[str]            # controlled/watched car; None for collision observer
    kind: str                     # "controller" | "observer"
    locations: Tuple[Location, ...]
    initial: str
    edges: Tuple[Edge, ...]

    def __post_init__(self):
        names = [loc.name for loc in self.locations]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate location names in {self.name}")
        if self.initial not in names:
            raise ValueError(f"initial location {self.initial!r} missing in {self.name}")
        init = self.location(self.initial)
        if init.clock_bound is not None and init.clock_bound < 0:
            raise ValueError("initial location invariant unsatisfiable at clock 0")
        for e in self.edges:
            if e.source not in names or e.target not in names:
                raise ValueError(f"edge {e.name} references unknown location")

    def location(self, name: str) -> Location:
        for loc in self.locations:
            if loc.name == name:
                return loc
        raise KeyError(name)

    def edges_from(self, name: str) -> Tuple[Edge, ...]:
        return tuple(e for e in self.edges if e.source == name)


VARIANTS = ("original", "original-plus-tw", "live-no-qwait", "live")

# two spellings for the middle variant: the timing fix without the back-off state
_VARIANT_ALIASES = {"live-no-qwait": "original-plus-tw"}


def canonical_variant(name: str) -> str:
    if name not in VARIANTS:
        raise ValueError(f"unknown controller variant {name!r} (expected one of {', '.join(VARIANTS)})")
    return _VARIANT_ALIASES.get(name, name)


def build_controller(variant: str, i: str, constants: Constants = Constants()) -> Automaton:
    """Car i's controller: the plain lane-change protocol (original), with
    timed claims (original-plus-tw), or the live protocol with timed
    claims, back-off and guarded claims (live)."""
    v = canonical_variant(variant)
    return _build(i, constants, timed_claims=v != "original", backoff=v == "live",
                  guarded_claims=v == "live")


def _build(i: str, c: Constants, timed_claims: bool, backoff: bool, guarded_claims: bool) -> Automaton:
    locations = [
        Location("cruising", spatial_inv=SpatialGuard("cc")),
        Location("claimed", clock_bound=c.t_w if timed_claims else None),
        Location("confirming", clock_bound=c.t, spatial_inv=SpatialGuard("pc-none")),
        Location("changing", clock_bound=c.t_lc),
    ]
    if backoff:
        locations.append(Location("backoff", clock_bound=c.wait_hi))

    hold = (ClockConstraint(">=", c.t_w),) if timed_claims else ()
    withdraw_target = "backoff" if backoff else "cruising"

    def claim_edge(name: str, delta: int) -> Edge:
        guards: Tuple[GuardAtom, ...] = (LaneExists(delta),)
        if guarded_claims:
            guards += (SpatialGuard("claim-free", delta),)
        return Edge(
            name, "cruising", "claimed",
            guards=guards,
            action=ActClaim(LaneExpr("n", delta)),
            reset_clock=timed_claims,
            assigns=(("l", LaneExpr("n", delta)),),
            emit="claiming",
        )

    edges = [
        claim_edge("claim-up", +1),
        claim_edge("claim-down", -1),
        Edge("abort-claim", "claimed", withdraw_target,
             guards=hold + (SpatialGuard("pc-some"),),
             action=ActWithdrawClaim(), reset_clock=backoff, emit="withdrawing"),
        Edge("proceed", "claimed", "confirming",
             guards=hold + (SpatialGuard("pc-none"),),
             reset_clock=True),
        Edge("abort-confirm", "confirming", withdraw_target,
             guards=(SpatialGuard("pc-some"),),
             action=ActWithdrawClaim(), reset_clock=backoff, emit="withdrawing"),
        Edge("reserve", "confirming", "changing",
             guards=(SpatialGuard("pc-none"),),
             action=ActReserve(), reset_clock=True, emit="reserving"),
        # withdraw-reservation names the lane that is kept, so the
        # reservation shrinks to the target lane l and n follows it
        Edge("complete", "changing", "cruising",
             guards=(ClockConstraint(">=", c.t_lc),),
             action=ActWithdrawReservation(LaneExpr("l")),
             assigns=(("n", LaneExpr("l")),)),
    ]
    if backoff:
        edges.append(Edge("resume", "backoff", "cruising",
                          guards=(ClockConstraint(">=", c.wait_lo),)))

    return Automaton(
        name=f"lcp({i})", car=i, kind="controller",
        locations=tuple(locations), initial="cruising", edges=tuple(edges),
    )


def build_observer_collision() -> Automaton:
    """Monitor that jumps to `unsafe` as soon as two reservations overlap."""
    return Automaton(
        name="collision-observer", car=None, kind="observer",
        locations=(Location("watching"), Location("unsafe")),
        initial="watching",
        edges=(
            Edge("collision", "watching", "unsafe",
                 guards=(SpatialGuard("collision-some"),)),
        ),
    )


def build_observer_live(i: str) -> Automaton:
    """Monitor tracking car i's protocol: success once a claim turns into
    a reservation; withdrawn claims return it to tracking."""
    return Automaton(
        name=f"observer({i})", car=i, kind="observer",
        locations=(Location("tracking"), Location("claimed"), Location("success")),
        initial="tracking",
        edges=(
            Edge("note-claim", "tracking", "claimed", recv="claiming"),
            Edge("note-reserve", "claimed", "success", recv="reserving"),
            Edge("note-withdraw", "claimed", "tracking", recv="withdrawing"),
            Edge("note-claim", "success", "claimed", recv="claiming"),
        ),
    )
