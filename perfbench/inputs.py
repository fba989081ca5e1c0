"""Seeded input generators for the benchmark workloads.

Everything here is plain data (scenario text, tuples, formula text), so the
program only ever receives what the generator made, and the same
(workload, seed, round) always gives the same inputs.

Roads: a car is (name, lane, pos, size).  Two cars interact when their
extents overlap inside either car's view, the road span seen from
``pos - horizon`` to ``pos + horizon``.  Interaction groups are the
connected components of that relation; ``interaction_groups`` computes them
from extents and horizons alone, independently of the checker.
"""

from __future__ import annotations

import random
from typing import List, NamedTuple, Sequence, Tuple

LANES = 4

# Chain lane pattern for `dense` and its mirror image.  Unconstrained
# four-car chains range from a few thousand to ~750k states depending on
# lane order and gaps; with the pattern fixed up to mirroring and only
# neighbours overlapping, every chain explores the same number of states.
DENSE_LANES = ((2, 0, 3, 1), (1, 3, 0, 2))
# Likewise each `sparse` pair uses fig1's lanes for A and B, or their
# mirror image: the liveness regions depend on which lanes a pair holds.
PAIR_LANES = ((2, 0), (1, 3))


class Car(NamedTuple):
    name: str
    lane: int
    pos: int
    size: int


class Road(NamedTuple):
    lanes: int
    cars: Tuple[Car, ...]


class SnapCar(NamedTuple):
    name: str
    pos: int
    size: int
    res: Tuple[int, ...]
    clm: Tuple[int, ...]


class Snapshot(NamedTuple):
    lanes: int
    cars: Tuple[SnapCar, ...]

    def span(self) -> int:
        return (max(c.pos + c.size for c in self.cars)
                - min(c.pos for c in self.cars) + 1)


class EvalCase(NamedTuple):
    """One direct evaluation: formula text over ego's standard view."""
    snapshot: Snapshot
    ego: str
    binding: Tuple[Tuple[str, str], ...]   # extra variables -> car names
    formula: str                           # concrete syntax, or a builder name


def rng_for(workload: str, seed: int, round_no: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{round_no}")


def road_text(road: Road, variant: str = "original") -> str:
    lines = [f"lanes {road.lanes}"]
    lines += [f"car {c.name} lane {c.lane} pos {c.pos} size {c.size}" for c in road.cars]
    lines.append(f"variant {variant}")
    return "\n".join(lines) + "\n"


def effective_horizon(cars: Sequence[Car]) -> int:
    return max(c.pos + c.size for c in cars) - min(c.pos for c in cars) + 1


def _overlap_in_view(viewer: Car, other: Car, horizon: int) -> bool:
    lo, hi = viewer.pos - horizon, viewer.pos + horizon
    a = (max(viewer.pos, lo), min(viewer.pos + viewer.size, hi))
    b = (max(other.pos, lo), min(other.pos + other.size, hi))
    return max(a[0], b[0]) < min(a[1], b[1])


def interaction_groups(cars: Sequence[Car], horizon: int) -> List[Tuple[str, ...]]:
    """Connected components of the interaction relation, in road order."""
    group = {c.name: {c.name} for c in cars}
    for a in cars:
        for b in cars:
            if a.name < b.name and (_overlap_in_view(a, b, horizon)
                                    or _overlap_in_view(b, a, horizon)):
                merged = group[a.name] | group[b.name]
                for name in merged:
                    group[name] = merged
    order = [c.name for c in cars]
    seen, out = set(), []
    for name in order:
        if name not in seen:
            members = tuple(n for n in order if n in group[name])
            seen.update(members)
            out.append(members)
    return out


def _overlapping_pair(rng: random.Random, names: Tuple[str, str], start: int) -> Tuple[Car, Car]:
    lane_a, lane_b = rng.choice(PAIR_LANES)
    size_a, size_b = rng.randint(3, 6), rng.randint(3, 6)
    # strict overlap: pos_b in (start - size_b, start + size_a)
    pos_b = start + rng.randint(-(size_b - 1), size_a - 1)
    return Car(names[0], lane_a, start, size_a), Car(names[1], lane_b, pos_b, size_b)


def sparse_road(rng: random.Random) -> Road:
    """Two overlapping pairs on distinct lanes, far apart: two groups."""
    first = _overlapping_pair(rng, ("A", "B"), 10)
    end = max(c.pos + c.size for c in first)
    second = _overlapping_pair(rng, ("C", "D"), end + rng.randint(20, 40))
    return Road(LANES, first + second)


def dense_road(rng: random.Random) -> Road:
    """A four-car chain where each car overlaps only its neighbours."""
    lanes = rng.choice(DENSE_LANES)
    while True:
        sizes = [rng.randint(4, 6) for _ in range(4)]
        steps = [rng.randint(1, sizes[k] - 1) for k in range(3)]
        # car k must not reach car k + 2
        if all(steps[k] + steps[k + 1] >= sizes[k] for k in range(2)):
            break
    pos = [10]
    for step in steps:
        pos.append(pos[-1] + step)
    return Road(LANES, tuple(Car("ABCD"[k], lanes[k], pos[k], sizes[k]) for k in range(4)))


def c7_snapshot(rng: random.Random, max_lanes: int = 6) -> Snapshot:
    """1-max_lanes lanes, 1-5 cars, random double reservations and claims."""
    lanes = rng.randint(1, max_lanes)
    cars = []
    for k in range(rng.randint(1, 5)):
        r0 = rng.randrange(lanes)
        res, clm = [r0], []
        if r0 + 1 < lanes and rng.random() < 0.25:
            res.append(r0 + 1)
        elif rng.random() < 0.5:
            side = [l for l in (r0 - 1, r0 + 1) if 0 <= l < lanes]
            if side:
                clm = [rng.choice(side)]
        cars.append(SnapCar(f"K{k}", rng.randint(-10, 10), rng.randint(1, 4),
                            tuple(res), tuple(clm)))
    return Snapshot(lanes, tuple(cars))


def _literal(rng: random.Random, names: Sequence[str]) -> str:
    v = rng.choice(names)
    k = rng.random()
    if k < 0.3:
        return "free"
    if k < 0.55:
        return f"re({v})"
    if k < 0.8:
        return f"cl({v})"
    if k < 0.9:
        return f"!re({v})"
    return f"cl({v}) & re({rng.choice(names)})"


def chop_formula(rng: random.Random, chops: int) -> str:
    """`<l0 ; l1 ; ...>` with `chops` horizontal chops between literals."""
    return "<" + " ; ".join(_literal(rng, ("ego", "x", "y")) for _ in range(chops + 1)) + ">"


# per formulas round: C7-shaped snapshots, and random chop formulas for
# each chop count (1, 2, 3) in this multiplicity
FORMULA_SNAPSHOTS = 24
CHOP_FORMULAS_EACH = 3
# Chop formulas get snapshots of at most this many lanes.  On six lanes one
# three-chop formula can take seconds and 17 MB, more than all else in a
# round, so the round's time and the run's peak memory would hang on a few
# draws; on three lanes none outweighs C1's `<cl(b) ; free ; re(d)>`.
CHOP_MAX_LANES = 3


def formula_cases(rng: random.Random) -> List[EvalCase]:
    """C7-style checks per snapshot, then random chop formulas."""
    cases = []
    for _ in range(FORMULA_SNAPSHOTS):
        snap = c7_snapshot(rng)
        names = [c.name for c in snap.cars]
        ego = rng.choice(names)
        cases.append(EvalCase(snap, ego, (), "cc_formula"))
        cases.append(EvalCase(snap, ego, (), "exists_pc_formula"))
        for other in names:
            cases.append(EvalCase(snap, ego, (("c", other),), "pc_formula"))
    for chops in (1, 2, 3):
        for _ in range(CHOP_FORMULAS_EACH):
            snap = c7_snapshot(rng, CHOP_MAX_LANES)
            names = [c.name for c in snap.cars]
            binding = (("x", rng.choice(names)), ("y", rng.choice(names)))
            cases.append(EvalCase(snap, rng.choice(names), binding, chop_formula(rng, chops)))
    return cases
