"""Scenario files: the initial traffic situation plus checking parameters.

Line-oriented plain text, one directive per line, `#` starts a comment:

    lanes 4
    car A lane 2 pos 10 size 5
    car B lane 0 pos 12 size 5
    variant original
    const t 2
    horizon 100

Every car starts with a single reserved lane and no claim.  Scenarios with
overlapping initial reservations are rejected: the protocol assumes
collision freedom to start from.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Sequence, Tuple

from .automata import Constants, VARIANTS, canonical_variant
from .traffic import CarState, TrafficSnapshot, extents_meet

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_CONST_NAMES = ("t", "t_lc", "t_w", "wait_lo", "wait_hi")


class ScenarioError(Exception):
    pass


@dataclass(frozen=True)
class ScenarioCar:
    name: str
    lane: int
    pos: int
    size: int


def covering_horizon(cars: Sequence[ScenarioCar]) -> int:
    """A view half-length from which every car sees every other car whole:
    one more than the span from the rearmost car's rear to the foremost
    car's front."""
    lo = min(c.pos for c in cars)
    hi = max(c.pos + c.size for c in cars)
    return (hi - lo) + 1


@dataclass(frozen=True)
class Scenario:
    lane_count: int
    cars: Tuple[ScenarioCar, ...]
    variant: str = "original"
    constants: Constants = Constants()
    # view half-length; None: computed to cover every car.  A horizon
    # shorter than a car makes views one-sided: one car may see another
    # that does not see it, so a guard and an invariant can disagree about
    # the same pair and a run can wait until a clock bound stops time (a
    # timelock).  That comes from the view model, not the protocol; the
    # checker reports it as a stuck run (see test_stuck_state_witness)
    horizon: Optional[int] = None

    def __post_init__(self):
        if self.lane_count < 1:
            raise ScenarioError(f"need at least one lane, got {self.lane_count}")
        if not self.cars:
            raise ScenarioError("scenario has no cars")
        canonical_variant(self.variant)
        seen = set()
        for car in self.cars:
            if not _NAME_RE.match(car.name):
                raise ScenarioError(f"bad car name {car.name!r}")
            if car.name in seen:
                raise ScenarioError(f"duplicate car {car.name!r}")
            seen.add(car.name)
            if not 0 <= car.lane < self.lane_count:
                raise ScenarioError(
                    f"car {car.name!r} starts on lane {car.lane}, road has 0..{self.lane_count - 1}"
                )
            if car.size < 1:
                raise ScenarioError(f"car {car.name!r} needs positive size")
        for a in self.cars:
            for b in self.cars:
                if a.name < b.name and a.lane == b.lane and extents_meet(a, b):
                    raise ScenarioError(
                        f"initial cc violated: {a.name} and {b.name} overlap on lane {a.lane}"
                    )
        if self.horizon is not None and self.horizon < 1:
            raise ScenarioError("horizon must be positive")

    def effective_horizon(self) -> int:
        return self.horizon if self.horizon is not None else covering_horizon(self.cars)

    def snapshot(self) -> TrafficSnapshot:
        return TrafficSnapshot(
            self.lane_count,
            {c.name: CarState(pos=c.pos, size=c.size, res=frozenset({c.lane})) for c in self.cars},
        )

    def car_names(self) -> Tuple[str, ...]:
        return tuple(c.name for c in self.cars)


def loads(text: str, source: str = "<string>") -> Scenario:
    lane_count: Optional[int] = None
    cars = []
    variant: Optional[str] = None
    consts: Dict[str, int] = {}
    horizon: Optional[int] = None

    def err(lineno: int, msg: str) -> ScenarioError:
        return ScenarioError(f"{source}:{lineno}: {msg}")

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        words = line.split()
        kind = words[0]
        if kind == "lanes":
            if lane_count is not None:
                raise err(lineno, "duplicate 'lanes' directive")
            lane_count = _int(words, 1, lineno, err, expect_len=2)
        elif kind == "car":
            if len(words) != 8 or words[2] != "lane" or words[4] != "pos" or words[6] != "size":
                raise err(lineno, "expected: car <name> lane <i> pos <p> size <s>")
            try:
                cars.append(ScenarioCar(words[1], int(words[3]), int(words[5]), int(words[7])))
            except ValueError:
                raise err(lineno, "lane/pos/size must be integers") from None
        elif kind == "variant":
            if variant is not None:
                raise err(lineno, "duplicate 'variant' directive")
            if len(words) != 2:
                raise err(lineno, "expected: variant <name>")
            if words[1] not in VARIANTS:
                raise err(lineno, f"unknown variant {words[1]!r} (one of {', '.join(VARIANTS)})")
            variant = words[1]
        elif kind == "const":
            if len(words) != 3:
                raise err(lineno, "expected: const <name> <value>")
            if words[1] not in _CONST_NAMES:
                raise err(lineno, f"unknown constant {words[1]!r} (one of {', '.join(_CONST_NAMES)})")
            if words[1] in consts:
                raise err(lineno, f"duplicate constant {words[1]!r}")
            try:
                consts[words[1]] = int(words[2])
            except ValueError:
                raise err(lineno, "constant value must be an integer") from None
        elif kind == "horizon":
            if horizon is not None:
                raise err(lineno, "duplicate 'horizon' directive")
            horizon = _int(words, 1, lineno, err, expect_len=2)
        else:
            raise err(lineno, f"unknown directive {kind!r}")

    if lane_count is None:
        raise ScenarioError(f"{source}: missing 'lanes' directive")
    try:
        constants = Constants(**consts)
    except ValueError as e:
        raise ScenarioError(f"{source}: {e}") from None
    try:
        return Scenario(
            lane_count=lane_count,
            cars=tuple(cars),
            variant=variant or "original",
            constants=constants,
            horizon=horizon,
        )
    except ScenarioError as e:
        raise ScenarioError(f"{source}: {e}") from None


def _int(words, idx, lineno, err, expect_len):
    if len(words) != expect_len:
        raise err(lineno, f"expected: {words[0]} <integer>")
    try:
        return int(words[idx])
    except ValueError:
        raise err(lineno, f"{words[0]} takes an integer, got {words[idx]!r}") from None


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ScenarioError(f"cannot read scenario {path!r}: {e.strerror or e}") from None
    return loads(text, source=str(path))


def dumps(sc: Scenario) -> str:
    lines = [f"lanes {sc.lane_count}"]
    for c in sc.cars:
        lines.append(f"car {c.name} lane {c.lane} pos {c.pos} size {c.size}")
    lines.append(f"variant {sc.variant}")
    k = sc.constants
    for name in _CONST_NAMES:
        lines.append(f"const {name} {getattr(k, name)}")
    if sc.horizon is not None:
        lines.append(f"horizon {sc.horizon}")
    return "\n".join(lines) + "\n"


def write_scenario(sc: Scenario, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(sc))
