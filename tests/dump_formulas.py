"""Print one JSON line per answer of a fixed set of MLSL evaluations.

A change to the formula evaluator that must not move any answer is
checked by running this script before and after it and comparing the
outputs byte for byte:

    PYTHONPATH=src python tests/dump_formulas.py > formulas.jsonl

Each line holds the case label, the chop mode and the answer.  The cases:
- the three example formulas of acceptance C1;
- C7's 1,000 random snapshots (same seed and draw order) × cc, exists-pc
  and pc against every car: 4,974 evaluations, the first 200 of them
  also under chop_mode="sweep";
- 3,000 derandomized draws of test_mlsl's `_eval_cases`;
- a long-gap grid: six formulas over two cars 30 units apart, every
  [r, t] over 17 view ends 3 units apart, three lane bands (2,754).
That is 10,931 answers.  Arguments, when given, are label prefixes: only
the cases whose label starts with one of them run.

The fast lines of the C1, C7 and grid sections are also recorded in
tests/formulas.sha256, one SHA-256 per section, and the tests check them.
The 200 sweep lines and the 3,000 draws are not recorded there: they stay
a comparison of two runs of this script.  A change that moves a recorded
answer on purpose rewrites that file with

    PYTHONPATH=src:tests python -c "import dump_formulas; dump_formulas.write_digests()"

and says why in CHANGES.md.
"""

import hashlib
import json
import random
import sys
from pathlib import Path
from typing import Callable, Iterator, List, Tuple

from hypothesis import HealthCheck, Phase, given, settings

from lanecheck import mlsl
from lanecheck.traffic import CarState, Extent, TrafficSnapshot, View, standard_view
from support import example_snapshot
from test_acceptance import _random_snapshot
from test_mlsl import _eval_cases

C1_FORMULAS = ("<re(ego) ; free>", "<cl(a) & cl(b) ; !cl(a) & cl(b)>",
               "<cl(b) ; free ; re(d)>")
C7_SEED, C7_SNAPSHOTS, C7_SWEPT = 20260816, 1000, 200
DRAWS = 3000
GRID_FORMULAS = ("free ; free ; free", "re(ego) ; free ; re(c)", "<free ; free> ; re(c)",
                 "[true ; free ; free ; re(c) / re(ego) ; free ; true]",
                 "<re(ego)> ; free ; <re(c)>", "exists d. !(d = ego) & <free ; re(d)>")
GRID_ENDS = tuple(range(-4, 45, 3))
GRID_BANDS = ((0, 0), (1, 1), (0, 1))
DIGESTS = Path(__file__).resolve().parent / "formulas.sha256"

Case = Tuple[str, str, Callable[[], bool]]


def evaluation(ts, view, nu, phi, mode="fast") -> Callable[[], bool]:
    return lambda: mlsl.eval(ts, view, nu, phi, chop_mode=mode)


def c1() -> Iterator[Case]:
    ts = example_snapshot()
    view = standard_view(ts, "E", 36)
    nu = {"ego": "E", "a": "A", "b": "B", "d": "D"}
    for text in C1_FORMULAS:
        yield f"c1/{text}", "fast", evaluation(ts, view, nu, mlsl.parse(text))


def c7() -> Iterator[Case]:
    rng = random.Random(C7_SEED)
    count = 0
    for k in range(C7_SNAPSHOTS):
        # the draws of test_c7_interval_checks_equal_formula_semantics, in order
        ts = _random_snapshot(rng)
        names = sorted(ts.cars)
        span = (max(c.pos + c.size for c in ts.cars.values())
                - min(c.pos for c in ts.cars.values()) + 1)
        ego = rng.choice(names)
        view = standard_view(ts, ego, span)
        checks = [("cc", {"ego": ego}, mlsl.cc_formula()),
                  ("exists-pc", {"ego": ego}, mlsl.exists_pc_formula())]
        checks += [(f"pc(c={other})", {"ego": ego, "c": other}, mlsl.pc_formula("c"))
                   for other in names]
        for name, nu, phi in checks:
            label = f"c7/{k:04d}/ego={ego}/{name}"
            yield label, "fast", evaluation(ts, view, nu, phi)
            if count < C7_SWEPT:
                yield label, "sweep", evaluation(ts, view, nu, phi, "sweep")
            count += 1


def drawn() -> Iterator[Case]:
    found: List[Tuple] = []

    @settings(max_examples=DRAWS, derandomize=True, database=None, deadline=None,
              phases=[Phase.generate], suppress_health_check=list(HealthCheck))
    @given(_eval_cases())
    def collect(case):
        found.append(case)

    collect()
    for k, (ts, view, nu, phi) in enumerate(found):
        cars = ",".join(f"{n}:{c.pos}+{c.size}/{sorted(c.res)}/{sorted(c.clm)}"
                        for n, c in sorted(ts.cars.items()))
        label = (f"draw/{k:04d}/lanes={ts.lane_count}/{cars}/band={view.lane_lo}..{view.lane_hi}"
                 f"/{view.extent}/{sorted(nu.items())}/{mlsl.format_formula(phi)}")
        yield label, "fast", evaluation(ts, view, nu, phi)


def grid() -> Iterator[Case]:
    ts = TrafficSnapshot(3, {"A": CarState(0, 4, res={0}, clm={1}),
                             "B": CarState(34, 4, res={0, 1})})
    nu = {"ego": "A", "c": "B"}
    for text in GRID_FORMULAS:
        phi = mlsl.parse(text)
        for i, r in enumerate(GRID_ENDS):
            for t in GRID_ENDS[i:]:
                for lo, hi in GRID_BANDS:
                    label = f"grid/{text}/band={lo}..{hi}/[{r}, {t}]"
                    yield label, "fast", evaluation(ts, View(lo, hi, Extent(r, t)), nu, phi)


def line(label: str, mode: str, holds: bool) -> str:
    return json.dumps({"case": label, "mode": mode, "holds": holds}, sort_keys=True)


def digest(group: Callable[[], Iterator[Case]]) -> str:
    """The line of formulas.sha256 for a section: the SHA-256 of its fast
    lines, each with its newline, and the section's name."""
    text = "".join(line(label, mode, run()) + "\n" for label, mode, run in group()
                   if mode == "fast")
    return f"{hashlib.sha256(text.encode()).hexdigest()}  {group.__name__}"


def digests() -> List[str]:
    """The lines of formulas.sha256: the C1, C7 and grid sections'."""
    return [digest(group) for group in (c1, c7, grid)]


def write_digests() -> None:
    DIGESTS.write_text("".join(row + "\n" for row in digests()))


def main(argv: List[str]) -> int:
    for group in (c1, c7, drawn, grid):
        for label, mode, run in group():
            if argv and not any(label.startswith(p) for p in argv):
                continue
            print(line(label, mode, run()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
