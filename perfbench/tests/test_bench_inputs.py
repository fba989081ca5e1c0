"""The generators: determinism, and the group structure each workload needs."""

import inputs
from inputs import Car

SEEDS = range(1, 41)


def _extents_overlap(a, b):
    return a.pos < b.pos + b.size and b.pos < a.pos + a.size


def test_same_seed_same_inputs():
    for make in (inputs.sparse_road, inputs.dense_road, inputs.formula_cases):
        for seed in (1, 7, 11):
            for r in (0, 3):
                first = make(inputs.rng_for("w", seed, r))
                assert first == make(inputs.rng_for("w", seed, r))
        assert len({repr(make(inputs.rng_for("w", s, 0))) for s in SEEDS}) > 1


def test_rounds_and_workloads_draw_apart():
    assert inputs.sparse_road(inputs.rng_for("sparse", 1, 0)) != \
        inputs.sparse_road(inputs.rng_for("sparse", 1, 1))
    assert inputs.rng_for("sparse", 1, 0).random() != inputs.rng_for("dense", 1, 0).random()


def test_sparse_roads_have_two_groups_of_overlapping_pairs():
    for seed in SEEDS:
        road = inputs.sparse_road(inputs.rng_for("sparse", seed, 0))
        groups = inputs.interaction_groups(road.cars, inputs.effective_horizon(road.cars))
        assert groups == [("A", "B"), ("C", "D")], (seed, road)
        a, b, c, d = road.cars
        for x, y in ((a, b), (c, d)):
            assert _extents_overlap(x, y)
            assert (x.lane, y.lane) in inputs.PAIR_LANES


def test_dense_roads_are_one_chain_group():
    for seed in SEEDS:
        road = inputs.dense_road(inputs.rng_for("dense", seed, 0))
        cars = road.cars
        groups = inputs.interaction_groups(cars, inputs.effective_horizon(cars))
        assert groups == [("A", "B", "C", "D")], (seed, road)
        assert tuple(c.lane for c in cars) in inputs.DENSE_LANES
        for i in range(4):
            for j in range(i + 1, 4):
                assert _extents_overlap(cars[i], cars[j]) == (j == i + 1), (seed, road)


def test_groups_follow_extents_and_horizons():
    a = Car("A", 0, 0, 4)
    b = Car("B", 1, 3, 4)
    far = Car("C", 2, 40, 4)
    assert inputs.interaction_groups((a, b, far), 50) == [("A", "B"), ("C",)]
    # touching extents do not overlap
    assert inputs.interaction_groups((a, Car("B", 1, 4, 4)), 50) == [("A",), ("B",)]
    # an overlap is seen from the later car's view even when the earlier
    # car's view stops short of it
    assert not inputs._overlap_in_view(a, b, 2)
    assert inputs._overlap_in_view(b, a, 2)
    assert inputs.interaction_groups((a, b), 2) == [("A", "B")]
    # a chain links its ends
    chain = (a, b, Car("C", 2, 6, 4), Car("D", 3, 9, 4))
    assert inputs.interaction_groups(chain, 50) == [("A", "B", "C", "D")]


def test_formula_cases_bind_every_variable():
    for seed in SEEDS:
        cases = inputs.formula_cases(inputs.rng_for("formulas", seed, 0))
        chops = [c for c in cases if c.formula.startswith("<")]
        assert [c.formula.count(";") for c in chops] == \
            [1] * inputs.CHOP_FORMULAS_EACH + [2] * inputs.CHOP_FORMULAS_EACH \
            + [3] * inputs.CHOP_FORMULAS_EACH
        assert all(c.snapshot.lanes <= inputs.CHOP_MAX_LANES for c in chops)
        for case in cases:
            names = {c.name for c in case.snapshot.cars}
            assert case.ego in names
            assert {v for _, v in case.binding} <= names
            assert 1 <= case.snapshot.lanes <= 6 and 1 <= len(names) <= 5
