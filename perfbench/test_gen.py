"""Checks of the benchmark's input generator, using only its own arithmetic.

Run with:  python3 -m pytest -q perfbench/test_gen.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402

SHAPES = [(gen.GF, (3, 3)), (gen.GF, (3, 4)), (gen.GF, (2, 2, 2)),
          (gen.QQ, (2, 2)), (gen.QQ, (1, 5))]


def _vanish_everywhere(inst):
    return all(gen.evaluate(inst.F, g, p) == 0
               for g in inst.gens for p in inst.points)


def test_complete_intersections_have_their_points():
    for seed in range(5):
        for F, degrees in SHAPES:
            inst = gen.complete_intersection(gen.rng_for("test", seed), F, degrees)
            count = 1
            for d in degrees:
                count *= d
            assert len(inst.points) == len(set(inst.points)) == count
            assert _vanish_everywhere(inst)


def test_generators_do_not_vanish_off_the_points():
    inst = gen.complete_intersection(gen.rng_for("test", 0), gen.GF, (3, 3))
    rng = gen.rng_for("off", 0)
    off = [gen.normalize(gen.GF, [rng.randrange(1, gen.P) for _ in range(3)])
           for _ in range(20)]
    assert all(any(gen.evaluate(gen.GF, g, p) != 0 for g in inst.gens)
               for p in off if p not in inst.points)


def test_represent_keeps_the_points():
    for seed in range(5):
        inst = gen.complete_intersection(gen.rng_for("test", seed), gen.QQ, (1, 5))
        again = gen.represent(gen.rng_for("re", seed), inst)
        assert again.gens != inst.gens
        assert again.points == inst.points
        assert _vanish_everywhere(again)


def test_same_seed_same_inputs():
    for F, degrees in SHAPES:
        a = gen.complete_intersection(gen.rng_for("w", 7), F, degrees)
        b = gen.complete_intersection(gen.rng_for("w", 7), F, degrees)
        c = gen.complete_intersection(gen.rng_for("w", 8), F, degrees)
        assert a.ideal_text() == b.ideal_text()
        assert a.ideal_text() != c.ideal_text()
    for F in (gen.GF, gen.QQ):
        a = gen.point_set(gen.rng_for("w", 7), F, 8, 3)
        b = gen.point_set(gen.rng_for("w", 7), F, 8, 3)
        assert a.points_text() == b.points_text()
        assert len(set(a.points)) == 8


def test_point_sets_are_normalized():
    for F in (gen.GF, gen.QQ):
        inst = gen.point_set(gen.rng_for("w", 1), F, 8, 3)
        assert all(next(x for x in p if x != 0) == 1 for p in inst.points)


def test_text_round_trip():
    inst = gen.complete_intersection(gen.rng_for("w", 3), gen.QQ, (2, 2))
    for g in inst.gens:
        assert gen.parse_poly(gen.QQ, gen.poly_text(g, inst.names), inst.names) == g
    assert gen.parse_poly(gen.QQ, "1", inst.names) == {(0, 0, 0): 1}
    assert gen.parse_poly(gen.QQ, "-1/2*x^2*y + z^3", inst.names) == {
        (2, 1, 0): gen.QQ("-1/2"), (0, 0, 3): 1}


def test_three_quadrics_points():
    assert _vanish_everywhere(gen.THREE_QUADRICS)
