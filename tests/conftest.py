import random
from dataclasses import dataclass

import pytest
from hypothesis import HealthCheck, settings

from projzero import (IdealPresentation, MonomialOrder, Options, bm_triplet,
                      build_triplet, hilbert_scan, normalize, parse_form,
                      vanishing_ideal)
from projzero.fields import PrimeField, RationalField

settings.register_profile(
    "suite", max_examples=60, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")

Q = RationalField()
GF7 = PrimeField(7)


@pytest.fixture(scope="session")
def rationals():
    return Q


@pytest.fixture(scope="session")
def gf7():
    return GF7


MAIN_GENS = ["x*z + y*z - z^2", "x^2 - y^2 + 2*y*z - z^2", "x*y - y^2 + y*z"]
FALSE_POINT_GENS = ["y^2", "z^2", "x*z", "x*y"]
EMBEDDED_GENS = ["x^2 - x*z", "x*y - z^2", "y^2 - z^2"]
MIXED_2VAR_GENS = ["x1*x2^3 - x2^4", "x1^3*x2^2 - x2^5"]
SIX_POINTS = [[0, 2, 5], [0, 1, 2], [1, 3, 1], [4, 3, 4], [2, 5, 4], [1, 4, 4]]


def ideal_from(gens, var_names, field=Q):
    return IdealPresentation(
        field=field, vars=tuple(var_names),
        generators=[parse_form(s, tuple(var_names), field) for s in gens])


@pytest.fixture(scope="session")
def main_ideal():
    return ideal_from(MAIN_GENS, ("x", "y", "z"))


@pytest.fixture(scope="session")
def false_point_ideal():
    return ideal_from(FALSE_POINT_GENS, ("x", "y", "z"))


@pytest.fixture(scope="session")
def embedded_ideal():
    return ideal_from(EMBEDDED_GENS, ("x", "y", "z"))


@pytest.fixture(scope="session")
def mixed_2var_ideal():
    return ideal_from(MIXED_2VAR_GENS, ("x1", "x2"))


@pytest.fixture(scope="session")
def order3():
    return MonomialOrder.default(3)


@pytest.fixture(scope="session")
def order2():
    return MonomialOrder.default(2)


@pytest.fixture(scope="session")
def main_triplet(main_ideal):
    l = parse_form("y + z", ("x", "y", "z"), Q)
    return build_triplet(main_ideal, Options(linear_form=l))


@pytest.fixture(scope="session")
def mixed_2var_triplet(mixed_2var_ideal):
    return build_triplet(mixed_2var_ideal,
                         Options(degree_policy="certified_stable", seed=0))


@pytest.fixture(scope="session")
def six_points():
    return normalize([[Q.from_int(c) for c in p] for p in SIX_POINTS], Q)


@dataclass
class RandomInstance:
    """One random certified projective-dimension-zero instance."""

    P: object
    ideal: object
    order: object
    scan: object
    bm: object = None      # point-route triplet
    trip: object = None    # ideal-route triplet (first_surjective)


def _random_point_set(rng, field):
    m = rng.randint(1, 5)
    width = rng.randint(2, 3)
    for _ in range(200):
        pts = []
        for _ in range(m):
            if field.size is None:
                vec = [field.from_int(rng.randint(-3, 3)) for _ in range(width)]
            else:
                vec = [field.from_int(rng.randrange(field.size))
                       for _ in range(width)]
            if all(field.is_zero(x) for x in vec):
                vec[rng.randrange(width)] = field.one
            pts.append(vec)
        try:
            return normalize(pts, field)
        except Exception:
            continue
    raise RuntimeError("could not build a random point set")


def _build_instance(rng, with_triplets):
    field = Q if rng.random() < 0.5 else GF7
    P = _random_point_set(rng, field)
    order = MonomialOrder.default(P.n + 1)
    ideal = vanishing_ideal(P, order)
    scan = hilbert_scan(ideal)
    assert scan.m == P.size
    inst = RandomInstance(P=P, ideal=ideal, order=order, scan=scan)
    if with_triplets:
        inst.bm = bm_triplet(P, order)[0]
        inst.trip = build_triplet(ideal, Options(seed=rng.randint(0, 10**6)))
    return inst


@pytest.fixture(scope="session")
def instance_pool():
    """100 fully-built random instances (points, ideal, both triplets)."""
    rng = random.Random(20240817)
    return [_build_instance(rng, with_triplets=True) for _ in range(100)]


@pytest.fixture(scope="session")
def scan_pool(instance_pool):
    """200 certified instances for bound checking (triplets only on the
    first hundred)."""
    rng = random.Random(911)
    extra = [_build_instance(rng, with_triplets=False) for _ in range(100)]
    return instance_pool + extra


@pytest.fixture(scope="session")
def data_dir():
    import pathlib
    return pathlib.Path(__file__).resolve().parent.parent / "data"
