"""The root finder and deflation-based multiplicities against the
enumerating oracle in tests/root_oracle.py."""

import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from projzero import MonomialOrder, roots_in_field, solve, vanishing_ideal
from projzero.cli import parse_ideal_file, parse_points_file
from projzero.fields import PrimeField, RationalField
from projzero.linalg import char_poly, deflate, poly_mul
from projzero.solver import (SolveOptions, _draw_coefficients,
                             _generic_combination, multiplicity)
from tests.root_oracle import enumerate_roots

Q = RationalField()
FIELDS = [Q, PrimeField(2), PrimeField(3), PrimeField(7), PrimeField(101)]
DATA = Path(__file__).resolve().parent.parent / "data"


def from_linear_factors(field, roots, scale, extra):
    """scale * prod (t - r)^k over (r, k) in roots, times the extra factor."""
    p = [scale]
    for r, k in roots:
        for _ in range(k):
            p = poly_mul(p, [field.neg(r), field.one], field)
    return poly_mul(p, extra, field)


def assert_agrees(p, field):
    got, want = roots_in_field(p, field), enumerate_roots(p, field)
    assert got.pairs == want.pairs
    assert got.residual == want.residual
    assert got.residual_degree == want.residual_degree


@st.composite
def polynomials(draw):
    field = draw(st.sampled_from(FIELDS))
    small = st.integers(-6, 6)
    if field.size is None:
        value = st.builds(Fraction, small, st.integers(1, 5))
    else:
        value = st.integers(0, field.size - 1)
    roots = draw(st.lists(st.tuples(value, st.integers(1, 3)), max_size=4))
    extra = draw(st.lists(small.map(field.from_int), min_size=1, max_size=4))
    if all(field.is_zero(c) for c in extra):
        extra = [field.one]
    scale = draw(st.sampled_from([1, 2, -5, Fraction(1, 3)]))
    scale = scale if field.size is None else field.from_int(int(scale))
    if field.is_zero(scale):
        scale = field.one
    return from_linear_factors(field, roots, scale, extra), field


@given(polynomials())
def test_roots_match_enumeration(case):
    p, field = case
    assert_agrees(p, field)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_roots_repeated_and_zero(field):
    one, two = field.one, field.from_int(2)
    assert_agrees(from_linear_factors(
        field, [(field.zero, 3), (one, 2), (two, 1)], one, [one]), field)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_roots_root_free(field):
    # t^2 + t + 1 has no root in Q, GF(2) or GF(101); in GF(3) and GF(7) it
    # has roots, and the comparison covers that too
    p = [field.one, field.one, field.one]
    assert_agrees(p, field)
    assert_agrees(poly_mul(p, p, field), field)


def test_roots_non_integer_rationals():
    p = from_linear_factors(Q, [(Fraction(-3, 4), 2), (Fraction(5, 7), 1),
                                (Fraction(1, 12), 1)],
                            Fraction(36, 5), [Fraction(2), Q.zero, Q.one])
    assert_agrees(p, Q)
    rep = roots_in_field(p, Q)
    assert [r for r, _ in rep.pairs] == [Fraction(-3, 4), Fraction(1, 12),
                                         Fraction(5, 7)]
    assert rep.residual_degree == 2


def test_roots_large_heights():
    # roots with big numerators and denominators need several Hensel steps
    roots = [(Fraction(2**61 - 1, 3**20), 1), (Fraction(-7**15, 10**9), 2)]
    p = from_linear_factors(Q, roots, Q.one, [Q.one, Q.zero, Q.one])
    rep = roots_in_field(p, Q)
    assert rep.pairs == sorted(roots)
    assert rep.residual == [Q.one, Q.zero, Q.one]


def test_roots_large_prime():
    field = PrimeField(2147483647)
    roots = [(field.from_int(-1), 2), (field.from_int(123456789), 1),
             (field.zero, 1)]
    p = from_linear_factors(field, roots, field.one, [1, 0, 1])
    rep = roots_in_field(p, field)  # t^2 + 1 is irreducible: p = 3 mod 4
    assert rep.pairs == sorted(roots)
    assert rep.residual_degree == 2


def test_deflate():
    p = from_linear_factors(Q, [(Fraction(1, 2), 3), (Q.one, 1)], Q.one, [Q.one])
    assert deflate(p, Fraction(1, 2), Q) == (3, [-Q.one, Q.one])
    assert deflate(p, Q.zero, Q) == (0, p)


def enumerated_multiplicity(ep, triplet, seed):
    """multiplicity() as it was: the full root set of every draw."""
    field = triplet.l.field
    rng = random.Random(f"mult:{seed}")
    seen = []
    for _ in range(3):
        coeffs = _draw_coefficients(field, len(triplet.A), rng)
        target = field.zero
        for c, lam in zip(coeffs, ep.lambdas):
            target = field.add(target, field.mul(c, lam))
        A = _generic_combination(triplet.A, coeffs, field)
        mult = dict(enumerate_roots(char_poly(A), field).pairs).get(target, 0)
        if mult in seen:
            return mult
        seen.append(mult)
    raise AssertionError(f"three disagreeing draws: {seen}")


def load_fixture(name):
    path = DATA / name
    if path.suffix == ".ideal":
        return parse_ideal_file(path.read_text())
    P, _ = parse_points_file(path.read_text())
    return vanishing_ideal(P), MonomialOrder.default(P.n + 1)


# Every .ideal fixture with points, and a points fixture over GF(3).
# gf2_three_points is all of P^1(GF(2)), so no linear form is surjective;
# the rational points fixtures give char polys whose large coefficients take
# the trial-division oracle tens of seconds.
@pytest.mark.parametrize("name", [
    "line_and_double_point.ideal", "monomial_false_point.ideal",
    "single_linear.ideal", "single_point_embedded.ideal",
    "three_quadrics.ideal", "gf3_three_points.pts"])
@pytest.mark.parametrize("seed", [0, 1])
def test_multiplicity_matches_enumeration(name, seed):
    I, order = load_fixture(name)
    rep = solve(I, order, SolveOptions(seed=seed))
    assert rep.points
    for ep, mult in rep.points:
        assert mult == multiplicity(ep, rep.triplet, seed=seed)
        assert mult == enumerated_multiplicity(ep, rep.triplet, seed)


def test_double_point_multiplicity():
    I, order = load_fixture("line_and_double_point.ideal")
    rep = solve(I, order, SolveOptions(degree_policy="certified_stable"))
    got = {tuple(ep.point): m for ep, m in rep.points}
    assert got == {(1, 1): 1, (1, 0): 2}
    for ep, mult in rep.points:
        assert mult == enumerated_multiplicity(ep, rep.triplet, 0)
