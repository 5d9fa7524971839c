"""The root finder against the enumerating oracle in tests/root_oracle.py,
and solve's multiplicities against the joint generalized eigenspaces."""

from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from projzero import Options, roots_in_field, solve, vanishing_ideal
from projzero.cli import parse_ideal_file, parse_points_file
from projzero.fields import PrimeField, RationalField
from projzero import linalg
from projzero.linalg import RootReport, deflate
from tests.eigen_oracle import joint_multiplicity
from tests.rref_oracle import poly_mul
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


def load_fixture(name):
    path = DATA / name
    if path.suffix == ".ideal":
        return parse_ideal_file(path.read_text())
    P, _ = parse_points_file(path.read_text())
    return vanishing_ideal(P)


# Small .ideal fixtures with points, and two fixtures over GF(3) whose
# three reduced points have multiplicity 1 although most combinations of
# the matrices do not separate them. gf2_three_points is all of
# P^1(GF(2)), so no linear form is surjective.
@pytest.mark.parametrize("name", [
    "line_and_double_point.ideal", "monomial_false_point.ideal",
    "single_linear.ideal", "single_point_embedded.ideal",
    "three_quadrics.ideal", "gf3_three_points.pts",
    "three_quadrics_gf3.ideal"])
@pytest.mark.parametrize("seed", [0, 1])
def test_multiplicity_matches_enumeration(name, seed):
    I = load_fixture(name)
    rep = solve(I, Options(seed=seed))
    assert rep.points
    for ep in rep.points:
        assert ep.multiplicity == joint_multiplicity(rep.triplet.A, ep.lambdas)
    if I.field.size == 3:
        assert [ep.multiplicity for ep in rep.points] == [1, 1, 1]
        assert rep.residual_degree == 0 and not rep.warnings


def test_double_point_multiplicity():
    I = load_fixture("line_and_double_point.ideal")
    rep = solve(I, Options(degree_policy="certified_stable"))
    got = {tuple(ep.point): ep.multiplicity for ep in rep.points}
    assert got == {(1, 1): 1, (1, 0): 2}
    for ep in rep.points:
        assert ep.multiplicity == joint_multiplicity(rep.triplet.A, ep.lambdas)


def root_searches(monkeypatch):
    """Records (prime, sorted roots) of every root search over GF(q) during
    the test."""
    seen = []
    gfp_roots = linalg._gfp_roots

    def recording(f, q):
        roots = gfp_roots(f, q)
        seen.append((q, sorted(roots)))
        return roots

    monkeypatch.setattr(linalg, "_gfp_roots", recording)
    return seen


def test_roots_skip_primes_that_merge_roots(monkeypatch):
    # 102 = 1 mod 101 and 207 = 1 mod 103: h is not square-free mod 101 or
    # mod 103, so the lifting starts from 107
    seen = root_searches(monkeypatch)
    p = from_linear_factors(Q, [(Q.one, 1), (Fraction(102), 2),
                                (Fraction(207), 1)], Fraction(-4, 9),
                            [Fraction(3), Q.zero, Q.one])
    rep = roots_in_field(p, Q)
    assert [q for q, _ in seen] == [107]
    assert rep.pairs == [(1, 1), (102, 2), (207, 1)]
    assert_agrees(p, Q)


def test_roots_skip_primes_dividing_the_leading_coefficient(monkeypatch):
    seen = root_searches(monkeypatch)
    lead = 101 * 103
    p = from_linear_factors(Q, [(Fraction(1, lead), 1), (Fraction(-2), 1),
                                (Fraction(5, 103), 1)], Fraction(lead),
                            [Q.one])
    rep = roots_in_field(p, Q)
    assert [q for q, _ in seen] == [107]
    assert [r for r, _ in rep.pairs] == [-2, Fraction(1, lead),
                                         Fraction(5, 103)]
    assert_agrees(p, Q)


def test_roots_mod_q_that_do_not_lift(monkeypatch):
    # t^2 + 1 has the roots 10 and 91 modulo 101 and none in Q: they lift
    # 101-adically, and exact evaluation drops what they reconstruct to
    seen = root_searches(monkeypatch)
    p = from_linear_factors(Q, [(Q.one, 2), (Fraction(-3, 2), 1)], Q.one,
                            [Q.one, Q.zero, Q.one])
    rep = roots_in_field(p, Q)
    assert seen == [(101, [1, 10, 49, 91])]
    assert rep.pairs == [(Fraction(-3, 2), 1), (1, 2)]
    assert rep.residual == [Q.one, Q.zero, Q.one]
    assert_agrees(p, Q)


@st.composite
def tall_polynomials(draw):
    """Polynomials over Q with coefficients up to 10^12 and beyond, with the
    expected report: either (i) rational roots of height up to 10^12 times
    a small cofactor, whose roots the enumerating oracle finds, or (ii)
    middle coefficients up to 10^12 between small end coefficients, which
    the oracle enumerates directly."""
    tall = st.integers(-10**12, 10**12)
    if draw(st.booleans()):
        ends = st.sampled_from([1, -1, 2, -3, 6])
        coeffs = ([draw(ends)] + draw(st.lists(tall, max_size=3))
                  + [draw(ends)])
        p = [Fraction(c) for c in coeffs]
        return p, enumerate_roots(p, Q)
    root = st.builds(Fraction, tall, st.integers(1, 10**6))
    roots = draw(st.lists(st.tuples(root, st.integers(1, 2)), min_size=1,
                          max_size=3, unique_by=lambda rk: rk[0]))
    small = st.integers(-6, 6).map(Fraction)
    extra = draw(st.lists(small, min_size=1, max_size=4))
    if not any(extra):
        extra = [Q.one]
    scale = Fraction(draw(tall.filter(bool)), draw(st.integers(1, 10**6)))
    want = enumerate_roots(extra, Q)
    pairs = dict(want.pairs)
    for r, k in roots:
        pairs[r] = pairs.get(r, 0) + k
    residual = [scale * c for c in want.residual]
    return (from_linear_factors(Q, roots, scale, extra),
            RootReport(pairs=sorted(pairs.items()), residual=residual))


@given(tall_polynomials())
def test_roots_of_tall_polynomials(case):
    p, want = case
    got = roots_in_field(p, Q)
    assert got.pairs == want.pairs
    assert got.residual == want.residual


@given(st.sampled_from([2, 3, 7, 101, 32003, 2**31 - 1]), st.data())
def test_powmod_of_a_linear_base(p, data):
    """(t + a)^e mod f against e products by t + a."""
    n = data.draw(st.integers(1, 6))
    residue = st.integers(0, p - 1)
    f = data.draw(st.lists(residue, min_size=n, max_size=n)) + [1]
    a = data.draw(residue)
    e = data.draw(st.integers(0, 200))
    want = [1] if n else []
    for _ in range(e):
        want = linalg._gfp_mulmod(want, [a, 1], f, p)
    assert linalg._gfp_powmod(a, e, f, p) == want
