from fractions import Fraction
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from projzero import Form, MonomialOrder, format_form, monomials_of_degree, parse_form
from projzero.errors import FormSyntax, NotHomogeneous, UnknownVariable
from projzero.fields import PrimeField, RationalField

Q = RationalField()
XYZ = ("x", "y", "z")


def test_parse_first_generator():
    f = parse_form("x*z + y*z - z^2", XYZ, Q)
    assert f.degree == 2
    assert f.terms == {(1, 0, 1): 1, (0, 1, 1): 1, (0, 0, 2): -1}


def test_parse_single_variable():
    f = parse_form("x0", ("x0", "x1"), Q)
    assert f.degree == 1 and f.terms == {(1, 0): 1}


def test_parse_rejects_mixed_degrees():
    with pytest.raises(NotHomogeneous):
        parse_form("x^2 + y", XYZ, Q)


def test_parse_rejects_unknown_variable():
    with pytest.raises(UnknownVariable):
        parse_form("x + w", XYZ, Q)


def test_parse_rejects_bad_syntax():
    for bad in ("x +", "* x", "x ^", "x^y", ""):
        with pytest.raises(FormSyntax):
            parse_form(bad, XYZ, Q)


def test_parse_rational_and_gfp_coefficients():
    f = parse_form("1/2*x - 3*y", ("x", "y"), Q)
    assert f.terms == {(1, 0): Fraction(1, 2), (0, 1): -3}
    GF7 = PrimeField(7)
    g = parse_form("10*x + 3/2*y", ("x", "y"), GF7)
    assert g.terms == {(1, 0): 3, (0, 1): (3 * pow(2, 5, 7)) % 7}


def test_evaluate_on_variety_point():
    f = parse_form("x*z + y*z - z^2", XYZ, Q)
    assert f.evaluate([Q.one, Q.one, Q.zero]) == 0


def test_evaluate_zero_vector():
    f = parse_form("x^2 + y*z", XYZ, Q)
    assert f.evaluate([Q.zero] * 3) == 0


def test_evaluate_monomial_product_of_powers():
    f = parse_form("x^2*y", XYZ, Q)
    assert f.evaluate([Fraction(2), Fraction(3), Fraction(5)]) == 12


def test_multiply_by_one_and_linears():
    one = Form.monomial(Q, 3, (0, 0, 0))
    f = parse_form("x*y - z^2", XYZ, Q)
    assert f * one == f
    s = parse_form("y + z", XYZ, Q) * parse_form("x", XYZ, Q)
    assert s == parse_form("x*y + x*z", XYZ, Q)


def test_multiply_separator_product():
    names = tuple(f"x{i + 1}" for i in range(8))
    q1 = (parse_form("x2", names, Q) * parse_form("3*x1 - x4", names, Q)
          * parse_form("x1", names, Q))
    assert q1 == parse_form("3*x1^2*x2 - x1*x2*x4", names, Q)


small_forms = st.builds(
    lambda deg, coeffs: Form(
        Q, 3, deg,
        {m: Fraction(c) for m, c in
         zip(monomials_of_degree(3, deg, MonomialOrder.default(3)), coeffs)}),
    st.integers(1, 3),
    st.lists(st.integers(-4, 4), min_size=10, max_size=10))


@given(small_forms)
def test_format_parse_round_trip(f):
    # the text "0" carries no degree, so graded zero forms cannot round-trip
    if f.is_zero():
        return
    text = format_form(f, XYZ)
    assert parse_form(text, XYZ, Q) == f


@given(small_forms, small_forms,
       st.lists(st.integers(-3, 3), min_size=3, max_size=3))
def test_evaluate_is_multiplicative(f, g, pt):
    rep = [Fraction(c) for c in pt]
    assert (f * g).evaluate(rep) == f.evaluate(rep) * g.evaluate(rep)


@given(small_forms, st.lists(st.integers(-3, 3), min_size=3, max_size=3),
       st.integers(1, 5))
def test_evaluate_homogeneous_scaling(f, pt, lam):
    rep = [Fraction(c) for c in pt]
    scaled = [Fraction(lam) * c for c in rep]
    assert f.evaluate(scaled) == Fraction(lam) ** f.degree * f.evaluate(rep)


def test_monomials_of_degree_two_vars():
    order = MonomialOrder.default(2)
    assert monomials_of_degree(2, 1, order) == [(1, 0), (0, 1)]


def test_monomials_of_degree_counts():
    order = MonomialOrder.default(3)
    assert len(monomials_of_degree(3, 2, order)) == 6
    assert len(monomials_of_degree(3, 3, order)) == 10
    for d in range(5):
        assert len(monomials_of_degree(4, d, MonomialOrder.default(4))) \
            == comb(3 + d, d)


def _reference_greater(a, b, ranking, kind):
    # independent comparator, straight from the order definition
    if kind == "degrevlex":
        if sum(a) != sum(b):
            return sum(a) > sum(b)
        for idx in reversed(ranking):
            if a[idx] != b[idx]:
                return a[idx] < b[idx]
        return False
    for idx in ranking:
        if a[idx] != b[idx]:
            return a[idx] > b[idx]
    return False


@pytest.mark.parametrize("kind", ["degrevlex", "lex"])
@pytest.mark.parametrize("ranking", [(0, 1, 2), (2, 1, 0), (1, 2, 0)])
def test_monomials_strictly_decreasing(kind, ranking):
    order = MonomialOrder(kind=kind, ranking=ranking)
    monos = monomials_of_degree(3, 3, order)
    assert len(monos) == 10
    for a, b in zip(monos, monos[1:]):
        assert _reference_greater(a, b, ranking, kind)


def test_degrevlex_degree_two_listing():
    order = MonomialOrder.default(3)
    names = [format_monomial_local(m) for m in monomials_of_degree(3, 2, order)]
    assert names == ["x^2", "x*y", "y^2", "x*z", "y*z", "z^2"]


def format_monomial_local(m):
    from projzero import format_monomial
    return format_monomial(m, XYZ)


def test_form_rejects_inhomogeneous_terms():
    with pytest.raises(NotHomogeneous):
        Form(Q, 2, 2, {(1, 0): Q.one})


def test_form_power():
    l = parse_form("y + z", XYZ, Q)
    assert l.power(2) == parse_form("y^2 + 2*y*z + z^2", XYZ, Q)
    assert l.power(0) == Form.monomial(Q, 3, (0, 0, 0))
