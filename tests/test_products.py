"""Products of forms on linalg's packed-exponent kernel `multiply_terms`,
against the per-scalar product in tests/polyring_oracle.py, and the
separators, powers and fast-normal-form expansions built on it against the
oracles in tests/points_oracle.py and tests/nf_oracle.py. Over GF(p) the
kernel takes residues outside range(p) and must still return canonical
ones."""

import random
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, strategies as st

from projzero import (Form, MonomialOrder, build_triplet, fast_normal_form,
                      normalize, parse_form, separators, vanishing_ideal)
from projzero.errors import DuplicatePoint, ZeroPoint
from projzero.fields import PrimeField, RationalField
from projzero.linalg import multiply_terms, normalize_vector
from projzero.polyring import mono_one, monomials_of_degree
from tests import nf_oracle, points_oracle
from tests.polyring_oracle import form_mul, monomial

Q = RationalField()
FIELDS = [PrimeField(2), PrimeField(3), PrimeField(7), PrimeField(32003), Q]
field_index = st.integers(0, len(FIELDS) - 1)


def coefficients(field):
    """Zero, and over Q rationals with denominators; over GF(p) canonical
    residues and residues outside range(p)."""
    if field.size is None:
        value = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
    else:
        value = st.one_of(st.integers(0, field.size - 1),
                          st.integers(-3 * field.size, 3 * field.size))
    return st.one_of(st.just(field.zero), value)


@st.composite
def factors(draw, field, nvars):
    """0-5 factors of degree 0-3, each a random subset of the monomials of
    its degree with random coefficients, zeros included."""
    out = []
    for _ in range(draw(st.integers(0, 5))):
        degree = draw(st.integers(0, 3))
        monos = monomials_of_degree(nvars, degree,
                                    MonomialOrder.default(nvars))
        chosen = draw(st.lists(st.sampled_from(monos), unique=True,
                               max_size=len(monos)))
        out.append((degree, [(m, draw(coefficients(field)))
                             for m in chosen]))
    return out


def canonical(coeffs, field):
    if field.size is None:
        return all(type(c) is Fraction for c in coeffs)
    return all(type(c) is int and 0 < c < field.size for c in coeffs)


@given(field_index, st.integers(1, 4), st.data())
def test_multiply_terms_matches_the_pairwise_product(fi, nvars, data):
    field = FIELDS[fi]
    drawn = data.draw(factors(field, nvars))
    forms = [Form(field, nvars, d,
                  {m: field.from_int(c) if field.size else c
                   for m, c in terms})
             for d, terms in drawn]
    one = monomial(field, nvars, mono_one(nvars))
    want = reduce(form_mul, forms, one)
    got = multiply_terms([terms for _, terms in drawn], nvars, field)
    assert got == want.terms
    assert canonical(got.values(), field)
    assert reduce(Form.__mul__, forms, one) == want


@pytest.mark.parametrize("field,text,want", [
    (PrimeField(2), "(x + y)*(x + y)", "x^2 + y^2"),
    (PrimeField(3), "(x + y)*(x + y)*(x + y)", "x^3 + y^3"),
    (Q, "(x - y)*(x + y)", "x^2 - y^2"),
    (Q, "(1/2*x + 1/3*y)*(1/2*x - 1/3*y)", "1/4*x^2 - 1/9*y^2"),
    (Q, "(x + y)*(x - y)*(x^2 + y^2)", "x^4 - y^4"),
    (PrimeField(7), "(x + y)*(x + 6*y)", "x^2 + 6*y^2"),
])
def test_cancelling_terms_are_dropped(field, text, want):
    names = ("x", "y")
    forms = [parse_form(part.strip("()"), names, field)
             for part in text.split(")*(")]
    got = multiply_terms([g.terms.items() for g in forms], 2, field)
    assert got == parse_form(want, names, field).terms
    assert canonical(got.values(), field)


def test_empty_products_and_zero_factors():
    for field in FIELDS:
        assert multiply_terms([], 3, field) == {(0, 0, 0): field.one}
        x = [((1, 0), field.one)]
        assert multiply_terms([x, []], 2, field) == {}
        assert multiply_terms([x, [((0, 1), field.zero)]], 2, field) == {}


@st.composite
def point_sets(draw, field):
    """1-8 distinct points of P^1-P^3 with coordinates biased to zero, so
    that many lie on coordinate hyperplanes."""
    width = draw(st.integers(2, 4))
    if field.size is None:
        value = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    else:
        value = st.integers(0, field.size - 1)
    coord = st.one_of(st.just(field.zero), st.just(field.one), value)
    raw = draw(st.lists(st.lists(coord, min_size=width, max_size=width),
                        min_size=1, max_size=8))
    reps = {}
    for pt in raw:
        rep = normalize_vector(pt, field)
        if rep is not None:
            reps.setdefault(tuple(rep), pt)
    if not reps:
        reps[()] = [field.one] + [field.zero] * (width - 1)
    return normalize(list(reps.values()), field)


@given(field_index, st.data())
def test_separators_match_the_pairwise_construction(fi, data):
    field = FIELDS[fi]
    P = data.draw(point_sets(field))
    for scaled in (False, True):
        assert (separators(P, scaled=scaled)
                == points_oracle.separators(P, scaled=scaled))


def test_separators_on_coordinate_hyperplanes():
    """Points where p_i is zero at the first coordinate that separates it
    from p_j, with p_j zero at p_i's leading one: that factor S_ij has a
    zero coefficient, and Q_i is still the pairwise construction."""
    for field in (PrimeField(7), Q):
        raw = [[0, 1, 0], [1, 0, 0], [0, 0, 1], [1, 1, 0], [0, 1, 1],
               [1, 0, 3]]
        P = normalize([[field.from_int(c) for c in pt] for pt in raw], field)
        for scaled in (False, True):
            assert (separators(P, scaled=scaled)
                    == points_oracle.separators(P, scaled=scaled))


def random_points(field, m, rng):
    """m distinct points of P^2, coordinates uniform over GF(p) or in
    [-5, 5] over Q."""
    while True:
        raw = [[field.from_int(rng.randint(-5, 5)) if field.size is None
                else rng.randrange(field.size) for _ in range(3)]
               for _ in range(m)]
        try:
            return normalize(raw, field)
        except (DuplicatePoint, ZeroPoint):
            continue


@pytest.mark.parametrize("field,m", [(PrimeField(32003), 11), (Q, 8)],
                         ids=["GF(32003)-11", "Q-8"])
def test_separators_make_no_scalar_arithmetic(field, m, monkeypatch):
    """The forms built on linalg's kernels call none of the field's add, sub
    and mul: separators, also scaled, a power of a form, and the expansion
    of a fast normal form. Each agrees with its per-scalar oracle."""
    P = random_points(field, m, random.Random(11))
    I = vanishing_ideal(P)
    t = build_triplet(I)
    res = fast_normal_form(monomial(field, 3, (7, 3, 2)), I, t)
    l = Form.linear(field, [field.from_int(c) for c in (2, -3, 5)])
    runs = {"separators": lambda: separators(P),
            "scaled": lambda: separators(P, scaled=True),
            "power": lambda: l.power(13),
            "form": lambda: res.form}
    calls = {}
    cls = type(field)
    for name in ("add", "sub", "mul"):
        def counted(*args, _fn=getattr(cls, name), _name=name):
            calls.setdefault(case, set()).add(_name)
            return _fn(*args)
        monkeypatch.setattr(cls, name, counted)
    got = {}
    for case, run in runs.items():
        got[case] = run()
    monkeypatch.undo()
    assert calls == {}
    assert got == {"separators": points_oracle.separators(P),
                   "scaled": points_oracle.separators(P, scaled=True),
                   "power": nf_oracle.power_by_multiplication(l, 13),
                   "form": nf_oracle.expand(res.coords, res.k, t)}
