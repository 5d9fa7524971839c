"""Form.power on linalg's `multiply_terms` and the coordinates-only fast
normal form, against the per-scalar successive-multiplication oracle in
tests/nf_oracle.py."""

from hypothesis import given, strategies as st

from projzero import Form, fast_normal_form
from projzero.fields import PrimeField, RationalField
from tests import nf_oracle
from tests.polyring_oracle import form_add, monomial, variable, zero

FIELDS = [RationalField(), PrimeField(2), PrimeField(3), PrimeField(7),
          PrimeField(32003)]
# past 3p for p = 2, 3, 7, so multinomial coefficients divisible by p occur
MAX_EXP = 24


@st.composite
def linear_forms(draw):
    field = draw(st.sampled_from(FIELDS))
    nvars = draw(st.integers(1, 3))
    support = draw(st.lists(st.integers(0, nvars - 1), min_size=1,
                            max_size=nvars, unique=True))
    terms = {}
    for i in support:
        c = field.from_int(draw(st.integers(-40, 40).filter(
            lambda v: not field.is_zero(field.from_int(v)))))
        terms[tuple(int(k == i) for k in range(nvars))] = c
    return Form(field, nvars, 1, terms)


@given(linear_forms(), st.integers(0, MAX_EXP))
def test_power_of_linear_form_matches_multiplication(l, e):
    assert l.power(e) == nf_oracle.power_by_multiplication(l, e)


@given(st.sampled_from(FIELDS), st.integers(1, 4), st.data(),
       st.integers(0, MAX_EXP))
def test_power_of_variable_matches_multiplication(field, nvars, data, e):
    x = variable(field, nvars, data.draw(st.integers(0, nvars - 1)))
    assert x.power(e) == nf_oracle.power_by_multiplication(x, e)


@given(st.sampled_from(FIELDS), st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(-5, 5)),
    min_size=1, max_size=4), st.integers(0, 5))
def test_power_of_quadric_matches_multiplication(field, entries, e):
    # distinct compositions meet on one monomial, and their sum may vanish
    terms = {}
    for i, j, c in entries:
        mono = tuple((k == i) + (k == j) for k in range(3))
        terms[mono] = field.add(terms.get(mono, field.zero), field.from_int(c))
    q = Form(field, 3, 2, terms)
    assert q.power(e) == nf_oracle.power_by_multiplication(q, e)


def test_power_frobenius_and_zero_form():
    for p in (2, 3, 7):
        F = PrimeField(p)
        x, y = variable(F, 2, 0), variable(F, 2, 1)
        s = form_add(x, y)
        assert s.power(p) == form_add(x.power(p), y.power(p))
        assert s.power(3 * p) == form_add(x.power(p), y.power(p)).power(3)
    z = zero(RationalField(), 2, 1)
    assert z.power(0) == monomial(RationalField(), 2, (0, 0))
    assert z.power(3) == zero(RationalField(), 2, 3)


@st.composite
def forms_above(draw, triplet, max_k):
    field, nvars = triplet.l.field, triplet.l.nvars
    degree = triplet.d + draw(st.integers(0, max_k))
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        cuts = sorted(draw(st.integers(0, degree)) for _ in range(nvars - 1))
        mono = tuple(b - a for a, b in zip([0] + cuts, cuts + [degree]))
        terms[mono] = field.from_int(draw(st.integers(-5, 5)))
    return Form(field, nvars, degree, terms)


@given(st.data())
def test_fast_normal_form_matches_oracle_main(main_ideal, main_triplet, data):
    f = data.draw(forms_above(main_triplet, 12))
    res = fast_normal_form(f, main_ideal, main_triplet)
    assert res.coords == nf_oracle.linear_push(f, main_ideal, main_triplet)
    assert res.form == nf_oracle.expand(res.coords, res.k, main_triplet)


@given(st.data())
def test_fast_normal_form_matches_oracle_mixed(mixed_2var_ideal,
                                              mixed_2var_triplet, data):
    f = data.draw(forms_above(mixed_2var_triplet, 12))
    res = fast_normal_form(f, mixed_2var_ideal, mixed_2var_triplet)
    assert res.coords == nf_oracle.linear_push(f, mixed_2var_ideal,
                                               mixed_2var_triplet)
    assert res.form == nf_oracle.expand(res.coords, res.k, mixed_2var_triplet)

