"""The normal-form schedule and expansion that projzero used before its fast
normal form stopped expanding: the coordinate row is pushed up by one matrix
product per unit of exponent, and sum c_i l^k e_i is expanded with l^k built
by k successive multiplications. Kept as the oracle of the differential
tests in test_nf.py and test_triplet.py.
"""

from projzero.linalg import vec_matmul
from projzero.polyring import Form, mono_one
from projzero.triplet import _split_monomial
from tests.rref_oracle import standard_coords


def power_by_multiplication(form, e):
    """form^e by e successive multiplications."""
    result = Form.monomial(form.field, form.nvars, mono_one(form.nvars))
    for _ in range(e):
        result = result * form
    return result


def linear_push(f, I, triplet):
    """Coordinates of nf(f) in {l^k e_i}, one matrix product per step, with
    nf of each tail reduced in I's degree-d piece."""
    field = f.field
    piece_d = I.piece(triplet.d)
    pos_of_basis = {mono: i for i, mono in enumerate(triplet.E_monomials)}
    total = [field.zero] * triplet.size
    for mono, coeff in f.terms.items():
        a, b = _split_monomial(mono, triplet.d, I.order)
        nf_b = standard_coords(Form.monomial(field, f.nvars, b), piece_d)
        row = [field.zero] * triplet.size
        for s, c in zip(piece_d.standard_monomials, nf_b):
            if not field.is_zero(c):
                row[pos_of_basis[s]] = c
        for j, e in enumerate(a):
            for _ in range(e):
                row = vec_matmul(row, triplet.A[j])
        total = [field.add(t, field.mul(coeff, r)) for t, r in zip(total, row)]
    return total


def expand(coords, k, triplet):
    """sum_i c_i l^k e_i, with l^k by k successive multiplications."""
    field = triplet.l.field
    lk = power_by_multiplication(triplet.l, k)
    rep = Form.zero(field, triplet.l.nvars, triplet.d + k)
    for c, e in zip(coords, triplet.E_monomials):
        if not field.is_zero(c):
            rep = rep + (lk * Form.monomial(field, triplet.l.nvars, e)).scale(c)
    return rep
