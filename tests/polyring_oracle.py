"""The per-scalar form arithmetic that projzero used before every product
and power of forms moved into linalg's `multiply_terms`: one field
multiply-add per pair of terms, and sums and scalings one field call per
term. `form_mul` is the oracle of the kernel's differential tests; the rest
builds the forms that tests compare against, which src no longer needs.
"""

from projzero.errors import NotHomogeneous
from projzero.polyring import Form, mono_degree, mono_mul


def zero(field, nvars, degree):
    """The zero form of the given degree."""
    return Form(field, nvars, degree, {})


def monomial(field, nvars, mono, coeff=None):
    """coeff * mono, with coeff 1 by default."""
    c = field.one if coeff is None else coeff
    return Form(field, nvars, mono_degree(mono), {mono: c})


def variable(field, nvars, i):
    """The linear form x_i."""
    e = [0] * nvars
    e[i] = 1
    return monomial(field, nvars, tuple(e))


def form_add(a, b):
    """a + b, one field addition per shared monomial; a zero form adds to a
    form of any degree."""
    if a.field != b.field or a.nvars != b.nvars:
        raise ValueError("forms over different rings")
    if a.is_zero():
        return b
    if b.is_zero():
        return a
    if a.degree != b.degree:
        raise NotHomogeneous("sum of forms of different degrees")
    f = a.field
    terms = dict(a.terms)
    for m, c in b.terms.items():
        terms[m] = f.add(terms.get(m, f.zero), c)
    return Form(f, a.nvars, a.degree, terms)


def form_sub(a, b):
    """a - b."""
    return form_add(a, form_scale(b, a.field.neg(a.field.one)))


def form_scale(a, c):
    """c * a, one field multiplication per term."""
    f = a.field
    return Form(f, a.nvars, a.degree,
                {m: f.mul(c, v) for m, v in a.terms.items()})


def form_mul(a, b):
    """a * b, one field multiply and add per pair of terms."""
    f = a.field
    terms = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            m = mono_mul(m1, m2)
            prod = f.mul(c1, c2)
            if m in terms:
                terms[m] = f.add(terms[m], prod)
            else:
                terms[m] = prod
    return Form(f, a.nvars, a.degree + b.degree, terms)

