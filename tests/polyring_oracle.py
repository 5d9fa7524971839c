"""The form product that projzero used before products moved into
linalg's `multiply_terms`: one field multiply-add per pair of terms. Kept
as the oracle of the kernel's differential tests, with `variable`, the
form x_i, which src no longer needs.
"""

from projzero.polyring import Form, mono_mul


def variable(field, nvars, i):
    """The linear form x_i."""
    e = [0] * nvars
    e[i] = 1
    return Form.monomial(field, nvars, tuple(e))


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
