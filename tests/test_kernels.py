"""The field-specialised kernels of linalg and quotient against the
per-scalar oracle in tests/rref_oracle.py: elimination, kernel, inverse,
char polys, matrix products, linear combinations, sums,
differences and scalings of matrices, entrywise products, eigenspaces,
Macaulay reduction and evaluation of forms. Over GF(p) the kernels take
residues outside range(p) and must still return canonical ones."""

import copy
import random
from fractions import Fraction
from itertools import repeat
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from projzero import (Form, Matrix, ProjzeroError, char_poly, ideal_piece,
                      kernel, normal_form_by_degree, rref)
from projzero.cli import parse_ideal_file
from projzero.fields import PrimeField, RationalField
from projzero import linalg
from projzero.linalg import (_rref_rows, eigenspace, entrywise,
                             evaluate_terms, linear_combination,
                             normalize_vector, vec_matmul)
from projzero.polyring import MonomialOrder, monomials_of_degree
from projzero.quotient import IdealPresentation, macaulay_rows, standard_coords
from tests import rref_oracle as oracle

FIELDS = [PrimeField(2), PrimeField(3), PrimeField(32003),
          PrimeField(2**31 - 1), RationalField()]
DATA = Path(__file__).resolve().parent.parent / "data"


def scalars(field):
    """Entries biased towards zero, so that rows and columns vanish and
    pivots are sparse."""
    if field.size is None:
        value = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
    else:
        value = st.integers(0, field.size - 1)
    return st.one_of(st.just(field.zero), value)


@st.composite
def matrices(draw, field, nrows=None, ncols=None):
    """A matrix of 0-7 rows and 0-7 columns; half of them are products
    C B through an inner dimension below both sides, so rank-deficient."""
    if nrows is None:
        nrows = draw(st.integers(0, 7))
    if ncols is None:
        ncols = draw(st.integers(0, 7))
    entry = scalars(field)

    def block(r, c):
        return Matrix(field, [[draw(entry) for _ in range(c)]
                              for _ in range(r)], ncols=c)

    if draw(st.booleans()):
        return block(nrows, ncols)
    k = draw(st.integers(0, max(0, min(nrows, ncols) - 1)))
    return oracle.matmul(block(nrows, k), block(k, ncols))


field_index = st.integers(0, len(FIELDS) - 1)


@given(field_index, st.data())
def test_rref_matches_oracle(fi, data):
    field = FIELDS[fi]
    M = data.draw(matrices(field))
    before = copy.deepcopy(M.rows)
    rows, rank, pivots = _rref_rows(M.rows, field)
    want_rows, want_rank, want_pivots = oracle.rref_rows(M.copy_rows(), field)
    assert (rows, rank, pivots) == (want_rows, want_rank, want_pivots)
    R, rank2, pivots2 = rref(M)
    assert (R.rows, rank2, pivots2) == (want_rows, want_rank, want_pivots)
    assert M.rows == before


@given(field_index, st.data())
def test_kernel_leaves_input_unchanged(fi, data):
    field = FIELDS[fi]
    M = data.draw(matrices(field))
    before = copy.deepcopy(M.rows)
    null = kernel(M)
    assert len(null) == M.ncols - oracle.rref_rows(M.copy_rows(), field)[1]
    for v in null:
        assert not any(vec_matmul(v, M.transpose()))
    assert M.rows == before


@given(field_index, st.integers(0, 6), st.data())
def test_inverse_matches_oracle(fi, n, data):
    field = FIELDS[fi]
    M = data.draw(matrices(field, n, n))
    before = copy.deepcopy(M.rows)
    aug = [r + [field.one if i == j else field.zero for j in range(n)]
           for i, r in enumerate(M.copy_rows())]
    red, _, pivots = oracle.rref_rows(aug, field)
    if pivots != list(range(n)):  # some pivot of [M | I] lies in I
        with pytest.raises(ProjzeroError):
            M.inverse()
    else:
        inv = M.inverse()
        assert inv.rows == [r[n:] for r in red]
        assert M @ inv == Matrix.identity(field, n)
    assert M.rows == before


@given(field_index, st.integers(0, 7), st.data())
def test_char_poly_matches_oracle(fi, n, data):
    field = FIELDS[fi]
    M = data.draw(matrices(field, n, n))
    before = copy.deepcopy(M.rows)
    assert char_poly(M) == oracle.char_poly(M)
    assert M.rows == before


@given(field_index, st.integers(0, 5), st.integers(0, 5), st.integers(0, 5),
       st.data())
def test_matmul_matches_oracle(fi, a, b, c, data):
    field = FIELDS[fi]
    A = data.draw(matrices(field, a, b))
    B = data.draw(matrices(field, b, c))
    assert (A @ B).rows == oracle.matmul(A, B).rows
    for row in A.rows:
        assert vec_matmul(row, B) == oracle.vec_matmul(row, B)


@given(field_index, st.integers(1, 4), st.integers(0, 5), st.integers(0, 5),
       st.data())
def test_linear_combination_matches_oracle(fi, k, a, b, data):
    field = FIELDS[fi]
    mats = [data.draw(matrices(field, a, b)) for _ in range(k)]
    coeffs = data.draw(st.lists(scalars(field), min_size=k, max_size=k))
    assert linear_combination(coeffs, mats) \
        == oracle.linear_combination(coeffs, mats)


@pytest.mark.parametrize("field", [PrimeField(3), PrimeField(32003)],
                         ids=str)
def test_rref_reduces_noncanonical_residues(field):
    p = field.size
    rows = [[p, 1, 2 * p + 1], [p - 1, 3 * p, -1], [2, -p, 1]]
    canonical = Matrix(field, [[v % p for v in r] for r in rows])
    assert _rref_rows(rows, field) \
        == oracle.rref_rows(canonical.copy_rows(), field)
    assert char_poly(Matrix(field, rows)) == oracle.char_poly(canonical)


@pytest.mark.parametrize("name,degree", [
    ("three_quadrics", 4), ("line_and_double_point", 5),
    ("single_point_embedded", 3), ("three_quadrics_p31", 3),
    ("monomial_false_point", 3)])
@given(data=st.data())
def test_normal_form_matches_oracle(name, degree, data):
    I = parse_ideal_file((DATA / f"{name}.ideal").read_text())
    piece = ideal_piece(I, degree, I.order)
    monos = monomials_of_degree(I.nvars, degree, I.order)
    coeffs = data.draw(st.lists(scalars(I.field), min_size=len(monos),
                                max_size=len(monos)))
    f = Form(I.field, I.nvars, degree,
             dict(zip(monos, coeffs)))
    want = oracle.normal_form_coeffs(oracle.coeff_vector(f, piece.monomials),
                                     piece, I.field)
    assert oracle.coeff_vector(normal_form_by_degree(f, piece),
                               piece.monomials) == want
    index = {m: i for i, m in enumerate(piece.monomials)}
    assert standard_coords(f, piece) \
        == [want[index[s]] for s in piece.standard_monomials]


Q = RationalField()


# Over Q the product kernels clear denominators per vector and multiply
# integer numerators; these entries make that clearing do real work.
def rationals():
    """Zero, negative values, large numerators, and denominators that are
    small, shared (powers and multiples of 2, 3 and 5), large primes or
    arbitrary and large, so common denominators are coprime or overlap."""
    num = st.one_of(st.integers(-9, 9), st.integers(-10**30, 10**30))
    den = st.one_of(st.integers(1, 6),
                    st.sampled_from([12, 30, 2**64, 3**40, 5**20 * 6,
                                     2**61 - 1, 10**18 + 3]),
                    st.integers(1, 10**25))
    return st.one_of(st.just(Q.zero), st.builds(Fraction, num, den))


@st.composite
def q_matrices(draw, nrows, ncols):
    return Matrix(Q, [[draw(rationals()) for _ in range(ncols)]
                      for _ in range(nrows)], ncols=ncols)


shapes = st.integers(0, 5)


@given(shapes, shapes, shapes, st.data())
def test_q_products_match_oracle(a, b, c, data):
    """Non-square, empty and 1x1 shapes, zero rows and columns."""
    A = data.draw(q_matrices(a, b))
    B = data.draw(q_matrices(b, c))
    before = (copy.deepcopy(A.rows), copy.deepcopy(B.rows))
    assert (A @ B).rows == oracle.matmul(A, B).rows
    for row in A.rows:
        assert vec_matmul(row, B) == oracle.vec_matmul(row, B)
    assert (A.rows, B.rows) == before


@given(st.integers(1, 4), shapes, shapes, st.data())
def test_q_linear_combination_matches_oracle(k, a, b, data):
    mats = [data.draw(q_matrices(a, b)) for _ in range(k)]
    coeffs = data.draw(st.lists(rationals(), min_size=k, max_size=k))
    before = copy.deepcopy(([M.rows for M in mats], coeffs))
    assert linear_combination(coeffs, mats) \
        == oracle.linear_combination(coeffs, mats)
    assert ([M.rows for M in mats], coeffs) == before


@given(st.integers(0, 3), st.integers(0, 64), st.data())
def test_q_mat_pow_matches_repeated_products(n, e, data):
    M = data.draw(q_matrices(n, n))
    before = copy.deepcopy(M.rows)
    assert M.mat_pow(e) == oracle.mat_pow(M, e)
    assert M.rows == before


def test_mat_pow_of_an_idempotent_keeps_its_size(main_triplet, monkeypatch):
    """A_x of the three quadrics with l = y + z is idempotent (x/l is 0, 1,
    1 at the three points) and has denominator 2; the content reduction keeps
    that denominator through every product, where without it the e'th power
    would carry 2^e."""
    A_x = main_triplet.A[0]
    assert A_x @ A_x == A_x
    denominators = []
    zmatmul = linalg._zmatmul

    def recording(a, b):
        n, d = zmatmul(a, b)
        denominators.append(d)
        return n, d

    monkeypatch.setattr(linalg, "_zmatmul", recording)
    assert A_x.mat_pow(10**6) == A_x
    assert set(denominators) == {2}


def test_q_mat_pow_does_no_fraction_arithmetic(monkeypatch):
    M = Matrix(Q, [[Fraction(1, 2), Fraction(-1, 3), Q.zero],
                   [Fraction(2, 5), Q.one, Fraction(1, 7)],
                   [Fraction(-3), Fraction(5, 6), Fraction(1, 4)]])
    want = oracle.mat_pow(M, 600)

    def refuse(*args):
        raise AssertionError("Fraction arithmetic inside mat_pow")

    with monkeypatch.context() as patch:
        for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
            patch.setattr(Fraction, name, refuse)
        got = M.mat_pow(600)
    assert got == want


# Over Q the elimination is fraction-free on integer rows; these entries
# make the cleared rows long and their contents nontrivial.
def tall_rationals():
    return st.one_of(st.just(Q.zero),
                     st.builds(Fraction, st.integers(-10**12, 10**12),
                               st.integers(1, 10**6)))


@given(st.integers(0, 7), st.integers(0, 7), st.data())
def test_q_rref_of_tall_entries_matches_oracle(nrows, ncols, data):
    entry = tall_rationals()
    block = [[data.draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    if nrows and ncols and data.draw(st.booleans()):
        # rank-deficient: rows are combinations of the first two
        coeffs = st.lists(entry, min_size=2, max_size=2)
        block = block[:2] + [
            [a * x + b * y for x, y in zip(*block[:2])]
            for a, b in (data.draw(coeffs) for _ in block[2:])]
    before = copy.deepcopy(block)
    rows, rank, pivots = _rref_rows(block, Q)
    want = oracle.rref_rows(copy.deepcopy(block), Q)
    assert block == before
    assert (rank, pivots) == want[1:]
    assert len(rows) == nrows
    for got, expect in zip(rows, want[0]):
        assert got == expect
        assert all(type(v) is Fraction for v in got)


def test_q_rref_of_a_complete_intersection_piece():
    """The degree-5 piece of a (2,2,2) complete intersection in P^3 over Q
    with coefficients in [-3, 3]: 60 x 56, rank 48."""
    rng = random.Random(1)
    order = MonomialOrder.default(4)
    quadrics = monomials_of_degree(4, 2, order)
    gens = [Form(Q, 4, 2, {m: Fraction(rng.randint(-3, 3)) for m in quadrics})
            for _ in range(3)]
    I = IdealPresentation(field=Q, vars=("x", "y", "z", "w"), generators=gens)
    monos = monomials_of_degree(4, 5, order)
    rows = macaulay_rows(I, 5, monos, order)
    got = _rref_rows(rows, Q)
    want = oracle.rref_rows(copy.deepcopy(rows), Q)
    assert got == want
    assert (len(rows), len(monos), got[1]) == (60, 56, 48)


@given(field_index, st.integers(1, 4), st.integers(0, 5), st.data())
def test_evaluate_matches_oracle(fi, nvars, degree, data):
    """Form.evaluate against the per-scalar evaluation, value and type,
    with zero coordinates and, over GF(p), residues outside range(p)."""
    field = FIELDS[fi]
    monos = monomials_of_degree(nvars, degree, MonomialOrder.default(nvars))
    if field.size is None:
        entry = rationals()
    else:
        entry = st.one_of(scalars(field), st.integers(-3 * field.size,
                                                      3 * field.size))
    coeffs = data.draw(st.lists(entry, min_size=len(monos),
                                max_size=len(monos)))
    g = Form(field, nvars, degree, dict(zip(monos, coeffs)))
    rep = data.draw(st.lists(entry, min_size=nvars, max_size=nvars))
    got = g.evaluate(rep)
    want = oracle.evaluate(g, rep)
    assert got == want and type(got) is type(want)
    assert evaluate_terms(g.terms, degree, rep, field) == want
    assert canonical([got], field)


def residues(field):
    """Entries as `scalars` draws them and, over GF(p), residues outside
    range(p), which the kernels take as they come."""
    if field.size is None:
        return scalars(field)
    return st.one_of(scalars(field),
                     st.integers(-3 * field.size, 3 * field.size))


def canonical(values, field):
    if field.size is None:
        return all(type(v) is Fraction for v in values)
    return all(type(v) is int and 0 <= v < field.size for v in values)


@st.composite
def raw_matrices(draw, field, nrows, ncols):
    return Matrix(field, [[draw(residues(field)) for _ in range(ncols)]
                          for _ in range(nrows)], ncols=ncols)


def entries(M):
    return [v for r in M.rows for v in r]


@given(field_index, st.integers(0, 6), st.data())
def test_entrywise_matches_oracle(fi, n, data):
    field = FIELDS[fi]
    vector = st.lists(residues(field), min_size=n, max_size=n)
    u, v = data.draw(vector), data.draw(vector)
    c = data.draw(residues(field))
    got = entrywise(u, v, field)
    assert got == oracle.entrywise(u, v, field) and canonical(got, field)
    scaled = entrywise(repeat(c), v, field)
    assert scaled == oracle.entrywise([c] * n, v, field)
    assert canonical(scaled, field)


@given(field_index, shapes, shapes, st.data())
def test_scale_sum_and_difference_match_oracle(fi, a, b, data):
    field = FIELDS[fi]
    A = data.draw(raw_matrices(field, a, b))
    B = data.draw(raw_matrices(field, a, b))
    c = data.draw(residues(field))
    before = copy.deepcopy((A.rows, B.rows))
    for got, want in [(A.scale(c), oracle.scale(A, c)),
                      (A + B, oracle.add(A, B)), (A - B, oracle.sub(A, B))]:
        assert got == want and canonical(entries(got), field)
    assert (A.rows, B.rows) == before


@given(field_index, st.integers(1, 4), shapes, shapes, st.data())
def test_linear_combination_of_raw_residues(fi, k, a, b, data):
    field = FIELDS[fi]
    mats = [data.draw(raw_matrices(field, a, b)) for _ in range(k)]
    coeffs = data.draw(st.lists(residues(field), min_size=k, max_size=k))
    got = linear_combination(coeffs, mats)
    assert got == oracle.linear_combination(coeffs, mats)
    assert canonical(entries(got), field)


@given(field_index, shapes, shapes, shapes, st.data())
def test_a_kept_right_factor_gives_the_fresh_product(fi, a, b, c, data):
    """B keeps its columns from its first product; a second product with
    B, as a matrix or row by row, equals the one on a fresh copy of B."""
    field = FIELDS[fi]
    A1 = data.draw(raw_matrices(field, a, b))
    A2 = data.draw(raw_matrices(field, a, b))
    B = data.draw(raw_matrices(field, b, c))
    before = copy.deepcopy(B.rows)
    first = A1 @ B
    second = A2 @ B
    assert first == A1 @ Matrix(field, B.rows, ncols=c)
    assert second == A2 @ Matrix(field, B.rows, ncols=c)
    assert second.rows == oracle.matmul(A2, B).rows
    assert canonical(entries(first) + entries(second), field)
    for row in A2.rows:
        got = vec_matmul(row, B)
        assert got == vec_matmul(row, Matrix(field, B.rows, ncols=c))
        assert got == oracle.vec_matmul(row, B)
    assert B.rows == before


@given(field_index, st.integers(0, 5), st.data())
def test_kernel_eigenspace_and_normalize_match_oracle(fi, n, data):
    field = FIELDS[fi]
    M = data.draw(raw_matrices(field, n, n))
    lam = data.draw(residues(field))
    for got, want in [(kernel(M), oracle.kernel(M)),
                      (eigenspace(M, lam), oracle.eigenspace(M, lam))]:
        assert got == want
        assert all(canonical(v, field) for v in got)
    v = data.draw(st.lists(residues(field), min_size=n, max_size=n))
    got = normalize_vector(v, field)
    assert got == oracle.normalize_vector(v, field)
    assert got is None or canonical(got, field)
