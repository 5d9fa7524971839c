import random
from fractions import Fraction

import pytest

from projzero import (Matrix, MonomialOrder, ProjPointSet, bm_triplet,
                      c_matrix, char_poly, hilbert_scan, ideal_piece,
                      normalize, nzd_sweep, parse_form, roots_in_field,
                      separators, vanishing_ideal)
from projzero.errors import DuplicatePoint, FieldTooSmall, ZeroPoint
from projzero.fields import PrimeField, RationalField
from projzero.linalg import vec_matmul
from tests.eigen_oracle import eigenpoints_from_matrices
from tests.points_oracle import eval_normal_form
from tests.polyring_oracle import (form_add, form_scale, monomial, variable,
                                   zero)
from tests.rref_oracle import solve_in_rowspace
from tests.triplet_oracle import normalized_linear_forms

Q = RationalField()
GF7 = PrimeField(7)
XYZ = ("x", "y", "z")


def qpts(rows):
    return normalize([[Fraction(c) for c in r] for r in rows], Q)


def test_normalize_scales_first_nonzero():
    P = qpts([[0, 2, 5]])
    assert P.reps[0] == [0, 1, Fraction(5, 2)]
    assert P.first_one == [1]


def test_normalize_keeps_normalized_points():
    P = qpts([[1, 1, 0]])
    assert P.reps[0] == [1, 1, 0] and P.first_one == [0]


def test_normalize_detects_duplicates_and_zero():
    with pytest.raises(DuplicatePoint):
        qpts([[2, 4], [1, 2]])
    with pytest.raises(ZeroPoint):
        qpts([[0, 0, 0]])


def test_project_variables_general_position():
    """No coordinate is a linear combination of the others on P, so none is
    a degree-1 initial."""
    P = qpts([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])
    _, B, initials = bm_triplet(P)
    assert B[1] == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert all(sum(u) == 2 for u in initials)


def test_project_variables_hyperplane():
    """x2 = x0 + x1 on P: x2 is a degree-1 initial and A_2 = A_0 + A_1."""
    P = qpts([[1, 0, 1], [0, 1, 1], [1, 1, 2], [1, 2, 3]])
    t, _, initials = bm_triplet(P)
    assert initials[0] == (0, 0, 1)
    assert t.A[2] == t.A[0] + t.A[1]


def test_nzd_sweep_z3_example():
    Z3 = PrimeField(3)
    P = normalize([[1, 2, 2], [1, 2, 1], [1, 1, 1]], Z3)
    l = nzd_sweep(P)
    assert set(l.terms.keys()) == {(1, 0, 0)}  # a scalar multiple of x_0
    assert all(not Z3.is_zero(l.evaluate(r)) for r in P.reps)


def test_nzd_sweep_six_points(six_points):
    l = nzd_sweep(six_points)
    assert all(not Q.is_zero(l.evaluate(r)) for r in six_points.reps)
    y = variable(Q, 3, 1)
    assert all(not Q.is_zero(y.evaluate(r)) for r in six_points.reps)


def test_nzd_sweep_field_too_small():
    GF2 = PrimeField(2)
    P = normalize([[1, 0], [1, 1], [0, 1]], GF2)
    with pytest.raises(FieldTooSmall):
        nzd_sweep(P)
    # exhaustive confirmation: every normalized linear form vanishes somewhere
    for l in normalized_linear_forms(GF2, 2):
        assert any(GF2.is_zero(l.evaluate(r)) for r in P.reps)


def test_nzd_sweep_sweep_path():
    # force the correction branch: x0 vanishes on the second point
    P = qpts([[1, 0], [0, 1], [1, 1]])
    l = nzd_sweep(P)
    assert all(not Q.is_zero(l.evaluate(r)) for r in P.reps)


def test_bm_triplet_six_points(six_points):
    t, B, initials = bm_triplet(six_points, MonomialOrder.default(3),
                                l=variable(Q, 3, 1))
    assert [len(b) for b in B] == [1, 3, 6] and t.d == 2
    assert set(B[1]) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    assert set(B[2]) == {(0, 0, 2), (0, 1, 1), (1, 0, 1), (0, 2, 0),
                         (1, 1, 0), (2, 0, 0)}
    assert t.E_monomials == B[2]
    assert initials == []
    A_x, A_y, A_z = t.A
    assert A_y == Matrix.identity(Q, 6)
    eig_x = roots_in_field(char_poly(A_x), Q)
    assert dict(eig_x.pairs) == {Fraction(0): 2, Fraction(1, 3): 1,
                                 Fraction(4, 3): 1, Fraction(2, 5): 1,
                                 Fraction(1, 4): 1}
    eig_z = roots_in_field(char_poly(A_z), Q)
    assert dict(eig_z.pairs) == {Fraction(5, 2): 1, Fraction(2): 1,
                                 Fraction(1, 3): 1, Fraction(4, 3): 1,
                                 Fraction(4, 5): 1, Fraction(1): 1}


def test_bm_triplet_single_point():
    t, B, _ = bm_triplet(qpts([[1, 0, 0]]))
    assert [len(b) for b in B] == [1] and t.d == 0
    pts = eigenpoints_from_matrices(t.A)
    assert [tuple(ep.point) for ep in pts] == [(1, 0, 0)]


def test_bm_triplet_round_trip_gf7():
    P = normalize([[1, 2, 3], [1, 0, 6], [0, 1, 5], [1, 1, 1]], GF7)
    t, _, _ = bm_triplet(P)
    got = sorted(tuple(ep.point) for ep in eigenpoints_from_matrices(t.A))
    assert got == sorted(tuple(r) for r in P.reps)


def test_bm_matrices_commute(six_points):
    t, _, _ = bm_triplet(six_points)
    for i in range(3):
        for j in range(3):
            assert (t.A[i] @ t.A[j]) == (t.A[j] @ t.A[i])


SIX_POINT_NF_COEFFS = {
    "y^4*z^2": Fraction(17527852333, 117612000),
    "y^5*z": Fraction(-8111541583, 26136000),
    "x*y^4*z": Fraction(127511218609, 313632000),
    "y^6": Fraction(2083926583, 23522400),
    "x*y^5": Fraction(-11603225231, 470448000),
    "x^2*y^4": Fraction(-327280970021, 940896000),
}


def _expected_six_point_nf():
    acc = zero(Q, 3, 6)
    for s, c in SIX_POINT_NF_COEFFS.items():
        acc = form_add(acc, form_scale(parse_form(s, XYZ, Q), c))
    return acc


def test_eval_normal_form_exact_coefficients(six_points):
    basis = [parse_form(s, XYZ, Q) for s in SIX_POINT_NF_COEFFS]
    f = parse_form("x^6 + z^6", XYZ, Q)
    nf = eval_normal_form(f, six_points, basis)
    assert nf == _expected_six_point_nf()
    assert all(nf.evaluate(r) == f.evaluate(r) for r in six_points.reps)


def test_eval_normal_form_basis_element(six_points):
    basis = [parse_form(s, XYZ, Q) for s in SIX_POINT_NF_COEFFS]
    nf = eval_normal_form(basis[3], six_points, basis)
    assert nf == basis[3]


def test_eval_normal_form_rank_deficient(six_points):
    basis = [parse_form("y^6", XYZ, Q)] * 6
    with pytest.raises(ValueError, match="rank below 6"):
        eval_normal_form(parse_form("x^6", XYZ, Q), six_points, basis)


def test_eval_normal_form_matches_matrix_route(six_points):
    # push nf(x^2) and nf(z^2) four degrees up through the matrices
    t, _, _ = bm_triplet(six_points, MonomialOrder.default(3),
                         l=variable(Q, 3, 1))
    basis_monos = t.E_monomials
    y4 = variable(Q, 3, 1).power(4)
    basis6 = [y4 * monomial(Q, 3, m) for m in basis_monos]
    idx = {m: i for i, m in enumerate(basis_monos)}
    row_x = [Q.zero] * 6
    row_x[idx[(2, 0, 0)]] = Q.one           # nf(x^2) = x^2
    row_z = [Q.zero] * 6
    row_z[idx[(0, 0, 2)]] = Q.one           # nf(z^2) = z^2
    A_x, _, A_z = t.A
    out_x = vec_matmul(row_x, A_x.mat_pow(4))
    out_z = vec_matmul(row_z, A_z.mat_pow(4))
    acc = zero(Q, 3, 6)
    for c1, c2, b in zip(out_x, out_z, basis6):
        acc = form_add(acc, form_scale(b, Q.add(c1, c2)))
    assert acc == _expected_six_point_nf()


def test_c_matrix_partition_table():
    # affine prefix-grouping illustration: six vectors in Z^5
    vecs = [[1, 2, 0, 1, 1], [1, 0, 1, 1, 2], [1, 2, 0, 3, 3],
            [0, 0, 2, 0, 4], [0, 0, 2, 1, 5], [2, 1, 3, 1, 6]]
    vecs = [[Fraction(c) for c in v] for v in vecs]
    first = [next(i for i, x in enumerate(v) if x) for v in vecs]
    cm = c_matrix(ProjPointSet(field=Q, n=4, reps=vecs, first_one=first))
    c = cm.c

    def groups(h):
        # points i and j share the prefix up to h iff they first differ later
        return {frozenset(j for j in range(6) if j == i or c[i][j] > h)
                for i in range(6)}

    def partition(*blocks):
        return {frozenset(b) for b in blocks}

    assert groups(0) == partition([0, 1, 2], [3, 4], [5])
    assert groups(1) == partition([0, 2], [1], [3, 4], [5])
    assert groups(2) == partition([0, 2], [1], [3, 4], [5])
    assert groups(3) == partition([0], [2], [1], [3], [4], [5])
    assert cm.comparisons <= 4 * 6 + 36
    assert c[0][1] == 1 and c[0][2] == 3 and c[3][4] == 3 and c[0][5] == 0


def test_c_matrix_two_points():
    P = qpts([[1, 0], [0, 1]])
    cm = c_matrix(P)
    assert cm.c[0][1] == 0 and cm.comparisons == 1


def test_c_matrix_comparison_bound_random():
    rng = random.Random(37)
    for _ in range(30):
        m = rng.randint(2, 6)
        width = rng.randint(2, 8)
        pts = []
        while len(pts) < m:
            v = [Fraction(rng.randint(0, 2)) for _ in range(width)]
            if any(v) and v not in pts:
                pts.append(v)
        try:
            P = normalize(pts, Q)
        except DuplicatePoint:
            continue
        cm = c_matrix(P)
        assert cm.comparisons <= P.n * P.size + P.size ** 2


def test_separators_four_point_example():
    raw = [[1, 2, 0, 1, 1, 0, 3, 5], [1, 0, 1, 1, 2, 0, 3, 5],
           [1, 2, 0, 3, 3, 1, 2, 0], [0, 1, 1, 0, 2, 0, 1, 0]]
    P = qpts(raw)
    seps = separators(P)
    names = tuple(f"x{i + 1}" for i in range(8))
    expected = (parse_form("x2", names, Q) * parse_form("3*x1 - x4", names, Q)
                * parse_form("x1", names, Q))
    got = seps[0]
    # proportionality up to a nonzero scalar
    scale = None
    for m, c in got.terms.items():
        scale = Q.div(expected.terms[m], c)
        break
    assert scale is not None and not Q.is_zero(scale)
    assert form_scale(got, scale) == expected
    assert all(s.degree == 3 for s in seps)


def test_separators_two_points():
    P = qpts([[1, 0], [0, 1]])
    q1, q2 = separators(P)
    assert q1 == variable(Q, 2, 0)
    assert q2 == variable(Q, 2, 1)


def test_separators_random_vanishing_pattern():
    rng = random.Random(41)
    for _ in range(20):
        m = rng.randint(1, 6)
        pts = []
        while len(pts) < m:
            v = [Fraction(rng.randint(-2, 2)) for _ in range(3)]
            if any(v) and v not in pts:
                pts.append(v)
        try:
            P = normalize(pts, Q)
        except DuplicatePoint:
            continue
        seps = separators(P)
        for i in range(P.size):
            for j in range(P.size):
                val = seps[i].evaluate(P.reps[j])
                assert Q.is_zero(val) == (i != j)


def test_separators_scaled():
    P = qpts([[1, 1, 0], [1, 0, 1], [0, 1, 1]])
    for i, s in enumerate(separators(P, scaled=True)):
        assert s.evaluate(P.reps[i]) == 1


def test_separator_basis_claim(six_points):
    # separators of one degree times l^k evaluate to an invertible matrix
    seps = separators(six_points)
    l = nzd_sweep(six_points)
    for k in range(2):
        lk = l.power(k)
        M = Matrix(Q, [[(s * lk).evaluate(r) for r in six_points.reps]
                       for s in seps], ncols=6)
        assert M.rank() == 6


def test_vanishing_ideal_cross_engine(six_points):
    I = vanishing_ideal(six_points)
    order = MonomialOrder.default(3)
    _, B, _ = bm_triplet(six_points, order)
    quotient_hf = [ideal_piece(I, d, order).hf for d in range(len(B))]
    assert quotient_hf == [len(b) for b in B]
    for g in I.generators:
        assert all(Q.is_zero(g.evaluate(r)) for r in six_points.reps)


def test_vanishing_ideal_random_cross_engine():
    rng = random.Random(43)
    order = MonomialOrder.default(3)
    for _ in range(10):
        m = rng.randint(1, 6)
        pts = []
        while len(pts) < m:
            v = [Fraction(rng.randint(-2, 2)) for _ in range(3)]
            if any(v) and v not in pts:
                pts.append(v)
        try:
            P = normalize(pts, Q)
        except DuplicatePoint:
            continue
        I = vanishing_ideal(P)
        _, B, _ = bm_triplet(P)
        hf = [ideal_piece(I, d, order).hf for d in range(len(B))]
        assert hf == [len(b) for b in B]
        scan = hilbert_scan(I)
        assert scan.m == P.size


def test_bm_staircase_property(six_points):
    from projzero.polyring import mono_divides
    _, B, initials = bm_triplet(six_points)
    for bd in B:
        for m in bd:
            assert not any(mono_divides(g, m) for g in initials)


def test_x_squared_independent_of_other_quadratics(six_points):
    # evaluation rows of z^2, yz, xz, y^2, xy do not span x^2(P), so the
    # interpolation run accepts x^2 into the degree-2 basis
    others = [(0, 0, 2), (0, 1, 1), (1, 0, 1), (0, 2, 0), (1, 1, 0)]
    def values(mono):
        return six_points.eval_form(monomial(Q, 3, mono))

    rows = Matrix(Q, [values(m) for m in others], ncols=6)
    assert solve_in_rowspace(values((2, 0, 0)), rows) is None
    _, B, _ = bm_triplet(six_points)
    assert (2, 0, 0) in B[2]


def test_joint_eigenvector_count_bounded(six_points):
    t, _, _ = bm_triplet(six_points)
    pts = eigenpoints_from_matrices(t.A)
    assert len(pts) == six_points.size == t.size
