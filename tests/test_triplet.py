import random
from fractions import Fraction

import pytest

from projzero import (Form, Matrix, MonomialOrder, build_triplet,
                      fast_normal_form, find_surjective_linear, ideal_piece,
                      l_combination, l_map_matrix, multiplication_matrix,
                      normal_form_by_degree, parse_form,
                      normalized_linear_forms, rebuild_at_next_degree)
from projzero.errors import DegreeTooLow, NoSurjectionFound
from projzero.fields import PrimeField, RationalField
from projzero.triplet import TripletOptions
from tests.conftest import ideal_from

Q = RationalField()
XYZ = ("x", "y", "z")


def qm(rows, scale=1):
    return Matrix(Q, [[Fraction(v) * Fraction(scale) for v in r] for r in rows])


A_X = qm([[2, 0, 0], [1, 1, -1], [1, -1, 1]], Fraction(1, 2))
A_Y = qm([[2, 2, -2], [1, 3, -1], [-1, 1, 1]], Fraction(1, 4))
A_Z = qm([[2, -2, 2], [-1, 1, 1], [1, -1, 3]], Fraction(1, 4))


def test_sample_pool_is_a_range():
    # indexing a range draws the same residues as a list would, with the
    # same RNG use, and takes no memory proportional to p
    assert list(PrimeField(7).sample_pool()) == list(range(7))
    big = PrimeField(2147483647).sample_pool()
    assert isinstance(big, range) and len(big) == 2147483647


def test_find_surjective_main(main_ideal, order3):
    p1 = ideal_piece(main_ideal, 1, order3)
    p2 = ideal_piece(main_ideal, 2, order3)
    for coords in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        l = Form(Q, 3, 1, {coords: Q.one})
        assert l_map_matrix(l, p1, p2).rank() < 3
    good = parse_form("y + z", XYZ, Q)
    assert l_map_matrix(good, p1, p2).rank() == 3
    found = find_surjective_linear(main_ideal, p1, p2, seed=4)
    assert l_map_matrix(found, p1, p2).rank() == 3


def test_find_surjective_embedded(embedded_ideal, order3):
    p1 = ideal_piece(embedded_ideal, 1, order3)
    p2 = ideal_piece(embedded_ideal, 2, order3)
    z = parse_form("z", XYZ, Q)
    assert l_map_matrix(z, p1, p2).rank() == 3


def test_exhaustive_fails_for_full_projective_line_gf2():
    GF2 = PrimeField(2)
    v2 = ("x0", "x1")
    I = ideal_from(["x0^2*x1 + x0*x1^2"], v2, GF2)
    order = MonomialOrder.default(2)
    p3 = ideal_piece(I, 3, order)
    p4 = ideal_piece(I, 4, order)
    with pytest.raises(NoSurjectionFound) as exc:
        find_surjective_linear(I, p3, p4, strategy="exhaustive")
    assert exc.value.trials == 3
    assert sum(1 for _ in normalized_linear_forms(GF2, 2)) == 3


def test_build_triplet_main_entry_exact(main_triplet):
    t = main_triplet
    assert t.d == 1
    assert t.E_monomials == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert t.A[0] == A_X
    assert t.A[1] == A_Y
    assert t.A[2] == A_Z
    assert t.hf_prefix == [1, 3, 3]
    assert t.surjective_certified


def test_build_triplet_false_point_example(false_point_ideal, order3):
    l = parse_form("x + z", XYZ, Q)
    t = build_triplet(false_point_ideal, order3, TripletOptions(linear_form=l))
    assert t.d == 1
    assert t.E_monomials == [(1, 0, 0), (0, 1, 0)]
    assert t.A[0] == qm([[1, 0], [0, 0]])
    assert t.A[1] == Matrix.zero(Q, 2, 2)
    assert t.A[2] == qm([[0, 0], [0, 1]])


def test_l_combination_is_identity(main_triplet, mixed_2var_triplet):
    for t in (main_triplet, mixed_2var_triplet):
        assert l_combination(t) == Matrix.identity(Q, t.size)


def test_multiplication_matrix_monomial_bases(main_ideal, order3):
    E1 = [Form.variable(Q, 3, i) for i in range(3)]
    F2 = [parse_form(s, XYZ, Q) for s in ("y^2", "y*z", "z^2")]
    M_x = multiplication_matrix(E1[0], E1, F2, main_ideal, order3)
    M_y = multiplication_matrix(E1[1], E1, F2, main_ideal, order3)
    M_z = multiplication_matrix(E1[2], E1, F2, main_ideal, order3)
    assert M_x == qm([[1, -2, 1], [1, -1, 0], [0, -1, 1]])
    assert M_y == qm([[1, -1, 0], [1, 0, 0], [0, 1, 0]])
    assert M_z == qm([[0, -1, 1], [0, 1, 0], [0, 0, 1]])
    # the assembled matrices are exactly M_j * (l-map)^{-1}
    L = M_y + M_z
    assert (M_x @ L.inverse()) == A_X


def test_matrices_recomputed_independently(main_ideal, order3, main_triplet):
    # row i of A_j must express nf(x_j e_i) in the basis {nf(l e_k)}
    t = main_triplet
    for j in range(3):
        xj = Form.variable(Q, 3, j)
        M = multiplication_matrix(xj, t.E, t.F, main_ideal, order3)
        assert M == t.A[j]


def test_degree_independence(main_ideal, order3, main_triplet,
                             mixed_2var_ideal, order2, mixed_2var_triplet):
    up = rebuild_at_next_degree(main_triplet, main_ideal, order3)
    assert all(a == b for a, b in zip(main_triplet.A, up))
    up2 = rebuild_at_next_degree(mixed_2var_triplet, mixed_2var_ideal, order2)
    assert all(a == b for a, b in zip(mixed_2var_triplet.A, up2))


def test_surjectivity_propagates(main_ideal, order3, main_triplet):
    p2 = ideal_piece(main_ideal, 2, order3)
    p3 = ideal_piece(main_ideal, 3, order3)
    assert l_map_matrix(main_triplet.l, p2, p3).rank() == p3.hf


def test_fast_normal_form_x17(main_triplet):
    f = parse_form("x^17", XYZ, Q)
    res = fast_normal_form(f, main_triplet)
    assert res.k == 16
    assert res.coords == [1, 0, 0]
    expected = parse_form("x", XYZ, Q) * parse_form("y + z", XYZ, Q).power(16)
    assert res.form == expected


def test_fast_normal_form_x17_matches_evaluation(main_triplet):
    # independent check at the three solution points: a normal form must
    # agree with the input on the variety representatives
    f = parse_form("x^17", XYZ, Q)
    res = fast_normal_form(f, main_triplet)
    for rep in ([Q.one, Q.one, Q.zero], [Q.one, Q.zero, Q.one],
                [Q.zero, Q.one, Q.one]):
        assert res.form.evaluate(rep) == f.evaluate(rep)


def test_a_x_is_idempotent(main_triplet):
    A = main_triplet.A[0]
    assert (A @ A) == A


def test_fast_normal_form_basis_elements(main_triplet):
    t = main_triplet
    for k in (0, 2):
        lk = t.l.power(k)
        for i, e in enumerate(t.E):
            res = fast_normal_form(lk * e, t)
            want = [Q.one if j == i else Q.zero for j in range(t.size)]
            assert res.coords == want and res.k == k


def test_fast_normal_form_degree_too_low(main_triplet):
    with pytest.raises(DegreeTooLow):
        fast_normal_form(Form.monomial(Q, 3, (0, 0, 0)), main_triplet)


def _random_monomial(rng, nvars, degree):
    cuts = sorted(rng.randint(0, degree) for _ in range(nvars - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [degree])]
    return tuple(parts)


def test_fast_normal_form_macaulay_oracle(main_ideal, order3, main_triplet):
    rng = random.Random(29)
    pieces = {}
    for _ in range(30):
        deg = rng.randint(1, 7)
        mono = _random_monomial(rng, 3, deg)
        f = Form.monomial(Q, 3, mono)
        res = fast_normal_form(f, main_triplet)
        if deg not in pieces:
            pieces[deg] = ideal_piece(main_ideal, deg, order3)
        piece = pieces[deg]
        assert normal_form_by_degree(f, piece) \
            == normal_form_by_degree(res.form, piece)


def test_fast_normal_form_oracle_mixed(mixed_2var_ideal, order2,
                                       mixed_2var_triplet):
    rng = random.Random(31)
    pieces = {}
    for _ in range(20):
        deg = rng.randint(5, 10)
        mono = _random_monomial(rng, 2, deg)
        f = Form.monomial(Q, 2, mono)
        res = fast_normal_form(f, mixed_2var_triplet)
        if deg not in pieces:
            pieces[deg] = ideal_piece(mixed_2var_ideal, deg, order2)
        piece = pieces[deg]
        assert normal_form_by_degree(f, piece) \
            == normal_form_by_degree(res.form, piece)


def test_fast_normal_form_linear_schedule_agrees(main_triplet):
    f = parse_form("x^9 + 2*x^3*y^2*z^4", XYZ, Q)
    fast = fast_normal_form(f, main_triplet)
    slow = fast_normal_form(f, main_triplet, linear_schedule=True)
    assert fast.coords == slow.coords and fast.form == slow.form


def test_build_triplet_certified_policy(mixed_2var_triplet):
    t = mixed_2var_triplet
    assert t.d == 5 and t.stable_certified
    assert t.hf_prefix == [1, 2, 3, 4, 4, 3, 3]
    assert t.size == 3
