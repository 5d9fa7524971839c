import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from projzero import (Form, IdealPresentation, Matrix, MonomialOrder, Options,
                      binomial_expansion, gb_degree_bound, hilbert_scan,
                      ideal_piece, initial_ideal_min_generators,
                      macaulay_growth, monomials_of_degree,
                      normal_form_by_degree, parse_form)
from projzero.errors import CapExceeded, InputError
from projzero.polyring import mono_divides
from projzero.quotient import macaulay_rows
from tests.conftest import ideal_from
from tests.rref_oracle import coeff_vector, solve_in_rowspace

from projzero.fields import RationalField

Q = RationalField()
XYZ = ("x", "y", "z")


def test_ideal_piece_mixed_2var(mixed_2var_ideal, order2):
    hf = [ideal_piece(mixed_2var_ideal, d, order2).hf for d in range(7)]
    assert hf == [1, 2, 3, 4, 4, 3, 3]


def test_ideal_piece_main(main_ideal, order3):
    p1 = ideal_piece(main_ideal, 1, order3)
    p2 = ideal_piece(main_ideal, 2, order3)
    assert p1.hf == 3 and p2.hf == 3
    assert set(p2.standard_monomials) == {(0, 2, 0), (0, 1, 1), (0, 0, 2)}


def test_ideal_piece_degree_zero(main_ideal, order3):
    p0 = ideal_piece(main_ideal, 0, order3)
    assert p0.hf == 1 and p0.standard_monomials == [(0, 0, 0)]


def test_hf_matches_raw_macaulay_rank(main_ideal, embedded_ideal, order3):
    for I in (main_ideal, embedded_ideal):
        for d in range(5):
            monos = monomials_of_degree(3, d, order3)
            raw = Matrix(Q, macaulay_rows(I, d, monos, order3),
                         ncols=len(monos))
            assert ideal_piece(I, d, order3).hf == len(monos) - raw.rank()


def test_normal_form_fixes_standard_support(main_ideal, order3):
    piece = ideal_piece(main_ideal, 2, order3)
    f = parse_form("y^2 - 3*y*z + z^2", XYZ, Q)
    assert normal_form_by_degree(f, piece) == f


def test_normal_form_kills_generators(main_ideal, order3):
    for g in main_ideal.generators:
        piece = ideal_piece(main_ideal, g.degree, order3)
        assert normal_form_by_degree(g, piece).is_zero()


def test_normal_form_difference_in_rowspace(main_ideal, order3):
    rng = random.Random(23)
    piece = ideal_piece(main_ideal, 3, order3)
    monos = piece.monomials
    for _ in range(20):
        f = Form(Q, 3, 3, {m: Fraction(rng.randint(-5, 5)) for m in monos})
        nf = normal_form_by_degree(f, piece)
        diff = f - nf
        vec = coeff_vector(diff, monos)
        assert solve_in_rowspace(vec, piece.echelon) is not None


def test_hilbert_scan_mixed(mixed_2var_ideal):
    scan = hilbert_scan(mixed_2var_ideal)
    assert scan.hf_values == [1, 2, 3, 4, 4, 3, 3]
    assert scan.m == 3 and scan.stabilization_degree == 5
    assert scan.postulation == 5 and scan.certificate == "gotzmann"


def test_hilbert_scan_embedded(embedded_ideal):
    scan = hilbert_scan(embedded_ideal)
    assert scan.hf_values == [1, 3, 3, 1, 1]
    assert scan.m == 1 and scan.postulation == 3


def test_hilbert_scan_artinian():
    I = ideal_from(["x0", "x1"], ("x0", "x1"))
    scan = hilbert_scan(I)
    assert scan.hf_values == [1, 0, 0]
    assert scan.artinian and scan.m == 0


def test_hilbert_scan_cap_exceeded():
    I = ideal_from(["x^2", "x*y", "x*z"], XYZ)
    with pytest.raises(CapExceeded) as exc:
        hilbert_scan(I, Options(max_degree=6))
    assert exc.value.partial_hf[:4] == [1, 3, 3, 4]


def test_ideal_order_defaults_to_degrevlex_and_must_rank_every_variable():
    """An order over two variables would list degree-2 monomials of three
    variables in an order no monomial order gives; the ideal refuses it."""
    I = ideal_from(["x^2", "y^2", "z^2"], XYZ)
    assert I.order == MonomialOrder.default(3)
    with pytest.raises(InputError):
        IdealPresentation(Q, XYZ, I.generators, MonomialOrder.default(2))
    with pytest.raises(InputError):
        IdealPresentation(Q, XYZ, I.generators,
                          order=MonomialOrder.default(4, "lex"))


def test_binomial_expansion_trivial():
    for d in range(1, 8):
        assert binomial_expansion(1, d) == [(d, d)]


def test_binomial_expansion_constant_hf_shape():
    # expansion of m in base i for m <= i: m summands C(k, k)
    for i in range(2, 9):
        for m in range(1, i + 1):
            exp = binomial_expansion(m, i)
            assert len(exp) == m
            assert all(n == k for n, k in exp)
            assert [k for _, k in exp] == list(range(i, i - m, -1))


def test_binomial_expansion_five_base_two():
    assert binomial_expansion(5, 2) == [(3, 2), (2, 1)]
    assert comb(3, 2) + comb(2, 1) == 5


def _all_expansions(h, i, floor=1):
    # exhaustive search over all valid expansions, for the uniqueness oracle
    if h == 0:
        return [[]]
    if i < floor:
        return []
    out = []
    n = i
    while comb(n, i) <= h:
        for rest in _all_expansions(h - comb(n, i), i - 1, floor):
            if all(n > rn for rn, _ in rest):
                out.append([(n, i)] + rest)
        n += 1
    return out


def test_binomial_expansion_unique_by_exhaustion():
    for h in range(1, 26):
        for i in range(1, 4):
            found = [e for e in _all_expansions(h, i)
                     if all(n >= k >= 1 for n, k in e)]
            assert len(found) == 1
            assert found[0] == binomial_expansion(h, i)


@given(st.integers(1, 10**6), st.integers(1, 10))
def test_binomial_expansion_properties(h, i):
    exp = binomial_expansion(h, i)
    ns = [n for n, _ in exp]
    ks = [k for _, k in exp]
    assert ns == sorted(ns, reverse=True) and len(set(ns)) == len(ns)
    assert ks == list(range(i, i - len(exp), -1))
    assert all(n >= k >= 1 for n, k in exp)
    assert sum(comb(n, k) for n, k in exp) == h


@given(st.integers(0, 12), st.integers(1, 12))
def test_macaulay_growth_constant_below_base(m, d):
    if m <= d:
        assert macaulay_growth(m, d) == m


def test_macaulay_growth_examples():
    assert macaulay_growth(0, 3) == 0
    assert macaulay_growth(5, 2) == comb(4, 3) + comb(3, 2) == 7


def test_macaulay_bound_on_examples(main_ideal, embedded_ideal,
                                    mixed_2var_ideal, order3, order2):
    for I, order in ((main_ideal, order3), (embedded_ideal, order3),
                     (mixed_2var_ideal, order2)):
        hf = [ideal_piece(I, d, order).hf for d in range(7)]
        for d in range(1, 6):
            if hf[d] > 0:
                assert macaulay_growth(hf[d], d) >= hf[d + 1]


def test_macaulay_bound_on_random_instances(scan_pool):
    for inst in scan_pool[:60]:
        hf = inst.scan.hf_values
        for d in range(1, len(hf) - 1):
            if hf[d] > 0:
                assert macaulay_growth(hf[d], d) >= hf[d + 1]


def test_gb_degree_bound_values(main_ideal, embedded_ideal):
    # max(d*, m), d* the stabilization degree
    scan_main = hilbert_scan(main_ideal)
    assert (scan_main.stabilization_degree, scan_main.m) == (3, 3)
    assert gb_degree_bound(scan_main) == 3         # equal inputs
    scan_emb = hilbert_scan(embedded_ideal)
    assert (scan_emb.stabilization_degree, scan_emb.m) == (3, 1)
    assert gb_degree_bound(scan_emb) == 3          # max(3, 1)


def test_initial_ideal_min_generators_main(main_ideal):
    mins = initial_ideal_min_generators(main_ideal, 4,
                                        hilbert_scan(main_ideal))
    assert sorted(d for _, d in mins) == [2, 2, 2, 3]
    assert set(m for m, d in mins if d == 2) == {(2, 0, 0), (1, 1, 0), (1, 0, 1)}
    assert [m for m, d in mins if d == 3] == [(0, 2, 1)]


def test_initial_ideal_min_generators_embedded(embedded_ideal):
    mins = initial_ideal_min_generators(embedded_ideal, 4,
                                        hilbert_scan(embedded_ideal))
    assert len(mins) == 5
    assert max(d for _, d in mins) == 3


def test_initial_ideal_principal():
    I = ideal_from(["x0^2"], ("x0", "x1"))
    mins = initial_ideal_min_generators(I, 4, hilbert_scan(I))
    assert mins == [((2, 0), 2)]


def test_standard_monomials_are_order_ideal(main_ideal, embedded_ideal, order3):
    for I in (main_ideal, embedded_ideal):
        leads = set()
        for d in range(1, 5):
            piece = ideal_piece(I, d, order3)
            for s in piece.standard_monomials:
                assert not any(mono_divides(g, s) for g in leads)
            leads |= piece.lead_monomials
