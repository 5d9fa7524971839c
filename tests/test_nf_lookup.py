"""Normal forms read off the reduced echelon (`DegreePiece.normal_forms`)
against the reduction loop they replaced (tests/rref_oracle.py), and the
triplet path, from the Macaulay pieces to the matrices, free of Form
arithmetic."""

import pytest
from hypothesis import assume, given, strategies as st

from projzero import (Form, Matrix, MonomialOrder, l_map_matrix,
                      monomials_of_degree, normalize, vanishing_ideal)
from projzero.cli import main
from projzero.fields import PrimeField, RationalField
from tests import rref_oracle
from tests.polyring_oracle import monomial

FIELDS = [PrimeField(3), PrimeField(7), PrimeField(32003), RationalField()]


@st.composite
def point_sets(draw, field):
    """1 to 6 distinct projective points with 2 to 4 coordinates; a drawn
    point equal to an earlier one is dropped."""
    width = draw(st.integers(2, 4))
    coords = (st.integers(-3, 3) if field.size is None
              else st.integers(0, field.size - 1)).map(field.from_int)
    raw = draw(st.lists(st.lists(coords, min_size=width, max_size=width),
                        min_size=1, max_size=6))
    distinct = {}
    for pt in raw:
        if any(not field.is_zero(x) for x in pt):
            distinct.setdefault(tuple(normalize([pt], field).reps[0]), pt)
    assume(distinct)
    return normalize(list(distinct.values()), field)


@given(st.data())
def test_l_map_matrix_matches_reduction(data):
    draw = data.draw
    field = draw(st.sampled_from(FIELDS))
    P = draw(point_sets(field))
    n = P.n + 1
    order = MonomialOrder(kind=draw(st.sampled_from(["degrevlex", "lex"])),
                          ranking=tuple(draw(st.permutations(range(n)))))
    I = vanishing_ideal(P, order)
    d = draw(st.integers(0, 3))
    piece_d, piece_d1 = I.piece(d), I.piece(d + 1)
    pool = field.sample_pool()
    coeffs = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    assume(any(not field.is_zero(c) for c in coeffs))
    l = Form(field, n, 1, {tuple(int(k == i) for k in range(n)): c
                           for i, c in enumerate(coeffs)})
    for t in monomials_of_degree(n, d + 1, order):
        assert piece_d1.normal_forms[t] == rref_oracle.standard_coords(
            monomial(field, n, t), piece_d1)
    want = Matrix(field, [rref_oracle.standard_coords(
        l * monomial(field, n, s), piece_d1)
        for s in piece_d.standard_monomials], ncols=piece_d1.hf)
    assert l_map_matrix(l, piece_d, piece_d1) == want


@pytest.mark.parametrize("argv", [
    ["solve", "three_quadrics.ideal"],
    ["solve", "three_quadrics.ideal", "--degree-policy", "certified_stable"],
    ["solve", "ci_3_4_p32003.ideal"],
    ["solve", "ci_3_4_p32003.ideal", "--degree-policy", "certified_stable"],
    ["solve", "line_and_double_point.ideal"],
    ["solve", "line_and_double_point.ideal",
     "--degree-policy", "certified_stable"],
    ["bound", "three_quadrics.ideal"],
    ["nf", "three_quadrics.ideal", "x^17", "--linear-form", "y + z"],
], ids=" ".join)
def test_triplet_path_multiplies_no_forms(argv, data_dir, monkeypatch,
                                          capsys):
    def forbidden(*args):
        raise AssertionError("Form arithmetic on the triplet path")

    for name in ("__mul__", "power"):
        monkeypatch.setattr(Form, name, forbidden)
    assert main([argv[0], str(data_dir / argv[1]), *argv[2:]]) == 0
