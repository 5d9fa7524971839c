"""The interpolation engine against the per-candidate loop it replaced
(tests/interp_oracle.py), on the points side against the per-candidate run
and the degree-loop vanishing ideal it replaced (tests/points_oracle.py),
the round trip points -> vanishing ideal -> solve, and the eliminations the
engine no longer needs."""

import dataclasses
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import projzero.linalg
import projzero.points
import projzero.quotient
from projzero import (Form, MonomialOrder, Options, bm_triplet,
                      build_triplet, hilbert_scan, ideal_piece,
                      initial_ideal_min_generators, normalize, solve,
                      vanishing_ideal)
from projzero.cli import parse_points_file
from projzero.errors import DuplicatePoint, FieldTooSmall, ZeroPoint
from projzero.fields import PrimeField, RationalField
from projzero.polyring import mono_divides, mono_one, monomials_of_degree
from tests import interp_oracle, points_oracle as oracle

DATA = Path(__file__).resolve().parent.parent / "data"
Q = RationalField()
GF32003 = PrimeField(32003)
FIELDS = [PrimeField(2), PrimeField(7), GF32003, Q]


def coordinates(field):
    if field.size is None:
        return st.integers(-3, 3).map(Fraction)
    return st.integers(0, field.size - 1)


@st.composite
def point_sets(draw, field, sizes, widths):
    """Distinct projective points, their number drawn from `sizes` and
    their coordinate count from widths(number); draws that repeat a point
    are rejected."""
    m = draw(sizes)
    width = draw(widths(m))
    raw = draw(st.lists(st.lists(coordinates(field), min_size=width,
                                 max_size=width), min_size=m, max_size=m))
    try:
        return normalize(raw, field)
    except (DuplicatePoint, ZeroPoint):
        assume(False)


@st.composite
def orders(draw, nvars):
    ranking = draw(st.permutations(range(nvars)))
    return MonomialOrder(kind=draw(st.sampled_from(["degrevlex", "lex"])),
                         ranking=tuple(ranking))


@st.composite
def differential_cases(draw):
    field = draw(st.sampled_from(FIELDS))
    # widths above the number of points make some coordinates linear
    # combinations of others on P, so they become degree-1 initials
    P = draw(point_sets(field, st.integers(1, 5),
                        lambda m: st.integers(2, 5 if m <= 3 else 4)))
    return P, draw(orders(P.n + 1))


def _outcome(run, *args):
    try:
        return run(*args)
    except FieldTooSmall as exc:
        return type(exc)


ENGINE_FIELDS = [PrimeField(2), PrimeField(3), GF32003, Q]


def _assert_runs_agree(field, start, step, order, ascending, known=()):
    """The first three degrees of `_interpolate` equal those of the loop it
    replaced, whose reductions carry zeros past |B_e|."""
    new = projzero.quotient._interpolate(field, start, step, order,
                                         ascending, known)
    old = interp_oracle.interpolate(field, start, step, order, ascending,
                                    known)
    for _ in range(3):
        B, vecs, initials, reductions = next(new)
        oB, ovecs, oinitials, oreductions = next(old)
        assert (B, vecs, initials) == (oB, ovecs, oinitials)
        assert len(reductions) == len(oreductions)
        for r, o in zip(reductions, oreductions):
            assert r == o[:len(B)]
            assert not any(o[len(B):])


@given(st.data())
def test_engine_matches_loop_on_evaluation(data):
    """psi is evaluation at points drawn from few coordinate values, zero
    among them, so coordinates and whole points repeat and a point may be
    zero."""
    draw = data.draw
    field = draw(st.sampled_from(ENGINE_FIELDS))
    values = [field.from_int(c) for c in (0, 1, -1, 2)]
    width = draw(st.integers(1, 4))
    pts = draw(st.lists(st.lists(st.sampled_from(values), min_size=width,
                                 max_size=width), min_size=1, max_size=6))
    cols = list(zip(*pts))

    def step(v, j):
        return [field.mul(a, b) for a, b in zip(v, cols[j])]

    _assert_runs_agree(field, {mono_one(width): [field.one] * len(pts)},
                       step, draw(orders(width)), draw(st.booleans()))


@given(st.data())
def test_engine_matches_loop_on_triplet(data):
    """psi(x_j s) = psi(s) A_j on a commuting triplet, from its basis with
    the initials up to its degree known, as `bound` runs it: the scan's
    own triplet where commutation closed the scan, else the triplet of
    l = x0 on points where x0 does not vanish."""
    draw = data.draw
    field = draw(st.sampled_from(ENGINE_FIELDS))
    width = draw(st.integers(2, 3))
    affine = draw(st.lists(st.tuples(*[coordinates(field)] * (width - 1)),
                           min_size=1, max_size=5, unique=True))
    P = normalize([[field.one, *pt] for pt in affine], field)
    order = draw(orders(width))
    I = vanishing_ideal(P, order)
    scan = hilbert_scan(I)
    if scan.triplet is None:
        x0 = Form.monomial(field, width, (1,) + (0,) * (width - 1))
        scan = dataclasses.replace(scan, triplet=build_triplet(
            I, Options(linear_form=x0), scan))
    runs, engine = [], projzero.quotient._interpolate

    def spy(*args):
        runs.append(args)
        return engine(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(projzero.quotient, "_interpolate", spy)
        initial_ideal_min_generators(I, scan.triplet.d + 1, scan)
    (field, start, step, order, _, known), = runs
    _assert_runs_agree(field, start, step, order, draw(st.booleans()), known)


@given(differential_cases())
def test_engine_matches_oracle(case):
    P, order = case
    new = _outcome(bm_triplet, P, order)
    old = _outcome(oracle.bm_triplet, P, order)
    if isinstance(old, type):
        assert new is old
    else:
        (new, new_B, new_initials), (old, old_B, old_initials) = new, old
        assert (new_B, new_initials, [len(b) for b in new_B], new.d) \
            == (old_B, old_initials, [len(b) for b in old_B], old.d)
        assert new.E_monomials == old.E_monomials == new_B[-1]
        assert new.l.terms == old.l.terms
        assert [A.rows for A in new.A] == [A.rows for A in old.A]
    I_new = vanishing_ideal(P, order)
    I_old = oracle.vanishing_ideal(P, order)
    stop = next(d for d in range(P.size + 1)
                if ideal_piece(I_old, d, order).hf == P.size)
    for e in range(1, stop + 3):
        assert ideal_piece(I_new, e, order).echelon.rows \
            == ideal_piece(I_old, e, order).echelon.rows
    assert max(g.degree for g in I_new.generators) <= stop + 1


@given(differential_cases())
def test_generators_are_a_reduced_basis(case):
    """Each generator is t plus terms of its degree above t in `order`, and
    no other generator's t divides any of its terms: a reduced basis for
    the order by degree and then `order` reversed. bm_triplet agrees on
    every width: its initials are the leads t of degree <= d, and B_e is
    the set of degree-e monomials that none of them divides."""
    P, order = case
    gens = vanishing_ideal(P, order).generators
    leads = [min(g.terms, key=order.key) for g in gens]
    for g, t in zip(gens, leads):
        assert g.terms[t] == P.field.one
        for mono in g.terms:
            assert not any(mono_divides(u, mono) for u in leads if u != t)
        assert all(P.field.is_zero(g.evaluate(rep)) for rep in P.reps)
    run = _outcome(bm_triplet, P, order)
    if run is FieldTooSmall:
        return
    trip, B, initials = run
    low = [t for g, t in zip(gens, leads) if g.degree <= trip.d]
    assert initials == low
    for e, Be in enumerate(B):
        assert set(Be) == {t for t in monomials_of_degree(P.n + 1, e, order)
                           if not any(mono_divides(u, t) for u in low)}


@settings(max_examples=4)
@given(st.data())
def test_round_trip_points_vanishing_ideal_solve(data):
    """points -> vanishing_ideal -> solve returns exactly the points, each
    once, with nothing rejected and nothing left over."""
    if data.draw(st.booleans()):
        P = data.draw(point_sets(GF32003, st.integers(20, 30),
                                 lambda m: st.integers(3, 4)))
    else:
        P = data.draw(point_sets(Q, st.integers(1, 10),
                                 lambda m: st.integers(3, 4)))
    order = MonomialOrder.default(P.n + 1)
    report = solve(vanishing_ideal(P, order))
    key = [[P.field.sort_key(x) for x in rep] for rep in P.reps]
    assert sorted(key) == sorted([P.field.sort_key(x) for x in ep.point]
                                 for ep in report.points)
    assert all(ep.multiplicity == 1 for ep in report.points)
    assert report.rejected == [] and report.residual_degree == 0
    assert report.blocks == 0


def _points(field, rows):
    return normalize([[field.from_int(c) for c in r] for r in rows], field)


@pytest.mark.parametrize("P", [
    _points(Q, [[0, 2, 5], [0, 1, 2], [1, 3, 1], [4, 3, 4], [2, 5, 4],
                [1, 4, 4]]),
    _points(GF32003, [[1, 5, 9, 2], [3, 1, 4, 1], [2, 7, 1, 8], [5, 3, 5, 8],
                      [9, 7, 9, 3], [2, 3, 8, 4], [6, 2, 6, 4]]),
    parse_points_file((DATA / "four_points_p7.pts").read_text())[0],
], ids=["six_points", "seven_gf32003", "four_points_p7"])
def test_no_elimination_outside_the_engine(P, monkeypatch):
    """vanishing_ideal builds no Macaulay piece, and bm_triplet, also on
    more coordinates than points, computes no rank."""
    calls = []

    def forbidden(name):
        def record(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} called")
        return record

    for module in (projzero.quotient, projzero.points):
        monkeypatch.setattr(module, "ideal_piece", forbidden("ideal_piece"),
                            raising=False)
    monkeypatch.setattr(projzero.linalg.Matrix, "rank", forbidden("rank"))
    vanishing_ideal(P)
    bm_triplet(P)
    assert calls == []
