"""Acceptance criteria, one test per criterion, printed pass/fail lines.

Everything is exact arithmetic, so every tolerance is exact equality. Run
with `pytest -s tests/test_acceptance.py -v` to see the per-criterion lines.
"""

import json
import random
from contextlib import contextmanager
from fractions import Fraction
from math import comb

import pytest

from projzero import (Matrix, MonomialOrder, Options, binomial_expansion,
                      bm_triplet, build_triplet, c_matrix, char_poly,
                      fast_normal_form, hilbert_scan, ideal_piece,
                      initial_ideal_min_generators, l_combination,
                      l_map_matrix, macaulay_growth, normal_form_by_degree,
                      normalize, nzd_sweep, parse_form, roots_in_field,
                      separators, solve)
from projzero.cli import main
from projzero.errors import FieldTooSmall
from projzero.fields import PrimeField, RationalField
from tests.eigen_oracle import eigenpoints_from_matrices
from tests.points_oracle import eval_normal_form
from tests.polyring_oracle import (form_add, form_scale, monomial, variable,
                                   zero)
from tests.rref_oracle import is_zero_matrix, zero_matrix
from tests.triplet_oracle import normalized_linear_forms

Q = RationalField()
XYZ = ("x", "y", "z")


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"criterion {num:>2} FAIL: {desc}")
        raise
    print(f"criterion {num:>2} PASS: {desc}")


def cli_json(capsys, *argv):
    code = main(list(argv) + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_criterion_1_hilbert_scan_mixed(mixed_2var_ideal):
    with criterion(1, "Hilbert scan: hf=1,2,3,4,4,3,3, m=3, post=5"):
        scan = hilbert_scan(mixed_2var_ideal)
        assert scan.hf_values == [1, 2, 3, 4, 4, 3, 3]
        assert scan.m == 3
        assert scan.postulation == 5
        assert scan.certificate == "gotzmann"


def test_criterion_2_solve_three_quadrics(capsys, data_dir):
    with criterion(2, "solve of the three-quadrics ideal: points and A_x exact"):
        code, doc = cli_json(capsys, "solve",
                             str(data_dir / "three_quadrics.ideal"),
                             "--linear-form", "y + z")
        assert code == 0
        pts = sorted(tuple(p["point"]) for p in doc["points"])
        assert pts == [("0", "1", "1"), ("1", "0", "1"), ("1", "1", "0")]
        assert all(p["multiplicity"] == 1 for p in doc["points"])
        assert doc["triplet"]["basis"] == ["x", "y", "z"]
        assert doc["triplet"]["l"] == "y + z"
        assert doc["triplet"]["A"]["x"] == [["1", "0", "0"],
                                            ["1/2", "1/2", "-1/2"],
                                            ["1/2", "-1/2", "1/2"]]


def test_criterion_3_fast_normal_form_x17(main_ideal, main_triplet):
    # With d = 1, E = (x, y, z) and l = y + z, the coordinates of nf(x^17)
    # are those of x, (1, 0, 0), times A_x^16. The points are (0:1:1),
    # (1:0:1) and (1:1:0), where x/l is 0, 1 and 1, so A_x is idempotent and
    # A_x^16 = A_x, whose first row is (1, 0, 0): nf(x^17) = x*(y+z)^16.
    # Agreement with x^17 at the three points fixes the coordinates on its
    # own: c.(x, y, z)*(y+z)^16 = x^17 there reads c_y + c_z = 0,
    # c_x + c_z = 1 and c_x + c_y = 1.
    with criterion(3, "fast normal form of x^17 has coordinates (1, 0, 0)"):
        assert main_triplet.d == 1
        assert main_triplet.E_monomials == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        a_x = main_triplet.A[0]
        assert a_x @ a_x == a_x
        assert a_x.rows[0] == [1, 0, 0]
        f = parse_form("x^17", XYZ, Q)
        res = fast_normal_form(f, main_ideal, main_triplet)
        assert res.k == 16
        assert res.coords == [1, 0, 0]
        for rep in ([Q.zero, Q.one, Q.one], [Q.one, Q.zero, Q.one],
                    [Q.one, Q.one, Q.zero]):
            assert res.form.evaluate(rep) == f.evaluate(rep)


def test_criterion_3_corrected_value(main_triplet, main_ideal):
    with criterion("3b", "fast normal form of x^17 is x*(y+z)^16 and equals "
                   "x^17 at the three points"):
        f = parse_form("x^17", XYZ, Q)
        res = fast_normal_form(f, main_ideal, main_triplet)
        assert res.coords == [1, 0, 0]
        assert res.form == parse_form("x", XYZ, Q) \
            * parse_form("y + z", XYZ, Q).power(16)
        for rep in ([Q.one, Q.one, Q.zero], [Q.one, Q.zero, Q.one],
                    [Q.zero, Q.one, Q.one]):
            assert res.form.evaluate(rep) == f.evaluate(rep)


def test_criterion_4_false_point_filtering(capsys, data_dir):
    with criterion(4, "solve keeps (1:0:0) and rejects (0:0:1)"):
        code, doc = cli_json(capsys, "solve",
                             str(data_dir / "monomial_false_point.ideal"),
                             "--linear-form", "x + z")
        assert code == 0
        assert [tuple(p["point"]) for p in doc["points"]] == [("1", "0", "0")]
        assert doc["rejected"] == [["0", "0", "1"]]


def test_criterion_5_embedded_component(capsys, data_dir):
    with criterion(5, "solve returns exactly (1:1:1) with hf prefix 1,3,3,1,1"):
        code, doc = cli_json(capsys, "solve",
                             str(data_dir / "single_point_embedded.ideal"))
        assert code == 0
        assert [tuple(p["point"]) for p in doc["points"]] == [("1", "1", "1")]
        assert doc["hf_prefix"] == [1, 3, 3, 1, 1]


def test_criterion_6_multiplicities(mixed_2var_ideal):
    with criterion(6, "multiplicities (1:1) -> 1 and (1:0) -> 2, two seeds"):
        for seed in (0, 1):
            rep = solve(mixed_2var_ideal, Options(
                degree_policy="certified_stable", seed=seed))
            assert {tuple(ep.point): ep.multiplicity for ep in rep.points} \
                == {(1, 1): 1, (1, 0): 2}


def test_criterion_7_six_point_triplet(six_points):
    with criterion(7, "six-point run: hf=1,3,6, B_2, eigenvalues, exact nf"):
        t, B, _ = bm_triplet(six_points, MonomialOrder.default(3),
                             l=variable(Q, 3, 1))
        assert [len(b) for b in B] == [1, 3, 6] and t.d == 2
        assert set(B[2]) == {(0, 0, 2), (0, 1, 1), (1, 0, 1), (0, 2, 0),
                             (1, 1, 0), (2, 0, 0)}
        eig_x = dict(roots_in_field(char_poly(t.A[0]), Q).pairs)
        assert eig_x == {Fraction(0): 2, Fraction(1, 3): 1, Fraction(4, 3): 1,
                         Fraction(2, 5): 1, Fraction(1, 4): 1}
        eig_z = dict(roots_in_field(char_poly(t.A[2]), Q).pairs)
        assert eig_z == {Fraction(5, 2): 1, Fraction(2): 1, Fraction(1, 3): 1,
                         Fraction(4, 3): 1, Fraction(4, 5): 1, Fraction(1): 1}
        coeffs = {
            "y^4*z^2": Fraction(17527852333, 117612000),
            "y^5*z": Fraction(-8111541583, 26136000),
            "x*y^4*z": Fraction(127511218609, 313632000),
            "y^6": Fraction(2083926583, 23522400),
            "x*y^5": Fraction(-11603225231, 470448000),
            "x^2*y^4": Fraction(-327280970021, 940896000),
        }
        basis = [parse_form(s, XYZ, Q) for s in coeffs]
        nf = eval_normal_form(parse_form("x^6 + z^6", XYZ, Q), six_points, basis)
        expected = zero(Q, 3, 6)
        for s, c in coeffs.items():
            expected = form_add(expected, form_scale(parse_form(s, XYZ, Q), c))
        assert nf == expected


def test_criterion_8_separators_and_comparisons(instance_pool):
    with criterion(8, "separator product exact; comparison bound on 100 instances"):
        raw = [[1, 2, 0, 1, 1, 0, 3, 5], [1, 0, 1, 1, 2, 0, 3, 5],
               [1, 2, 0, 3, 3, 1, 2, 0], [0, 1, 1, 0, 2, 0, 1, 0]]
        P = normalize([[Q.from_int(c) for c in p] for p in raw], Q)
        names = tuple(f"x{i + 1}" for i in range(8))
        q1 = separators(P)[0]
        expected = (parse_form("x2", names, Q)
                    * parse_form("3*x1 - x4", names, Q)
                    * parse_form("x1", names, Q))
        mono, c = next(iter(q1.terms.items()))
        scale = Q.div(expected.terms[mono], c)
        assert not Q.is_zero(scale) and form_scale(q1, scale) == expected
        cm = c_matrix(P)
        assert cm.comparisons <= P.n * P.size + P.size ** 2
        assert len(instance_pool) >= 100
        for inst in instance_pool:
            cmx = c_matrix(inst.P)
            assert cmx.comparisons <= inst.P.n * inst.P.size + inst.P.size ** 2


def test_criterion_9_nzd_sweep():
    with criterion(9, "sweep finds x_0 over Z_3; GF(2) fails FieldTooSmall"):
        Z3 = PrimeField(3)
        P = normalize([[1, 2, 2], [1, 2, 1], [1, 1, 1]], Z3)
        l = nzd_sweep(P)
        assert set(l.terms.keys()) == {(1, 0, 0)}
        assert all(not Z3.is_zero(l.evaluate(r)) for r in P.reps)
        GF2 = PrimeField(2)
        P2 = normalize([[1, 0], [1, 1], [0, 1]], GF2)
        with pytest.raises(FieldTooSmall):
            nzd_sweep(P2)
        forms = list(normalized_linear_forms(GF2, 2))
        assert len(forms) == 3
        for lf in forms:
            assert any(GF2.is_zero(lf.evaluate(r)) for r in P2.reps)


def test_criterion_10_gb_bound(capsys, data_dir, scan_pool):
    with criterion(10, "bound max(d*, m)=3 on both examples; measured <= bound "
                   "on 200 random instances"):
        for name in ("three_quadrics.ideal", "single_point_embedded.ideal"):
            code, doc = cli_json(capsys, "bound", str(data_dir / name))
            assert code == 0
            assert doc["bound"] == 3 and doc["measured_max_degree"] == 3
        assert len(scan_pool) >= 200
        for inst in scan_pool:
            bound = max(inst.scan.stabilization_degree, inst.scan.m)
            mins = initial_ideal_min_generators(inst.ideal, bound + 1,
                                                inst.scan)
            assert max(d for _, d in mins) <= bound


def test_criterion_11a_fast_nf_oracle(main_ideal, order3, main_triplet,
                                      mixed_2var_ideal, order2,
                                      mixed_2var_triplet):
    with criterion("11a", "fast normal form matches the Macaulay oracle, "
                   "100 monomials per instance"):
        rng = random.Random(101)
        for I, order, trip, nv, degs in (
                (main_ideal, order3, main_triplet, 3, (1, 7)),
                (mixed_2var_ideal, order2, mixed_2var_triplet, 2, (5, 10))):
            pieces = {}
            for _ in range(100):
                deg = rng.randint(*degs)
                cuts = sorted(rng.randint(0, deg) for _ in range(nv - 1))
                mono = tuple(b - a for a, b in zip([0] + cuts, cuts + [deg]))
                f = monomial(I.field, nv, mono)
                res = fast_normal_form(f, I, trip)
                piece = pieces.setdefault(deg, ideal_piece(I, deg, order))
                assert normal_form_by_degree(f, piece) \
                    == normal_form_by_degree(res.form, piece)


def test_criterion_11b_l_combination_identity(instance_pool, main_triplet,
                                              mixed_2var_triplet):
    with criterion("11b", "sum of l-coefficients times A_j is the identity, "
                   "every triplet"):
        count = 0
        for t in [main_triplet, mixed_2var_triplet]:
            assert l_combination(t) == Matrix.identity(t.l.field, t.size)
            count += 1
        for inst in instance_pool:
            for t in (inst.trip, inst.bm):
                assert l_combination(t) == Matrix.identity(t.l.field, t.size)
                count += 2
        assert count >= 100


def test_criterion_11c_commutation(instance_pool, main_ideal):
    with criterion("11c", "multiplication matrices commute on certified "
                   "unmixed instances"):
        cases = 0
        for inst in instance_pool:
            for t in (inst.bm, inst.trip):
                A = t.A
                for i in range(len(A)):
                    for j in range(i + 1, len(A)):
                        assert (A[i] @ A[j]) == (A[j] @ A[i])
                cases += 1
        stable = build_triplet(main_ideal,
                               Options(degree_policy="certified_stable",
                                       seed=0))
        A = stable.A
        assert all((A[i] @ A[j]) == (A[j] @ A[i])
                   for i in range(3) for j in range(3))
        cases += 1
        assert cases >= 100


def test_criterion_11d_surjectivity_propagation(instance_pool):
    with criterion("11d", "surjective l-map propagates one degree up, "
                   "100 instances"):
        assert len(instance_pool) >= 100
        for inst in instance_pool:
            t = inst.trip
            p1 = ideal_piece(inst.ideal, t.d + 1, inst.order)
            p2 = ideal_piece(inst.ideal, t.d + 2, inst.order)
            assert l_map_matrix(t.l, p1, p2).rank() == p2.hf


def test_criterion_11e_round_trip(instance_pool):
    with criterion("11e", "points -> triplet -> points round trip, "
                   "100 instances"):
        assert len(instance_pool) >= 100
        for inst in instance_pool:
            got = sorted(tuple(ep.point)
                         for ep in eigenpoints_from_matrices(inst.bm.A))
            want = sorted(tuple(r) for r in inst.P.reps)
            assert got == want


def test_criterion_11f_binomial_properties():
    with criterion("11f", "binomial expansion uniqueness and constant growth, "
                   "100+ cases"):
        rng = random.Random(103)
        for _ in range(100):
            h = rng.randint(1, 10**5)
            i = rng.randint(1, 9)
            exp = binomial_expansion(h, i)
            ns = [n for n, _ in exp]
            assert ns == sorted(ns, reverse=True)
            assert all(n >= k >= 1 for n, k in exp)
            assert sum(comb(n, k) for n, k in exp) == h
        for _ in range(100):
            d = rng.randint(1, 30)
            m = rng.randint(0, d)
            assert macaulay_growth(m, d) == m


def test_criterion_11g_separator_pattern(instance_pool):
    with criterion("11g", "separator vanishing pattern Q_i(p_j)=0 iff i!=j, "
                   "100 instances"):
        assert len(instance_pool) >= 100
        for inst in instance_pool:
            P = inst.P
            f = P.field
            seps = separators(P)
            assert all(s.degree == P.size - 1 for s in seps)
            for i in range(P.size):
                for j in range(P.size):
                    val = seps[i].evaluate(P.reps[j])
                    assert f.is_zero(val) == (i != j)


def test_criterion_11h_cayley_hamilton():
    with criterion("11h", "Cayley-Hamilton on random matrices over Q and "
                   "GF(7), 100 cases"):
        rng = random.Random(107)
        GF7 = PrimeField(7)
        for field in (Q, GF7):
            for n in (3, 4):
                for _ in range(25):
                    if field.size is None:
                        M = Matrix(field,
                                   [[Fraction(rng.randint(-5, 5))
                                     for _ in range(n)] for _ in range(n)])
                    else:
                        M = Matrix(field,
                                   [[rng.randrange(7) for _ in range(n)]
                                    for _ in range(n)])
                    p = char_poly(M)
                    acc = zero_matrix(field, n, n)
                    power = Matrix.identity(field, n)
                    for coeff in p:
                        acc = acc + power.scale(coeff)
                        power = power @ M
                    assert is_zero_matrix(acc)
