from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from projzero import (Matrix, Options, bm_triplet, build_triplet,
                      common_eigenvectors, filter_points, normalize,
                      parse_form, solve, vanishing_ideal)
from projzero.cli import parse_ideal_file, parse_points_file
from projzero.errors import ProjzeroError
from projzero.fields import PrimeField, RationalField
from projzero import solver
from projzero.linalg import char_poly, eigenspace
from tests import eigen_oracle
from tests.eigen_oracle import eigenpoints_from_matrices
from tests.rref_oracle import zero_matrix
from tests.conftest import ideal_from

Q = RationalField()
XYZ = ("x", "y", "z")


def as_tuples(eigenpoints):
    return sorted(tuple(ep.point) for ep in eigenpoints)


def test_common_eigenvectors_main(main_triplet):
    found = common_eigenvectors(main_triplet.A)
    assert not found.blocks and not found.residual
    got = sorted((tuple(v), tuple(l), k) for v, l, k in found.vectors)
    assert got == sorted([
        ((1, 1, 0), (1, 1, 0), 1),
        ((1, 0, 1), (1, 0, 1), 1),
        ((0, 1, 1), (0, Fraction(1, 2), Fraction(1, 2)), 1),
    ])


def test_common_eigenvectors_false_point(false_point_ideal):
    l = parse_form("x + z", XYZ, Q)
    t = build_triplet(false_point_ideal, Options(linear_form=l))
    found = common_eigenvectors(t.A)
    got = sorted((tuple(v), tuple(l_)) for v, l_, _ in found.vectors)
    assert got == sorted([
        ((1, 0), (1, 0, 0)),
        ((0, 1), (0, 0, 1)),
    ])


def test_common_eigenvectors_identity_block():
    A = [Matrix.identity(Q, 3) for _ in range(3)]
    found = common_eigenvectors(A)
    assert found.vectors == []
    assert len(found.blocks) == 1
    assert len(found.blocks[0].basis) == 3


def test_candidate_points_main(main_triplet):
    pts = eigenpoints_from_matrices(main_triplet.A)
    assert as_tuples(pts) == sorted([(1, 1, 0), (1, 0, 1), (0, 1, 1)])


def test_candidate_points_embedded(embedded_ideal):
    l = parse_form("z", XYZ, Q)
    t = build_triplet(embedded_ideal, Options(linear_form=l))
    pts = eigenpoints_from_matrices(t.A)
    assert (1, 1, 1) in as_tuples(pts)


def test_filter_points_false_point(false_point_ideal):
    l = parse_form("x + z", XYZ, Q)
    t = build_triplet(false_point_ideal, Options(linear_form=l))
    kept, rejected = filter_points(eigenpoints_from_matrices(t.A),
                                   false_point_ideal)
    assert as_tuples(kept) == [(1, 0, 0)]
    assert as_tuples(rejected) == [(0, 0, 1)]
    z2 = parse_form("z^2", XYZ, Q)
    assert z2.evaluate([Q.zero, Q.zero, Q.one]) != 0


def test_filter_points_main_keeps_all(main_triplet, main_ideal):
    kept, rejected = filter_points(eigenpoints_from_matrices(main_triplet.A),
                                   main_ideal)
    assert len(kept) == 3 and rejected == []


def test_filter_points_empty():
    assert filter_points([], None) == ([], [])


def test_multiplicity_mixed_2var(mixed_2var_ideal):
    for seed in (0, 1):
        rep = solve(mixed_2var_ideal,
                    Options(degree_policy="certified_stable", seed=seed))
        assert {tuple(ep.point): ep.multiplicity for ep in rep.points} \
            == {(1, 1): 1, (1, 0): 2}


def test_multiplicity_main_all_one(main_ideal):
    for seed in (0, 1):
        rep = solve(main_ideal, Options(seed=seed))
        assert len(rep.points) == 3
        assert all(ep.multiplicity == 1 for ep in rep.points)


def test_multiplicity_single_point(embedded_ideal):
    rep = solve(embedded_ideal, Options(degree_policy="certified_stable"))
    assert rep.triplet.size == 1
    assert [(tuple(ep.point), ep.multiplicity) for ep in rep.points] \
        == [((1, 1, 1), 1)]


def test_eigen_identities_exact(main_triplet):
    field = Q
    for ep in eigenpoints_from_matrices(main_triplet.A):
        for j, A in enumerate(main_triplet.A):
            Av = [sum((r[k] * ep.v[k] for k in range(len(ep.v))), Q.zero)
                  for r in A.rows]
            assert Av == [ep.lambdas[j] * x for x in ep.v]


def test_solve_main(main_ideal):
    l = parse_form("y + z", XYZ, Q)
    rep = solve(main_ideal, Options(linear_form=l))
    assert sorted(tuple(ep.point) for ep in rep.points) \
        == sorted([(1, 1, 0), (1, 0, 1), (0, 1, 1)])
    assert all(ep.multiplicity == 1 for ep in rep.points)
    assert rep.rejected == [] and rep.residual_degree == 0
    assert sum(ep.multiplicity for ep in rep.points) == rep.triplet.size


def test_solve_embedded(embedded_ideal):
    rep = solve(embedded_ideal, Options(seed=0))
    assert [tuple(ep.point) for ep in rep.points] == [(1, 1, 1)]
    assert rep.hf_prefix == [1, 3, 3, 1, 1]


def test_solve_mixed_2var(mixed_2var_ideal):
    rep = solve(mixed_2var_ideal, Options(degree_policy="certified_stable"))
    got = {tuple(ep.point): ep.multiplicity for ep in rep.points}
    assert got == {(1, 1): 1, (1, 0): 2}
    assert sum(got.values()) == rep.triplet.size == 3


def test_solve_artinian():
    I = ideal_from(["x0", "x1"], ("x0", "x1"))
    rep = solve(I)
    assert rep.artinian and rep.points == [] and rep.triplet is None


def test_solve_deterministic(main_ideal):
    a = solve(main_ideal, Options(seed=5))
    b = solve(main_ideal, Options(seed=5))
    assert [(tuple(ep.point), ep.multiplicity) for ep in a.points] \
        == [(tuple(ep.point), ep.multiplicity) for ep in b.points]
    assert a.residual_degree == b.residual_degree
    assert [tuple(ep.point) for ep in a.rejected] \
        == [tuple(ep.point) for ep in b.rejected]


def test_solve_six_point_vanishing_ideal(six_points):
    I = vanishing_ideal(six_points)
    rep = solve(I, Options(seed=2))
    got = sorted(tuple(ep.point) for ep in rep.points)
    want = sorted(tuple(r) for r in six_points.reps)
    assert got == want
    assert all(ep.multiplicity == 1 for ep in rep.points)
    assert rep.residual_degree == 0 and rep.rejected == []


def test_solve_prime_field_end_to_end():
    GF7 = PrimeField(7)
    P = normalize([[1, 2, 3], [1, 0, 6], [0, 1, 5]], GF7)
    I = vanishing_ideal(P)
    rep = solve(I, Options(seed=0))
    got = sorted((tuple(ep.point), ep.multiplicity) for ep in rep.points)
    assert got == [((0, 1, 5), 1), ((1, 0, 6), 1), ((1, 2, 3), 1)]
    assert rep.residual_degree == 0 and rep.rejected == []


def test_solve_conjugate_points_report_residual():
    # x^2 + y^2 cuts out two conjugate points of P^1 over Q
    I = ideal_from(["x0^2 + x1^2"], ("x0", "x1"))
    rep = solve(I, Options(seed=0))
    assert rep.points == []
    assert rep.residual_degree == 2
    assert any("incomplete splitting" in w for w in rep.warnings)


def test_shared_draws_give_per_point_multiplicities(mixed_2var_ideal,
                                                    monkeypatch):
    """Every point's multiplicity comes from the one combination that the
    eigenvector search draws: one char poly per solve, not per point."""
    calls = []

    def counted(M):
        calls.append(M)
        return char_poly(M)

    monkeypatch.setattr(solver, "char_poly", counted)
    for seed in (0, 1):
        calls.clear()
        rep = solve(mixed_2var_ideal,
                    Options(degree_policy="certified_stable", seed=seed))
        assert sorted(ep.multiplicity for ep in rep.points) == [1, 2]
        assert len(calls) == 1


def test_multiplicity_overcount_warns(mixed_2var_ideal):
    # data/line_and_double_point.ideal: first_surjective builds the triplet
    # at d = 3, below d* = 5, and counts (1 : 0) three times against m = 3
    I = mixed_2var_ideal
    rep = solve(I, Options())
    assert sorted(ep.multiplicity for ep in rep.points) == [1, 3]
    assert any("sum to 4" in w and "m = 3" in w
               and "certified_stable" in w for w in rep.warnings)
    stable = solve(I, Options(degree_policy="certified_stable"))
    assert sorted(ep.multiplicity for ep in stable.points) == [1, 2]
    assert not any("sum to" in w for w in stable.warnings)


# The search through one generic combination against the per-matrix descent
# it replaced (tests/eigen_oracle.py).

EIGEN_FIELDS = [PrimeField(3), PrimeField(7), PrimeField(101), Q]


def small_matrices(field, m):
    entry = st.integers(-2, 2).map(field.from_int)
    return st.lists(st.lists(entry, min_size=m, max_size=m),
                    min_size=m, max_size=m).map(lambda rows: Matrix(field, rows))


@st.composite
def conjugator(draw, field, m):
    """A random invertible S with its inverse, or the identity."""
    S = draw(small_matrices(field, m))
    try:
        return S, S.inverse()
    except ProjzeroError:
        return Matrix.identity(field, m), Matrix.identity(field, m)


@st.composite
def eigen_tuples(draw):
    """Matrix tuples of three kinds: polynomials in one matrix (commuting),
    conjugated diagonal matrices with repeated entries (blocks), and
    unrelated matrices, some upper triangular so that e_0 is a common
    eigenvector (non-commuting)."""
    field = draw(st.sampled_from(EIGEN_FIELDS))
    m = draw(st.integers(1, 6))
    k = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["poly", "diag", "unrelated"]))
    small = st.integers(-2, 2).map(field.from_int)
    S, S_inv = draw(conjugator(field, m))

    def triangular(B):
        return Matrix(field, [[x if j >= i else field.zero
                               for j, x in enumerate(r)]
                              for i, r in enumerate(B.rows)])

    if kind == "poly":
        B = draw(small_matrices(field, m))
        if draw(st.booleans()):
            B = S @ triangular(B) @ S_inv
        I = Matrix.identity(field, m)
        A = []
        for _ in range(k):
            c0, c1, c2 = draw(st.lists(small, min_size=3, max_size=3))
            A.append(I.scale(c0) + B.scale(c1) + (B @ B).scale(c2))
    elif kind == "diag":
        # coordinates with one label share their entry on every diagonal
        labels = draw(st.lists(st.integers(0, 2), min_size=m, max_size=m))
        A = []
        for _ in range(k):
            value = draw(st.lists(small, min_size=3, max_size=3))
            D = Matrix(field, [[value[labels[i]] if i == j else field.zero
                                for j in range(m)] for i in range(m)])
            A.append(S @ D @ S_inv)
    else:
        A = [draw(small_matrices(field, m)) for _ in range(k)]
        A = [triangular(B) if draw(st.booleans()) else B for B in A]
    return A, draw(st.sampled_from([0, 1]))


def assert_same_search(A, seed):
    """The search against the oracle, and on commuting matrices each
    multiplicity against the joint generalized eigenspace."""
    got = common_eigenvectors(A, seed=seed)
    want = eigen_oracle.common_eigenvectors(A)
    assert [(v, l) for v, l, _ in got.vectors] == want.vectors
    assert [(b.basis, b.lambdas) for b in got.blocks] \
        == [(b.basis, b.lambdas) for b in want.blocks]
    assert got.residual == want.residual
    if all(B @ C == C @ B for B in A for C in A):
        for _, lambdas, mult in got.vectors:
            assert mult == eigen_oracle.joint_multiplicity(A, lambdas)
    return got


@settings(max_examples=200)
@given(eigen_tuples())
def test_common_eigenvectors_match_oracle(case):
    assert_same_search(*case)


def local_algebra(field, size, kind):
    """Commuting nilpotent generators of a local algebra of dimension
    `size`, as matrices of multiplication: powers of one Jordan block
    (curvilinear, K[x]/(x^size)), or x and y on K[x, y]/(x, y)^2 with basis
    1, x, y, which no single matrix generates."""
    z, o = field.zero, field.one
    if kind == "curvilinear":
        J = Matrix(field, [[o if j == i + 1 else z for j in range(size)]
                           for i in range(size)])
        return [J, J @ J]
    Nx = Matrix(field, [[z, o, z], [z, z, z], [z, z, z]])
    Ny = Matrix(field, [[z, z, o], [z, z, z], [z, z, z]])
    return [Nx, Ny]


def block_diagonal(field, blocks):
    m = sum(B.nrows for B in blocks)
    rows, at = [], 0
    for B in blocks:
        for r in B.rows:
            rows.append([field.zero] * at + r
                        + [field.zero] * (m - at - B.nrows))
        at += B.nrows
    return Matrix(field, rows)


@st.composite
def fat_point_families(draw):
    """Commuting A_0..A_{k-1}: a direct sum of local blocks, one per point,
    each lambda_j + a nilpotent element of the block's local algebra, then
    conjugated. Points may repeat; the multiplicity of a tuple is the
    total size of its blocks."""
    field = draw(st.sampled_from(EIGEN_FIELDS))
    k = draw(st.integers(1, 3))
    small = st.integers(-2, 2).map(field.from_int)
    blocks = draw(st.lists(st.tuples(
        st.sampled_from(["curvilinear", "local"]), st.integers(1, 3),
        st.lists(small, min_size=k, max_size=k)), min_size=1, max_size=3))
    per_matrix = [[] for _ in range(k)]
    sizes = {}
    for kind, size, lambdas in blocks:
        size = 3 if kind == "local" else size
        gens = local_algebra(field, size, kind)
        sizes[tuple(lambdas)] = sizes.get(tuple(lambdas), 0) + size
        for j, lam in enumerate(lambdas):
            B = Matrix.identity(field, size).scale(lam)
            for N in gens:
                B = B + N.scale(draw(small))
            per_matrix[j].append(B)
    S, S_inv = draw(conjugator(field, sum(sizes.values())))
    A = [S @ block_diagonal(field, bl) @ S_inv for bl in per_matrix]
    return A, sizes


@settings(max_examples=200)
@given(fat_point_families(), st.sampled_from([0, 1]),
       st.one_of(st.none(), st.lists(st.integers(-1, 1), min_size=3,
                                     max_size=3)))
def test_multiplicities_match_joint_generalized_eigenspaces(family, seed,
                                                            forced):
    """Each multiplicity is the dimension of the joint generalized
    eigenspace, for the seeded draw and for forced draws, zeros included,
    that need not separate the points (M = 0 descends the whole space)."""
    A, sizes = family
    draw = solver._draw_coefficients
    if forced is not None:
        def draw(field, n, rng):
            return [field.from_int(c) for c in forced[:n]]
    with mock.patch.object(solver, "_draw_coefficients", draw):
        found = assert_same_search(A, seed)
    for _, lambdas, mult in found.vectors:
        assert mult == sizes[tuple(lambdas)]


FIXTURES = Path(__file__).resolve().parent.parent / "data"


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.ideal")),
                         ids=lambda p: p.stem)
def test_common_eigenvectors_match_oracle_on_ideal_fixtures(path):
    I = parse_ideal_file(path.read_text())
    try:
        t = build_triplet(I, Options(max_degree=8))
    except ProjzeroError:
        pytest.skip("no triplet below degree 9")
    for seed in (0, 1):
        assert_same_search(t.A, seed)


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.pts")),
                         ids=lambda p: p.stem)
def test_common_eigenvectors_match_oracle_on_point_fixtures(path):
    P, _ = parse_points_file(path.read_text())
    try:
        t, _, _ = bm_triplet(P)
    except ProjzeroError:
        pytest.skip("field too small for the sweep")
    for seed in (0, 1):
        assert_same_search(t.A, seed)


@pytest.mark.parametrize("name", ["ci_3_4_p32003", "three_quadrics"])
def test_solve_searches_one_combination(name, monkeypatch):
    """One root search, one char poly, and no eigenspace of any A_j."""
    I = parse_ideal_file((FIXTURES / f"{name}.ideal").read_text())
    calls = {"roots_in_field": 0, "char_poly": 0}
    shifted = []

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    def recorded(M, lam):
        shifted.append(M)
        return eigenspace(M, lam)

    for name_ in calls:
        monkeypatch.setattr(solver, name_, counting(name_, getattr(solver, name_)))
    monkeypatch.setattr(solver, "eigenspace", recorded)
    rep = solve(I)
    assert rep.points and rep.residual_degree == 0
    assert calls["roots_in_field"] == 1
    assert calls["char_poly"] == 1
    assert shifted and not any(M == Aj for M in shifted for Aj in rep.triplet.A)


def test_a_zero_draw_splits_the_whole_space_without_eigenspaces_of_A(
        main_triplet, monkeypatch):
    """M = 0 sends the whole space into the split, which finds each
    lambda-part inside the space: the only eigenspace taken is M's."""
    A = main_triplet.A
    shifted = []

    def recorded(M, lam):
        shifted.append(M)
        return eigenspace(M, lam)

    def zero_draw(field, n, rng):
        return [field.zero] * n

    monkeypatch.setattr(solver, "eigenspace", recorded)
    monkeypatch.setattr(solver, "_draw_coefficients", zero_draw)
    found = common_eigenvectors(A)
    assert len(shifted) == 1 and shifted[0] == zero_matrix(Q, 3, 3)
    assert not any(M is Aj for M in shifted for Aj in A)
    assert [(v, l) for v, l, _ in found.vectors] \
        == eigen_oracle.common_eigenvectors(A).vectors
