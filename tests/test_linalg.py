import random
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from projzero import (Matrix, char_poly, eigenspace, kernel, roots_in_field,
                      rref)
from projzero.fields import PrimeField, RationalField
from projzero.linalg import poly_divide_linear, poly_eval
from tests.rref_oracle import (is_zero_matrix, poly_mul, solve_in_rowspace,
                               zero_matrix)

Q = RationalField()
GF7 = PrimeField(7)

# multiplication matrices from R_1 to R_2 for the three-quadrics ideal,
# with respect to the bases ([x],[y],[z]) and ([y^2],[yz],[z^2])
M_X = [[1, -2, 1], [1, -1, 0], [0, -1, 1]]
M_Y = [[1, -1, 0], [1, 0, 0], [0, 1, 0]]
M_Z = [[0, -1, 1], [0, 1, 0], [0, 0, 1]]


def qmat(rows):
    return Matrix(Q, [[Fraction(v) for v in r] for r in rows],
                  ncols=len(rows[0]) if rows else 0)


def rand_matrix(rng, field, nrows, ncols, span=5):
    if field.size is None:
        return Matrix(field, [[Fraction(rng.randint(-span, span))
                               for _ in range(ncols)] for _ in range(nrows)],
                      ncols=ncols)
    return Matrix(field, [[rng.randrange(field.size) for _ in range(ncols)]
                          for _ in range(nrows)], ncols=ncols)


small_q = st.integers(min_value=-6, max_value=6).map(Fraction)
q_matrices = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(st.lists(small_q, min_size=c, max_size=c),
                           min_size=r, max_size=r)))


def test_rref_identity():
    M = Matrix.identity(Q, 3)
    R, rank, pivots = rref(M)
    assert R == M and rank == 3 and pivots == [0, 1, 2]


def test_rref_multiplication_matrix_ranks():
    assert (qmat(M_Y) + qmat(M_Z)).rank() == 3
    assert qmat(M_X).rank() == 2
    assert len(kernel(qmat(M_X))) == 1


@given(q_matrices)
def test_rref_idempotent(rows):
    M = Matrix(Q, rows)
    R, _, _ = rref(M)
    R2, _, _ = rref(R)
    assert R2 == R


@given(q_matrices)
def test_rank_equals_transpose_rank(rows):
    M = Matrix(Q, rows)
    assert M.rank() == M.transpose().rank()


def test_kernel_identity_and_zero():
    assert kernel(Matrix.identity(Q, 4)) == []
    assert len(kernel(zero_matrix(Q, 2, 2))) == 2


@given(q_matrices)
def test_kernel_vectors_are_killed(rows):
    M = Matrix(Q, rows)
    for v in kernel(M):
        assert all(sum(a * b for a, b in zip(r, v)) == 0 for r in M.rows)


def test_solve_in_rowspace_unit():
    M = qmat(M_Y)
    c = solve_in_rowspace(M.rows[0], M)
    assert c == [1, 0, 0]


def test_solve_in_rowspace_combination():
    rng = random.Random(7)
    for _ in range(25):
        M = rand_matrix(rng, Q, 3, 5)
        v = [2 * a - b for a, b in zip(M.rows[0], M.rows[1])]
        c = solve_in_rowspace(v, M)
        assert c is not None
        got = [sum(ci * M.rows[i][j] for i, ci in enumerate(c))
               for j in range(5)]
        assert got == v


def test_solve_in_rowspace_none_outside():
    M = qmat([[1, 0, 0], [0, 1, 0]])
    assert solve_in_rowspace([Fraction(0), Fraction(0), Fraction(1)], M) is None


def test_solve_in_rowspace_empty_rows():
    M = Matrix(Q, [], ncols=3)
    assert solve_in_rowspace([Q.zero] * 3, M) == []
    assert solve_in_rowspace([Q.one, Q.zero, Q.zero], M) is None


def test_char_poly_identity():
    assert char_poly(Matrix.identity(Q, 2)) == [1, -2, 1]


def _cofactor_char_poly(M):
    # oracle: det(tI - M) by textbook cofactor expansion over Q[t]
    f = M.field
    n = M.nrows
    grid = [[[f.neg(M.rows[i][j])] if i != j else [f.neg(M.rows[i][j]), f.one]
             for j in range(n)] for i in range(n)]

    def det(rows_ix, cols_ix):
        if len(rows_ix) == 1:
            return grid[rows_ix[0]][cols_ix[0]]
        acc = [f.zero]
        r = rows_ix[0]
        for k, c in enumerate(cols_ix):
            minor = det(rows_ix[1:], cols_ix[:k] + cols_ix[k + 1:])
            term = poly_mul(grid[r][c], minor, f)
            if k % 2:
                term = [f.neg(x) for x in term]
            width = max(len(acc), len(term))
            acc = [f.add(acc[i] if i < len(acc) else f.zero,
                         term[i] if i < len(term) else f.zero)
                   for i in range(width)]
        return acc

    return det(tuple(range(n)), tuple(range(n)))


def test_char_poly_against_cofactor_oracle():
    rng = random.Random(3)
    for _ in range(15):
        M = rand_matrix(rng, Q, 4, 4)
        assert char_poly(M) == _cofactor_char_poly(M)
    for _ in range(15):
        M = rand_matrix(rng, GF7, 4, 4)
        assert char_poly(M) == _cofactor_char_poly(M)


def test_char_poly_gfp_small_prime_large_matrix():
    # n >= p: trace-based recurrences would divide by zero here
    GF2 = PrimeField(2)
    rng = random.Random(5)
    for _ in range(10):
        M = rand_matrix(rng, GF2, 4, 4)
        assert char_poly(M) == _cofactor_char_poly(M)


def test_cayley_hamilton_random():
    # acceptance property (h): 100 cases over Q and GF(7), sizes 3 and 4
    rng = random.Random(11)
    for field in (Q, GF7):
        for n in (3, 4):
            for _ in range(25):
                M = rand_matrix(rng, field, n, n)
                p = char_poly(M)
                acc = zero_matrix(field, n, n)
                power = Matrix.identity(field, n)
                for coeff in p:
                    acc = acc + power.scale(coeff)
                    power = power @ M
                assert is_zero_matrix(acc)


def test_roots_trivial_square():
    rep = roots_in_field([Fraction(1), Fraction(-2), Fraction(1)], Q)
    assert rep.pairs == [(1, 2)] and rep.residual_degree == 0


def test_roots_no_rational():
    rep = roots_in_field([Fraction(1), Fraction(0), Fraction(1)], Q)
    assert rep.pairs == [] and rep.residual_degree == 2


def test_roots_main_example_matrix():
    # projective multiplication matrix for x: eigenvalues 1, 1, 0
    A_x = qmat([[2, 0, 0], [1, 1, -1], [1, -1, 1]]).scale(Fraction(1, 2))
    rep = roots_in_field(char_poly(A_x), Q)
    assert rep.pairs == [(0, 1), (1, 2)]


def test_roots_zero_root_and_scaling():
    # 6 t^2 (t - 1/2) (t + 3)
    p = poly_mul([Fraction(0), Fraction(0), Fraction(1)],
                 poly_mul([Fraction(-1, 2), Fraction(1)],
                          [Fraction(3), Fraction(1)], Q), Q)
    p = [Fraction(6) * c for c in p]
    rep = roots_in_field(p, Q)
    assert rep.pairs == [(-3, 1), (0, 2), (Fraction(1, 2), 1)]
    assert rep.residual_degree == 0


def test_roots_division_property():
    rng = random.Random(13)
    for field in (Q, GF7):
        for _ in range(20):
            M = rand_matrix(rng, field, 3, 3)
            p = char_poly(M)
            rep = roots_in_field(p, field)
            for root, mult in rep.pairs:
                q = list(p)
                for _ in range(mult):
                    q, rem = poly_divide_linear(q, root, field)
                    assert field.is_zero(rem)
                assert not field.is_zero(poly_eval(q, root, field))


def test_roots_gfp_exhaustive():
    rep = roots_in_field([3, 0, 1], GF7)  # t^2 + 3 over GF(7): roots 2, 5
    assert rep.pairs == [(2, 1), (5, 1)] and rep.residual_degree == 0


def test_eigenspace_identity():
    assert len(eigenspace(Matrix.identity(Q, 3), Q.one)) == 3
    assert eigenspace(Matrix.identity(Q, 3), Q.zero) == []


def test_eigenspace_main_example():
    A_x = qmat([[2, 0, 0], [1, 1, -1], [1, -1, 1]]).scale(Fraction(1, 2))
    space = eigenspace(A_x, Q.zero)
    assert len(space) == 1
    v = space[0]
    scale = next(x for x in v if x != 0)
    assert [x / scale for x in v] == [0, 1, 1]


def test_eigenspace_sums_to_n_for_diagonalizable():
    rng = random.Random(17)
    built = 0
    while built < 10:
        T = rand_matrix(rng, Q, 3, 3)
        if T.rank() < 3:
            continue
        built += 1
        lams = [Fraction(rng.randint(-4, 4)) for _ in range(3)]
        D = Matrix(Q, [[lams[i] if i == j else Q.zero for j in range(3)]
                       for i in range(3)])
        M = T @ D @ T.inverse()
        total = sum(len(eigenspace(M, lam)) for lam in set(lams))
        assert total == 3
        for lam in set(lams):
            for v in eigenspace(M, lam):
                got = [sum(r[j] * v[j] for j in range(3)) for r in M.rows]
                assert got == [lam * x for x in v]


def test_matrix_power_binary():
    A = qmat([[1, 1], [0, 1]])
    assert A.mat_pow(0) == Matrix.identity(Q, 2)
    assert A.mat_pow(5) == qmat([[1, 5], [0, 1]])
