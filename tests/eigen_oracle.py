"""The joint eigenvector search that projzero ran before it searched through
one generic combination, kept as the oracle of the differential tests.

Every matrix A_j gets its own char poly, root search and one eigenspace per
in-field eigenvalue; the search descends A_0, A_1, ... intersecting the
current subspace with each eigenspace, and sets `residual` when some level
covers less than its subspace. `common_eigenvectors` here is the old
`solver.common_eigenvectors` unchanged. `joint_multiplicity` is the
definition of a point's multiplicity that solve's multiplicities are
tested against: the dimension of the joint generalized eigenspace.
`eigenpoints_from_matrices` is not the oracle: it reads solve's candidate
points, before filtering, off any matrices with projzero's own search.
"""

from projzero.linalg import (Matrix, char_poly, eigenspace, kernel,
                             normalize_vector, roots_in_field, rref)
from projzero import solver
from projzero.solver import EigenSearch, JointBlock


def _intersect(basis_a, basis_b, field):
    """Intersection of two column-span subspaces, as a canonical row basis."""
    if not basis_a or not basis_b:
        return []
    m = len(basis_a[0])
    cols = [[basis_a[j][i] for j in range(len(basis_a))] +
            [field.neg(basis_b[j][i]) for j in range(len(basis_b))]
            for i in range(m)]
    stacked = Matrix(field, cols, ncols=len(basis_a) + len(basis_b))
    out = []
    for combo in kernel(stacked):
        alpha = combo[:len(basis_a)]
        vec = [field.zero] * m
        for a, bv in zip(alpha, basis_a):
            if field.is_zero(a):
                continue
            for i in range(m):
                vec[i] = field.add(vec[i], field.mul(a, bv[i]))
        if any(not field.is_zero(x) for x in vec):
            out.append(vec)
    if not out:
        return []
    R, rank, _ = rref(Matrix(field, out, ncols=m))
    return [list(r) for r in R.rows[:rank]]


def common_eigenvectors(A: list) -> EigenSearch:
    """Simultaneous eigenspace search over all matrices, in order.

    Processes A_0 first; for each in-field eigenvalue the subspace is
    intersected with the eigenspace and the next matrix is handled
    recursively. One-dimensional terminal subspaces emit a vector; larger
    ones are reported as blocks; mass lost to out-of-field eigenvalues sets
    the residual flag.
    """
    field = A[0].field
    m = A[0].nrows
    eigs = []
    for Aj in A:
        report = roots_in_field(char_poly(Aj), field)
        spaces = [(lam, eigenspace(Aj, lam)) for lam, _ in report.pairs]
        eigs.append([(lam, sp) for lam, sp in spaces if sp])
    search = EigenSearch(vectors=[], blocks=[], residual=False,
                         residual_degree=None)  # not computed here
    full = [list(r) for r in Matrix.identity(field, m).rows]
    _descend(full, 0, [], A, eigs, field, search)
    return search


def _descend(space, j, lambdas, A, eigs, field, search):
    if j == len(A):
        if len(space) == 1:
            v = normalize_vector(space[0], field)
            search.vectors.append((v, list(lambdas)))
        else:
            search.blocks.append(JointBlock(basis=space, lambdas=list(lambdas)))
        return
    covered = 0
    for lam, spc in eigs[j]:
        sub = _intersect(space, spc, field)
        if not sub:
            continue
        covered += len(sub)
        _descend(sub, j + 1, lambdas + [lam], A, eigs, field, search)
    if covered < len(space):
        search.residual = True


def joint_multiplicity(A: list, lambdas: list) -> int:
    """dim of the joint generalized eigenspace: the intersection of
    ker(A_j - lambda_j)^m over j, for m x m matrices."""
    field = A[0].field
    m = A[0].nrows
    one = Matrix.identity(field, m)
    rows = []
    for Aj, lam in zip(A, lambdas):
        shifted = Aj - one.scale(lam)
        power = one
        for _ in range(m):
            power = power @ shifted
        rows += power.rows
    return m - rref(Matrix(field, rows, ncols=m))[1]


def eigenpoints_from_matrices(A: list) -> list:
    """EigenPoints for every 1-dimensional joint eigenspace of the matrices,
    from `solver.common_eigenvectors`."""
    return solver._eigenpoints(solver.common_eigenvectors(A), A[0].field)
