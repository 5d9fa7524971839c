"""Variety extraction from multiplication matrices.

Candidate points come from one-dimensional joint eigenspaces of the
matrices A_0..A_n: a joint eigenvector with eigenvalue tuple (l_0,...,l_n)
yields the projective point (l_0 : ... : l_n). Candidates that fail to kill
every generator are reported as rejected ("false" points). Multiplicity of
a kept point is the algebraic multiplicity of its eigenvalue under a random
linear combination of the matrices, double-checked with a second draw.

The joint eigenspace search never assumes the matrices commute: each step
intersects the current subspace with a full eigenspace of the next matrix,
which is correct (if slightly wasteful) for the mixed, below-stability
triplets the pipeline may produce.
"""

import random
from dataclasses import dataclass, field as dc_field

from .errors import GenericityFailure
from .linalg import (Matrix, char_poly, deflate, eigenspace, kernel,
                     linear_combination, normalize_vector, roots_in_field,
                     rref)
from .quotient import IdealPresentation, hilbert_scan
from .polyring import MonomialOrder, Form
from .triplet import Triplet, TripletOptions, build_triplet


@dataclass
class EigenPoint:
    v: list        # joint eigenvector, first nonzero entry 1
    lambdas: list  # eigenvalue per matrix A_0..A_n
    point: list    # (lambda_0 : ... : lambda_n), first nonzero entry 1


@dataclass
class JointBlock:
    """A joint eigenspace of dimension > 1; reported, never interpreted."""

    basis: list
    lambdas: list


@dataclass
class EigenSearch:
    vectors: list   # (v, lambdas) for 1-dimensional joint eigenspaces
    blocks: list    # JointBlock entries
    residual: bool  # some subspace had no in-field eigenvalue decomposition


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
    search = EigenSearch(vectors=[], blocks=[], residual=False)
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


def eigenpoints_from_matrices(A: list) -> list:
    """EigenPoints for every 1-dimensional joint eigenspace of the matrices."""
    field = A[0].field
    found = common_eigenvectors(A)
    points = []
    for v, lambdas in found.vectors:
        pt = normalize_vector(lambdas, field)
        if pt is None:
            continue  # all eigenvalues zero: no projective point behind it
        points.append(EigenPoint(v=v, lambdas=lambdas, point=pt))
    return points


def candidate_points(triplet: Triplet) -> list:
    return eigenpoints_from_matrices(triplet.A)


def filter_points(candidates: list, I: IdealPresentation):
    """Keep candidates on which every generator vanishes."""
    kept, rejected = [], []
    for ep in candidates:
        if all(I.field.is_zero(g.evaluate(ep.point)) for g in I.generators):
            kept.append(ep)
        else:
            rejected.append(ep)
    return kept, rejected


def _draw_coefficients(field, n, rng):
    if field.size is None:
        return [field.from_int(rng.randint(1, 97)) for _ in range(n)]
    return [field.from_int(rng.randint(1, field.size - 1)) for _ in range(n)]


class CombinationDraws:
    """The seeded generic combinations sum c_j A_j that `multiplicity` draws.

    The draws depend only on the seed, so one instance serves every point
    of a triplet: each draw's coefficients and char poly are computed once,
    on first use, in the order of the seeded generator.
    """

    def __init__(self, triplet: Triplet, seed=0):
        self.field = triplet.l.field
        self._A = triplet.A
        self._rng = random.Random(f"mult:{seed}")
        self._draws = []

    def __getitem__(self, k):
        while len(self._draws) <= k:
            coeffs = _draw_coefficients(self.field, len(self._A), self._rng)
            A = linear_combination(coeffs, self._A)
            self._draws.append((coeffs, char_poly(A)))
        return self._draws[k]


def multiplicity(p: EigenPoint, triplet: Triplet, seed=0, draws=None) -> int:
    """Algebraic multiplicity of p's eigenvalue on a generic combination.

    The combination sum c_j A_j has p's eigenvalue sum c_j lambda_j, whose
    multiplicity is the number of times (t - that value) divides its char
    poly, so no root search is needed. Two draws must agree; a third breaks
    a single mismatch and three pairwise-distinct answers raise
    GenericityFailure. Pass the triplet's CombinationDraws as `draws` to
    share the draws between points; otherwise they are drawn from `seed`.
    """
    if draws is None:
        draws = CombinationDraws(triplet, seed)
    field = draws.field
    seen = []
    for k in range(3):
        coeffs, cp = draws[k]
        target = field.zero
        for c, lam in zip(coeffs, p.lambdas):
            target = field.add(target, field.mul(c, lam))
        mult, _ = deflate(cp, target, field)
        if mult == 0:
            raise GenericityFailure("eigenvalue missing from the combination")
        if mult in seen:
            return mult
        seen.append(mult)
    raise GenericityFailure(f"three disagreeing draws: {seen}")


def residual_degree_of(triplet: Triplet, seed=0) -> int:
    """Degree of the char-poly part of a generic combination not splitting
    over the ground field."""
    field = triplet.l.field
    rng = random.Random(f"residual:{seed}")
    coeffs = _draw_coefficients(field, len(triplet.A), rng)
    A = linear_combination(coeffs, triplet.A)
    return roots_in_field(char_poly(A), field).residual_degree


@dataclass
class SolveOptions:
    seed: int = 0
    max_degree: int | None = None
    degree_policy: str = "first_surjective"
    strategy: str = "random"
    max_trials: int = 200
    linear_form: Form | None = None


@dataclass
class SolutionReport:
    points: list                  # (EigenPoint, multiplicity), kept ones
    rejected: list                # EigenPoint candidates that failed filtering
    hf_prefix: list
    scan: object
    triplet: Triplet | None
    residual_degree: int
    blocks: int                   # joint eigenspaces of dimension > 1
    warnings: list = dc_field(default_factory=list)

    @property
    def artinian(self) -> bool:
        return self.scan is not None and self.scan.artinian


def solve(I: IdealPresentation, order: MonomialOrder | None = None,
          options: SolveOptions = SolveOptions()) -> SolutionReport:
    """Full pipeline: Hilbert scan, triplet, eigenvectors, filter, multiplicity."""
    if order is None:
        order = MonomialOrder.default(I.nvars)
    scan = hilbert_scan(I, order, options.max_degree)
    if scan.artinian:
        return SolutionReport(points=[], rejected=[], hf_prefix=scan.hf_values,
                              scan=scan, triplet=None, residual_degree=0,
                              blocks=0, warnings=["artinian quotient; variety is empty"])
    topt = TripletOptions(degree_policy=options.degree_policy,
                          seed=options.seed, max_degree=options.max_degree,
                          strategy=options.strategy,
                          max_trials=options.max_trials,
                          linear_form=options.linear_form)
    triplet = build_triplet(I, order, topt)
    found = common_eigenvectors(triplet.A)
    field = I.field
    candidates = []
    for v, lambdas in found.vectors:
        pt = normalize_vector(lambdas, field)
        if pt is not None:
            candidates.append(EigenPoint(v=v, lambdas=lambdas, point=pt))
    kept, rejected = filter_points(candidates, I)
    kept.sort(key=lambda ep: [field.sort_key(x) for x in ep.point])
    rejected.sort(key=lambda ep: [field.sort_key(x) for x in ep.point])
    draws = CombinationDraws(triplet, options.seed)
    points = [(ep, multiplicity(ep, triplet, draws=draws)) for ep in kept]
    resid = residual_degree_of(triplet, seed=options.seed)
    warnings = []
    total = sum(mult for _, mult in points)
    if total > scan.m:
        warnings.append(
            f"multiplicities sum to {total}, more than the stable Hilbert "
            f"value m = {scan.m} (triplet degree {triplet.d}, stabilization "
            f"degree {scan.stabilization_degree}); --degree-policy "
            "certified_stable builds the triplet where hf is stable")
    if resid > 0:
        warnings.append(
            f"incomplete splitting: residual degree {resid} (eigenvalue mass "
            "that does not split over the field: conjugate points, or "
            "artifacts of a triplet below the stabilization degree)")
    if found.blocks:
        warnings.append(
            f"{len(found.blocks)} joint eigenspaces of dimension > 1 were "
            "not interpreted as points")
    return SolutionReport(points=points, rejected=rejected,
                          hf_prefix=scan.hf_values, scan=scan, triplet=triplet,
                          residual_degree=resid, blocks=len(found.blocks),
                          warnings=warnings)
