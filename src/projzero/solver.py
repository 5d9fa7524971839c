"""Variety extraction from multiplication matrices.

Candidate points come from one-dimensional joint eigenspaces of the
matrices A_0..A_n: a joint eigenvector with eigenvalue tuple (l_0,...,l_n)
yields the projective point (l_0 : ... : l_n). Candidates that fail to kill
every generator are reported as rejected ("false" points).

The joint eigenvectors are read off one seeded generic combination
M = sum c_j A_j: one char poly, one root search, one kernel per in-field
root mu. This is exact without any genericity assumption, and it never
assumes that the matrices commute. A joint eigenspace E(l) with l in K^{n+1}
lies in ker(M - mu) for mu = sum c_j l_j, a root in K, and the kernels for
distinct mu meet only in 0, so every E(l) is found once. Each kernel goes
through one split. A one-dimensional space holds a joint eigenvector only if
its spanning vector is one, which is checked exactly on the remaining A_j. A
larger space with rows W is split by each in-field eigenvalue lambda of the
next A_j inside itself: its lambda-part {aW : a(W A_j^T - lambda W) = 0} is
one kernel with dim W columns. An unlucky draw only sends more roots into
the split.

A point's multiplicity is the dimension of its joint generalized eigenspace
V_l = {v : (A_j - l_j)^m v = 0 for all j} (m x m matrices), read off the
same combination. Take commuting A_j. Every V_l (l over the algebraic
closure) holds a joint eigenvector, which lies in ker(M - mu(l)) for
mu(l) = sum c_j l_j; eigenvectors for distinct l are independent, and the
dimension of a kernel does not depend on the field. So dim_K ker(M - mu) = 1
means that exactly one l has mu(l) = mu, the generalized eigenspace of M for
mu is V_l, and mu's multiplicity in the char poly of M, which the root
search returns, is dim V_l. A point found below the top of the split gets
the dimension of the intersection of the ker(A_j - l_j)^m: that is V_l,
exactly and without a draw.
The V_l are independent, so on commuting matrices the multiplicities sum to
at most m. On matrices that do not commute (a first_surjective triplet
below stability) the same numbers are algebraic multiplicities on the
combination, or dimensions of those intersections.
"""

import random
from dataclasses import dataclass, field as dc_field
from itertools import repeat

from .linalg import (Matrix, char_poly, eigenspace, entrywise, kernel,
                     linear_combination, normalize_vector, roots_in_field,
                     rref, vec_matmul)
from .quotient import IdealPresentation, Options, hilbert_scan
from .triplet import Triplet, build_triplet


@dataclass
class EigenPoint:
    v: list        # joint eigenvector, first nonzero entry 1
    lambdas: list  # eigenvalue per matrix A_0..A_n
    point: list    # (lambda_0 : ... : lambda_n), first nonzero entry 1
    multiplicity: int  # dimension of the joint generalized eigenspace


@dataclass
class JointBlock:
    """A joint eigenspace of dimension > 1; reported, never interpreted."""

    basis: list
    lambdas: list


@dataclass
class EigenSearch:
    vectors: list         # (v, lambdas, multiplicity) per 1-dimensional
                          # joint eigenspace
    blocks: list          # JointBlock entries
    residual: bool        # the joint eigenspaces found span less than m
    residual_degree: int  # degree of the combination's non-split char poly part


def _joint_eigenvector(w, transposes, field):
    """(w, lambdas) if the normalized w is an eigenvector of every A_j, else
    None. lambda_j is (A_j w)_i at the first nonzero w_i = 1; A_j w is
    w A_j^T, from the transposes."""
    i = next(k for k, x in enumerate(w) if x)
    lambdas = []
    for T in transposes:
        Aw = vec_matmul(w, T)
        lam = Aw[i]
        if Aw != entrywise(repeat(lam), w, field):
            return None
        lambdas.append(lam)
    return w, lambdas


def common_eigenvectors(A: list, seed=0) -> EigenSearch:
    """Joint eigenspaces of A_0..A_n with eigenvalues in the field.

    Draws the combination M = sum c_j A_j from `seed` and splits ker(M - mu)
    for each in-field root mu of its char poly (see the module docstring).
    The char poly of A_j is computed only when a space larger than one
    dimension reaches A_j. One-dimensional joint eigenspaces are reported as
    vectors with their multiplicities, mu's multiplicity at the top and the
    joint generalized eigenspace's dimension below it; larger ones as
    blocks, both sorted by their eigenvalue tuples. The residual flag is
    set when they span less than m; none of these depends on the draw (see
    the module docstring). The residual degree is that of the part of M's
    char poly without roots in the field.
    """
    field = A[0].field
    m = A[0].nrows
    coeffs = _draw_coefficients(field, len(A), random.Random(f"residual:{seed}"))
    M = linear_combination(coeffs, A)
    report = roots_in_field(char_poly(M), field)
    search = EigenSearch(vectors=[], blocks=[], residual=False,
                         residual_degree=report.residual_degree)
    transposes = [Aj.transpose() for Aj in A]
    eigenvalues = {}  # in-field roots of A_j's char poly, on first use

    def split(W, lambdas, mult=None):
        j = len(lambdas)
        if len(W) == 1:
            found = _joint_eigenvector(normalize_vector(W[0], field),
                                       transposes[j:], field)
            if found is not None:
                v, rest = found
                lambdas = lambdas + rest
                if mult is None:
                    mult = _joint_multiplicity(A, lambdas, field)
                search.vectors.append((v, lambdas, mult))
        elif j == len(A):
            search.blocks.append(JointBlock(basis=W, lambdas=lambdas))
        else:
            if j not in eigenvalues:
                eigenvalues[j] = [lam for lam, _ in
                                  roots_in_field(char_poly(A[j]), field).pairs]
            span = Matrix(field, W)
            cols = span.transpose()
            image = A[j] @ cols  # column i is A_j w_i
            for lam in eigenvalues[j]:
                # a with (A_j - lambda) W^T a^T = 0: the lambda-part is aW
                alphas = kernel(linear_combination([1, -lam], [image, cols]))
                if alphas:
                    R, rank, _ = rref(Matrix(field, alphas) @ span)
                    split(R.rows[:rank], lambdas + [lam])

    for mu, mult in report.pairs:
        split(eigenspace(M, mu), [], mult)

    def by_lambdas(lambdas):
        return [field.sort_key(x) for x in lambdas]

    search.vectors.sort(key=lambda vl: by_lambdas(vl[1]))
    search.blocks.sort(key=lambda b: by_lambdas(b.lambdas))
    spanned = len(search.vectors) + sum(len(b.basis) for b in search.blocks)
    search.residual = spanned < m
    return search


def _joint_multiplicity(A, lambdas, field):
    """dim of the intersection of ker(A_j - lambda_j)^m for m x m matrices:
    the kernel of the powers stacked."""
    m = A[0].nrows
    rows = []
    for Aj, lam in zip(A, lambdas):
        rows += (Aj - Matrix.identity(field, m).scale(lam)).mat_pow(m).rows
    return m - Matrix(field, rows).rank()


def _eigenpoints(found: EigenSearch, field) -> list:
    """EigenPoints of the found vectors; an all-zero eigenvalue tuple has no
    projective point behind it and is skipped."""
    points = []
    for v, lambdas, mult in found.vectors:
        pt = normalize_vector(lambdas, field)
        if pt is not None:
            points.append(EigenPoint(v=v, lambdas=lambdas, point=pt,
                                     multiplicity=mult))
    return points


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


@dataclass
class SolutionReport:
    points: list                  # kept EigenPoints
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


def solve(I: IdealPresentation, options: Options = Options()) -> SolutionReport:
    """Full pipeline: Hilbert scan, triplet, eigenvectors and their
    multiplicities, filter."""
    scan = hilbert_scan(I, options)
    if scan.artinian:
        return SolutionReport(points=[], rejected=[], hf_prefix=scan.hf_values,
                              scan=scan, triplet=None, residual_degree=0,
                              blocks=0, warnings=["artinian quotient; variety is empty"])
    triplet = build_triplet(I, options, scan)
    found = common_eigenvectors(triplet.A, seed=options.seed)
    field = I.field
    kept, rejected = filter_points(_eigenpoints(found, field), I)
    kept.sort(key=lambda ep: [field.sort_key(x) for x in ep.point])
    rejected.sort(key=lambda ep: [field.sort_key(x) for x in ep.point])
    resid = found.residual_degree
    warnings = []
    total = sum(ep.multiplicity for ep in kept)
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
    return SolutionReport(points=kept, rejected=rejected,
                          hf_prefix=scan.hf_values, scan=scan, triplet=triplet,
                          residual_degree=resid, blocks=len(found.blocks),
                          warnings=warnings)
