"""Algorithms driven by explicit projective point sets.

Every point is stored with a fixed affine representative whose first nonzero
coordinate is one, so evaluation of forms (and hence every rank computation
below) is well defined. The module covers the non-zero-divisor sweep, the
per-degree interpolation variant of the Buchberger-Moeller algorithm that
returns multiplication matrices and, run one degree further, the reduced
Groebner basis of the vanishing ideal, and the separator construction with
its comparison-counted prefix table.
"""

from dataclasses import dataclass

from .errors import (DuplicatePoint, FieldTooSmall, InputError,
                     InvariantViolation, ZeroPoint)
from .linalg import Matrix, entrywise, kernel, normalize_vector, vec_matmul
from .polyring import Form, MonomialOrder, mono_one
from .quotient import IdealPresentation, _interpolate
from .triplet import Triplet, assemble


@dataclass
class ProjPointSet:
    field: object
    n: int          # ambient dimension; points have n+1 coordinates
    reps: list      # normalized affine representatives
    first_one: list  # index of the first nonzero (== 1) coordinate per point

    @property
    def size(self):
        return len(self.reps)

    def eval_form(self, form: Form):
        return [form.evaluate(rep) for rep in self.reps]


def normalize(raw_points, field) -> ProjPointSet:
    """Scale each point so its first nonzero coordinate is 1; reject
    zero vectors and coinciding projective points."""
    if not raw_points:
        raise InputError("empty point set")
    width = len(raw_points[0])
    reps = []
    first_one = []
    for idx, pt in enumerate(raw_points):
        if len(pt) != width:
            raise InputError("points with differing coordinate counts")
        rep = normalize_vector(pt, field)
        if rep is None:
            raise ZeroPoint(f"point {idx} is the zero vector")
        reps.append(rep)
        # the entries before the first one are zero
        first_one.append(rep.index(field.one))
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            if reps[i] == reps[j]:
                raise DuplicatePoint(i, j)
    return ProjPointSet(field=field, n=width - 1, reps=reps, first_one=first_one)


def nzd_sweep(P: ProjPointSet) -> Form:
    """Deterministic linear form nonvanishing at every point.

    Walks the points in order keeping a form v that is nonzero on all points
    seen so far; when v vanishes at the next point, a correction w (zero at
    the current point, nonzero at the next) is added with the first scalar
    weight that spoils none of the earlier points. Each earlier point forbids
    at most one weight, so a field with at least |P| elements always
    suffices; smaller fields raise FieldTooSmall.
    """
    f = P.field
    m = P.size
    nv = P.n + 1
    if f.size is not None and f.size < m:
        raise FieldTooSmall(
            f"{f.name} has {f.size} elements but the sweep needs at least {m}")

    # the points as columns: a linear form's values at all of them are one
    # product
    points = Matrix(f, P.reps).transpose()
    v = [f.zero] * nv
    v[P.first_one[0]] = f.one
    values = vec_matmul(v, points)
    for i in range(1, m):
        if values[i]:
            continue
        # w in the kernel of evaluation at p_{i-1}, nonzero at p_i
        ker = kernel(Matrix(f, [P.reps[i - 1]], ncols=nv))
        w = next((c for c in ker if vec_matmul(c, points)[i]), None)
        if w is None:
            raise InvariantViolation(
                "distinct points always admit a correction")
        vw = Matrix(f, [v, w])
        alphas = (f.from_int(k) for k in range(1, m + 1)) if f.size is None \
            else (f.from_int(k) for k in range(1, f.size))
        for alpha in alphas:
            cand = vec_matmul([f.one, alpha], vw)  # v + alpha w
            values = vec_matmul(cand, points)
            if all(values[:i + 1]):
                v = cand
                break
        else:
            raise FieldTooSmall(f"sweep exhausted the elements of {f.name}")
    return Form.linear(f, v)


def _evaluation_run(P: ProjPointSet, order: MonomialOrder):
    """`_interpolate` over evaluation at the points, from B_0 = {1}, with
    candidates in descending order."""
    f = P.field
    cols = list(zip(*P.reps))
    return _interpolate(f, {mono_one(P.n + 1): [f.one] * P.size},
                        lambda v, j: entrywise(v, cols[j], f), order, False)


def bm_triplet(P: ProjPointSet, order: MonomialOrder | None = None,
               l: Form | None = None) -> tuple[Triplet, list, list]:
    """Interpolation run over the points: per-degree monomial bases until the
    evaluation matrix reaches full rank, then multiplication matrices.

    This is the run of `vanishing_ideal` on every coordinate, stopped at
    the least degree d with hf(d) = |P|. Returns (triplet, B, initials): B
    holds the bases B_0..B_d and the initials are the leading terms of the
    basis elements up to degree d, so a coordinate that is a linear
    combination of others on P is a degree-1 initial. The triplet is the
    ideal side's type, built by the same `triplet.assemble`: E = B_d and
    row i of X_j holds the values of x_j b_i at the points, so
    A_j = X_j L_E^{-1} with L_E the values of l b_k.
    """
    f = P.field
    m = P.size
    order = order or MonomialOrder.default(P.n + 1)
    if l is None:
        l = nzd_sweep(P)
    if any(f.is_zero(x) for x in P.eval_form(l)):
        raise InputError("provided linear form vanishes at a point")

    B = [[mono_one(P.n + 1)]]
    rows = [[f.one] * m]
    initials = []
    runs = _evaluation_run(P, order)
    while len(B[-1]) != m:
        if len(B) > m:
            raise InvariantViolation("interpolation must stop by degree |P|")
        Bd, rows, news, _ = next(runs)
        B.append(Bd)
        initials += news
    X = [Matrix(f, [entrywise(col, row, f) for row in rows], ncols=m)
         for col in zip(*P.reps)]
    return assemble(B[-1], l, X), B, initials


@dataclass
class CMatrix:
    c: list             # c[i][j]: first coordinate where points i and j differ
    comparisons: int    # scalar equality tests spent building the table


def c_matrix(P: ProjPointSet) -> CMatrix:
    """Prefix-grouping table of the points.

    Groups points by growing coordinate prefixes; the first coordinate
    separating a pair is recorded. Only scalar equality tests are counted.
    """
    vectors = P.reps
    m = len(vectors)
    c = [[None] * m for _ in range(m)]
    comparisons = 0
    groups = [list(range(m))]
    for h in range(len(vectors[0])):
        new_groups = []
        for g in groups:
            if len(g) == 1:
                new_groups.append(g)
                continue
            subs = []
            for idx in g:
                placed = False
                for sub in subs:
                    comparisons += 1
                    if vectors[idx][h] == vectors[sub[0]][h]:
                        sub.append(idx)
                        placed = True
                        break
                if not placed:
                    subs.append([idx])
            for a in range(len(subs)):
                for b in range(a + 1, len(subs)):
                    for i in subs[a]:
                        for j in subs[b]:
                            c[i][j] = c[j][i] = h
            new_groups.extend(subs)
        groups = new_groups
        if all(len(g) == 1 for g in groups):
            break
    return CMatrix(c=c, comparisons=comparisons)


def separators(P: ProjPointSet, scaled=False):
    """Degree m-1 forms Q_i with Q_i(p_j) = 0 exactly when i != j.

    Each factor S_ij is a linear form read off the normalized coordinates at
    the first position where p_i and p_j differ; no elimination is involved.
    With scaled=True each Q_i is divided by Q_i(p_i).
    """
    f = P.field
    m = P.size
    nv = P.n + 1
    cm = c_matrix(P)

    def var(i):
        return Form.variable(f, nv, i)

    out = []
    for i in range(m):
        Q = Form.monomial(f, nv, mono_one(nv))
        for j in range(m):
            if j == i:
                continue
            h = cm.c[i][j]
            pih = P.reps[i][h]
            pjh = P.reps[j][h]
            if f.is_zero(pih):
                hp = P.first_one[i]
                S = var(hp).scale(pjh) - var(h).scale(P.reps[j][hp])
            elif f.is_zero(pjh):
                S = var(h)
            else:
                hp = P.first_one[i]  # shared: both points are 1 here
                S = var(hp).scale(pjh) - var(h)
            Q = Q * S
        if scaled:
            Q = Q.scale(f.inv(Q.evaluate(P.reps[i])))
        out.append(Q)
    return out


def vanishing_ideal(P: ProjPointSet,
                    order: MonomialOrder | None = None) -> IdealPresentation:
    """The reduced Groebner basis of I(P) up to degree d + 1, where d is the
    least degree with hf(d) = |P| (the stop degree of `bm_triplet`).

    This is the interpolation run of `bm_triplet` continued one degree past
    d: each initial t comes with its reduction t - sum c_b b over the
    standard monomials b > t of its degree, which vanishes on P. These are
    the basis elements of degree <= d + 1 for the term order that compares
    degree first and then `order` reversed. I(P) is generated in degrees
    <= d + 1, its regularity, and a homogeneous element of degree e reduces
    to 0 by basis elements of degree <= e, so they generate I(P).
    """
    f = P.field
    nv = P.n + 1
    gens, hf = [], 1
    runs = _evaluation_run(P, order or MonomialOrder.default(nv))
    for e, (Be, _, news, reductions) in enumerate(runs, 1):
        gens += [Form(f, nv, e, {t: f.one, **dict(zip(Be, r))})
                 for t, r in zip(news, reductions)]
        if hf == P.size:
            break
        hf = len(Be)
    return IdealPresentation(field=f, vars=tuple(f"x{i}" for i in range(nv)),
                             generators=gens, order=order)
