"""Algorithms driven by explicit projective point sets.

Every point is stored with a fixed affine representative whose first nonzero
coordinate is one, so evaluation of forms (and hence every rank computation
below) is well defined. The module covers the non-zero-divisor sweep, the
per-degree interpolation variant of the Buchberger-Moeller algorithm that
returns multiplication matrices and, run one degree further, the reduced
Groebner basis of the vanishing ideal, evaluation normal forms, and the
separator construction with its comparison-counted prefix table.
"""

from dataclasses import dataclass

from .errors import (DuplicatePoint, FieldTooSmall, InputError,
                     InvariantViolation, RankDeficientBasis, ZeroPoint)
from .linalg import (Matrix, kernel, linear_combination, rref,
                     solve_in_rowspace)
from .polyring import Form, MonomialOrder, mono_one
from .quotient import IdealPresentation, _interpolate


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
        lead = None
        for i, x in enumerate(pt):
            if not field.is_zero(x):
                lead = i
                break
        if lead is None:
            raise ZeroPoint(f"point {idx} is the zero vector")
        inv = field.inv(pt[lead])
        reps.append([field.mul(inv, x) for x in pt])
        first_one.append(lead)
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            if reps[i] == reps[j]:
                raise DuplicatePoint(i, j)
    return ProjPointSet(field=field, n=width - 1, reps=reps, first_one=first_one)


def project_variables(P: ProjPointSet):
    """Smallest-index maximal independent coordinate subset, with the linear
    expression of each dropped coordinate in the kept ones (valid on P).

    One rref of the points-by-coordinates matrix: its pivot columns are the
    kept coordinates, and a dropped column's entries in the pivot rows are
    its coefficients on the kept coordinates before it (later ones are 0).
    """
    R, _, kept = rref(Matrix(P.field, P.reps))
    subs = {i: [R.rows[r][i] for r, k in enumerate(kept) if k < i]
            for i in range(P.n + 1) if i not in kept}
    return kept, subs


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

    def as_form(coeffs):
        return Form(f, nv, 1,
                    {tuple(1 if k == i else 0 for k in range(nv)): c
                     for i, c in enumerate(coeffs) if not f.is_zero(c)})

    def values(coeffs, rep):
        acc = f.zero
        for c, x in zip(coeffs, rep):
            acc = f.add(acc, f.mul(c, x))
        return acc

    v = [f.zero] * nv
    v[P.first_one[0]] = f.one
    for i in range(1, m):
        if not f.is_zero(values(v, P.reps[i])):
            continue
        # w in the kernel of evaluation at p_{i-1}, nonzero at p_i
        ker = kernel(Matrix(f, [P.reps[i - 1]], ncols=nv))
        w = None
        for cand in ker:
            if not f.is_zero(values(cand, P.reps[i])):
                w = cand
                break
        if w is None:
            raise InvariantViolation(
                "distinct points always admit a correction")
        alphas = (f.from_int(k) for k in range(1, m + 1)) if f.size is None \
            else (f.from_int(k) for k in range(1, f.size))
        fixed = None
        for alpha in alphas:
            cand = [f.add(a, f.mul(alpha, b)) for a, b in zip(v, w)]
            if all(not f.is_zero(values(cand, P.reps[j])) for j in range(i + 1)):
                fixed = cand
                break
        if fixed is None:
            raise FieldTooSmall(f"sweep exhausted the elements of {f.name}")
        v = fixed
    return as_form(v)


@dataclass
class PointTriplet:
    B: list          # per-degree monomial bases B_0..B_d (full-arity monomials)
    initials: list
    l: Form
    A: list          # n+1 matrices, original variable order
    hf: list
    d: int
    field: object
    kept: list       # variable indices the computation ran on
    substitutions: dict  # dropped index -> coefficients over kept

    @property
    def E_monomials(self):
        return self.B[self.d]

    @property
    def size(self):
        return len(self.B[self.d])


def _embed_mono(mono, kept, width):
    out = [0] * width
    for e, i in zip(mono, kept):
        out[i] = e
    return tuple(out)


def _embed_form(form: Form, kept, width):
    return Form(form.field, width, form.degree,
                {_embed_mono(m, kept, width): c for m, c in form.terms.items()})


def _evaluation_run(P: ProjPointSet, order: MonomialOrder):
    """`_interpolate` over evaluation at the points, from B_0 = {1}, with
    candidates in descending order."""
    f = P.field
    p = f.size
    cols = list(zip(*P.reps))

    def step(v, j):
        w = [a * b for a, b in zip(v, cols[j])]
        return w if p is None else [a % p for a in w]

    return _interpolate(f, {mono_one(P.n + 1): [f.one] * P.size}, step,
                        order, False)


def bm_triplet(P: ProjPointSet, order: MonomialOrder | None = None,
               l: Form | None = None) -> PointTriplet:
    """Interpolation run over the points: per-degree monomial bases until the
    evaluation matrix reaches full rank, then multiplication matrices.

    Candidates in each degree are the monomials outside the recorded
    initials, processed in descending order; a candidate whose evaluation
    vector depends on the rows already accepted joins the initials, the
    rest extend the basis. Row i of A_j solves c G = x_j b_i on the points,
    where G holds l b_k, so every A_j comes from one inverse of G. When the
    ambient dimension exceeds the number of points the computation runs on
    a projected coordinate subset and the matrices of dropped variables are
    recovered by linearity.
    """
    f = P.field
    m = P.size
    width = P.n + 1
    if width > m:
        kept, subs = project_variables(P)
    else:
        kept, subs = list(range(width)), {}
    nv = len(kept)
    core_reps = [[rep[i] for i in kept] for rep in P.reps]
    # the first_one coordinate of a point is never projected away, so the
    # projected representatives are still normalized
    core_first = [next(i for i, x in enumerate(r) if not f.is_zero(x))
                  for r in core_reps]
    core = ProjPointSet(field=f, n=nv - 1, reps=core_reps, first_one=core_first)
    if order is None:
        order = MonomialOrder.default(nv)
    elif len(order.ranking) == width and nv != width:
        pos = {i: k for k, i in enumerate(kept)}
        induced = tuple(pos[i] for i in order.ranking if i in pos)
        order = MonomialOrder(kind=order.kind, ranking=induced)

    # the A_j depend on l only through its values at the points, so a
    # given l may use the coordinates the projection drops
    if l is None:
        l = _embed_form(nzd_sweep(core), kept, width)
    l_values = P.eval_form(l)
    if any(f.is_zero(x) for x in l_values):
        raise InputError("provided linear form vanishes at a point")

    B = [[mono_one(nv)]]
    rows = [[f.one] * m]
    initials = []
    runs = _evaluation_run(core, order)
    while len(B[-1]) != m:
        if len(B) > m:
            raise InvariantViolation("interpolation must stop by degree |P|")
        Bd, rows, news, _ = next(runs)
        B.append(Bd)
        initials += news
    hf = [len(b) for b in B]

    def scaled_rows(vals):
        return Matrix(f, [[f.mul(x, e) for x, e in zip(vals, row)]
                          for row in rows], ncols=m)

    G_inv = scaled_rows(l_values).inverse()
    A_core = [scaled_rows([rep[j] for rep in core.reps]) @ G_inv
              for j in range(nv)]
    A_full = [None] * width
    for k, i in enumerate(kept):
        A_full[i] = A_core[k]
    for i, coeffs in subs.items():
        A_full[i] = linear_combination(coeffs, A_core)

    return PointTriplet(B=[[_embed_mono(t, kept, width) for t in bd] for bd in B],
                        initials=[_embed_mono(t, kept, width) for t in initials],
                        l=l,
                        A=A_full, hf=hf, d=len(B) - 1, field=f, kept=kept,
                        substitutions=subs)


def eval_normal_form(f: Form, P: ProjPointSet, basis) -> Form:
    """The combination of the basis agreeing with f on every point.

    Interpolation does not depend on which representatives were fixed, since
    f and the basis share one degree.
    """
    fld = P.field
    V = Matrix(fld, [P.eval_form(e) for e in basis], ncols=P.size)
    if V.rank() != P.size:
        raise RankDeficientBasis(
            f"basis evaluation matrix has rank below {P.size}")
    coeffs = solve_in_rowspace(P.eval_form(f), V)
    out = Form.zero(fld, f.nvars, f.degree)
    for c, e in zip(coeffs, basis):
        if not fld.is_zero(c):
            out = out + e.scale(c)
    return out


@dataclass
class CMatrix:
    c: list             # c[i][j]: first coordinate where points i and j differ
    comparisons: int    # scalar equality tests spent building the table


def refine_partitions(vectors, field):
    """Prefix-grouping table for any list of coordinate vectors.

    Groups points by growing coordinate prefixes; the first coordinate
    separating a pair is recorded. Only scalar equality tests are counted.
    """
    m = len(vectors)
    c = [[None] * m for _ in range(m)]
    comparisons = 0
    partitions = []
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
        partitions.append([list(g) for g in groups])
        if all(len(g) == 1 for g in groups):
            break
    return c, comparisons, partitions


def c_matrix(P: ProjPointSet) -> CMatrix:
    c, comparisons, _ = refine_partitions(P.reps, P.field)
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

    This is the interpolation run of `bm_triplet`, over every coordinate,
    continued one degree past d: each initial t comes with its reduction
    t - sum c_b b over the standard monomials b > t of its degree, which
    vanishes on P. These are the basis elements of degree <= d + 1 for the
    term order that compares degree first and then `order` reversed. I(P)
    is generated in degrees <= d + 1, its regularity, and a homogeneous
    element of degree e reduces to 0 by basis elements of degree <= e, so
    they generate I(P).
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
                             generators=gens)
