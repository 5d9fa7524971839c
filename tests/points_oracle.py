"""The points-side interpolation that the shared engine replaced, kept as a
test oracle.

`bm_triplet` tests every candidate monomial by re-echelonising the rows
accepted so far in its degree and solves for every matrix row separately;
`vanishing_ideal` compares the kernel of each degree's evaluation matrix
against the Macaulay piece of the generators found so far, in every degree
up to |P|. `eval_monomial` is the per-point monomial evaluation both used,
and `project_variables` the per-coordinate projection `bm_triplet` used.
"""

from projzero.errors import InvariantViolation
from projzero.linalg import Matrix, _rref_rows, kernel, solve_in_rowspace
from projzero.points import (PointTriplet, ProjPointSet, _embed_form,
                             _embed_mono, _restrict_form, nzd_sweep)
from projzero.polyring import (Form, MonomialOrder, mono_divides, mono_one,
                               monomials_of_degree)
from projzero.quotient import IdealPresentation, ideal_piece


def eval_monomial(P: ProjPointSet, mono):
    """Values of a monomial at every representative."""
    f = P.field
    out = []
    for rep in P.reps:
        v = f.one
        for x, e in zip(rep, mono):
            if e == 0:
                continue
            if f.is_zero(x):
                v = f.zero
                break
            for _ in range(e):
                v = f.mul(v, x)
        out.append(v)
    return out


def project_variables(P: ProjPointSet):
    """Smallest-index maximal independent coordinate subset, with the linear
    expression of each dropped coordinate in the kept ones (valid on P):
    one rank test per coordinate and one row-space solve per dropped one."""
    f = P.field
    m = P.size
    coord_rows = [[rep[i] for rep in P.reps] for i in range(P.n + 1)]
    kept = []
    kept_rows = []
    subs = {}
    for i, row in enumerate(coord_rows):
        trial = Matrix(f, kept_rows + [row], ncols=m)
        if trial.rank() > len(kept_rows):
            kept.append(i)
            kept_rows.append(row)
        else:
            coeffs = solve_in_rowspace(row, Matrix(f, kept_rows, ncols=m))
            subs[i] = coeffs
    return kept, subs


def bm_triplet(P: ProjPointSet, order: MonomialOrder | None = None,
               l: Form | None = None) -> PointTriplet:
    """Interpolation run over the points: per-degree monomial bases until the
    evaluation matrix reaches full rank, then multiplication matrices.

    Candidates in each degree are the monomials outside the recorded
    initials, processed in descending order; a candidate whose evaluation
    vector depends on the rows already accepted joins the initials, the
    rest extend the basis. When the ambient dimension exceeds the number of
    points the computation runs on a projected coordinate subset and the
    matrices of dropped variables are recovered by linearity.
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

    if l is None:
        l_core = nzd_sweep(core)
    else:
        l_core = _restrict_form(l, kept, width)
        if any(f.is_zero(x) for x in core.eval_form(l_core)):
            raise ValueError("provided linear form vanishes at a point")

    B = [[mono_one(nv)]]
    rows = [[f.one] * m]
    initials = []
    d = 0
    while len(B[d]) != m:
        d += 1
        if d > m:
            raise InvariantViolation("interpolation must stop by degree |P|")
        Bd, rows_d = [], []
        for t in monomials_of_degree(nv, d, order):
            if any(mono_divides(g, t) for g in initials):
                continue
            vec = eval_monomial(core, t)
            if solve_in_rowspace(vec, Matrix(f, rows_d, ncols=m)) is None:
                Bd.append(t)
                rows_d.append(vec)
            else:
                initials.append(t)
        B.append(Bd)
        rows = rows_d
    hf = [len(b) for b in B]

    lvals = core.eval_form(l_core)
    G = Matrix(f, [[f.mul(lv, ev) for lv, ev in zip(lvals, row)]
                   for row in rows], ncols=m)
    A_core = []
    for j in range(nv):
        xvals = [rep[j] for rep in core.reps]
        mat_rows = []
        for row in rows:
            vec = [f.mul(xv, ev) for xv, ev in zip(xvals, row)]
            c = solve_in_rowspace(vec, G)
            if c is None:
                raise InvariantViolation(
                    "x_j times a basis row is outside the span of l times "
                    "the basis rows")
            mat_rows.append(c)
        A_core.append(Matrix(f, mat_rows, ncols=m))

    A_full = [None] * width
    for k, i in enumerate(kept):
        A_full[i] = A_core[k]
    for i, coeffs in subs.items():
        acc = Matrix.zero(f, m, m)
        for c, k in zip(coeffs, range(len(kept))):
            if not f.is_zero(c):
                acc = acc + A_core[k].scale(c)
        A_full[i] = acc

    return PointTriplet(B=[[_embed_mono(t, kept, width) for t in bd] for bd in B],
                        initials=[_embed_mono(t, kept, width) for t in initials],
                        l=_embed_form(l_core, kept, width),
                        A=A_full, hf=hf, d=d, field=f, kept=kept,
                        substitutions=subs)


def vanishing_ideal(P: ProjPointSet, order: MonomialOrder | None = None,
                    up_to: int | None = None,
                    var_names=None) -> IdealPresentation:
    """Generators of the vanishing ideal, reconstructed degree by degree.

    In each degree the kernel of the evaluation matrix is compared against
    the span of the previously found generators; whatever is missing becomes
    a new generator. Degrees up to |P| always suffice for distinct points.
    """
    f = P.field
    nv = P.n + 1
    if order is None:
        order = MonomialOrder.default(nv)
    if up_to is None:
        up_to = max(1, P.size)
    if var_names is None:
        var_names = tuple(f"x{i}" for i in range(nv))
    gens = []
    for d in range(1, up_to + 1):
        monos = monomials_of_degree(nv, d, order)
        E = Matrix(f, [[v for v in eval_monomial(P, mn)] for mn in monos],
                   ncols=P.size).transpose()
        null = kernel(E)
        if not null:
            continue
        if gens:
            piece = ideal_piece(
                IdealPresentation(field=f, vars=var_names, generators=gens),
                d, order)
            span = piece.echelon
        else:
            span = Matrix(f, [], ncols=len(monos))
        span_rows = span.copy_rows()
        for vec in null:
            if solve_in_rowspace(vec, Matrix(f, span_rows, ncols=len(monos))) is None:
                gens.append(Form(f, nv, d,
                                 {mn: cv for mn, cv in zip(monos, vec)
                                  if not f.is_zero(cv)}))
                span_rows.append(vec)
                span_rows, _, _ = _rref_rows(span_rows, f)
    if not gens:
        raise ValueError("no generators found; raise up_to")
    return IdealPresentation(field=f, vars=var_names, generators=gens)
