"""The points-side interpolation that the shared engine replaced, kept as a
test oracle.

`bm_triplet` tests every candidate monomial by re-echelonising the rows
accepted so far in its degree and solves for every matrix row separately;
`vanishing_ideal` compares the kernel of each degree's evaluation matrix
against the Macaulay piece of the generators found so far, in every degree
up to |P|. `eval_monomial` is the per-point monomial evaluation both used.
Both run on every coordinate. `eval_normal_form` interpolates a form on a
basis of its degree through its values at the points. `separators` builds
each Q_i as m - 1 pairwise products of `Form` factors, the construction
before the factors went to linalg's `multiply_terms` in one call.
"""

from projzero.errors import InvariantViolation
from projzero.linalg import Matrix, _rref_rows, kernel
from projzero.points import ProjPointSet, c_matrix, nzd_sweep
from projzero.polyring import (Form, MonomialOrder, mono_divides, mono_one,
                               monomials_of_degree)
from projzero.quotient import IdealPresentation, ideal_piece
from projzero.triplet import Triplet
from tests.polyring_oracle import (form_add, form_mul, form_scale, form_sub,
                                   monomial, variable, zero)
from tests.rref_oracle import solve_in_rowspace


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


def bm_triplet(P: ProjPointSet, order: MonomialOrder | None = None,
               l: Form | None = None) -> tuple[Triplet, list, list]:
    """Interpolation run over the points: per-degree monomial bases until the
    evaluation matrix reaches full rank, then multiplication matrices.

    Candidates in each degree are the monomials outside the recorded
    initials, processed in descending order; a candidate whose evaluation
    vector depends on the rows already accepted joins the initials, the
    rest extend the basis. Returns (triplet, B, initials) as the engine.
    """
    f = P.field
    m = P.size
    nv = P.n + 1
    if order is None:
        order = MonomialOrder.default(nv)
    if l is None:
        l = nzd_sweep(P)
    elif any(f.is_zero(x) for x in P.eval_form(l)):
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
            vec = eval_monomial(P, t)
            if solve_in_rowspace(vec, Matrix(f, rows_d, ncols=m)) is None:
                Bd.append(t)
                rows_d.append(vec)
            else:
                initials.append(t)
        B.append(Bd)
        rows = rows_d

    lvals = P.eval_form(l)
    G = Matrix(f, [[f.mul(lv, ev) for lv, ev in zip(lvals, row)]
                   for row in rows], ncols=m)
    A = []
    for j in range(nv):
        xvals = [rep[j] for rep in P.reps]
        mat_rows = []
        for row in rows:
            vec = [f.mul(xv, ev) for xv, ev in zip(xvals, row)]
            c = solve_in_rowspace(vec, G)
            if c is None:
                raise InvariantViolation(
                    "x_j times a basis row is outside the span of l times "
                    "the basis rows")
            mat_rows.append(c)
        A.append(Matrix(f, mat_rows, ncols=m))
    return Triplet(E_monomials=B[-1], l=l, A=A), B, initials


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
    return IdealPresentation(field=f, vars=var_names, generators=gens,
                             order=order)


def eval_normal_form(f: Form, P: ProjPointSet, basis) -> Form:
    """The combination of the basis agreeing with f on every point.

    Interpolation does not depend on which representatives were fixed, since
    f and the basis share one degree. A basis whose values at the points
    have rank below |P| raises ValueError.
    """
    fld = P.field
    V = Matrix(fld, [P.eval_form(e) for e in basis], ncols=P.size)
    if V.rank() != P.size:
        raise ValueError(f"basis evaluation matrix has rank below {P.size}")
    coeffs = solve_in_rowspace(P.eval_form(f), V)
    out = zero(fld, f.nvars, f.degree)
    for c, e in zip(coeffs, basis):
        if not fld.is_zero(c):
            out = form_add(out, form_scale(e, c))
    return out


def separators(P: ProjPointSet, scaled=False):
    """Q_i as the product of its factors S_ij, one pairwise product of
    `Form`s per factor, each factor built from scaled variables."""
    f = P.field
    m = P.size
    nv = P.n + 1
    cm = c_matrix(P)

    def var(i):
        return variable(f, nv, i)

    out = []
    for i in range(m):
        Q = monomial(f, nv, mono_one(nv))
        for j in range(m):
            if j == i:
                continue
            h = cm.c[i][j]
            pih = P.reps[i][h]
            pjh = P.reps[j][h]
            if f.is_zero(pih):
                hp = P.first_one[i]
                S = form_sub(form_scale(var(hp), pjh),
                             form_scale(var(h), P.reps[j][hp]))
            elif f.is_zero(pjh):
                S = var(h)
            else:
                hp = P.first_one[i]  # shared: both points are 1 here
                S = form_sub(form_scale(var(hp), pjh), var(h))
            Q = form_mul(Q, S)
        if scaled:
            Q = form_scale(Q, f.inv(Q.evaluate(P.reps[i])))
        out.append(Q)
    return out
