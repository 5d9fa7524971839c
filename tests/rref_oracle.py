"""The per-scalar kernels that projzero used before its elimination, char
poly, matrix products, sums, scalings, entrywise products, kernels and form
evaluation did field arithmetic inline, and before its Q products and Q
elimination worked on integer numerators; kept as the oracle of the
differential tests in test_kernels.py. Every scalar operation is a call of a
field method (over Q one Fraction operation), over the full row width, so
over GF(p) products, sums, scalings, entrywise products, kernels and
evaluations come out as canonical residues whatever residues go in.
`standard_coords` reduces by `normal_form_coeffs`, the loop projzero ran
before it read normal forms off the reduced echelon, for the oracles in
nf_oracle.py and triplet_oracle.py and for the l-map tests; it reads a
form's coefficient vector with `coeff_vector`. `solve_in_rowspace` is the
row-space solve of the points and triplet oracles. `poly_mul`
multiplies coefficient lists (lowest degree first) for the tests that build
polynomials from their roots or expand determinants. `zero_matrix` and
`is_zero_matrix` build and test zero matrices for the tests.
"""

from projzero.linalg import Matrix


def rref_rows(rows, field):
    """In-place RREF on a list of row lists. Leftmost pivot, topmost row."""
    if not rows:
        return rows, 0, []
    nrows = len(rows)
    ncols = len(rows[0])
    pivot_cols = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if not field.is_zero(rows[i][c]):
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        if pv != field.one:
            inv = field.inv(pv)
            rows[r] = [field.mul(inv, v) for v in rows[r]]
        prow = rows[r]
        for i in range(nrows):
            if i == r:
                continue
            factor = rows[i][c]
            if field.is_zero(factor):
                continue
            rows[i] = [field.sub(v, field.mul(factor, pv2))
                       for v, pv2 in zip(rows[i], prow)]
        pivot_cols.append(c)
        r += 1
        if r == nrows:
            break
    return rows, r, pivot_cols


def solve_in_rowspace(v, rows: Matrix):
    """Coefficients of v on the earliest row basis of `rows`, or None."""
    f = rows.field
    if rows.nrows == 0:
        return [] if all(f.is_zero(x) for x in v) else None
    aug = [[rows.rows[i][j] for i in range(rows.nrows)] + [v[j]]
           for j in range(rows.ncols)]
    red, rank, pivot_cols = rref_rows(aug, f)
    if rows.nrows in pivot_cols:
        return None
    c = [f.zero] * rows.nrows
    for r, pc in enumerate(pivot_cols):
        c[pc] = red[r][rows.nrows]
    return c


def zero_matrix(field, nrows, ncols):
    return Matrix(field, [[field.zero] * ncols for _ in range(nrows)],
                  ncols=ncols)


def is_zero_matrix(M):
    return all(M.field.is_zero(v) for r in M.rows for v in r)


def vec_matmul(row, M):
    f = M.field
    acc = [f.zero] * M.ncols
    for k, c in enumerate(row):
        if f.is_zero(c):
            continue
        rk = M.rows[k]
        for j in range(M.ncols):
            acc[j] = f.add(acc[j], f.mul(c, rk[j]))
    return acc


def matmul(A, B):
    return Matrix(A.field, [vec_matmul(r, B) for r in A.rows], ncols=B.ncols)


def mat_pow(M, e):
    """M^e as e products by matmul."""
    acc = Matrix.identity(M.field, M.nrows)
    for _ in range(e):
        acc = matmul(acc, M)
    return acc


def char_poly(M: Matrix):
    """det(tI - M), ascending, by Hessenberg reduction and the recurrence."""
    n = M.nrows
    f = M.field
    if n == 0:
        return [f.one]
    H = M.copy_rows()
    for c in range(n - 2):
        pivot = None
        for i in range(c + 1, n):
            if not f.is_zero(H[i][c]):
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != c + 1:
            H[c + 1], H[pivot] = H[pivot], H[c + 1]
            for r in range(n):
                H[r][c + 1], H[r][pivot] = H[r][pivot], H[r][c + 1]
        pv = H[c + 1][c]
        for i in range(c + 2, n):
            if f.is_zero(H[i][c]):
                continue
            t = f.div(H[i][c], pv)
            H[i] = [f.sub(a, f.mul(t, b)) for a, b in zip(H[i], H[c + 1])]
            for r in range(n):
                H[r][c + 1] = f.add(H[r][c + 1], f.mul(t, H[r][i]))
    polys = [[f.one]]
    for m in range(1, n + 1):
        prev = polys[m - 1]
        cur = [f.zero] + list(prev)
        for k in range(len(prev)):
            cur[k] = f.sub(cur[k], f.mul(H[m - 1][m - 1], prev[k]))
        sub = f.one
        for i in range(m - 1, 0, -1):
            sub = f.mul(sub, H[i][i - 1])
            if f.is_zero(sub):
                break
            coeff = f.mul(H[i - 1][m - 1], sub)
            if f.is_zero(coeff):
                continue
            for k, v in enumerate(polys[i - 1]):
                cur[k] = f.sub(cur[k], f.mul(coeff, v))
        polys.append(cur)
    return polys[n]


def normal_form_coeffs(v, piece, field):
    """Macaulay reduction of a coefficient vector against a degree piece."""
    for r, pc in enumerate(piece.pivot_cols):
        c = v[pc]
        if field.is_zero(c):
            continue
        row = piece.echelon.rows[r]
        v = [field.sub(a, field.mul(c, b)) for a, b in zip(v, row)]
    return v


def coeff_vector(f, monos):
    """Coefficients of the form f on an ordered monomial list, zeros where
    absent."""
    return [f.terms.get(m, f.field.zero) for m in monos]


def standard_coords(f, piece):
    """Coordinates of nf(f) on the standard monomials, by normal_form_coeffs."""
    v = normal_form_coeffs(coeff_vector(f, piece.monomials), piece, f.field)
    pivots = set(piece.pivot_cols)
    return [c for k, c in enumerate(v) if k not in pivots]


def linear_combination(coeffs, mats):
    """sum_j c_j M_j, one field multiply-add per term."""
    f = mats[0].field
    acc = zero_matrix(f, mats[0].nrows, mats[0].ncols).rows
    for c, M in zip(coeffs, mats):
        acc = [[f.add(a, f.mul(c, v)) for a, v in zip(ra, rm)]
               for ra, rm in zip(acc, M.rows)]
    return Matrix(f, acc, ncols=mats[0].ncols)


def scale(M, c):
    f = M.field
    return Matrix(f, [[f.mul(c, v) for v in r] for r in M.rows], ncols=M.ncols)


def add(A, B):
    f = A.field
    return Matrix(f, [[f.add(a, b) for a, b in zip(ra, rb)]
                      for ra, rb in zip(A.rows, B.rows)], ncols=A.ncols)


def sub(A, B):
    f = A.field
    return Matrix(f, [[f.sub(a, b) for a, b in zip(ra, rb)]
                      for ra, rb in zip(A.rows, B.rows)], ncols=A.ncols)


def entrywise(u, v, field):
    return [field.mul(a, b) for a, b in zip(u, v)]


def kernel(M):
    """Right kernel basis: per free column of the RREF, the unit vector
    there minus the column on the pivot coordinates."""
    f = M.field
    R, rank, pivot_cols = rref_rows(M.copy_rows(), f)
    basis = []
    for fc in range(M.ncols):
        if fc in pivot_cols:
            continue
        v = [f.zero] * M.ncols
        v[fc] = f.one
        for r, pc in enumerate(pivot_cols):
            v[pc] = f.neg(R[r][fc])
        basis.append(v)
    return basis


def eigenspace(M, lam):
    return kernel(sub(M, scale(Matrix.identity(M.field, M.nrows), lam)))


def normalize_vector(v, field):
    for x in v:
        if not field.is_zero(x):
            inv = field.inv(x)
            return [field.mul(inv, y) for y in v]
    return None


def evaluate(form, rep):
    """Form.evaluate one field call per scalar, x^e as e products."""
    f = form.field
    total = f.zero
    for m, c in form.terms.items():
        v = c
        for x, e in zip(rep, m):
            if e == 0:
                continue
            if f.is_zero(x):
                v = f.zero
                break
            for _ in range(e):
                v = f.mul(v, x)
        total = f.add(total, v)
    return total


def poly_mul(p, q, field):
    out = [field.zero] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if field.is_zero(a):
            continue
        for j, b in enumerate(q):
            out[i + j] = field.add(out[i + j], field.mul(a, b))
    return out
