"""Dense exact linear algebra over Q or GF(p).

Row convention throughout the package: the matrix of a linear map stores the
coordinates of the image of the i'th basis vector as its i'th row, so maps
compose by multiplying row vectors on the left.
"""

from dataclasses import dataclass

from .errors import ProjzeroError


class Matrix:
    """Immutable-by-convention dense matrix over a single field."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field, rows, ncols=None):
        self.field = field
        self.rows = [list(r) for r in rows]
        self.nrows = len(self.rows)
        if self.nrows:
            self.ncols = len(self.rows[0])
            if any(len(r) != self.ncols for r in self.rows):
                raise ValueError("ragged rows")
        else:
            if ncols is None:
                raise ValueError("empty matrix needs explicit ncols")
            self.ncols = ncols

    @classmethod
    def identity(cls, field, n):
        z, o = field.zero, field.one
        return cls(field, [[o if i == j else z for j in range(n)] for i in range(n)], ncols=n)

    @classmethod
    def zero(cls, field, nrows, ncols):
        z = field.zero
        return cls(field, [[z] * ncols for _ in range(nrows)], ncols=ncols)

    def copy_rows(self):
        return [list(r) for r in self.rows]

    def row(self, i):
        return list(self.rows[i])

    def transpose(self):
        return Matrix(self.field, [[self.rows[i][j] for i in range(self.nrows)]
                                   for j in range(self.ncols)], ncols=self.nrows)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and other.field == self.field
                and other.rows == self.rows and other.ncols == self.ncols)

    def __repr__(self):
        body = "; ".join(" ".join(self.field.format(v) for v in r) for r in self.rows)
        return f"Matrix({self.nrows}x{self.ncols}: {body})"

    def __add__(self, other):
        f = self.field
        return Matrix(f, [[f.add(a, b) for a, b in zip(r1, r2)]
                          for r1, r2 in zip(self.rows, other.rows)], ncols=self.ncols)

    def __sub__(self, other):
        f = self.field
        return Matrix(f, [[f.sub(a, b) for a, b in zip(r1, r2)]
                          for r1, r2 in zip(self.rows, other.rows)], ncols=self.ncols)

    def scale(self, c):
        f = self.field
        return Matrix(f, [[f.mul(c, v) for v in r] for r in self.rows], ncols=self.ncols)

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        f = self.field
        ot = other.rows
        out = []
        for r in self.rows:
            acc = [f.zero] * other.ncols
            for k, c in enumerate(r):
                if f.is_zero(c):
                    continue
                rk = ot[k]
                for j in range(other.ncols):
                    acc[j] = f.add(acc[j], f.mul(c, rk[j]))
            out.append(acc)
        return Matrix(f, out, ncols=other.ncols)

    def mat_pow(self, e):
        if self.nrows != self.ncols:
            raise ValueError("power of non-square matrix")
        if e < 0:
            raise ValueError("negative power")
        result = Matrix.identity(self.field, self.nrows)
        base = self
        while e:
            if e & 1:
                result = result @ base
            base = base @ base if e > 1 else base
            e >>= 1
        return result

    def is_zero(self):
        f = self.field
        return all(f.is_zero(v) for r in self.rows for v in r)

    def rank(self):
        return rref(self)[1]

    def inverse(self):
        if self.nrows != self.ncols:
            raise ValueError("inverse of non-square matrix")
        n = self.nrows
        f = self.field
        aug = [list(r) + [f.one if i == j else f.zero for j in range(n)]
               for i, r in enumerate(self.rows)]
        red, rank, _ = _rref_rows(aug, f)
        if rank < n:
            raise ProjzeroError("matrix is singular")
        return Matrix(f, [r[n:] for r in red], ncols=n)


def vec_matmul(row, M):
    """Row vector times matrix; returns a list."""
    f = M.field
    acc = [f.zero] * M.ncols
    for k, c in enumerate(row):
        if f.is_zero(c):
            continue
        rk = M.rows[k]
        for j in range(M.ncols):
            acc[j] = f.add(acc[j], f.mul(c, rk[j]))
    return acc


def mat_vec(M, col):
    f = M.field
    return [
        _dot(r, col, f)
        for r in M.rows
    ]


def _dot(a, b, f):
    acc = f.zero
    for x, y in zip(a, b):
        if not (f.is_zero(x) or f.is_zero(y)):
            acc = f.add(acc, f.mul(x, y))
    return acc


def _rref_rows(rows, field):
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


def rref(M: Matrix):
    """Reduced row echelon form. Returns (R, rank, pivot_cols)."""
    rows, rank, pivot_cols = _rref_rows(M.copy_rows(), M.field)
    return Matrix(M.field, rows, ncols=M.ncols), rank, pivot_cols


def kernel(M: Matrix):
    """Basis of the right kernel {v : M v = 0}, as a list of vectors."""
    f = M.field
    R, rank, pivot_cols = rref(M)
    pivot_set = set(pivot_cols)
    free_cols = [c for c in range(M.ncols) if c not in pivot_set]
    basis = []
    for fc in free_cols:
        v = [f.zero] * M.ncols
        v[fc] = f.one
        for r, pc in enumerate(pivot_cols):
            v[pc] = f.neg(R.rows[r][fc])
        basis.append(v)
    return basis


def solve_in_rowspace(v, rows: Matrix):
    """Express v as a combination of the rows of `rows`, or return None.

    The coefficient vector is supported on the first maximal independent set
    of rows (pivot rows in order); remaining coefficients are zero.
    """
    f = rows.field
    if rows.nrows == 0:
        return [] if all(f.is_zero(x) for x in v) else None
    if len(v) != rows.ncols:
        raise ValueError("dimension mismatch")
    # Solve rows^T c = v; pivot columns of rows^T pick the earliest row basis.
    aug = [[rows.rows[i][j] for i in range(rows.nrows)] + [v[j]]
           for j in range(rows.ncols)]
    red, rank, pivot_cols = _rref_rows(aug, f)
    if rows.nrows in pivot_cols:
        return None  # inconsistent: v outside the row space
    c = [f.zero] * rows.nrows
    for r, pc in enumerate(pivot_cols):
        c[pc] = red[r][rows.nrows]
    return c


def poly_mul(p, q, field):
    out = [field.zero] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if field.is_zero(a):
            continue
        for j, b in enumerate(q):
            out[i + j] = field.add(out[i + j], field.mul(a, b))
    return out


def poly_eval(p, x, field):
    acc = field.zero
    for c in reversed(p):
        acc = field.add(field.mul(acc, x), c)
    return acc


def poly_divide_linear(p, root, field):
    """Synthetic division of p by (t - root). Returns (quotient, remainder)."""
    n = len(p) - 1
    q = [field.zero] * n
    acc = field.zero
    for k in range(n, 0, -1):
        acc = field.add(p[k], field.mul(root, acc))
        q[k - 1] = acc
    rem = field.add(p[0], field.mul(root, acc))
    return q, rem


def char_poly(M: Matrix):
    """Coefficients of det(tI - M), ascending, monic of degree nrows.

    Uses Hessenberg reduction by similarity followed by the standard
    recurrence; divisions are only by nonzero field elements, so the method
    is valid over every ground field (unlike trace-based recurrences, which
    divide by 1..n and fail over GF(p) when n >= p).
    """
    if M.nrows != M.ncols:
        raise ValueError("char_poly of non-square matrix")
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
    # p[m] = charpoly of the leading m x m block of H
    polys = [[f.one]]
    for m in range(1, n + 1):
        # (t - H[m-1][m-1]) * p[m-1]
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


@dataclass
class RootReport:
    """In-field roots with multiplicities plus the unfactored residual."""

    pairs: list  # (root, multiplicity), sorted by field sort key
    residual: list  # coefficients of the part with no in-field roots

    @property
    def complete(self) -> bool:
        return len(self.residual) <= 1

    @property
    def residual_degree(self) -> int:
        return max(0, len(self.residual) - 1)


def deflate(poly, root, field):
    """Multiplicity k of root in poly and the cofactor q, poly = (t - root)^k q."""
    k = 0
    while len(poly) > 1:
        q, rem = poly_divide_linear(poly, root, field)
        if not field.is_zero(rem):
            break
        poly = q
        k += 1
    return k, poly


def roots_in_field(poly, field):
    """All roots of poly lying in the field, with multiplicities.

    No candidate is enumerated. Over GF(p) the distinct roots are those of
    gcd(f, t^p - t), split by equal-degree splitting; over Q they are the
    roots modulo a good prime of the square-free part, Hensel-lifted,
    rationally reconstructed and verified by exact evaluation. Each
    multiplicity is found by deflation, and the report's residual is the
    cofactor left once every in-field root is divided out.
    """
    f = field
    p = list(poly)
    while len(p) > 1 and f.is_zero(p[-1]):
        p.pop()
    if all(f.is_zero(c) for c in p):
        raise ValueError("roots of the zero polynomial")

    pairs = []
    # strip zero roots
    k = 0
    while k < len(p) - 1 and f.is_zero(p[k]):
        k += 1
    if k:
        pairs.append((f.zero, k))
        p = p[k:]

    if len(p) > 1:
        if f.size is None:
            distinct = _rational_roots(p)
        else:
            distinct = _gfp_roots([c % f.size for c in p], f.size)
        for root in distinct:
            mult, p = deflate(p, root, f)
            if mult == 0:
                raise ProjzeroError(f"root finder returned a non-root {root}")
            pairs.append((root, mult))

    pairs.sort(key=lambda rm: f.sort_key(rm[0]))
    return RootReport(pairs=pairs, residual=p)


# Polynomials over GF(p) below are ascending lists of ints without trailing
# zeros; [] is the zero polynomial. Reductions are modulo a monic divisor.

def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _gfp_monic(a, p):
    inv = pow(a[-1], p - 2, p)
    return [c * inv % p for c in a]


def _gfp_divmod(a, f, p):
    """Quotient and remainder of a by the monic f."""
    n = len(f) - 1
    a = list(a)
    q = [0] * max(0, len(a) - n)
    for i in range(len(a) - 1, n - 1, -1):
        c = q[i - n] = a[i] % p
        if c:
            s = i - n
            for j in range(n):
                a[s + j] -= c * f[j]
    return q, _trim([c % p for c in a[:n]])


def _gfp_rem(a, f, p):
    return _gfp_divmod(a, f, p)[1]


def _gfp_mulmod(a, b, f, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _gfp_rem(out, f, p)


def _gfp_powmod(base, e, f, p):
    """base^e mod the monic f, by repeated squaring."""
    base = _gfp_rem(base, f, p)
    acc = _gfp_rem([1], f, p)
    for bit in bin(e)[2:]:
        acc = _gfp_mulmod(acc, acc, f, p)
        if bit == "1":
            acc = _gfp_mulmod(acc, base, f, p)
    return acc


def _gfp_gcd(a, b, p):
    """Monic gcd; a must be nonzero."""
    while b:
        b = _gfp_monic(b, p)
        a, b = b, _gfp_rem(a, b, p)
    return _gfp_monic(a, p)


def _gfp_roots(f, p):
    """Distinct roots in GF(p) of f (residues, degree >= 1, f(0) != 0),
    unsorted.

    g = gcd(f, t^p - t) is the product of (t - r) over the roots r. For odd
    p, gcd(g, (t + a)^((p-1)/2) - 1) collects the roots r for which r + a is
    a nonzero square, a proper factor for about half of the shifts a
    (Cantor & Zassenhaus); the seeded shifts change only the running time.
    For p = 2, g divides t - 1 since f(0) != 0, and needs no splitting.
    """
    import random

    f = _gfp_monic(_trim(list(f)), p)
    tp = _gfp_powmod([0, 1], p, f, p)
    tp += [0] * (2 - len(tp))
    tp[1] -= 1
    g = _gfp_gcd(f, _trim([c % p for c in tp]), p)
    rng = random.Random(p)
    roots, todo = [], [g]
    while todo:
        h = todo.pop()
        d = len(h) - 1
        if d == 1:
            roots.append(-h[0] % p)
            continue
        while d > 1:  # draw shifts until one splits h
            w = _gfp_powmod([rng.randrange(p), 1], (p - 1) // 2, h, p)
            w += [0] * (1 - len(w))
            w[0] -= 1
            s = _gfp_gcd(h, _trim([c % p for c in w]), p)
            if 0 < len(s) - 1 < d:
                todo += [s, _gfp_divmod(h, s, p)[0]]
                break
    return roots


# Primes for Hensel lifting, largest first; the search goes on below the
# list only if every listed prime divides the discriminant or the leading
# coefficient, and a square-free input has few such primes.
_PRIMES = (2147483647, 2147483629, 2147483587, 2147483579, 2147483563,
           2147483549, 2147483543, 2147483497)


def _hensel_primes():
    from .fields import is_prime

    yield from _PRIMES
    yield from filter(is_prime, range(_PRIMES[-1] - 2, 2**30, -2))


def _zprimitive(a):
    """a divided by its content, leading coefficient positive."""
    from math import gcd

    g = gcd(*a) if a else 1
    if a and a[-1] < 0:
        g = -g
    return [c // g for c in a]


def _zprem(a, b):
    """Pseudo-remainder of a by b over Z."""
    a = list(a)
    n = len(b) - 1
    lb = b[-1]
    while len(a) > n:
        c = a.pop()
        s = len(a) - n
        a = [lb * x for x in a]
        for j in range(n):
            a[s + j] -= c * b[j]
        _trim(a)
    return a


def _zsquarefree(h):
    """Primitive square-free part h / gcd(h, h') of a primitive h over Z,
    the gcd by the primitive pseudo-remainder sequence."""
    a, b = h, _zprimitive([i * c for i, c in enumerate(h)][1:])
    while b:
        a, b = b, _zprimitive(_zprem(a, b))
    n = len(a) - 1
    if n == 0:
        return h
    # exact division by the primitive gcd stays in Z (Gauss's lemma)
    rest = list(h)
    q = [0] * (len(h) - n)
    for i in range(len(h) - 1, n - 1, -1):
        c = rest[i] // a[-1]
        q[i - n] = c
        for j in range(n + 1):
            rest[i - n + j] -= c * a[j]
    return _zprimitive(q)


def _zeval_mod(h, r, m):
    acc = 0
    for c in reversed(h):
        acc = (acc * r + c) % m
    return acc


def _rational_reconstruction(r, m, bound):
    """a/b = r mod m with |a| <= bound, by the half-extended Euclid of
    (m, r); it is the unique such fraction with 0 < b <= B whenever
    m > 2 * bound * B."""
    from fractions import Fraction

    r0, r1, s0, s1 = m, r, 0, 1
    while r1 > bound:
        k = r0 // r1
        r0, r1, s0, s1 = r1, r0 - k * r1, s1, s0 - k * s1
    return Fraction(r1, s1)


def _rational_roots(p):
    """Distinct rational roots of p (Fractions, degree >= 1, p(0) != 0).

    A rational root a/b in lowest terms of the primitive square-free part h
    has a | h_0 and b | h_n, so lifting a root mod q past 2 |h_0| |h_n|
    determines a/b (von zur Gathen & Gerhard, Modern Computer Algebra,
    chapters 5 and 15). A lifted root that is the image of no rational root
    reconstructs to a value that fails the exact evaluation and is dropped.
    """
    from math import lcm

    den = lcm(*(c.denominator for c in p))
    h = _zsquarefree(_zprimitive([c.numerator * (den // c.denominator)
                                  for c in p]))
    n = len(h) - 1
    if n == 0:
        return []
    dh = [i * c for i, c in enumerate(h)][1:]
    for q in _hensel_primes():
        hq = [c % q for c in h]
        if hq[-1] and len(_gfp_gcd(hq, _trim([c % q for c in dh]), q)) == 1:
            break
    else:
        raise ProjzeroError("no prime below 2^31 keeps the polynomial "
                            "square-free")
    a0, an = abs(h[0]), abs(h[-1])
    roots = []
    for r in _gfp_roots(hq, q):
        m = q
        while m <= 2 * a0 * an:
            m *= m
            r = (r - _zeval_mod(h, r, m)
                 * pow(_zeval_mod(dh, r, m), -1, m)) % m
        cand = _rational_reconstruction(r, m, a0)
        a, b = cand.numerator, cand.denominator
        if sum(c * a**i * b**(n - i) for i, c in enumerate(h)) == 0:
            roots.append(cand)
    return roots


def eigenspace(M: Matrix, lam):
    """Basis of ker(M - lam I); empty iff lam is not an eigenvalue."""
    if M.nrows != M.ncols:
        raise ValueError("eigenspace of non-square matrix")
    f = M.field
    shifted = Matrix(f, [[f.sub(v, lam) if i == j else v
                          for j, v in enumerate(r)]
                         for i, r in enumerate(M.rows)], ncols=M.ncols)
    return kernel(shifted)


def normalize_vector(v, field):
    """Scale v so its first nonzero entry is one. Returns None for zero v."""
    for x in v:
        if not field.is_zero(x):
            inv = field.inv(x)
            return [field.mul(inv, y) for y in v]
    return None
