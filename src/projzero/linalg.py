"""Dense exact linear algebra over Q or GF(p).

Row convention throughout the package: the matrix of a linear map stores the
coordinates of the image of the i'th basis vector as its i'th row, so maps
compose by multiplying row vectors on the left.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, count, repeat
from math import gcd, lcm, prod
from operator import mul

from .errors import ProjzeroError
from .fields import is_prime


class Matrix:
    """Immutable-by-convention dense matrix over a single field. Its product
    columns are built on its first use as a right factor and kept, so rows
    must not change after a product."""

    __slots__ = ("field", "nrows", "ncols", "rows", "_cols")

    def __init__(self, field, rows, ncols=None):
        self.field = field
        self.rows = [list(r) for r in rows]
        self.nrows = len(self.rows)
        self._cols = None
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

    def copy_rows(self):
        return [list(r) for r in self.rows]

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
        return linear_combination([1, 1], [self, other])

    def __sub__(self, other):
        return linear_combination([1, -1], [self, other])

    def scale(self, c):
        f = self.field
        return Matrix(f, [entrywise(repeat(c), r, f) for r in self.rows],
                      ncols=self.ncols)

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        return Matrix(self.field, [vec_matmul(r, other) for r in self.rows],
                      ncols=other.ncols)

    def mat_pow(self, e):
        """self^e by repeated squaring. Over Q the powers are carried as
        (integer matrix N, denominator D) with gcd(D, entries of N) = 1, so
        each product is integer dot products plus one content division, and
        the entries become Fractions once, at the end. The result keeps the
        columns of N over D as its cleared product columns, so a product
        with it clears nothing again."""
        if self.nrows != self.ncols:
            raise ValueError("power of non-square matrix")
        if e < 0:
            raise ValueError("negative power")
        n = self.nrows
        if self.field.size is not None:
            return _power(self, e, Matrix.identity(self.field, n),
                          Matrix.__matmul__)
        nums, d = _cleared(list(chain.from_iterable(self.rows)))
        base = ([nums[i * n:(i + 1) * n] for i in range(n)], d)
        one = ([[int(i == j) for j in range(n)] for i in range(n)], 1)
        N, D = _power(base, e, one, _zmatmul)
        out = Matrix(self.field, [[Fraction(v, D) for v in r] for r in N],
                     ncols=n)
        out._cols = [(col, D) for col in zip(*N)]
        return out

    def rank(self):
        return rref(self)[1]

    def inverse(self):
        if self.nrows != self.ncols:
            raise ValueError("inverse of non-square matrix")
        n = self.nrows
        f = self.field
        aug = [list(r) + [f.one if i == j else f.zero for j in range(n)]
               for i, r in enumerate(self.rows)]
        # [M | I] always has rank n; M is invertible iff its pivots are
        # the first n columns
        red, _, pivot_cols = _rref_rows(aug, f)
        if pivot_cols != list(range(n)):
            raise ProjzeroError("matrix is singular")
        return Matrix(f, [r[n:] for r in red], ncols=n)


# The kernels below hold the field-specialised arithmetic on vectors,
# matrices and forms. Over GF(p) they sum in C and reduce once; they take
# any int residues and return canonical ones. Over Q the products clear
# denominators once per vector, take the dot products on Python ints, and
# build one Fraction per output entry, instead of one Fraction multiply-add
# (and gcd) per term (von zur Gathen & Gerhard, Modern Computer Algebra,
# ch. 5).

def vec_matmul(row, M):
    """Row vector times matrix, one dot product per column of M; returns a
    list. M keeps its columns from its first product, over Q cleared."""
    p = M.field.size
    if not M.nrows:
        return [M.field.zero] * M.ncols
    if M._cols is None:
        cols = zip(*M.rows)
        M._cols = list(cols) if p is not None else list(map(_cleared, cols))
    if p is not None:
        return [sum(map(mul, row, col)) % p for col in M._cols]
    rn, rd = _cleared(row)
    return [Fraction(sum(map(mul, rn, cn)), rd * cd) for cn, cd in M._cols]


def linear_combination(coeffs, mats):
    """sum_j c_j M_j over matrices of one shape, one dot product per entry."""
    field = mats[0].field
    p = field.size
    if p is None:
        cn, cd = _cleared(coeffs)
    rows = []
    for parts in zip(*(M.rows for M in mats)):
        cols = zip(*parts)
        rows.append([sum(map(mul, coeffs, col)) % p for col in cols]
                    if p is not None else
                    [Fraction(sum(map(mul, cn, en)), cd * ed)
                     for en, ed in map(_cleared, cols)])
    return Matrix(field, rows, ncols=mats[0].ncols)


def entrywise(u, v, field):
    """The entrywise product of two vectors; repeat(c) as u scales v by c."""
    p = field.size
    if p is None:
        return [a * b for a, b in zip(u, v)]
    return [a * b % p for a, b in zip(u, v)]


def evaluate_terms(terms, degree, rep, field):
    """sum c x^m over the terms {m: c} of a form of the given degree, at the
    point rep. Over GF(p) each term is c times pow(x, e, p) per variable,
    reduced once. Over Q the point is x / D and the coefficients are c / C
    on integer numerators x and c; the terms share one degree, so the value
    is sum c x^m / (C D^degree), one Fraction built at the end."""
    p = field.size
    if p is not None:
        total = 0
        for m, c in terms.items():
            for x, e in zip(rep, m):
                if e:
                    c *= pow(x, e, p)
            total += c % p
        return total % p
    xs, d = _cleared(rep)
    cs, cd = _cleared(list(terms.values()))
    return Fraction(sum(c * prod(x**e for x, e in zip(xs, m) if e)
                        for c, m in zip(cs, terms)),
                    cd * d**degree)


def multiply_terms(factors, nvars, field):
    """The product of forms in nvars variables, each factor given as its
    (monomial, coefficient) terms, which share one degree; returns
    {monomial: coefficient} without zero terms, the form 1 for no factors.

    Each distinct monomial is packed once into the int sum e_i b^i, with
    base b = 1 + the product's total degree, so no exponent of a partial
    product carries and a product of monomials is one int addition. The
    coefficients multiply and add as ints: over GF(p) with one reduction
    per output term of each factor's step; over Q on each factor's cleared
    numerators, with one Fraction per output term at the end. The keys are
    unpacked once."""
    p = field.size
    factors = [list(terms) for terms in factors]
    if not all(factors):
        return {}
    base = 1 + sum(sum(terms[0][0]) for terms in factors)
    weights = [base**i for i in range(nvars)]
    packed = {}
    den = 1
    acc = {0: 1}
    for terms in factors:
        nums = [c for _, c in terms]
        if p is None:
            nums, d = _cleared(nums)
            den *= d
        out = {}
        get = out.get
        for (m, _), c2 in zip(terms, nums):
            k2 = packed.get(m)
            if k2 is None:
                k2 = packed[m] = sum(map(mul, m, weights))
            for k1, c1 in acc.items():
                k = k1 + k2
                out[k] = get(k, 0) + c1 * c2
        acc = ({k: r for k, c in out.items() if (r := c % p)}
               if p is not None else {k: c for k, c in out.items() if c})
    product = {}
    for k, c in acc.items():
        m = []
        for _ in range(nvars):
            k, e = divmod(k, base)
            m.append(e)
        product[tuple(m)] = c if p is not None else Fraction(c, den)
    return product


def _cleared(vec):
    """(integer numerators, common denominator) of a vector over Q."""
    d = lcm(*(v.denominator for v in vec))
    return [v.numerator * (d // v.denominator) for v in vec], d


def _zmatmul(a, b):
    """Product of (N, D) pairs, content-reduced: the result's N has no factor
    in common with its D, which keeps the entries as small as those of the
    exact product."""
    (na, da), (nb, db) = a, b
    cols = list(zip(*nb))
    n = [[sum(map(mul, r, c)) for c in cols] for r in na]
    d = da * db
    g = gcd(d, *chain.from_iterable(n))
    if g > 1:
        n = [[v // g for v in r] for r in n]
        d //= g
    return n, d


def _power(base, e, one, times):
    """base^e by repeated squaring under the product `times`."""
    result = one
    while e:
        if e & 1:
            result = times(result, base)
        base = times(base, base) if e > 1 else base
        e >>= 1
    return result


def _rref_rows(rows, field):
    """RREF of a list of row lists: (reduced rows, rank, pivot columns).

    Leftmost pivot column, topmost pivot row. The input is not modified: the
    rows are copied once on entry and then updated in place.

    Over GF(p) the copies are canonical residues, so that truth tests are
    zero tests. Each pivot row is scaled once. Every other row with a
    nonzero f in the pivot column gets that entry cleared and is updated
    only on the pivot row's nonzeros b right of the pivot column, since a
    pivot row has no nonzero left of its pivot, by (a + f*(p - b)) % p.

    Over Q the elimination is fraction-free (Bareiss, Math. Comp. 22, 1968):
    each row's denominators are cleared once and the rows stay integer. With
    pivot pv and g = gcd(pv, f), a row becomes (pv/g)*row - (f/g)*pivot_row
    and is divided by its content. Every row stays a nonzero multiple of the
    row Gauss-Jordan on Fractions would hold, so the pivots are the same,
    and the RREF, which is unique, comes out as each pivot row divided by
    its pivot: one Fraction per entry, built at the end.
    """
    p = field.size
    if p is None:
        rows = [_zprimitive(_cleared(row)[0]) for row in rows]
    else:
        rows = [[v % p for v in row] for row in rows]
    if not rows:
        return rows, 0, []
    nrows = len(rows)
    ncols = len(rows[0])
    pivot_cols = []
    r = 0
    for c in range(ncols):
        for i in range(r, nrows):
            if rows[i][c]:
                break
        else:
            continue
        prow = rows[i]
        rows[i] = rows[r]
        rows[r] = prow
        pv = prow[c]
        if p is None:
            nz = [(j, b) for j in range(c + 1, ncols) if (b := prow[j])]
        else:
            if pv != 1:
                inv = pow(pv, p - 2, p)
                prow[c:] = [inv * v % p for v in prow[c:]]
            nz = [(j, p - b) for j in range(c + 1, ncols) if (b := prow[j])]
        for i in range(nrows):
            row = rows[i]
            f = row[c]
            if not f or i == r:
                continue
            if p is None:
                g = gcd(pv, f)
                a, f = pv // g, f // g
                if a != 1:
                    row = [a * v for v in row]
                row[c] = 0
                for j, b in nz:
                    row[j] -= f * b
                rows[i] = _zprimitive(row)
            else:
                row[c] = 0
                for j, b in nz:
                    row[j] = (row[j] + f * b) % p
        pivot_cols.append(c)
        r += 1
        if r == nrows:
            break
    if p is None:
        zero = field.zero
        for k, c in enumerate(pivot_cols):
            pv = rows[k][c]
            rows[k] = [Fraction(v, pv) if v else zero for v in rows[k]]
        rows[r:] = [[zero] * ncols for _ in range(r, nrows)]
    return rows, r, pivot_cols


def rref(M: Matrix):
    """Reduced row echelon form. Returns (R, rank, pivot_cols)."""
    rows, rank, pivot_cols = _rref_rows(M.rows, M.field)
    return Matrix(M.field, rows, ncols=M.ncols), rank, pivot_cols


def kernel(M: Matrix):
    """Basis of the right kernel {v : M v = 0}, as a list of vectors: per
    free column c of the RREF, minus the vector that is -1 at c and column c
    on the pivot columns."""
    f = M.field
    R, rank, pivot_cols = rref(M)
    pivot_set = set(pivot_cols)
    negated = []
    for fc in (c for c in range(M.ncols) if c not in pivot_set):
        u = [f.zero] * M.ncols
        u[fc] = -f.one
        for r, pc in enumerate(pivot_cols):
            u[pc] = R.rows[r][fc]
        negated.append(u)
    return Matrix(f, negated, ncols=M.ncols).scale(-1).rows


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
    p = f.size
    zero, one = f.zero, f.one
    if n == 0:
        return [one]
    if p is None:
        H = M.copy_rows()
    else:
        H = [[v % p for v in row] for row in M.rows]
    for c in range(n - 2):
        for i in range(c + 1, n):
            if H[i][c]:
                break
        else:
            continue
        if i != c + 1:
            H[c + 1], H[i] = H[i], H[c + 1]
            for row in H:
                row[c + 1], row[i] = row[i], row[c + 1]
        prow = H[c + 1]
        inv = one / prow[c] if p is None else pow(prow[c], p - 2, p)
        for i in range(c + 2, n):
            if not H[i][c]:
                continue
            if p is None:
                t = H[i][c] * inv
                H[i] = [a - t * b for a, b in zip(H[i], prow)]
                for row in H:
                    row[c + 1] += t * row[i]
            else:
                t = H[i][c] * inv % p
                H[i] = [(a - t * b) % p for a, b in zip(H[i], prow)]
                for row in H:
                    row[c + 1] = (row[c + 1] + t * row[i]) % p
    # polys[m] = charpoly of the leading m x m block of H; over GF(p) each
    # one is summed unreduced and reduced once
    polys = [[one]]
    for m in range(1, n + 1):
        # (t - H[m-1][m-1]) * p[m-1]
        prev = polys[m - 1]
        h = H[m - 1][m - 1]
        cur = [a - h * b for a, b in zip([zero] + prev, prev + [zero])]
        sub = one
        for i in range(m - 1, 0, -1):
            sub = sub * H[i][i - 1]
            coeff = H[i - 1][m - 1] * sub
            if p is not None:
                sub, coeff = sub % p, coeff % p
            if not sub:
                break
            if not coeff:
                continue
            for k, v in enumerate(polys[i - 1]):
                cur[k] -= coeff * v
        polys.append(cur if p is None else [v % p for v in cur])
    return polys[n]


@dataclass
class RootReport:
    """In-field roots with multiplicities plus the unfactored residual."""

    pairs: list  # (root, multiplicity), sorted by field sort key
    residual: list  # coefficients of the part with no in-field roots

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


def _gfp_powmod(a, e, f, p):
    """(t + a)^e mod the monic f of degree n >= 1, by repeated squaring. A
    step by the linear base is a shift plus one reduction by f, O(n) in
    place of a product."""
    n = len(f) - 1
    acc = [1]
    for bit in bin(e)[2:]:
        acc = _gfp_mulmod(acc, acc, f, p)
        if bit == "1":
            out = [0] + acc
            for i, x in enumerate(acc):
                out[i] += a * x
            if len(out) > n:
                c = out.pop()
                for j in range(n):
                    out[j] -= c * f[j]
            acc = _trim([x % p for x in out])
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
    tp = _gfp_powmod(0, p, f, p)
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
            w = _gfp_powmod(rng.randrange(p), (p - 1) // 2, h, p)
            w += [0] * (1 - len(w))
            w[0] -= 1
            s = _gfp_gcd(h, _trim([c % p for c in w]), p)
            if 0 < len(s) - 1 < d:
                todo += [s, _gfp_divmod(h, s, p)[0]]
                break
    return roots


# The Hensel prime is the least good prime from here up: roots modulo a
# small prime are cheap to find, and quadratic lifting reaches any modulus in
# a few more steps. A square-free input has finitely many bad primes.
_HENSEL_START = 101


def _zprimitive(a):
    """An integer vector divided by its content, its last entry (a
    polynomial's leading coefficient) made nonnegative."""
    g = gcd(*a)
    if a and a[-1] < 0:
        g = -g
    return a if g in (0, 1) else [c // g for c in a]


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
    h = _zsquarefree(_zprimitive(_cleared(p)[0]))
    n = len(h) - 1
    if n == 0:
        return []
    dh = [i * c for i, c in enumerate(h)][1:]
    for q in filter(is_prime, count(_HENSEL_START, 2)):
        hq = [c % q for c in h]
        if hq[-1] and len(_gfp_gcd(hq, _trim([c % q for c in dh]), q)) == 1:
            break
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
    rows = M.copy_rows()
    for i, row in enumerate(rows):
        row[i] -= lam  # any residue: the kernel's rref reduces it
    return kernel(Matrix(M.field, rows, ncols=M.ncols))


def normalize_vector(v, field):
    """Scale v so its first nonzero entry is one. Returns None for zero v."""
    for x in v:
        if not field.is_zero(x):
            return entrywise(repeat(field.inv(x)), v, field)
    return None
