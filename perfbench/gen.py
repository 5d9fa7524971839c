"""Seeded benchmark inputs and the arithmetic that checks answers.

Nothing here imports projzero: the inputs and their ground truth come from
the seed and this file's own arithmetic, so a change to one of projzero's
algorithms cannot change another workload's inputs or its expected answers.

Elements of Q are Fractions; elements of GF(p) are ints in [0, p).
"""

import random
from fractions import Fraction
from itertools import product

P = 32003


class Field:
    """Q when p is None, else GF(p)."""

    def __init__(self, p=None):
        self.p = p

    @property
    def spec(self):
        return "Q" if self.p is None else f"GF({self.p})"

    def __call__(self, x):
        """Coerce an int, a Fraction or a literal such as '-3/4'."""
        x = Fraction(x)
        if self.p is None:
            return x
        return x.numerator * pow(x.denominator, -1, self.p) % self.p

    def red(self, x):
        return x if self.p is None else x % self.p

    def inv(self, x):
        return 1 / x if self.p is None else pow(x, -1, self.p)

    def power(self, x, e):
        return x ** e if self.p is None else pow(x, e, self.p)


QQ = Field()
GF = Field(P)


def normalize(F, pt):
    """Scale a nonzero vector so its first nonzero coordinate is 1."""
    lead = next(x for x in pt if x != 0)
    inv = F.inv(lead)
    return tuple(F.red(x * inv) for x in pt)


def poly_mul(F, a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            out[m] = F.red(out.get(m, 0) + c1 * c2)
    return {m: c for m, c in out.items() if c != 0}


def linear_poly(coeffs):
    n = len(coeffs)
    return {tuple(int(k == i) for k in range(n)): c
            for i, c in enumerate(coeffs) if c != 0}


def evaluate(F, poly, pt):
    total = 0
    for mono, c in poly.items():
        v = c
        for x, e in zip(pt, mono):
            if e:
                v = v * F.power(x, e)
        total += v
    return F.red(total)


def det3(F, rows):
    (a, b, c), (d, e, f), (g, h, i) = rows
    return F.red(a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g))


def common_zero(F, forms):
    """Generator of the common zero of n-1 linear forms in n variables, by
    cross products (n = 3) or signed 3x3 minors (n = 4); zero if the forms
    are dependent."""
    n = len(forms[0])
    if n == 3:
        (a, b, c), (d, e, f) = forms
        return (F.red(b * f - c * e), F.red(c * d - a * f), F.red(a * e - b * d))
    if n == 4:
        return tuple(F.red((-1) ** j * det3(F, [[r[k] for k in range(4) if k != j]
                                                 for r in forms]))
                     for j in range(4))
    raise ValueError("common_zero supports 3 or 4 variables")


def _draw(rng, F, lo, hi):
    if F.p is not None:
        return rng.randrange(F.p)
    return Fraction(rng.randint(lo, hi))


def _draw_vector(rng, F, n, lo, hi):
    while True:
        v = [_draw(rng, F, lo, hi) for _ in range(n)]
        if any(x != 0 for x in v):
            return v


def var_names(n):
    return ("x", "y", "z") if n == 3 else tuple(f"x{i}" for i in range(n))


class Instance:
    """An ideal with its known points, or a bare point set (gens empty)."""

    def __init__(self, F, names, gens, points, label):
        self.F = F
        self.names = names
        self.gens = gens
        self.points = points
        self.label = label

    def ideal_text(self):
        lines = [f"field {self.F.spec}", "vars " + " ".join(self.names)]
        lines += [poly_text(g, self.names) for g in self.gens]
        return "\n".join(lines) + "\n"

    def points_text(self):
        lines = [f"field {self.F.spec}", "vars " + " ".join(self.names)]
        lines += [" : ".join(str(x) for x in pt) for pt in self.points]
        return "\n".join(lines) + "\n"


def complete_intersection(rng, F, degrees, lo=-3, hi=3):
    """Products of random linear forms, one product per entry of degrees,
    in len(degrees)+1 variables. The points are the common zeros of one
    factor from each product; draws where a choice of factors is dependent
    or two points coincide are rejected, so the ideal is radical with
    exactly prod(degrees) points."""
    n = len(degrees) + 1
    while True:
        factors = [[_draw_vector(rng, F, n, lo, hi) for _ in range(d)]
                   for d in degrees]
        points = []
        for choice in product(*factors):
            v = common_zero(F, choice)
            if all(x == 0 for x in v):
                break
            points.append(normalize(F, v))
        else:
            if len(set(points)) == len(points):
                break
    gens = []
    for group in factors:
        g = {tuple([0] * n): F(1)}
        for coeffs in group:
            g = poly_mul(F, g, linear_poly(coeffs))
        gens.append(g)
    label = f"CI{tuple(degrees)} over {F.spec}"
    return Instance(F, var_names(n), gens, sorted(points), label)


def represent(rng, inst):
    """The same ideal under another generating set: each generator is scaled
    by a nonzero constant and gains a multiple of each earlier generator of
    no larger degree (a triangular, invertible change of basis)."""
    F, n = inst.F, len(inst.names)
    gens = []
    for i, g in enumerate(inst.gens):
        scale = F(rng.choice((-2, -1, 1, 2)))
        new = {m: F.red(c * scale) for m, c in g.items()}
        for h in inst.gens[:i]:
            dh, dg = sum(next(iter(h))), sum(next(iter(g)))
            if dh <= dg:
                shift = {random_monomial(rng, n, dg - dh): F(rng.randint(-2, 2))}
                for m, c in poly_mul(F, shift, h).items():
                    new[m] = F.red(new.get(m, 0) + c)
        gens.append({m: c for m, c in new.items() if c != 0})
    return Instance(F, inst.names, gens, inst.points, inst.label)


def point_set(rng, F, m, n, lo=-5, hi=5):
    """m distinct projective points in P^(n-1), normalized."""
    seen = set()
    points = []
    while len(points) < m:
        pt = normalize(F, _draw_vector(rng, F, n, lo, hi))
        if pt not in seen:
            seen.add(pt)
            points.append(pt)
    return Instance(F, var_names(n), [], points, f"{m} points in P^{n - 1} over {F.spec}")


def random_monomial(rng, n, degree):
    """Exponent vector of the given degree, split at random cut points."""
    cuts = sorted(rng.randint(0, degree) for _ in range(n - 1))
    bounds = [0] + cuts + [degree]
    return tuple(bounds[i + 1] - bounds[i] for i in range(n))


def monomial_text(mono, names):
    parts = [name if e == 1 else f"{name}^{e}"
             for e, name in zip(mono, names) if e]
    return "*".join(parts) or "1"


def poly_text(poly, names):
    out = []
    for mono in sorted(poly, reverse=True):
        c = poly[mono]
        neg = c < 0
        body = f"{abs(c)}*{monomial_text(mono, names)}" if any(mono) else str(abs(c))
        if out:
            out.append(("- " if neg else "+ ") + body)
        else:
            out.append(("-" if neg else "") + body)
    return " ".join(out) if out else "0"


def parse_poly(F, text, names):
    """Parse projzero's rendering of a form: signed terms c*x^a*y^b."""
    index = {name: i for i, name in enumerate(names)}
    poly = {}
    if text.strip() == "0":
        return poly
    tokens = text.replace(" + ", " +").replace(" - ", " -").split()
    for tok in tokens:
        sign = -1 if tok[0] == "-" else 1
        body = tok.lstrip("+-")
        coeff = F(sign)
        exps = [0] * len(names)
        for factor in body.split("*"):
            if factor[0].isdigit():
                coeff = F.red(coeff * F(factor))
            else:
                name, _, e = factor.partition("^")
                exps[index[name]] += int(e) if e else 1
        m = tuple(exps)
        poly[m] = F.red(poly.get(m, 0) + coeff)
    return {m: c for m, c in poly.items() if c != 0}


# The ideal of data/three_quadrics.ideal and its three rational points.
THREE_QUADRICS = Instance(
    QQ, ("x", "y", "z"),
    [parse_poly(QQ, s, ("x", "y", "z")) for s in
     ("x*z + y*z - z^2", "x^2 - y^2 + 2*y*z - z^2", "x*y - y^2 + y*z")],
    [(QQ(0), QQ(1), QQ(1)), (QQ(1), QQ(0), QQ(1)), (QQ(1), QQ(1), QQ(0))],
    "three quadrics over Q")


def rng_for(workload, seed):
    return random.Random(f"{workload}:{seed}")
