"""The enumerating root finder that projzero used before it found roots by
gcd, splitting and Hensel lifting; kept as the oracle of the differential
tests. Over GF(p) it tries every residue, over Q every quotient of divisors
of the constant and leading coefficients (rational root theorem). Its cost
grows with p and with the size of the coefficients: small inputs only.
"""

from fractions import Fraction
from math import gcd, lcm

from projzero.linalg import RootReport, poly_divide_linear


def trial_divisors(n):
    """All positive divisors of |n| by trial-division factorization."""
    n = abs(n)
    if n == 0:
        raise ValueError("divisors of zero")
    factors = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    divs = [1]
    for p, e in factors.items():
        divs = [dv * p**k for dv in divs for k in range(e + 1)]
    return sorted(divs)


def rational_candidates(p):
    den = lcm(*[c.denominator for c in p]) if len(p) > 1 else 1
    ip = [int(c * den) for c in p]
    g = 0
    for c in ip:
        g = gcd(g, c)
    if g > 1:
        ip = [c // g for c in ip]
    a0, an = ip[0], ip[-1]
    if a0 == 0:
        return []
    cands = []
    for num in trial_divisors(a0):
        for den2 in trial_divisors(an):
            r = Fraction(num, den2)
            cands.append(r)
            cands.append(-r)
    return sorted(set(cands))


def enumerate_roots(poly, field):
    """roots_in_field by enumeration of candidates."""
    f = field
    p = list(poly)
    while len(p) > 1 and f.is_zero(p[-1]):
        p.pop()
    if all(f.is_zero(c) for c in p):
        raise ValueError("roots of the zero polynomial")
    pairs = []
    k = 0
    while k < len(p) - 1 and f.is_zero(p[k]):
        k += 1
    if k:
        pairs.append((f.zero, k))
        p = p[k:]
    if f.size is None:
        candidates = rational_candidates(p)
    else:
        candidates = range(f.size)
    for cand in candidates:
        if len(p) <= 1:
            break
        mult = 0
        while len(p) > 1:
            q, rem = poly_divide_linear(p, cand, f)
            if not f.is_zero(rem):
                break
            p = q
            mult += 1
        if mult:
            pairs.append((cand, mult))
    pairs.sort(key=lambda rm: f.sort_key(rm[0]))
    return RootReport(pairs=pairs, residual=p)
