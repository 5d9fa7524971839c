"""The per-candidate interpolation loop that `quotient._interpolate`
replaced, kept as a test oracle.

Each candidate is reduced against one incremental echelon of the accepted
candidates of its degree, whose rows also carry the combination of B_e they
are psi of; a dependent candidate's reduction is read off that carried part,
padded with zeros to m entries.
"""

from projzero.polyring import MonomialOrder, mono_divides


def interpolate(field, start, step, order: MonomialOrder, ascending,
                known=()):
    """Yields (B_e, psi-vectors of B_e, initials, reductions r) for
    e = d0 + 1, d0 + 2, ..., as `quotient._interpolate` does, except that
    each r has m entries, those past |B_e| zero."""
    p = field.size
    zero, one = field.zero, field.one
    known = list(known)
    basis = dict(start)
    nv = len(next(iter(basis)))
    m = len(next(iter(basis.values())))
    while True:
        cands = {}
        for s, v in basis.items():
            for j in range(nv):
                cands.setdefault(s[:j] + (s[j] + 1,) + s[j + 1:], (v, j))
        tested = [t for t in order.sort_desc(cands)
                  if not any(mono_divides(g, t) for g in known)]
        if ascending:
            tested.reverse()
        echelon, basis, initials, reductions = [], {}, [], []
        for t in tested:
            v, j = cands[t]
            w = step(v, j)
            r = w + [zero] * m
            for pc, row in echelon:
                c = r[pc] if p is None else r[pc] % p
                if c:
                    r = [a - c * b for a, b in zip(r, row)]
            if p is not None:
                r = [a % p for a in r]
            pc = next((k for k in range(m) if r[k]), None)
            if pc is None:
                initials.append(t)
                reductions.append(r[m:])
                continue
            r[m + len(basis)] = one
            inv = field.inv(r[pc])
            row = [a * inv for a in r]
            echelon.append((pc, row if p is None else [a % p for a in row]))
            basis[t] = w
        known += initials
        yield list(basis), list(basis.values()), initials, reductions
