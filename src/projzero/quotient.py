"""Degree-by-degree view of a graded quotient S/I.

Each degree d is handled independently: the Macaulay matrix of I_d (all
monomial multiples of the generators, echelonized) yields the Hilbert
function value, the lead monomials and the standard-monomial basis of R_d.
Stabilization of the Hilbert function is certified rather than read off
equal consecutive values, which would be fooled by the valleys a mixed
ideal can produce. Two certificates close a scan: commuting multiplication
matrices at a degree with a bijective linear form, which holds at the least
degree from which hf is constant, and Gotzmann persistence, which cannot
hold below degree m and is the fallback for fields too small to have a
bijective linear form. Pieces are therefore built only up to the degree
where hf becomes constant, plus one, whenever the first applies; the
initial ideal above that degree comes from rank tests on the matrices.
Normal forms are read off each piece's reduced echelon, monomial by
monomial, with no reduction.
"""

from dataclasses import dataclass
from functools import cached_property
from math import comb

from .errors import CapExceeded, InputError, InvariantViolation
from .linalg import Matrix, _as_columns, _row_times_cols, rref, vec_matmul
from .polyring import (Form, MonomialOrder, form_from_coeffs, mono_divides,
                       mono_mul, monomials_of_degree)


@dataclass
class IdealPresentation:
    """Homogeneous ideal given by generators over a fixed ring."""

    field: object
    vars: tuple
    generators: list

    def __post_init__(self):
        if not self.generators:
            raise InputError("need at least one generator")
        n = len(self.vars)
        for g in self.generators:
            if g.nvars != n or g.field != self.field:
                raise InputError("generator over the wrong ring")
            if g.is_zero():
                raise InputError("zero generator")

    @property
    def nvars(self):
        return len(self.vars)

    @property
    def max_gen_degree(self):
        return max(g.degree for g in self.generators)

    def default_cap(self):
        return max(self.max_gen_degree,
                   4 * (self.nvars + sum(g.degree for g in self.generators)))


@dataclass
class DegreePiece:
    """Echelonized degree-d slice of the ideal plus the induced basis of R_d."""

    d: int
    monomials: list        # all degree-d monomials, descending in the order
    echelon: Matrix        # rref of the Macaulay matrix, rows span I_d
    pivot_cols: list
    lead_monomials: set
    standard_monomials: list  # descending; k-basis of R_d
    hf: int

    @cached_property
    def normal_forms(self):
        """nf(t) on the standard monomials for every degree-d monomial t,
        built on first read: the Hilbert scan builds pieces whose normal
        forms it never reads. A standard t maps to a unit vector; a lead t
        to minus its row of the reduced echelon, which is t plus standard
        monomials, on the standard columns (Lazard, EUROCAL 1983)."""
        field = self.echelon.field
        pivots = set(self.pivot_cols)
        std_cols = [c for c in range(len(self.monomials)) if c not in pivots]
        table = dict(zip(self.standard_monomials,
                         Matrix.identity(field, self.hf).rows))
        for c, row in zip(self.pivot_cols, self.echelon.rows):
            table[self.monomials[c]] = [field.neg(row[i]) for i in std_cols]
        return table


def macaulay_rows(I: IdealPresentation, d: int, monomials, order: MonomialOrder):
    """Coefficient rows of all degree-d monomial multiples of the generators."""
    col = {m: i for i, m in enumerate(monomials)}
    z = I.field.zero
    rows = []
    for g in I.generators:
        if g.degree > d:
            continue
        for u in monomials_of_degree(I.nvars, d - g.degree, order):
            row = [z] * len(monomials)
            for m, c in g.terms.items():
                row[col[mono_mul(u, m)]] = c
            rows.append(row)
    return rows


def ideal_piece(I: IdealPresentation, d: int, order: MonomialOrder) -> DegreePiece:
    """Echelonize I_d and split degree-d monomials into leads and standards."""
    monomials = monomials_of_degree(I.nvars, d, order)
    rows = macaulay_rows(I, d, monomials, order)
    M = Matrix(I.field, rows, ncols=len(monomials))
    R, rank, pivot_cols = rref(M)
    echelon = Matrix(I.field, R.rows[:rank], ncols=len(monomials))
    pivot_set = set(pivot_cols)
    leads = {monomials[c] for c in pivot_cols}
    standards = [m for i, m in enumerate(monomials) if i not in pivot_set]
    return DegreePiece(d=d, monomials=monomials, echelon=echelon,
                       pivot_cols=list(pivot_cols), lead_monomials=leads,
                       standard_monomials=standards,
                       hf=len(monomials) - rank)


class GradedIdeal:
    """The degree pieces of I under one order, each built on first use; one
    command's scan, triplet and initial ideal share one."""

    def __init__(self, I: IdealPresentation, order: MonomialOrder):
        self.I, self.order, self._pieces = I, order, {}

    def piece(self, d) -> DegreePiece:
        if d not in self._pieces:
            # the module global, so that a wrapped ideal_piece sees each build
            self._pieces[d] = ideal_piece(self.I, d, self.order)
        return self._pieces[d]


def standard_coords(f: Form, piece: DegreePiece):
    """Coordinates of nf(f) on the standard-monomial basis of R_d: f's
    coefficients times the normal forms of its monomials."""
    if f.degree != piece.d:
        raise ValueError(f"form has degree {f.degree}, piece is degree {piece.d}")
    return vec_matmul(list(f.terms.values()), Matrix(
        f.field, [piece.normal_forms[m] for m in f.terms], ncols=piece.hf))


def normal_form_by_degree(f: Form, piece: DegreePiece) -> Form:
    """The representative of [f] supported on the standard monomials."""
    return form_from_coeffs(f.field, f.nvars, piece.d,
                            piece.standard_monomials, standard_coords(f, piece))


def binomial_expansion(h: int, i: int):
    """Unique expansion h = C(n_i,i) + ... + C(n_j,j), n_i > ... > n_j >= j >= 1."""
    if h < 1 or i < 1:
        raise ValueError("need h >= 1 and i >= 1")
    out = []
    while h > 0 and i >= 1:
        n = i
        while comb(n + 1, i) <= h:
            n += 1
        out.append((n, i))
        h -= comb(n, i)
        i -= 1
    if h != 0:
        raise InvariantViolation(f"binomial expansion leaves remainder {h}")
    return out


def macaulay_growth(h: int, i: int) -> int:
    """The Macaulay bound h^{<i>}; by convention 0^{<i>} = 0."""
    if h == 0:
        return 0
    return sum(comb(n + 1, k + 1) for n, k in binomial_expansion(h, i))


@dataclass
class HilbertScan:
    """Hilbert function values 0..d*+1, Gotzmann's d* and the certificate
    that closed the scan."""

    hf_values: list
    t: int                      # max generator degree
    stabilization_degree: int   # d*: least d >= t with hf(d+1) = hf(d)^{<d>}
    m: int                      # stable value hf(d*)
    postulation: int            # least degree from which hf is constant
    # The certificate that closed the scan, "gotzmann" or "commutation", the
    # degree at which it holds, and for "commutation" the triplet there,
    # whose matrices commute; then the pieces the scan built.
    certificate: str = "gotzmann"
    certificate_degree: int | None = None
    triplet: object = None
    pieces: GradedIdeal | None = None

    @property
    def artinian(self) -> bool:
        return self.m == 0


def hilbert_scan(I: IdealPresentation, order: MonomialOrder,
                 max_degree: int | None = None, seed=0) -> HilbertScan:
    """Scan hf(0), hf(1), ... until a certificate pins hf for good.

    At each degree d >= t (the generator degree) two certificates are
    tried, Gotzmann's first:

    - Gotzmann: hf(d+1) = hf(d) = hf(d)^{<d>}. Persistence then pins hf
      forever, so hf(d*) is the stable value m (m = 0 reports an artinian
      quotient, i.e. an empty variety). It cannot hold below d = m.
    - Commutation: hf(d+1) = hf(d) > 0, a draw of l from `seed` makes
      ·l : R_d -> R_{d+1} bijective, and the matrices A_j of the triplet
      at d commute pairwise (`triplet.commuting_triplet`).

    Theorem. Let I be generated in degrees <= t, R = S/I, d >= t, and l a
    linear form with ·l : R_d -> R_{d+1} bijective; let
    M_j = (·l)^{-1} ∘ (·x_j) on R_d, whose matrices are the A_j. Then the
    M_j commute pairwise if and only if hf(e) = hf(d) for every e >= d.

    Proof. Upper bound: R_{d+1} = l R_d and R_{e+1} = S_1 R_e give
    R_e = l^{e-d} R_d, so hf(e) <= hf(d). Lower bound: with commuting M_j,
    psi(x^a g) = M^a [g] (g in S_d) is well defined on S_e, since two
    splittings of a monomial differ by moves x_i <-> x_k and
    M_i [x_k h] = M_k [x_i h], both being (·l)^{-1} [x_i x_k h]. psi
    vanishes on I_e = S_{e-d} I_d, and sum_j coeff_j(l) M_j = 1 gives
    psi(l^{e-d} g) = [g], so psi maps R_e onto R_d and hf(e) >= hf(d).
    Converse: R_{d+2} = S_1 l R_d = l R_{d+1}, so l is bijective there too
    when hf is constant; x_i x_k a = l^2 M_i M_k a for a in R_d, which is
    symmetric in i and k, and l^2 is injective on R_d.

    This is the projective form of the criterion that commuting
    multiplication matrices characterise a normal form (Mourrain, "A new
    criterion for normal form algorithms", AAECC-13, 1999; Kehrein, Kreuzer
    and Robbiano, "An algebraist's view on border bases", 2005). By the
    converse the commutation certificate holds at the least d >= t from
    which hf is constant, whenever a drawn l is bijective there; pieces are
    then built only up to that degree plus one. hf(e) = m is known for
    every e >= d, and Gotzmann's d*, the hf list up to d* + 1 and the
    postulation follow by arithmetic. Gotzmann alone closes scans over
    fields too small to have a bijective l.

    `seed` picks the certificate's l, on which hf, d*, m and the
    postulation do not depend. The scan returns its GradedIdeal and the
    commuting triplet for the rest of the command: `build_triplet` and
    `initial_ideal_min_generators` take their pieces from it, and
    `build_triplet` returns the triplet where its own search would build it.

    Raises CapExceeded when Gotzmann's d* exceeds the cap, with hf up to
    cap + 1, which signals either projective dimension > 0 or a cap that is
    too low, and InputError for a cap below the generator degree.
    """
    from .triplet import commuting_triplet
    t = I.max_gen_degree
    cap = I.default_cap() if max_degree is None else max_degree
    if cap < t:
        raise InputError(f"max_degree {cap} is below the generator degree {t}")
    pieces = GradedIdeal(I, order)
    hf = []
    for d in range(cap + 2):
        piece = pieces.piece(d)
        hf.append(piece.hf)
        dd = d - 1
        # persistence alone is not enough: an ideal of projective dimension
        # one meets the Macaulay bound forever while still growing, so the
        # two consecutive values must also agree
        if dd >= t and hf[d] == hf[dd]:
            if hf[d] == macaulay_growth(hf[dd], dd):
                return _closed(hf, t, dd, "gotzmann", dd, pieces)
            trip = commuting_triplet(I, order, pieces.piece(dd), piece, seed)
            if trip is not None:
                # hf(e) = m for all e >= dd, and Gotzmann failed up to dd
                m, dstar = hf[dd], d
                while macaulay_growth(m, dstar) != m:
                    dstar += 1
                hf += [m] * (min(dstar, cap) + 2 - len(hf))
                if dstar > cap:
                    raise CapExceeded(hf, cap)
                return _closed(hf, t, dstar, "commutation", dd, pieces, trip)
    raise CapExceeded(hf, cap)


def _closed(hf, t, dstar, certificate, degree, pieces, triplet=None):
    m = hf[dstar]
    post = dstar
    while post > 0 and hf[post - 1] == m:
        post -= 1
    return HilbertScan(hf_values=hf, t=t, stabilization_degree=dstar, m=m,
                       postulation=post,
                       certificate=certificate, certificate_degree=degree,
                       triplet=triplet, pieces=pieces)


def gb_degree_bound(scan: HilbertScan, operational_nz: int) -> int:
    """Degree bound max(operational_nz, m) for a reduced Groebner basis."""
    return max(operational_nz, scan.m)


def initial_ideal_min_generators(I: IdealPresentation, order: MonomialOrder,
                                 up_to: int, scan: HilbertScan | None = None):
    """Minimal generators (monomial, degree) of the initial ideal up to a degree.

    Degrees come from the Macaulay pieces, except above the certificate
    degree d of a scan closed by commutation. There psi from the theorem in
    `hilbert_scan` is an isomorphism R_e -> R_d, with
    psi(x_j s) = psi(s) A_j in coordinates on the standard monomials of
    R_d, and `_interpolate` over psi in ascending order finds the rest: a
    monomial of degree e is a lead iff its psi-vector depends on those of
    smaller monomials. The pieces come from the scan's cache when a scan is
    given.
    """
    if up_to < I.max_gen_degree:
        raise ValueError("up_to must reach the generator degrees")
    trip = scan.triplet if scan is not None else None
    pieces = (scan and scan.pieces) or GradedIdeal(I, order)
    top = up_to if trip is None else min(up_to, trip.d)
    mins = []
    for d in range(1, top + 1):
        for mono in order.sort_desc(pieces.piece(d).lead_monomials):
            if not any(mono_divides(g, mono) for g, _ in mins):
                mins.append((mono, d))
    if top == up_to:
        return mins
    field = I.field
    m = trip.size
    start = {s: [field.one if k == i else field.zero for k in range(m)]
             for i, s in enumerate(trip.E_monomials)}
    # the columns of each A_j, prepared once for all the steps of the search
    cols = [_as_columns(zip(*A.rows), field) for A in trip.A]
    runs = _interpolate(field, start,
                        lambda v, j: _row_times_cols(v, cols[j], trip.A[j]),
                        order, True, [g for g, _ in mins])
    for e, (_, _, initials, _) in zip(range(top + 1, up_to + 1), runs):
        mins += [(t, e) for t in order.sort_desc(initials)]
    return mins


def _interpolate(field, start, step, order: MonomialOrder, ascending,
                 known=()):
    """Buchberger-Moeller over a linear functional psi: S_e -> K^m.

    `start` maps a monomial basis of R_{d0} to psi-vectors, and step(v, j)
    is the psi-vector of x_j s when v is that of s. In each degree e > d0
    the candidates x_j s (s in B_{e-1}) that no initial found so far or in
    `known` divides are tested in `order`, ascending or descending: one
    `rref` of the m x c matrix whose columns are their psi-vectors, in
    tested order. Its pivot columns are the first maximal independent set
    in that order, so they form B_e. Every other column c is a new minimal
    initial t, and with R the RREF, r_k = -R[k][c] gives its reduction
    t + sum_k r_k B_e[k] in the kernel of psi: the pivot columns are unit
    vectors and row k is zero left of its pivot, so r is the unique
    combination of the B_e tested before t. When the kernel is an ideal J
    these are the minimal generators of in(J) and the reduced Groebner
    basis of J for the order by degree, then `order` (reversed when
    descending): the monomials outside the initials form an order ideal,
    so each is a candidate.

    Yields (B_e, psi-vectors of B_e, initials, reductions r), each r with
    |B_e| entries, for e = d0 + 1, d0 + 2, ...; the caller decides where
    to stop.
    """
    known = list(known)
    basis = dict(start)
    nv = len(next(iter(basis)))
    while True:
        cands = {}
        for s, v in basis.items():
            for j in range(nv):
                cands.setdefault(s[:j] + (s[j] + 1,) + s[j + 1:], (v, j))
        tested = [t for t in order.sort_desc(cands)
                  if not any(mono_divides(g, t) for g in known)]
        if ascending:
            tested.reverse()
        vecs = [step(*cands[t]) for t in tested]
        R, rank, pivot_cols = rref(Matrix(field, zip(*vecs), ncols=len(vecs)))
        basis = {tested[c]: vecs[c] for c in pivot_cols}
        free = sorted(set(range(len(tested))) - set(pivot_cols))
        initials = [tested[c] for c in free]
        reductions = [[field.neg(R.rows[k][c]) for k in range(rank)]
                      for c in free]
        known += initials
        yield list(basis), list(basis.values()), initials, reductions
