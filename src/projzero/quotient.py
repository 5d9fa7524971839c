"""Degree-by-degree view of a graded quotient S/I.

Each degree d is handled independently: the Macaulay matrix of I_d (all
monomial multiples of the generators, echelonized) yields the Hilbert
function value, the lead monomials and the standard-monomial basis of R_d.
Stabilization of the Hilbert function is certified with Gotzmann's
persistence criterion rather than by spotting equal consecutive values,
which would be fooled by the valleys a mixed ideal can produce.
"""

from dataclasses import dataclass
from math import comb

from .errors import CapExceeded, InputError
from .linalg import Matrix, rref
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
            raise ValueError("need at least one generator")
        n = len(self.vars)
        for g in self.generators:
            if g.nvars != n or g.field != self.field:
                raise ValueError("generator over the wrong ring")
            if g.is_zero():
                raise ValueError("zero generator")

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
    rank: int
    pivot_cols: list
    lead_monomials: set
    standard_monomials: list  # descending; k-basis of R_d
    hf: int

    def mono_index(self):
        return {m: i for i, m in enumerate(self.monomials)}


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
    return DegreePiece(d=d, monomials=monomials, echelon=echelon, rank=rank,
                       pivot_cols=list(pivot_cols), lead_monomials=leads,
                       standard_monomials=standards,
                       hf=len(monomials) - rank)


def normal_form_by_degree(f: Form, piece: DegreePiece) -> Form:
    """The representative of [f] supported on the standard monomials."""
    if f.degree != piece.d:
        raise ValueError(f"form has degree {f.degree}, piece is degree {piece.d}")
    fld = f.field
    v = f.coeff_vector(piece.monomials)
    for r, pc in enumerate(piece.pivot_cols):
        c = v[pc]
        if fld.is_zero(c):
            continue
        row = piece.echelon.rows[r]
        v = [fld.sub(a, fld.mul(c, b)) for a, b in zip(v, row)]
    return form_from_coeffs(fld, f.nvars, piece.d, piece.monomials, v)


def standard_coords(f: Form, piece: DegreePiece):
    """Coordinates of nf(f) on the standard-monomial basis of R_d."""
    nf = normal_form_by_degree(f, piece)
    return nf.coeff_vector(piece.standard_monomials)


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
    assert h == 0
    return out


def macaulay_growth(h: int, i: int) -> int:
    """The Macaulay bound h^{<i>}; by convention 0^{<i>} = 0."""
    if h == 0:
        return 0
    return sum(comb(n + 1, k + 1) for n, k in binomial_expansion(h, i))


@dataclass
class HilbertScan:
    """Hilbert function values 0..d*+1 with the Gotzmann certificate."""

    hf_values: list
    t: int                      # max generator degree
    stabilization_degree: int   # d*: least d >= t with hf(d+1) = hf(d)^{<d>}
    m: int                      # stable value hf(d*)
    gotzmann_certified: bool
    postulation: int            # least degree from which hf is constant

    @property
    def artinian(self) -> bool:
        return self.m == 0


def hilbert_scan(I: IdealPresentation, order: MonomialOrder,
                 max_degree: int | None = None) -> HilbertScan:
    """Scan hf(0), hf(1), ... until Gotzmann persistence certifies stability.

    The certificate at degree d >= t is hf(d+1) = hf(d)^{<d>}; persistence
    then pins hf forever, so hf(d*) is the stable value m (m = 0 reports an
    artinian quotient, i.e. an empty variety). Raises CapExceeded when no
    certificate appears up to the cap, which signals either projective
    dimension > 0 or a cap that is too low, and InputError for a cap below
    the generator degree.
    """
    t = I.max_gen_degree
    cap = I.default_cap() if max_degree is None else max_degree
    if cap < t:
        raise InputError(f"max_degree {cap} is below the generator degree {t}")
    hf = []
    for d in range(cap + 2):
        hf.append(ideal_piece(I, d, order).hf)
        dd = d - 1
        # persistence alone is not enough: an ideal of projective dimension
        # one meets the Macaulay bound forever while still growing, so the
        # two consecutive values must also agree
        if dd >= t and hf[d] == hf[dd] and hf[d] == macaulay_growth(hf[dd], dd):
            m = hf[dd]
            post = dd
            while post > 0 and hf[post - 1] == m:
                post -= 1
            return HilbertScan(hf_values=hf, t=t, stabilization_degree=dd,
                               m=m, gotzmann_certified=True, postulation=post)
    raise CapExceeded(hf, cap)


def gb_degree_bound(scan: HilbertScan, operational_nz: int) -> int:
    """Degree bound max(operational_nz, m) for a reduced Groebner basis."""
    if not scan.gotzmann_certified:
        raise ValueError("scan is not certified")
    return max(operational_nz, scan.m)


def initial_ideal_min_generators(I: IdealPresentation, order: MonomialOrder,
                                 up_to: int):
    """Minimal generators (monomial, degree) of the initial ideal up to a degree."""
    if up_to < I.max_gen_degree:
        raise ValueError("up_to must reach the generator degrees")
    mins = []
    for d in range(1, up_to + 1):
        piece = ideal_piece(I, d, order)
        for mono in order.sort_desc(piece.lead_monomials):
            if not any(mono_divides(g, mono) for g, _ in mins):
                mins.append((mono, d))
    return mins
