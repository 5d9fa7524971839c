"""Stable basis chains and projective multiplication matrices.

A triplet is (degree d, basis E of R_d, linear form l, matrices A_0..A_n)
where the map [a] -> [l a] from R_d onto R_{d+1} is surjective. Row i of A_j
holds the coordinates of [x_j e_i] in the basis {[l e_k]} of R_{d+1}; in
particular sum_j coeff_j(l) A_j is the identity, which `assemble` checks.

Every ideal-side triplet comes out of one loop over candidate forms l,
an explicit l or seeded draws, at one l-map and one rref each.

Two degree policies are supported. first_surjective stops at the first
degree with hf(d) >= hf(d+1) and a surjective l, which is all the variety
computation needs. certified_stable builds the triplet at the Hilbert
scan's certificate degree, from which hf is provably constant and the
matrices are independent of the degree at which they are rebuilt: the
least such degree d_c when the commutation certificate
(`commuting_triplet`) closed the scan, Gotzmann's d* when only persistence
did, over fields too small to have a bijective l.

The ideal keeps its degree pieces, in its own monomial order (`I.piece`),
so the scan, the search for l and a fallback scan eliminate each degree
once per command, and `solve` hands its scan to `build_triplet`. The
certificate draws l from the caller's seed, and the search's stream
restarts at every degree; where hf(d) = hf(d+1) surjective means
bijective, so at the certificate degree the search would find the
certificate's l, and `build_triplet` returns the scan's triplet unless l
is explicit or the trial budget is below COMMUTATION_DRAWS = 4. Below it
the search replays the certificate's draws, so it builds the same triplet
when the budget reaches the draw that gave l, and fails otherwise.

`Triplet` is the one triplet type: `build_triplet` here and
`points.bm_triplet` both build it with `assemble`.
"""

import random
from dataclasses import dataclass
from functools import cached_property

from .errors import (ArtinianQuotient, CapExceeded, DegreeTooLow,
                     InvariantViolation, NoSurjectionFound, ProjzeroError)
from .linalg import Matrix, linear_combination, rref, vec_matmul
from .polyring import Form, MonomialOrder, form_from_coeffs, mono_degree
from .quotient import (DegreePiece, HilbertScan, IdealPresentation, Options,
                       hilbert_scan)


@dataclass
class Triplet:
    """The paper's triplet (d, E, l, A_0..A_n), with d the degree of E: the
    one type of the ideal side (`build_triplet`) and the points side
    (`points.bm_triplet`); `assemble` builds every one."""
    E_monomials: list  # basis of R_d (standard monomials, possibly a subset)
    l: Form
    A: list            # n+1 multiplication matrices, one per variable

    @property
    def d(self):
        return mono_degree(self.E_monomials[0])

    @property
    def size(self):
        return len(self.E_monomials)


def _l_sum(l: Form, matrix_of) -> Matrix:
    """sum_j coeff_j(l) matrix_of(j) over the variables x_j of l."""
    terms = l.terms.items()
    return linear_combination([c for _, c in terms],
                              [matrix_of(mono.index(1)) for mono, _ in terms])


def assemble(E_monomials, l: Form, X: list) -> Triplet:
    """The triplet on E from X_j, the matrix of multiplication by x_j from E
    to coordinates on a basis of the degree above: L_E = sum_j coeff_j(l) X_j
    is inverted once and A_j = X_j L_E^{-1}. Both sides build their `Triplet`
    here, the ideal side from normal forms and the points side from values
    at the points, and sum_j coeff_j(l) A_j = 1 is checked."""
    L_E_inv = _l_sum(l, X.__getitem__).inverse()
    trip = Triplet(E_monomials=E_monomials, l=l,
                   A=[X_j @ L_E_inv for X_j in X])
    if l_combination(trip) != Matrix.identity(L_E_inv.field, trip.size):
        raise InvariantViolation(
            "the l-combination sum_j coeff_j(l) A_j is not the identity")
    return trip


def l_combination(triplet) -> Matrix:
    """sum_j coeff_j(l) A_j of a triplet; `assemble` checks that it is 1."""
    return _l_sum(triplet.l, triplet.A.__getitem__)


def _times_variable(j, monos, piece_d1: DegreePiece) -> Matrix:
    """X_j on degree-d `monos`: row s is nf(x_j s), read off piece_d1."""
    return Matrix(piece_d1.echelon.field,
                  [piece_d1.normal_forms[s[:j] + (s[j] + 1,) + s[j + 1:]]
                   for s in monos], ncols=piece_d1.hf)


def l_map_matrix(l: Form, piece_d: DegreePiece, piece_d1: DegreePiece) -> Matrix:
    """Matrix of multiplication by a nonzero l from R_d to R_{d+1}.

    Rows are indexed by the standard monomials of R_d, columns by those of
    R_{d+1}; entries are normal-form coordinates. It is sum_j c_j X_j for
    l = sum_j c_j x_j, X_j on the standard monomials of R_d.
    """
    return _l_sum(l, lambda j: _times_variable(
        j, piece_d.standard_monomials, piece_d1))


def _draws(I: IdealPresentation, seed, trials):
    """`trials` seeded draws of a nonzero l; each search restarts them."""
    rng = random.Random(seed)
    pool = I.field.sample_pool()
    for _ in range(trials):
        l = None
        while l is None or l.is_zero():
            l = Form.linear(I.field, [pool[rng.randrange(len(pool))]
                                      for _ in range(I.nvars)])
        yield l


def _first_triplet(candidates, piece_d: DegreePiece,
                   piece_d1: DegreePiece) -> Triplet | None:
    """The triplet at d from the first candidate l with [l] R_d = R_{d+1},
    else None. One rref of L^T, L the l-map, gives the rank and E: the
    earliest standard monomials whose rows of L are a basis of R_{d+1}."""
    for l in candidates:
        _, rank, rows = rref(l_map_matrix(l, piece_d, piece_d1).transpose())
        if rank == piece_d1.hf:
            E = [piece_d.standard_monomials[i] for i in rows]
            return assemble(E, l, [_times_variable(j, E, piece_d1)
                                   for j in range(l.nvars)])
    return None


# Seeded draws of l per degree in the commutation certificate. A random l
# over a large field is bijective almost always; over a field too small to
# have one every draw fails and the Hilbert scan falls back to Gotzmann.
COMMUTATION_DRAWS = 4


def commuting_triplet(I: IdealPresentation, piece_d: DegreePiece,
                      piece_d1: DegreePiece, seed=0) -> Triplet | None:
    """The triplet at degree d if its matrices commute pairwise, else None.

    Needs hf(d) = hf(d+1) > 0 and d at least the generator degree; l is the
    first of COMMUTATION_DRAWS draws from `seed` that makes the l-map
    bijective, the draws `build_triplet` makes, and None also means that no
    draw did. By the theorem in quotient.hilbert_scan, commuting matrices
    certify that hf is constant from d on, and they commute for every such
    l once it is.

    Only the pairs without one variable x_k are multiplied, for a k with
    c_k = coeff_k(l) != 0. `assemble` has checked sum_j c_j A_j = 1, so
    A_k = c_k^{-1} (1 - sum_{j != k} c_j A_j). If the other A_j commute
    pairwise, each commutes with that combination, hence with A_k, and all
    pairs commute; the converse is plain. That is C(n, 2) products of pairs
    instead of C(n + 1, 2) for n + 1 variables.
    """
    trip = _first_triplet(_draws(I, seed, COMMUTATION_DRAWS), piece_d, piece_d1)
    if trip is None:
        return None
    k = next(iter(trip.l.terms)).index(1)
    A = trip.A[:k] + trip.A[k + 1:]
    if any(A[i] @ A[j] != A[j] @ A[i]
           for i in range(len(A)) for j in range(i)):
        return None
    return trip


def build_triplet(I: IdealPresentation, options: Options = Options(),
                  scan: HilbertScan | None = None) -> Triplet:
    """Scan degrees, find a surjective linear form and assemble the matrices.

    first_surjective tries d = 0, 1, ... and stops at the first degree with
    hf(d) >= hf(d+1) and a surjective l: options' l alone, or the first of
    its max_trials seeded draws (`_first_triplet`). certified_stable starts
    at the Hilbert scan's certificate degree: d_c when commuting matrices
    closed the scan, Gotzmann's d* otherwise. hf is constant from there on,
    and where the scan closed by commutation its triplet is the one returned.

    `scan`, this command's hilbert_scan(I, options) when given, lends its
    commuting triplet at its certificate degree (see the module
    docstring). Without one, certified_stable scans first, and
    first_surjective scans only once a search has failed.

    A failed search at any d >= d_c, the scan's certificate degree, is
    final: whether l' is bijective from R_e to R_{e+1} does not depend on
    e >= d_c, and the seeded stream, which restarts at every degree,
    repeats the same draws. By commutation: with l the certificate's form,
    R_e = l^{e-d_c} R_{d_c} for e >= d_c, and under that identification
    ·l' is sum_j c'_j M_j on R_{d_c} for l' = sum_j c'_j x_j, where M_j are
    the commuting maps of the certificate. By Gotzmann at d* with constant
    value m, which needs d* >= m: the saturation J of I defines a scheme X
    of degree m, hf of S/J is m from degree m - 1 on, and so I_e within J_e,
    both of codimension m, is J_e for e >= d*. For e >= m - 1, (S/J)_e is the m-dimensional algebra of X
    (O_X(1) is trivial on a finite scheme), and ·l' is multiplication by
    one fixed element of that algebra, whatever e is.
    A failed search brings in the scan, whose d_c <= cap has hf(d_c) =
    hf(d_c + 1), so the walk ends by d_c: past the loop only CapExceeded.
    """
    cap = I.degree_cap(options.max_degree)
    l = options.linear_form
    trials = 1 if l is not None else options.max_trials
    start = 0
    if options.degree_policy == "certified_stable":
        if scan is None:
            scan = hilbert_scan(I, options)
        if scan.artinian:
            raise ArtinianQuotient("empty variety; no triplet exists")
        start = scan.certificate_degree
    piece_d = I.piece(start)
    for d in range(start, cap + 1):
        piece_d1 = I.piece(d + 1)
        if piece_d.hf >= piece_d1.hf:
            if piece_d1.hf == 0:
                raise ArtinianQuotient("empty variety; no triplet exists")
            known = scan.triplet if scan and l is None else None
            if (known is not None and known.d == d
                    and options.max_trials >= COMMUTATION_DRAWS):
                return known
            trip = _first_triplet(
                [l] if l is not None else _draws(I, options.seed, trials),
                piece_d, piece_d1)
            if trip is not None:
                return trip
            # K2 failed: compute one more degree, unless d is at least d_c. The
            # scan waits until here: it costs more than most triplets.
            if scan is None:
                scan = hilbert_scan(I, options)
            if d >= scan.certificate_degree:
                raise NoSurjectionFound(trials, d, scan.certificate,
                                        scan.certificate_degree)
        piece_d = piece_d1
    raise CapExceeded([I.piece(e).hf for e in range(cap + 2)], cap)


@dataclass
class FastNormalForm:
    """Coordinates of a normal form in the basis {l^k e_i}.

    The represented element sum_i c_i l^k e_i is expanded only when `form`
    is first read, as l^k times sum_i c_i e_i on linalg's `multiply_terms`:
    l^k takes k kernel steps and has C(k + n, n) terms for n + 1 variables,
    against the O(|f| n m^3 log k) field operations of the coordinates.
    """

    coords: list       # coordinates in the basis {l^k e_i}
    k: int             # power of l
    l: Form
    E_monomials: list  # the basis monomials e_i of the triplet

    @cached_property
    def form(self) -> Form:
        """The represented element l^k * sum_i c_i e_i, expanded."""
        l = self.l
        return l.power(self.k) * form_from_coeffs(
            l.field, l.nvars, mono_degree(self.E_monomials[0]),
            self.E_monomials, self.coords)


def _split_monomial(mono, d, order: MonomialOrder):
    """Split mono = a*b with deg b = d, taking b from the least significant
    variables of the ranking first."""
    b = [0] * len(mono)
    need = d
    for idx in reversed(order.ranking):
        take = min(need, mono[idx])
        b[idx] = take
        need -= take
        if need == 0:
            break
    a = tuple(m - x for m, x in zip(mono, b))
    return a, tuple(b)


def fast_normal_form(f: Form, I: IdealPresentation,
                     triplet: Triplet) -> FastNormalForm:
    """Normal form of a high-degree form as coordinates in {l^k e_i}.

    Each monomial is split as a*b with deg b = triplet.d, b from the least
    significant variables of I's order; nf(b) is read off I's reduced
    echelon at degree d and the coordinate row is then pushed up by the
    matrices, one variable at a time, with binary matrix powers A_j^e
    shared by all monomials; one product with f's coefficients sums the
    pushed rows. Nothing is expanded: the result's `form` builds
    sum_i c_i l^k e_i on first use.
    """
    d = triplet.d
    if f.degree < d:
        raise DegreeTooLow(f"form degree {f.degree} below triplet degree {d}")
    field = f.field
    m = triplet.size
    k = f.degree - d
    piece_d = I.piece(d)
    pos_of_basis = {mono: i for i, mono in enumerate(triplet.E_monomials)}
    rows = []
    powers_cache = {}
    for mono in f.terms:
        a, b = _split_monomial(mono, d, I.order)
        row = [field.zero] * m
        for s, c in zip(piece_d.standard_monomials, piece_d.normal_forms[b]):
            if not c:
                continue
            if s not in pos_of_basis:
                raise ProjzeroError(
                    f"the normal form of the split tail with exponents {b} "
                    f"leaves the span of E at triplet degree {d}, "
                    f"where hf is not yet stable; --degree-policy "
                    f"certified_stable builds the triplet where it is")
            row[pos_of_basis[s]] = c
        for j, e in enumerate(a):
            if e == 0:
                continue
            key = (j, e)
            if key not in powers_cache:
                powers_cache[key] = triplet.A[j].mat_pow(e)
            row = vec_matmul(row, powers_cache[key])
        rows.append(row)
    coords = vec_matmul(list(f.terms.values()), Matrix(field, rows, ncols=m))
    return FastNormalForm(coords=coords, k=k, l=triplet.l,
                          E_monomials=triplet.E_monomials)
