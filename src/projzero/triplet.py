"""Stable basis chains and projective multiplication matrices.

A triplet is (degree d, basis E of R_d, linear form l, matrices A_0..A_n)
where the map [a] -> [l a] from R_d onto R_{d+1} is surjective. Row i of A_j
holds the coordinates of [x_j e_i] in the basis {[l e_k]} of R_{d+1}; in
particular sum_j coeff_j(l) A_j is the identity, which every constructor
here checks.

Two degree policies are supported. first_surjective stops at the first
degree with hf(d) >= hf(d+1) and a surjective l, which is all the variety
computation needs. certified_stable builds the triplet at the Hilbert
scan's certificate degree, from which hf is provably constant and the
matrices are independent of the degree at which they are rebuilt: the
least such degree d_c when the commutation certificate
(`commuting_triplet`) closed the scan, Gotzmann's d* when only persistence
did, over fields too small to have a bijective l.

`solve` hands its scan to `build_triplet`, which takes the scan's pieces,
so each degree is eliminated once per command. The certificate draws l from
the caller's seed, and the search's stream restarts at every degree; where
hf(d) = hf(d+1) surjective means bijective, so at the certificate degree the
search would find the certificate's l, and `build_triplet` returns the
scan's triplet unless an explicit l or too few trials change the search.
"""

import random
from dataclasses import dataclass
from functools import cached_property

from .errors import (ArtinianQuotient, CapExceeded, DegreeTooLow, InputError,
                     InvariantViolation, NoSurjectionFound)
from .linalg import Matrix, linear_combination, rref, vec_matmul
from .polyring import Form, MonomialOrder
from .quotient import (DegreePiece, GradedIdeal, HilbertScan,
                       IdealPresentation, hilbert_scan)


@dataclass(frozen=True)
class TripletOptions:
    degree_policy: str = "first_surjective"  # or "certified_stable"
    seed: int = 0
    max_degree: int | None = None
    max_trials: int = 200
    linear_form: Form | None = None  # explicit l, skips the search

    def __post_init__(self):
        # a random search with no draws could only fail, degree after degree
        if self.linear_form is None and self.max_trials < 1:
            raise InputError(f"max_trials must be at least 1 for the random "
                             f"search of l, got {self.max_trials}")
        if self.linear_form is not None and self.linear_form.is_zero():
            raise InputError("the linear form l is zero")


@dataclass
class Triplet:
    d: int
    E_monomials: list  # basis of R_d (standard monomials, possibly a subset)
    l: Form
    trials: int        # draws of l tried at degree d, the last one giving l
    A: list            # n+1 multiplication matrices, one per variable
    piece_d: DegreePiece
    order: MonomialOrder

    @property
    def size(self):
        return len(self.E_monomials)


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
    terms = l.terms.items()
    return linear_combination(
        [c for _, c in terms],
        [_times_variable(mono.index(1), piece_d.standard_monomials, piece_d1)
         for mono, _ in terms])


def _surjective(l, piece_d, piece_d1):
    target = len(piece_d1.standard_monomials)
    L = l_map_matrix(l, piece_d, piece_d1)
    return L if L.rank() == target else None


def _random_linear(field, nvars, rng):
    pool = field.sample_pool()
    while True:
        coeffs = [pool[rng.randrange(len(pool))] for _ in range(nvars)]
        if any(not field.is_zero(c) for c in coeffs):
            return Form(field, nvars, 1,
                        {tuple(1 if k == i else 0 for k in range(nvars)): c
                         for i, c in enumerate(coeffs) if not field.is_zero(c)})


def find_surjective_linear(I: IdealPresentation, piece_d: DegreePiece,
                           piece_d1: DegreePiece, seed=0, max_trials=200):
    """Find l with [l] R_d = R_{d+1} by seeded random draws.

    Returns (l, its l-map matrix, the number of draws it took).
    """
    hf_d, hf_d1 = len(piece_d.standard_monomials), len(piece_d1.standard_monomials)
    if not hf_d >= hf_d1 > 0:
        raise ValueError(f"need hf(d) >= hf(d+1) > 0, got {hf_d}, {hf_d1}")
    rng = random.Random(seed)
    for trial in range(1, max_trials + 1):
        l = _random_linear(I.field, I.nvars, rng)
        L = _surjective(l, piece_d, piece_d1)
        if L is not None:
            return l, L, trial
    raise NoSurjectionFound(max_trials, degree=piece_d.d)


def _assemble(I, order, d, l, trials, piece_d, piece_d1, L):
    """The triplet at d from the l-map L: E is the earliest set of standard
    monomials whose rows L_E are a basis of R_{d+1}; A_j = X_j[E] L_E^{-1}."""
    field = I.field
    target = len(piece_d1.standard_monomials)
    # pivot columns of L^T pick the earliest independent row subset of L
    _, _, basis_rows = rref(L.transpose())
    E_mon = [piece_d.standard_monomials[i] for i in basis_rows]
    L_E_inv = Matrix(field, [L.rows[i] for i in basis_rows],
                     ncols=target).inverse()
    A = [_times_variable(j, E_mon, piece_d1) @ L_E_inv
         for j in range(I.nvars)]
    trip = Triplet(d=d, E_monomials=E_mon, l=l, trials=trials, A=A,
                   piece_d=piece_d, order=order)
    if l_combination(trip) != Matrix.identity(field, target):
        raise InvariantViolation(
            "the l-combination sum_j coeff_j(l) A_j is not the identity")
    return trip


def l_combination(triplet: Triplet) -> Matrix:
    """sum_j coeff_j(l) A_j, which must equal the identity."""
    terms = triplet.l.terms.items()
    return linear_combination([c for _, c in terms],
                              [triplet.A[mono.index(1)] for mono, _ in terms])


# Seeded draws of l per degree in the commutation certificate. A random l
# over a large field is bijective almost always; over a field too small to
# have one every draw fails and the Hilbert scan falls back to Gotzmann.
COMMUTATION_DRAWS = 4


def commuting_triplet(I: IdealPresentation, order: MonomialOrder,
                      piece_d: DegreePiece, piece_d1: DegreePiece,
                      seed=0) -> Triplet | None:
    """The triplet at degree d if its matrices commute pairwise, else None.

    Needs hf(d) = hf(d+1) > 0 and d at least the generator degree; l is the
    first of COMMUTATION_DRAWS draws from `seed` that makes the l-map
    bijective, the draws `build_triplet` makes, and None also means that no
    draw did. By the theorem in quotient.hilbert_scan, commuting matrices
    certify that hf is constant from d on, and they commute for every such
    l once it is.

    Only the pairs without one variable x_k are multiplied, for a k with
    c_k = coeff_k(l) != 0. `_assemble` has checked sum_j c_j A_j = 1, so
    A_k = c_k^{-1} (1 - sum_{j != k} c_j A_j). If the other A_j commute
    pairwise, each commutes with that combination, hence with A_k, and all
    pairs commute; the converse is plain. That is C(n, 2) products of pairs
    instead of C(n + 1, 2) for n + 1 variables.
    """
    try:
        l, L, trials = find_surjective_linear(I, piece_d, piece_d1, seed,
                                              COMMUTATION_DRAWS)
    except NoSurjectionFound:
        return None
    trip = _assemble(I, order, piece_d.d, l, trials, piece_d, piece_d1, L)
    k = next(iter(l.terms)).index(1)
    A = trip.A[:k] + trip.A[k + 1:]
    if any(A[i] @ A[j] != A[j] @ A[i]
           for i in range(len(A)) for j in range(i)):
        return None
    return trip


def build_triplet(I: IdealPresentation, order: MonomialOrder,
                  options: TripletOptions = TripletOptions(),
                  scan: HilbertScan | None = None) -> Triplet:
    """Scan degrees, find a surjective linear form and assemble the matrices.

    first_surjective tries d = 0, 1, ... and stops at the first degree with
    hf(d) >= hf(d+1) and a surjective l. certified_stable starts at the
    Hilbert scan's certificate degree: d_c when commuting matrices closed
    the scan, Gotzmann's d* otherwise. hf is constant from there on, and
    where the scan closed by commutation its triplet is the one returned.

    `scan`, this command's hilbert_scan(I, order, cap, options.seed) when
    given, lends its pieces and, at its certificate degree, its commuting
    triplet (see the module docstring). Without one, certified_stable scans
    first, and first_surjective scans only once a search has failed.

    When the scan closed by commutation at d_c, a failed search at any
    d >= d_c is final. With l the certificate's form, R_e = l^{e-d_c} R_{d_c}
    for e >= d_c, and under that identification ·l' : R_e -> R_{e+1} is
    sum_j c'_j M_j on R_{d_c} for l' = sum_j c'_j x_j, where M_j are the
    commuting maps of the certificate. So whether l' is bijective does not
    depend on e, and the seeded stream, which restarts at every degree,
    repeats the same draws.
    """
    cap = I.default_cap() if options.max_degree is None else options.max_degree
    start = 0
    if options.degree_policy == "certified_stable":
        if scan is None:
            scan = hilbert_scan(I, order, cap, options.seed)
        if scan.artinian:
            raise ArtinianQuotient("empty variety; no triplet exists")
        start = scan.certificate_degree
    elif options.degree_policy != "first_surjective":
        raise ValueError(f"unknown degree policy {options.degree_policy!r}")
    pieces = GradedIdeal(I, order) if scan is None else scan.pieces

    piece_d = pieces.piece(start)
    last_error = None
    for d in range(start, cap + 1):
        piece_d1 = pieces.piece(d + 1)
        if piece_d.hf >= piece_d1.hf:
            if piece_d1.hf == 0:
                raise ArtinianQuotient("empty variety; no triplet exists")
            known = scan.triplet if scan and options.linear_form is None else None
            if (known is not None and known.d == d
                    and known.trials <= options.max_trials):
                return known
            l, trials = options.linear_form, 1
            if l is not None:
                L = _surjective(l, piece_d, piece_d1)
            else:
                try:
                    l, L, trials = find_surjective_linear(
                        I, piece_d, piece_d1, options.seed, options.max_trials)
                except NoSurjectionFound:
                    L, trials = None, options.max_trials
            if L is not None:
                return _assemble(I, order, d, l, trials, piece_d, piece_d1, L)
            # K2 failed: compute one more degree, unless d repeats d_c. The
            # scan waits until here: it costs more than most triplets.
            if scan is None:
                scan = hilbert_scan(I, order, cap, options.seed)
                pieces = scan.pieces
            if scan.certificate == "commutation" and d >= scan.certificate_degree:
                raise NoSurjectionFound(
                    trials, d, certificate_degree=scan.certificate_degree)
            last_error = NoSurjectionFound(trials, degree=d)
        piece_d = piece_d1
    raise last_error or CapExceeded(
        [pieces.piece(e).hf for e in range(cap + 2)], cap)


@dataclass
class FastNormalForm:
    """Coordinates of a normal form in the basis {l^k e_i}.

    The represented element sum_i c_i l^k e_i is expanded only when `form`
    is first read: C(k + n, n) terms for n + 1 variables, against the
    O(|f| n m^3 log k) field operations of the coordinates.
    """

    coords: list       # coordinates in the basis {l^k e_i}
    k: int             # power of l
    l: Form
    E_monomials: list  # the basis monomials e_i of the triplet

    @cached_property
    def form(self) -> Form:
        """The represented element sum_i c_i l^k e_i, expanded."""
        l = self.l
        lk = l.power(self.k)
        rep = Form.zero(l.field, l.nvars, sum(self.E_monomials[0]) + self.k)
        for c, e in zip(self.coords, self.E_monomials):
            if not l.field.is_zero(c):
                rep = rep + lk * Form.monomial(l.field, l.nvars, e, c)
        return rep


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


def fast_normal_form(f: Form, triplet: Triplet) -> FastNormalForm:
    """Normal form of a high-degree form as coordinates in {l^k e_i}.

    Each monomial is split as a*b with deg b = triplet.d; nf(b) is read
    off the reduced echelon at degree d and the coordinate row is then pushed
    up by the matrices, one variable at a time, with binary matrix powers
    A_j^e shared by all monomials. Nothing is expanded: the result's `form`
    builds sum_i c_i l^k e_i on first use.
    """
    if f.degree < triplet.d:
        raise DegreeTooLow(
            f"form degree {f.degree} below triplet degree {triplet.d}")
    field = f.field
    order = triplet.order
    m = triplet.size
    k = f.degree - triplet.d
    std = triplet.piece_d.standard_monomials
    pos_of_basis = {mono: i for i, mono in enumerate(triplet.E_monomials)}
    total = [field.zero] * m
    powers_cache = {}
    for mono, coeff in f.terms.items():
        a, b = _split_monomial(mono, triplet.d, order)
        row = [field.zero] * m
        for s, c in zip(std, triplet.piece_d.normal_forms[b]):
            if field.is_zero(c):
                continue
            if s not in pos_of_basis:
                raise ValueError(
                    "nf of the split tail leaves the span of E; "
                    "rebuild the triplet at a degree with hf(d) = hf(d+1)")
            row[pos_of_basis[s]] = c
        for j, e in enumerate(a):
            if e == 0:
                continue
            key = (j, e)
            if key not in powers_cache:
                powers_cache[key] = triplet.A[j].mat_pow(e)
            row = vec_matmul(row, powers_cache[key])
        total = [field.add(t, field.mul(coeff, r)) for t, r in zip(total, row)]

    return FastNormalForm(coords=total, k=k, l=triplet.l,
                          E_monomials=triplet.E_monomials)
