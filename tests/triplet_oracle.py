"""Slow paths the triplet tests compare with.

- Multiplication matrices from explicit bases, each image solved against
  the span of the target basis; projzero assembles A_j = M_j (L_E)^{-1}
  from one inverse instead. Rebuilt one degree up they are unchanged once
  hf is constant.
- The exhaustive search for a surjective l over a prime field, through all
  normalized linear forms: it settles that no l exists, at a cost that
  grows as p^n, where projzero's seeded draws only give up.
- The certified_stable triplet as projzero built it before it took the
  Hilbert scan's: at Gotzmann's d*, from fresh Macaulay pieces and
  explicit bases, whatever degree the scan's certificate holds at.
"""

from projzero.errors import NoSurjectionFound
from projzero.linalg import Matrix
from projzero.polyring import Form
from projzero.quotient import (HilbertScan, IdealPresentation, Options,
                               ideal_piece)
from projzero.triplet import Triplet, _draws, _first_triplet, l_map_matrix
from tests.rref_oracle import solve_in_rowspace, standard_coords


def normalized_linear_forms(field, nvars):
    """All linear forms with first nonzero coefficient 1 (prime fields only)."""
    if field.size is None:
        raise ValueError("exhaustive enumeration needs a finite field")
    for lead in range(nvars):
        tail = nvars - lead - 1
        counters = [0] * tail
        while True:
            coeffs = [field.zero] * lead + [field.one] + [
                field.from_int(c) for c in counters]
            yield Form(field, nvars, 1,
                       {tuple(1 if k == i else 0 for k in range(nvars)): c
                        for i, c in enumerate(coeffs) if not field.is_zero(c)})
            i = tail - 1
            while i >= 0 and counters[i] == field.size - 1:
                counters[i] = 0
                i -= 1
            if i < 0:
                break
            counters[i] += 1


def exhaustive_surjective_linear(I: IdealPresentation, piece_d,
                                 piece_d1) -> Form:
    """The first normalized l with [l] R_d = R_{d+1}; NoSurjectionFound
    with the number of forms tried when there is none."""
    trials = 0
    for l in normalized_linear_forms(I.field, I.nvars):
        trials += 1
        if l_map_matrix(l, piece_d, piece_d1).rank() == piece_d1.hf:
            return l
    raise NoSurjectionFound(trials, degree=piece_d.d)


def multiplication_matrix(f: Form, E_forms, F_forms, I: IdealPresentation,
                          piece_target=None) -> Matrix:
    """Matrix of [a] -> [f a] with respect to explicit bases E and F.

    Row i holds the coordinates of nf(f * e_i) in {nf(F_k)}. Raises if some
    image falls outside the span of F (then F was not a basis).
    """
    target_degree = E_forms[0].degree + f.degree
    if piece_target is None:
        piece_target = ideal_piece(I, target_degree, I.order)
    field = I.field
    basis = Matrix(field, [standard_coords(g, piece_target) for g in F_forms],
                   ncols=len(piece_target.standard_monomials))
    rows = []
    for e in E_forms:
        y = standard_coords(f * e, piece_target)
        c = solve_in_rowspace(y, basis)
        if c is None:
            raise ValueError("image of basis element outside the span of F")
        rows.append(c)
    return Matrix(field, rows, ncols=len(F_forms))


def rebuild_at_next_degree(triplet, I: IdealPresentation):
    """Recompute the matrices one degree up, with bases {l e_i} and {l^2 e_i}.

    For a triplet built at a degree where the Hilbert function has stabilized
    this returns entry-identical matrices.
    """
    E_up = [triplet.l * Form.monomial(I.field, I.nvars, e)
            for e in triplet.E_monomials]
    F_up = [triplet.l * g for g in E_up]
    piece = ideal_piece(I, triplet.d + 2, I.order)
    out = []
    for j in range(I.nvars):
        xj = Form.variable(I.field, I.nvars, j)
        out.append(multiplication_matrix(xj, E_up, F_up, I,
                                         piece_target=piece))
    return out


def triplet_at_gotzmann_degree(I: IdealPresentation, options: Options,
                               scan: HilbertScan) -> Triplet:
    """The triplet at d* = scan.stabilization_degree, with options' l or
    the first of its seeded draws that is bijective there.

    hf(d*) = hf(d* + 1) = m, so a bijective l makes all the standard
    monomials of R_{d*} a basis E, with F = l E a basis of R_{d* + 1}.
    Raises NoSurjectionFound when no draw is bijective at d*.
    """
    d = scan.stabilization_degree
    piece_d, piece_d1 = (ideal_piece(I, d, I.order),
                         ideal_piece(I, d + 1, I.order))
    l = options.linear_form
    if l is None:
        found = _first_triplet(_draws(I, options.seed, options.max_trials),
                               piece_d, piece_d1)
        if found is None:
            raise NoSurjectionFound(options.max_trials, degree=d)
        l = found.l
    elif l_map_matrix(l, piece_d, piece_d1).rank() < piece_d1.hf:
        raise NoSurjectionFound(1, degree=d)
    E = [Form.monomial(I.field, I.nvars, s) for s in piece_d.standard_monomials]
    F = [l * e for e in E]
    A = [multiplication_matrix(Form.variable(I.field, I.nvars, j), E, F, I,
                               piece_target=piece_d1)
         for j in range(I.nvars)]
    return Triplet(E_monomials=list(piece_d.standard_monomials), l=l, A=A)
