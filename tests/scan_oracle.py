"""The Hilbert scan and initial-ideal generators that projzero used before
the commutation certificate: every degree up to Gotzmann's d* + 1, and
every degree up to the requested one, is built and echelonised as a
Macaulay piece. Kept as the oracle of the differential tests in
test_certificate.py.
"""

from projzero.errors import CapExceeded, InputError
from projzero.polyring import mono_divides
from projzero.quotient import (HilbertScan, IdealPresentation, Options,
                               ideal_piece, macaulay_growth)


def hilbert_scan(I: IdealPresentation,
                 options: Options = Options()) -> HilbertScan:
    """Scan hf(0), hf(1), ... until Gotzmann persistence certifies stability.

    The certificate at degree d >= t is hf(d+1) = hf(d)^{<d>}; persistence
    then pins hf forever, so hf(d*) is the stable value m (m = 0 reports an
    artinian quotient, i.e. an empty variety). Raises CapExceeded when no
    certificate appears up to the cap, which signals either projective
    dimension > 0 or a cap that is too low, and InputError for a cap below
    the generator degree. Of `options` it reads only the cap, `max_degree`.
    """
    t = I.max_gen_degree
    cap = I.degree_cap(options.max_degree)
    if cap < t:
        raise InputError(f"max_degree {cap} is below the generator degree {t}")
    hf = []
    for d in range(cap + 2):
        hf.append(ideal_piece(I, d, I.order).hf)
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
                               m=m, postulation=post)
    raise CapExceeded(hf, cap)


def initial_ideal_min_generators(I: IdealPresentation, up_to: int):
    """Minimal generators (monomial, degree) of the initial ideal up to a degree."""
    if up_to < I.max_gen_degree:
        raise ValueError("up_to must reach the generator degrees")
    mins = []
    for d in range(1, up_to + 1):
        piece = ideal_piece(I, d, I.order)
        for mono in I.order.sort_desc(piece.lead_monomials):
            if not any(mono_divides(g, mono) for g, _ in mins):
                mins.append((mono, d))
    return mins
