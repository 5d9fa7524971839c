"""Exact computation with ideals of projective dimension zero.

The engine computes varieties, Hilbert functions, normal forms, vanishing
ideals and separators over Q or GF(p) using projective multiplication
matrices and common-eigenvector extraction. Everything is exact; there is
no floating point anywhere.
"""

from .errors import (ArtinianQuotient, CapExceeded, DegreeTooLow,
                     DuplicatePoint, FieldTooSmall, FormSyntax, InputError,
                     InvariantViolation, NoSurjectionFound, NotHomogeneous,
                     ProjzeroError, UnknownVariable, ZeroPoint)
from .fields import PrimeField, RationalField, parse_field_spec
from .linalg import Matrix, char_poly, eigenspace, kernel, roots_in_field, rref
from .polyring import (Form, MonomialOrder, format_form, format_monomial,
                       monomials_of_degree, parse_form)
from .quotient import (DegreePiece, HilbertScan, IdealPresentation, Options,
                       binomial_expansion, gb_degree_bound, hilbert_scan,
                       ideal_piece, initial_ideal_min_generators,
                       macaulay_growth, normal_form_by_degree)
from .points import (CMatrix, ProjPointSet, bm_triplet, c_matrix, normalize,
                     nzd_sweep, separators, vanishing_ideal)
from .solver import (EigenPoint, SolutionReport, common_eigenvectors,
                     filter_points, solve)
from .triplet import (FastNormalForm, Triplet, assemble, build_triplet,
                      fast_normal_form, l_combination, l_map_matrix)

__version__ = "0.1.0"
