"""Exception types shared across the package."""


class ProjzeroError(Exception):
    """Base class for all library errors."""


class InputError(ProjzeroError):
    """Malformed user input (files, polynomial strings, field specs)."""


class FormSyntax(InputError):
    pass


class NotHomogeneous(InputError):
    pass


class UnknownVariable(InputError):
    pass


class ZeroPoint(InputError):
    pass


class DuplicatePoint(InputError):
    def __init__(self, i, j):
        super().__init__(f"points {i} and {j} coincide after normalization")
        self.i = i
        self.j = j


class InvariantViolation(ProjzeroError):
    """A checked invariant behind a reported answer failed.

    Raised by explicit checks rather than `assert`, so that the checks also
    run under `python -O`; it signals a defect in projzero, not in the input.
    """


class CapExceeded(ProjzeroError):
    """Degree cap reached before the Hilbert function could be certified.

    Carries the partial list of Hilbert function values computed so far.
    """

    def __init__(self, partial_hf, cap):
        super().__init__(
            f"no Gotzmann certificate up to degree {cap}; partial hf = {partial_hf}"
        )
        self.partial_hf = partial_hf
        self.cap = cap


class NoSurjectionFound(ProjzeroError):
    """No linear form with a surjective multiplication map was found."""

    def __init__(self, trials, degree=None, certificate=None,
                 certificate_degree=None):
        msg = f"no surjective linear form after {trials} trials"
        if degree is not None:
            msg += f" (last degree tried: {degree})"
        if certificate_degree is not None:
            name = "Gotzmann" if certificate == "gotzmann" else certificate
            msg += (f"; the maps agree at every degree from the {name} "
                    f"certificate degree {certificate_degree} on, so no "
                    f"higher degree can succeed")
        super().__init__(msg)
        self.trials = trials
        self.degree = degree


class FieldTooSmall(ProjzeroError):
    """The ground field has fewer elements than the sweep needs."""


class DegreeTooLow(ProjzeroError):
    pass


class ArtinianQuotient(ProjzeroError):
    """The quotient is artinian (empty variety); no triplet exists."""
