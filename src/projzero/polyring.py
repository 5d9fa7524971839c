"""Monomials, monomial orders and homogeneous forms.

A monomial is a tuple of exponents of length nvars. A Form maps monomials to
nonzero coefficients and carries a fixed total degree; homogeneity is
enforced at construction. Evaluation always happens at a fixed affine
representative of a projective point, so repeated evaluations of the same
class are consistent. A Form is data: its values run in linalg's
`evaluate_terms`, and its products and powers in `multiply_terms`, so no
method here adds or multiplies scalars.
"""

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .errors import (FormSyntax, InputError, InvariantViolation,
                     NotHomogeneous, UnknownVariable)
from .linalg import evaluate_terms, multiply_terms


def mono_degree(m):
    return sum(m)


def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a, b):
    """True if monomial a divides monomial b."""
    return all(x <= y for x, y in zip(a, b))


def mono_one(nvars):
    return (0,) * nvars


@dataclass(frozen=True)
class MonomialOrder:
    """degrevlex or lex with an explicit variable ranking.

    ranking lists variable indices from most to least significant. degrevlex
    compares total degree first; ties go to the monomial with the smaller
    exponent on the least significant variable, recursing from the end.
    """

    kind: str = "degrevlex"
    ranking: tuple = ()

    def __post_init__(self):
        if self.kind not in ("degrevlex", "lex"):
            raise InputError(f"unknown order kind {self.kind!r}")
        if sorted(self.ranking) != list(range(len(self.ranking))):
            raise InputError("ranking must be a permutation of the variable indices")

    @classmethod
    def default(cls, nvars, kind="degrevlex"):
        return cls(kind=kind, ranking=tuple(range(nvars)))

    def key(self, mono):
        """Sort key: m1 > m2 in the order iff key(m1) > key(m2)."""
        perm = [mono[i] for i in self.ranking]
        if self.kind == "lex":
            return tuple(perm)
        return (sum(mono), tuple(-e for e in reversed(perm)))

    def sort_desc(self, monos):
        return sorted(monos, key=self.key, reverse=True)


def monomials_of_degree(nvars, d, order: MonomialOrder):
    """All monomials of total degree d, sorted descending by the order."""
    if d < 0:
        raise ValueError("degree must be >= 0")
    monos = []
    # stars and bars over nvars slots
    for bars in combinations(range(d + nvars - 1), nvars - 1):
        prev = -1
        exps = []
        for b in bars:
            exps.append(b - prev - 1)
            prev = b
        exps.append(d + nvars - 1 - prev - 1)
        monos.append(tuple(exps))
    if len(monos) != comb(nvars - 1 + d, d):
        raise InvariantViolation(f"wrong number of degree-{d} monomials")
    return order.sort_desc(monos)


class Form:
    """Homogeneous polynomial: monomial -> coefficient map of one degree."""

    __slots__ = ("field", "nvars", "degree", "terms")

    def __init__(self, field, nvars, degree, terms):
        self.field = field
        self.nvars = nvars
        clean = {}
        for m, c in terms.items():
            if field.is_zero(c):
                continue
            if len(m) != nvars:
                raise ValueError(f"monomial {m} has wrong arity")
            if mono_degree(m) != degree:
                raise NotHomogeneous(
                    f"monomial of degree {mono_degree(m)} in a degree-{degree} form")
            clean[m] = c
        self.degree = degree
        self.terms = clean

    @classmethod
    def linear(cls, field, coeffs):
        """sum_i coeffs[i] x_i."""
        n = len(coeffs)
        return cls(field, n, 1, {tuple(int(k == i) for k in range(n)): c
                                 for i, c in enumerate(coeffs)})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, Form) and other.field == self.field
                and other.nvars == self.nvars and other.degree == self.degree
                and other.terms == self.terms)

    def __hash__(self):
        return hash((self.degree, tuple(sorted(self.terms.items()))))

    def __mul__(self, other):
        """The product, one call of linalg's `multiply_terms`."""
        self._check_compatible(other)
        return Form(self.field, self.nvars, self.degree + other.degree,
                    multiply_terms([self.terms.items(), other.terms.items()],
                                   self.nvars, self.field))

    def power(self, e):
        """self^e, one call of linalg's `multiply_terms` on e copies of the
        terms; the form 1 for e = 0."""
        if e < 0:
            raise ValueError("negative power")
        return Form(self.field, self.nvars, self.degree * e,
                    multiply_terms([self.terms.items()] * e, self.nvars,
                                   self.field))

    def evaluate(self, rep):
        """Evaluate at a fixed affine representative (list of scalars)."""
        if len(rep) != self.nvars:
            raise ValueError("representative has wrong length")
        return evaluate_terms(self.terms, self.degree, rep, self.field)

    def _check_compatible(self, other):
        if other.field != self.field or other.nvars != self.nvars:
            raise ValueError("forms over different rings")

    def __repr__(self):
        names = tuple(f"x{i}" for i in range(self.nvars))
        return f"Form({format_form(self, names)})"


def form_from_coeffs(field, nvars, degree, monos, coeffs):
    return Form(field, nvars, degree, dict(zip(monos, coeffs)))


def _tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*^":
            tokens.append(ch)
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            if j < len(text) and text[j] == "/":
                k = j + 1
                while k < len(text) and text[k].isdigit():
                    k += 1
                if k == j + 1:
                    raise FormSyntax(f"bad rational near {text[i:k]!r}")
                tokens.append(text[i:k])
                i = k
            else:
                tokens.append(text[i:j])
                i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(text[i:j])
            i = j
        else:
            raise FormSyntax(f"unexpected character {ch!r}")
    return tokens


def parse_form(text, var_names, field):
    """Parse a homogeneous polynomial in the declared variables.

    Grammar: terms joined by + or -; a term is [coeff *] var [^ exp]
    [* var [^ exp]] ...; coefficients are integers or a/b rationals
    (reduced into the field).
    """
    nvars = len(var_names)
    var_index = {name: i for i, name in enumerate(var_names)}
    tokens = _tokenize(text)
    if not tokens:
        raise FormSyntax("empty polynomial")

    terms = []  # (sign, list of factor tokens)
    sign = 1
    expect_term = True
    current = []
    for tok in tokens:
        if tok in "+-":
            if expect_term and tok == "-":
                sign = -sign
                continue
            if expect_term:
                continue
            terms.append((sign, current))
            current = []
            sign = 1 if tok == "+" else -1
            expect_term = True
        else:
            current.append(tok)
            expect_term = False
    if expect_term or not current:
        raise FormSyntax("dangling operator")
    terms.append((sign, current))

    parsed = {}
    degree = None
    for sign, toks in terms:
        coeff = field.one if sign > 0 else field.neg(field.one)
        exps = [0] * nvars
        i = 0
        expect_factor = True
        while i < len(toks):
            tok = toks[i]
            if tok == "*":
                if expect_factor:
                    raise FormSyntax("misplaced '*'")
                expect_factor = True
                i += 1
                continue
            if not expect_factor:
                raise FormSyntax(f"missing operator before {tok!r}")
            if tok[0].isdigit():
                coeff = field.mul(coeff, field.parse(tok))
                i += 1
            else:
                if tok not in var_index:
                    raise UnknownVariable(f"unknown variable {tok!r}")
                e = 1
                if i + 1 < len(toks) and toks[i + 1] == "^":
                    if i + 2 >= len(toks) or not toks[i + 2].isdecimal():
                        raise FormSyntax("bad exponent")
                    e = int(toks[i + 2])
                    i += 2
                exps[var_index[tok]] += e
                i += 1
            expect_factor = False
        if expect_factor:
            raise FormSyntax("dangling '*'")
        d = sum(exps)
        if degree is None:
            degree = d
        elif d != degree:
            raise NotHomogeneous(
                f"term of degree {d} in a polynomial with a degree-{degree} term")
        m = tuple(exps)
        if m in parsed:
            parsed[m] = field.add(parsed[m], coeff)
        else:
            parsed[m] = coeff
    return Form(field, nvars, degree, parsed)


def format_monomial(mono, var_names):
    parts = []
    for e, name in zip(mono, var_names):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"


def format_form(form: Form, var_names, order: MonomialOrder | None = None):
    """Deterministic rendering, terms sorted descending by the order."""
    if form.is_zero():
        return "0"
    if order is None:
        order = MonomialOrder.default(form.nvars)
    field = form.field
    out = []
    for m in order.sort_desc(form.terms.keys()):
        c = form.terms[m]
        cs = field.format(c)
        ms = format_monomial(m, var_names)
        neg = cs.startswith("-")
        body = cs[1:] if neg else cs
        if ms == "1":
            frag = body
        elif body == "1":
            frag = ms
        else:
            frag = f"{body}*{ms}"
        if not out:
            out.append(f"-{frag}" if neg else frag)
        else:
            out.append(f"- {frag}" if neg else f"+ {frag}")
    return " ".join(out)
