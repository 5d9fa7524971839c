"""Exact ground fields: the rationals and prime fields GF(p).

Scalars are plain Python values (Fraction for Q, canonical residues in
range(p) for GF(p)); a field object supplies the arithmetic. Rationals are
kept in lowest terms with positive denominator by Fraction itself.
"""

import re
from fractions import Fraction

from .errors import InputError

MAX_PRIME = 2**31
_FRACTION = re.compile(r"\s*([-+]?\d+)(?:/(\d+))?\s*", re.ASCII)


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def _decimal(n: int) -> str:
    """str(n) for an int of any length. CPython's str() refuses ints longer
    than sys.get_int_max_str_digits() digits, so a longer one is split at a
    power of ten and its halves are written one after the other."""
    try:
        return str(n)
    except ValueError:
        k = n.bit_length() * 3 // 20  # about half the digits of n
        hi, lo = divmod(abs(n), 10**k)
        return ("-" if n < 0 else "") + _decimal(hi) + _decimal(lo).zfill(k)


def _integer(text: str) -> int:
    """int(text) of any length, the input side of _decimal: a signed digit
    string too long for int() is split and its halves are read apart."""
    try:
        return int(text)
    except ValueError:
        s = text.strip()
        digits = s[1:] if s[:1] in ("+", "-") else s
        if not (digits.isascii() and digits.isdigit()):
            raise
        k = len(digits) // 2
        n = _integer(digits[:-k]) * 10**k + _integer(digits[-k:])
        return -n if s[0] == "-" else n


class RationalField:
    """The field Q. All values are Fraction instances."""

    name = "Q"
    size = None  # infinite

    zero = Fraction(0)
    one = Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        return 1 / a

    def div(self, a, b):
        return a / b

    def is_zero(self, a):
        return a == 0

    def parse(self, text):
        try:
            try:
                return Fraction(text)
            except ValueError:
                # Fraction(text) refuses digit strings beyond int()'s limit
                match = _FRACTION.fullmatch(text)
                if match is None:
                    raise
                num, den = match.groups()
                return Fraction(_integer(num), _integer(den or "1"))
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad rational literal {text!r}") from exc

    def format(self, a):
        if a.denominator == 1:
            return _decimal(a.numerator)
        return f"{_decimal(a.numerator)}/{_decimal(a.denominator)}"

    def sort_key(self, a):
        return a

    def sample_pool(self):
        # coefficient pool for random linear forms
        return [Fraction(k) for k in range(-3, 4)]

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


class PrimeField:
    """GF(p) for a prime p < 2^31; values are residues in range(p)."""

    def __init__(self, p: int):
        if not isinstance(p, int) or not is_prime(p):
            raise InputError(f"{p} is not prime")
        if p >= MAX_PRIME:
            raise InputError(f"prime modulus must be < 2^31, got {p}")
        self.p = p
        self.name = f"GF({p})"
        self.size = p
        self.zero = 0
        self.one = 1 % p

    def from_int(self, n):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero in " + self.name)
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return (a * self.inv(b)) % self.p

    def is_zero(self, a):
        return a % self.p == 0

    def parse(self, text):
        text = text.strip()
        if "/" in text:
            num, den = text.split("/", 1)
            try:
                return self.div(_integer(num) % self.p,
                                _integer(den) % self.p)
            except (ValueError, ZeroDivisionError) as exc:
                raise InputError(f"bad field literal {text!r}") from exc
        try:
            return _integer(text) % self.p
        except ValueError as exc:
            raise InputError(f"bad field literal {text!r}") from exc

    def format(self, a):
        return str(a % self.p)

    def sort_key(self, a):
        return a % self.p

    def sample_pool(self):
        return range(self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return self.name


def parse_field_spec(text: str):
    """Parse a field spec such as 'Q' or 'GF(7)'."""
    text = text.strip()
    if text in ("Q", "QQ"):
        return RationalField()
    if text.startswith("GF(") and text.endswith(")"):
        try:
            p = int(text[3:-1])
        except ValueError as exc:
            raise InputError(f"bad field spec {text!r}") from exc
        return PrimeField(p)
    raise InputError(f"bad field spec {text!r} (expected 'Q' or 'GF(p)')")
