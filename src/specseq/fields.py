"""Exact coefficient fields: the rationals and the prime fields F_p.

Inside the library a scalar is a raw field value: over F_p an int residue
in [0, p), over QQ an int or a fractions.Fraction (`Rationals.normalize`
turns an integral Fraction into an int).  A FieldElement wraps one raw
value together with its field; a user makes or reads one scalar through
it (`Field.element`, `parse`, `random_element`, `zero`, `one`,
`Matrix.entry`).  Its arithmetic accepts raw values of its own field and
fails loudly on elements of another field instead of silently coercing.

>>> from fractions import Fraction
>>> from specseq.fields import QQ, PrimeField
>>> QQ.parse("5/6") + QQ.parse("1/6")
1
>>> QQ.element(2) * Fraction(1, 2) == 1
True
>>> F7 = PrimeField(7)
>>> (F7.element(3) * F7.element(5)).value
1
"""

import re
from fractions import Fraction
from functools import cached_property

from .errors import DivisionByZero, MixedFields, ParseError

_RATIONAL_RE = re.compile(r"^-?\d+(/\d+)?$")
_INT_RE = re.compile(r"^-?\d+$")


def _is_prime(n):
    # deterministic Miller-Rabin, valid far beyond the 2^31 cap enforced below
    if n < 2:
        return False
    for q in (2, 3, 5, 7):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FieldElement:
    """A raw scalar together with the field it lives in."""

    __slots__ = ("field", "value")

    def __init__(self, field, value):
        self.field = field
        self.value = field.normalize(value)

    def _coerce(self, other):
        """Raw value of other if it is a scalar of this field, else None."""
        if isinstance(other, FieldElement) or isinstance(other, self.field.raw_types):
            return self.field.scalar(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FieldElement(self.field, self.value + other)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FieldElement(self.field, self.value - other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FieldElement(self.field, other - self.value)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FieldElement(self.field, self.value * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other:
            raise DivisionByZero(f"division by zero in {self.field}")
        return FieldElement(self.field, self.value * self.field.invert(other))

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FieldElement(self.field, other) / self

    def __neg__(self):
        return FieldElement(self.field, -self.value)

    def inverse(self):
        return self.field.one / self

    def __bool__(self):
        return self.value != 0

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.field == other.field and self.value == other.value
        if isinstance(other, self.field.raw_types):
            return self.value == self.field.normalize(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.value))

    def __repr__(self):
        return str(self.value)

    __str__ = __repr__


class Field:
    """Base for the two supported coefficient fields.

    Field objects are value-like: two instances are interchangeable exactly
    when kind and characteristic agree.  `raw_types` are the Python types a
    raw value of the field may be handed in as.
    """

    kind = ""
    characteristic = 0
    raw_types = (int,)
    render = str

    def element(self, value):
        if isinstance(value, FieldElement):
            if value.field != self:
                raise MixedFields(f"{value.field} element used in {self}")
            return value
        return FieldElement(self, value)

    def scalar(self, value):
        """The raw value of a FieldElement of this field or of a raw scalar."""
        if isinstance(value, FieldElement):
            return self.element(value).value
        return self.normalize(value)

    @cached_property
    def zero(self):
        return self.element(0)

    @cached_property
    def one(self):
        return self.element(1)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Field)
            and self.kind == other.kind
            and self.characteristic == other.characteristic
        )

    def __hash__(self):
        return hash((self.kind, self.characteristic))

    def __repr__(self):
        return self.token()


class Rationals(Field):
    kind = "rationals"
    characteristic = 0
    raw_types = (int, Fraction)

    def normalize(self, value):
        if isinstance(value, Fraction):
            return value.numerator if value.denominator == 1 else value
        if isinstance(value, int):
            return value
        raise TypeError(f"cannot make a rational from {value!r}")

    def invert(self, value):
        return self.normalize(Fraction(1, value))

    def parse(self, text):
        text = text.strip().replace("−", "-")
        if not _RATIONAL_RE.match(text):
            raise ParseError(f"bad rational scalar {text!r}")
        try:
            value = Fraction(text)
        except ZeroDivisionError:
            raise ParseError(f"zero denominator in {text!r}") from None
        return self.element(value)

    def random_element(self, rng):
        return self.element(Fraction(rng.randint(-4, 4), rng.randint(1, 4)))

    def token(self):
        return "QQ"


class PrimeField(Field):
    kind = "prime"

    def __init__(self, p):
        if not isinstance(p, int) or not 2 <= p < 2**31:
            raise ValueError(f"characteristic must be a prime below 2^31, got {p!r}")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.characteristic = p

    def normalize(self, value):
        if isinstance(value, int):
            return value % self.characteristic
        raise TypeError(f"cannot make a mod-{self.characteristic} residue from {value!r}")

    def invert(self, value):
        return pow(value, self.characteristic - 2, self.characteristic)

    def parse(self, text):
        text = text.strip().replace("−", "-")
        if not _INT_RE.match(text):
            raise ParseError(f"bad residue {text!r}")
        return self.element(int(text))

    def random_element(self, rng):
        return self.element(rng.randrange(self.characteristic))

    def token(self):
        return f"F{self.characteristic}"


QQ = Rationals()


def parse_field_token(token):
    """Read a field name as it appears in files: QQ, or F<p> for a prime p."""
    token = token.strip()
    if token == "QQ":
        return QQ
    if token.startswith("F") and _INT_RE.match(token[1:] or "x"):
        try:
            return PrimeField(int(token[1:]))
        except ValueError as exc:
            raise ParseError(str(exc)) from None
    raise ParseError(f"unknown field {token!r}")
