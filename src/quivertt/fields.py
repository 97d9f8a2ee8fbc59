"""Exact scalar arithmetic: rationals and prime fields.

A rational is a python `int` when it is integral and a `Fraction` (lowest
terms, positive denominator) otherwise, so the +-1 and small integers that
most systems here hold cost machine-integer arithmetic, not a gcd per
operation.  Results are not normalised after each operation: a `Fraction`
with denominator one, such as `Fraction(1, 2) * 2`, is still a valid
element, which compares, hashes and formats like the `int`.  The field
normalises where it coerces (`Rationals.__call__`, `parse`), and the
elimination and the `Matrix` constructor coerce their inputs.  Since
`int / int` is a float, no code outside this module divides field
elements: a quotient is `field.inv(x)` times the numerator.

Prime-field elements are `FpElement`s: immutable two-slot objects holding
the representative in [0, p) and the modulus, so that matrix code can stay
field-agnostic and use ordinary operators.  An operation on two elements
of one field checks only the operand's class and modulus, then builds its
result without the public constructor; coercing an `int` and refusing a
foreign modulus happen off that path.

Scalar literals (spec coefficients, complex-file entries) are an integer
or "a/b" with ASCII digits and an optional sign; anything else, a float
among them, raises FieldError.  No floats anywhere.
"""

from __future__ import annotations

import re
from dataclasses import FrozenInstanceError
from fractions import Fraction

from .quiver import ResourceBudget


class FieldError(ValueError):
    pass


class FpElement:
    """An element of F_p, stored as the canonical representative in [0, p).

    `value` and `p` cannot be assigned after construction.  Arithmetic
    between two elements of the same field builds its result with
    `_reduced`, which skips the public constructor, and + and - skip the
    `%` too.  An `int` operand is coerced into the field, an element of
    another modulus raises FieldError, and any other operand gives
    NotImplemented."""

    __slots__ = ("value", "p")

    def __init__(self, value, p):
        _set_value(self, value % p)
        _set_p(self, p)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # the default protocol would restore the slots through __setattr__
        return FpElement, (self.value, self.p)

    def _coerce(self, other):
        if isinstance(other, FpElement):
            if other.p != self.p:
                raise FieldError(f"mixed moduli {self.p} and {other.p}")
            return other
        if isinstance(other, int):
            return FpElement(other, self.p)
        return NotImplemented

    def __add__(self, other):
        p = self.p
        if other.__class__ is not FpElement or other.p != p:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        s = self.value + other.value
        return _reduced(s - p if s >= p else s, p)

    __radd__ = __add__

    def __sub__(self, other):
        p = self.p
        if other.__class__ is not FpElement or other.p != p:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        d = self.value - other.value
        return _reduced(d + p if d < 0 else d, p)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        p = self.p
        if other.__class__ is not FpElement or other.p != p:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return _reduced(self.value * other.value % p, p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        p = self.p
        if other.__class__ is not FpElement or other.p != p:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if other.value == 0:
            raise ZeroDivisionError("division by zero in F_p")
        return _reduced(self.value * pow(other.value, -1, p) % p, p)

    def __neg__(self):
        return _reduced(self.p - self.value if self.value else 0, self.p)

    def __bool__(self):
        return self.value != 0

    def __eq__(self, other):
        if isinstance(other, int):
            return self.value == other % self.p
        if isinstance(other, FpElement):
            return self.p == other.p and self.value == other.value
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.p))

    def __repr__(self):
        return f"{self.value} (mod {self.p})"


_set_value = FpElement.value.__set__
_set_p = FpElement.p.__set__
_new = object.__new__


def _reduced(value, p):
    """The element of F_p whose representative `value` is already in
    [0, p), built without the public constructor."""
    x = _new(FpElement)
    _set_value(x, value)
    _set_p(x, p)
    return x


# The largest modulus `PrimeField` accepts.  Below it the Miller-Rabin test
# on the twelve prime bases up to 37 is exact: the least strong pseudoprime
# to all of them is 318665857834031151167461, about 3.2e23.
MAX_PRIME = 2**64

_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n):
    """Deterministic Miller-Rabin primality test, exact for n < 3.2e23."""
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
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


# the literal forms of a scalar: "3", "+3", "-1/2"; ASCII digits only,
# so no exponent, decimal point, underscore or whitespace
_LITERAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def _parse_literal(text, what):
    """The rational that the literal `text` denotes, as a pair (numerator,
    denominator); FieldError for any other text or a zero denominator."""
    m = _LITERAL.fullmatch(text)
    if m is not None:
        try:
            num, den = int(m[1]), int(m[2] or 1)
        except ValueError:   # more digits than int() converts
            pass
        else:
            if den:
                return num, den
    raise FieldError(f"bad {what} literal {text!r}")


class Rationals:
    """The field of arbitrary-precision rationals: an element is an `int`
    when it is integral and a `Fraction` otherwise."""

    name = "QQ"
    zero = 0
    one = 1

    def __call__(self, x):
        cls = x.__class__
        if cls is int:
            return x
        if cls is Fraction:
            # already in lowest terms; only an integral one changes type
            return x.numerator if x.denominator == 1 else x
        if isinstance(x, int):   # bool and other int subclasses
            return int(x)
        if isinstance(x, str):
            return self.parse(x)
        raise FieldError(f"cannot coerce {x!r} into QQ")

    def from_int(self, n):
        return int(n)

    def inv(self, x):
        """The inverse of a nonzero element: +-1 itself, 1/n as a
        `Fraction`, and the reciprocal of a `Fraction` in canonical form."""
        if x.__class__ is int:
            return x if x == 1 or x == -1 else Fraction(1, x)
        num, den = x.numerator, x.denominator
        if num == 1 or num == -1:
            return num * den
        return Fraction(den, num)

    def parse(self, text):
        """Parse "p/q" or an integer literal into a canonical rational."""
        num, den = _parse_literal(text, "rational")
        return num if den == 1 else self(Fraction(num, den))

    def format(self, x):
        return str(x)

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """The finite field F_p for a prime p up to MAX_PRIME; a larger
    modulus raises ResourceBudget, and a composite one FieldError."""

    def __init__(self, p):
        if p > MAX_PRIME:
            raise ResourceBudget(
                f"modulus {p} is above the budget of {MAX_PRIME} (2^64)")
        if not _is_prime(p):
            raise FieldError(f"{p} is not prime")
        self.p = p
        self.name = f"F{p}"
        self.zero = FpElement(0, p)
        self.one = FpElement(1, p)

    def __call__(self, x):
        if isinstance(x, FpElement):
            if x.p != self.p:
                raise FieldError(f"mixed moduli {x.p} and {self.p}")
            return x
        if isinstance(x, int):
            return FpElement(x, self.p)
        if isinstance(x, Fraction):
            return FpElement(x.numerator, self.p) / FpElement(x.denominator, self.p)
        raise FieldError(f"cannot coerce {x!r} into {self.name}")

    def from_int(self, n):
        return FpElement(n, self.p)

    def inv(self, x):
        """The inverse of a nonzero element."""
        return self.one / x

    def parse(self, text):
        """Parse an integer (or "a/b") literal mod p; "a/b" is reduced to
        lowest terms over QQ first."""
        num, den = _parse_literal(text, "scalar")
        return self(Fraction(num, den))

    def format(self, x):
        return str(self(x).value)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return self.name


QQ = Rationals()


def field_by_name(name):
    """Resolve "QQ" or "F<p>" to a field object."""
    if name == "QQ":
        return QQ
    if name.startswith("F"):
        digits = name[1:]
        if not (digits.isascii() and digits.isdigit()):
            raise FieldError(f"unknown field {name!r}")
        try:
            p = int(digits)
        except ValueError:   # more digits than int() converts
            raise ResourceBudget(
                f"modulus of {len(digits)} digits is above the budget "
                f"of {MAX_PRIME} (2^64)") from None
        return PrimeField(p)
    raise FieldError(f"unknown field {name!r}")
