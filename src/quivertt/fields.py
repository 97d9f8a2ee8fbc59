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

An element of F_p is a plain `int`, its representative in [0, p), so
that the operators on it are machine-integer ones.  Those operators do
not reduce: a sum or product computed between two reductions may stray
outside [0, p) but stays congruent to the true value.  Reduction is the
field's job.  Every kernel ends with one of three canonicalising calls:
`field(x)` for one scalar, `field.nonzero(items)` for the {key: value}
dict of the canonical nonzero entries of (key, value) pairs, and
`field.vector(xs)` for the tuple of canonical entries.  Over QQ the last
two drop zeros or build a tuple; over F_p they reduce mod p first.  No
kernel reads the prime `field.p` or keeps a modular copy of its loop.
`format` prints the representative.

Scalar literals (spec coefficients, complex-file entries) are an integer
or "a/b" with ASCII digits and an optional sign; anything else, a float
among them, raises FieldError.  No floats anywhere.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .quiver import ResourceBudget


class FieldError(ValueError):
    pass


# The largest prime `PrimeField` accepts.  Below it the Miller-Rabin test
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

    def nonzero(self, items):
        """The dict of the nonzero (key, value) pairs `items`."""
        return {k: x for k, x in items if x}

    def vector(self, xs):
        return tuple(xs)

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
    p raises ResourceBudget, and a composite p FieldError.  Its
    elements are the `int`s in [0, p)."""

    zero = 0
    one = 1

    def __init__(self, p):
        if p > MAX_PRIME:
            raise ResourceBudget(
                f"modulus {p} is above the budget of {MAX_PRIME} (2^64)")
        if not _is_prime(p):
            raise FieldError(f"{p} is not prime")
        self.p = p
        self.name = f"F{p}"

    def __call__(self, x):
        if isinstance(x, int):   # bool included: True % p is an int
            return x % self.p
        if isinstance(x, Fraction):
            return x.numerator * self.inv(x.denominator) % self.p
        raise FieldError(f"cannot coerce {x!r} into {self.name}")

    def nonzero(self, items):
        """The dict of the (key, value) pairs `items` with each value
        reduced mod p, those that are 0 mod p dropped."""
        p = self.p
        return {k: r for k, x in items if (r := x % p)}

    def vector(self, xs):
        """The tuple of the ints `xs`, each reduced mod p."""
        p = self.p
        return tuple(x % p for x in xs)

    def inv(self, x):
        """The inverse of a nonzero element; ZeroDivisionError for one
        divisible by p."""
        try:
            return pow(x, -1, self.p)
        except ValueError:   # not invertible mod p: x is 0 in F_p
            raise ZeroDivisionError("division by zero in F_p") from None

    def parse(self, text):
        """Parse an integer (or "a/b") literal mod p; "a/b" is reduced to
        lowest terms over QQ first."""
        num, den = _parse_literal(text, "scalar")
        return self(Fraction(num, den))

    def format(self, x):
        return str(self(x))

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
