"""Prime-field arithmetic as objects, kept as the arithmetic of the test
oracles and as a second field for differential tests.

The library's `PrimeField(p)` hands out plain `int`s in [0, p), which
the field reduces at the end of each kernel (`field(x)`, `nonzero`,
`vector`).  Code that sums field elements with ordinary operators, as the
oracles do, would compute over Z on those ints.  So the oracles run over
`PrimeField` here, whose elements are `FpElement`s: immutable two-slot
objects holding the representative in [0, p) and the modulus, which
reduce in every operator.

This field's `nonzero` and `vector` are QQ's, which do not reduce, and
its `field(x)` returns an element unchanged.  So every reduction the library leaves to the field is a
no-op on these elements, and the operators do all the reducing.
Comparing the reports of the library over `PrimeField(p)` here and over
`quivertt.fields.PrimeField(p)` therefore compares the field's reduction
in the kernels with plain operator arithmetic.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from fractions import Fraction

from quivertt.fields import (MAX_PRIME, FieldError, Rationals, _is_prime,
                             _parse_literal)
from quivertt.quiver import ResourceBudget


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


class PrimeField:
    """The finite field F_p for a prime p up to MAX_PRIME, with
    `FpElement`s for elements; a larger modulus raises ResourceBudget, and
    a composite one FieldError."""

    # the operators already reduce, so canonical entries are QQ's
    nonzero = Rationals.nonzero
    vector = Rationals.vector

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


_ORACLE_FIELDS = {}


def oracle_field(field):
    """The field an oracle computes in for the library field `field`: this
    module's `PrimeField` of the same modulus for a prime field, and
    `field` itself otherwise."""
    p = getattr(field, "p", None)
    if p is None:
        return field
    if p not in _ORACLE_FIELDS:
        _ORACLE_FIELDS[p] = PrimeField(p)
    return _ORACLE_FIELDS[p]
