import copy
import operator
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from quivertt.fields import (MAX_PRIME, QQ, FieldError, PrimeField, _is_prime,
                             field_by_name)
from quivertt.quiver import ResourceBudget

from conftest import element_types
from fields_oracle import FpElement
from fields_oracle import PrimeField as OraclePrimeField


class TestRationals:
    def test_coercion_is_canonical(self):
        assert QQ(Fraction(2, 4)) == Fraction(1, 2)
        assert QQ(3) == Fraction(3)

    def test_fraction_is_returned_unchanged(self):
        f = Fraction(-3, 7)
        assert QQ(f) is f

    def test_ints_and_strings_are_still_coerced(self):
        for x, want in ((3, Fraction(3)), (-2, Fraction(-2)),
                        ("3/6", Fraction(1, 2)), ("-4", Fraction(-4))):
            got = QQ(x)
            assert type(got) in element_types(QQ) and got == want

    def test_parse_and_format(self):
        assert QQ.parse("3/4") == Fraction(3, 4)
        assert QQ.parse("-7") == Fraction(-7)
        assert QQ.format(Fraction(-1, 2)) == "-1/2"
        assert QQ.format(Fraction(5)) == "5"

    def test_parse_rejects_garbage(self):
        with pytest.raises(FieldError):
            QQ.parse("a/b")

    def test_units(self):
        assert QQ.zero == 0 and QQ.one == 1
        assert not QQ.zero and QQ.one


class TestIntegralRationals:
    """An element of QQ is an int when integral, a Fraction otherwise."""

    def test_integral_values_are_ints(self):
        for x in (3, -2, 0, Fraction(4, 2), Fraction(-6, 3), True, "4/2",
                  QQ.zero, QQ.one):
            assert type(QQ(x)) is int
        assert type(QQ.zero) is int and type(QQ.one) is int

    def test_unnormalised_integral_fraction_acts_as_its_int(self):
        x = Fraction(1, 2) * 2
        assert type(x) is Fraction and type(QQ(x)) is int
        assert x == 1 and hash(x) == hash(1) and QQ.format(x) == "1"
        assert QQ.inv(x) == 1 and type(QQ.inv(x)) is int

    @pytest.mark.parametrize("x", [0.5, 0.1, 1.0, -2.0, float("nan")])
    def test_floats_are_refused(self, x):
        with pytest.raises(FieldError):
            QQ(x)
        with pytest.raises(FieldError):
            PrimeField(101)(x)

    def test_int_quotient_fails_at_the_first_coercion(self):
        with pytest.raises(FieldError):
            QQ(QQ.one / 2)

    def test_inv(self):
        for x, want in ((1, 1), (-1, -1), (2, Fraction(1, 2)),
                        (-3, Fraction(-1, 3)), (Fraction(1, 3), 3),
                        (Fraction(-1, 5), -5),
                        (Fraction(-2, 3), Fraction(-3, 2)),
                        (Fraction(6, 1), Fraction(1, 6))):
            got = QQ.inv(x)
            assert got == want and type(got) is type(want)
            if type(got) is Fraction:
                assert got.denominator > 1
        assert QQ.inv(QQ.one) is QQ.one
        with pytest.raises(ZeroDivisionError):
            QQ.inv(0)
        with pytest.raises(ZeroDivisionError):
            QQ.inv(Fraction(0))

    def test_inv_over_prime_field(self):
        f7 = PrimeField(7)
        for v in range(1, 7):
            got = f7.inv(f7(v))
            assert type(got) is int and 0 < got < 7 and got * v % 7 == 1
        with pytest.raises(ZeroDivisionError):
            f7.inv(f7.zero)


LITERAL_FIELDS = [QQ, PrimeField(101)]


@pytest.mark.parametrize("field", LITERAL_FIELDS, ids=str)
@pytest.mark.parametrize("text", [
    "0.5", "1_000", " 3", "2e3", "3 ", "1e10000000", ".5", "1.", "1/0",
    "", "+", "/2", "1/-2", "--1", "1/2/3", "0x10", "\u0663", "1\n",
    "inf", "nan"])
def test_parse_refuses_other_literals(field, text):
    with pytest.raises(FieldError):
        field.parse(text)


@pytest.mark.parametrize("field", LITERAL_FIELDS, ids=str)
@pytest.mark.parametrize("text, want", [
    ("-1/2", Fraction(-1, 2)), ("+3", 3), ("4", 4), ("-0", 0),
    ("6/4", Fraction(3, 2)), ("007", 7)])
def test_parse_accepts_integer_and_fraction_literals(field, text, want):
    got = field.parse(text)
    assert got == field(want) and type(got) in element_types(field)
    if field == QQ:
        assert type(got) is type(want)


class TestPrimeField:
    def test_requires_prime_modulus(self):
        with pytest.raises(FieldError):
            PrimeField(6)
        with pytest.raises(FieldError):
            OraclePrimeField(6)

    def test_arithmetic_matches_ints_mod_p(self, rng):
        f5 = OraclePrimeField(5)
        for _ in range(100):
            a, b = rng.randrange(25), rng.randrange(1, 25)
            assert (f5(a) + f5(b)).value == (a + b) % 5
            assert (f5(a) - f5(b)).value == (a - b) % 5
            assert (f5(a) * f5(b)).value == (a * b) % 5
            if b % 5:
                q = f5(a) / f5(b)
                assert (q * f5(b)).value == a % 5

    def test_division_by_zero(self):
        f3 = OraclePrimeField(3)
        with pytest.raises(ZeroDivisionError):
            f3(1) / f3(0)
        with pytest.raises(ZeroDivisionError):
            f3(Fraction(1, 3))
        # the int field divides only through its inverse, which refuses a
        # multiple of p, as its coercion of a fraction does
        f3 = PrimeField(3)
        for x in (0, 3, -6):
            with pytest.raises(ZeroDivisionError):
                f3.inv(x)
        with pytest.raises(ZeroDivisionError):
            f3(Fraction(1, 3))

    def test_mixed_moduli_rejected(self):
        # an int carries no modulus, so only the oracle's elements can
        # refuse to mix
        with pytest.raises(FieldError):
            OraclePrimeField(3)(1) + OraclePrimeField(5)(1)
        with pytest.raises(FieldError):
            OraclePrimeField(3)(OraclePrimeField(5)(1))

    def test_parse_format_round_trip(self):
        f7 = PrimeField(7)
        for v in range(7):
            assert f7.parse(f7.format(f7(v))) == f7(v)


class TestIntPrimeField:
    """An element of the library's F_p is an `int` in [0, p)."""

    @pytest.mark.parametrize("p", [2, 3, 101, 2**64 - 59])
    def test_coercion_reduces_to_the_representative(self, p):
        f = PrimeField(p)
        for x in (-1, 0, 1, p, p + 1, -5 * p - 3, 2**70, True, False):
            got = f(x)
            assert type(got) is int and 0 <= got < p and got == x % p
        for x in (Fraction(1, 3), Fraction(-7, 5)):
            if x.denominator % p:
                got = f(x)
                assert type(got) is int and 0 <= got < p
                assert got * x.denominator % p == x.numerator % p

    def test_units_modulus_and_format(self):
        f = PrimeField(101)
        assert (f.zero, f.one, f.p) == (0, 1, 101)
        assert type(f.zero) is int and type(f.one) is int
        assert f.format(-1) == "100" and f.format(5) == "5"
        assert f.parse("-1/2") == 50

    @pytest.mark.parametrize("p", [2, 3, 101, 2**64 - 59])
    def test_canonical_entries_are_reduced_before_the_zero_test(self, p):
        f = PrimeField(p)
        items = [(0, p), (1, p + 1), (2, -1), (3, 0), (4, 3 * p * p - 1)]
        assert f.nonzero(items) == {1: 1, 2: p - 1, 4: p - 1}
        assert list(f.nonzero(iter(items))) == [1, 2, 4]
        got = f.vector(x for _, x in items)
        assert got == (0, 1, p - 1, 0, p - 1) and type(got) is tuple
        assert all(type(x) is int and 0 <= x < p for x in got)

    def test_canonical_entries_over_qq_and_the_oracle_field(self):
        items = [(0, 0), (1, Fraction(1, 2)), (2, -3), (3, Fraction(0))]
        assert QQ.nonzero(items) == {1: Fraction(1, 2), 2: -3}
        assert QQ.vector(iter([0, -3])) == (0, -3)
        # the oracle's elements reduce in their operators, so its field
        # canonicalises as QQ does: it drops zeros and builds a tuple
        f = OraclePrimeField(5)
        items = [(0, f(5)), (1, f(7)), (2, f(4))]
        assert f.nonzero(items) == {1: f(2), 2: f(4)}
        assert f.vector([f(5), f(7)]) == (f(0), f(2))

    def test_other_values_are_refused(self):
        for x in ("3", 1.0, None, OraclePrimeField(5)(1)):
            with pytest.raises(FieldError):
                PrimeField(5)(x)


@given(st.sampled_from((2, 3, 101, 10007, 2**61 - 1, 2**64 - 59)),
       st.integers(-2**70, 2**70))
def test_int_prime_field_inverse(p, x):
    f = PrimeField(p)
    if x % p:
        got = f.inv(x)
        assert type(got) is int and 0 < got < p and got * x % p == 1
    else:
        with pytest.raises(ZeroDivisionError):
            f.inv(x)


def trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


class TestPrimality:
    def test_matches_trial_division_below_5000(self):
        assert ([n for n in range(5000) if _is_prime(n)]
                == [n for n in range(5000) if trial_division(n)])

    def test_matches_trial_division_on_random_moduli(self, rng):
        for _ in range(2000):
            n = rng.randrange(10**6, 10**10)
            assert _is_prime(n) == trial_division(n), n

    @pytest.mark.parametrize("n", [
        2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
        341550071728321, 3825123056546413051])
    def test_strong_pseudoprimes_are_composite(self, n):
        # each is a strong pseudoprime to every prime base up to some
        # bound below 37, so fewer bases would call it prime
        assert not _is_prime(n)

    def test_large_primes_and_their_neighbours(self):
        assert _is_prime(2**61 - 1) and _is_prime(2**64 - 59)
        assert not _is_prime(2**61 + 1) and not _is_prime(2**64 - 1)
        assert not _is_prime((2**31 - 1) * (2**31 - 19))

    def test_modulus_above_the_budget_is_refused(self):
        assert PrimeField(2**64 - 59).p == 2**64 - 59
        with pytest.raises(ResourceBudget, match=str(MAX_PRIME)):
            PrimeField(MAX_PRIME + 1)
        with pytest.raises(ResourceBudget):
            field_by_name("F" + "9" * 31)
        # more digits than int() converts from a string
        with pytest.raises(ResourceBudget, match="5000 digits"):
            field_by_name("F" + "9" * 5000)


def test_field_by_name():
    assert field_by_name("QQ") is QQ
    assert field_by_name("F5") == PrimeField(5)
    with pytest.raises(FieldError):
        field_by_name("R")
    with pytest.raises(FieldError):
        field_by_name("Fx")


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=50)


@given(rationals, rationals, rationals)
def test_field_axioms_on_rationals(a, b, c):
    a, b, c = QQ(a), QQ(b), QQ(c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) + c == a + (b + c)
    if b:
        # an integral element is an int, so a quotient is a * inv(b)
        q = a * QQ.inv(b)
        assert type(q) in element_types(QQ) and q * b == a


@given(rationals.filter(bool))
def test_inv_is_the_canonical_inverse(a):
    b = QQ.inv(QQ(a))
    assert b * a == 1
    # canonical: an int exactly when integral
    assert type(b) is type(QQ(b))


@given(st.integers(0, 100), st.integers(0, 100), st.integers(0, 100))
def test_field_axioms_on_f7(x, y, z):
    f7 = OraclePrimeField(7)
    a, b, c = f7(x), f7(y), f7(z)
    assert a * (b + c) == a * b + a * c
    assert a - a == f7.zero
    if b:
        assert (a / b) * b == a


# -- FpElement against int arithmetic mod p -----------------------------

MODULI = (2, 3, 101, 10007, 2**61 - 1, 2**64 - 59)
BINARY = (operator.add, operator.sub, operator.mul, operator.truediv)
wide_ints = st.integers(-2**70, 2**70)


@given(st.sampled_from(MODULI), wide_ints, wide_ints)
def test_fp_element_matches_int_arithmetic(p, a, b):
    x, y = FpElement(a, p), FpElement(b, p)
    assert x.value == a % p and x.p == p
    cases = [(x + y, a + b), (x - y, a - b), (x * y, a * b), (-x, -a),
             (x + b, a + b), (b + x, a + b), (x - b, a - b), (b - x, b - a),
             (x * b, a * b), (b * x, a * b)]
    if b % p:
        inv = pow(b, -1, p)
        cases += [(x / y, a * inv), (x / b, a * inv)]
    else:
        with pytest.raises(ZeroDivisionError):
            x / y
        with pytest.raises(ZeroDivisionError):
            x / b
    for got, want in cases:
        assert type(got) is FpElement
        assert got.p == p and got.value == want % p
        assert 0 <= got.value < p


@given(st.sampled_from(MODULI), wide_ints, wide_ints)
def test_fp_element_equality_and_hash(p, a, b):
    x, y = FpElement(a, p), FpElement(b, p)
    assert (x == y) is ((a - b) % p == 0)
    assert (x == b) is ((a - b) % p == 0) and (b == x) is (x == b)
    assert FpElement(a + p, p) == x
    assert hash(FpElement(a + p, p)) == hash(x)
    assert bool(x) is (a % p != 0)
    assert x != "x" and x != Fraction(a)


@given(st.permutations(MODULI), wide_ints, wide_ints)
def test_fp_element_mixed_moduli_raise(moduli, a, b):
    p, q = moduli[:2]
    x, y = FpElement(a, p), FpElement(b, q)
    for op in BINARY:
        with pytest.raises(FieldError):
            op(x, y)
        with pytest.raises(FieldError):
            op(y, x)
    assert x != y


def test_fp_element_foreign_operands_are_not_implemented():
    x = FpElement(3, 7)
    for op in BINARY:
        with pytest.raises(TypeError):
            op(x, 1.5)
        with pytest.raises(TypeError):
            op(x, Fraction(1, 2))
    with pytest.raises(TypeError):
        1.5 + x


def test_fp_element_is_immutable():
    x = FpElement(3, 7)
    for name in ("value", "p"):
        with pytest.raises(AttributeError):
            setattr(x, name, 1)
        with pytest.raises(AttributeError):
            delattr(x, name)
    with pytest.raises(AttributeError):
        x.other = 1
    assert (x.value, x.p) == (3, 7)


@pytest.mark.parametrize("make", [
    lambda: FpElement(-4, 101),
    lambda: FpElement(60, 101) * FpElement(70, 101),   # the fast path
    lambda: OraclePrimeField(2**64 - 59)(-1),
])
def test_fp_element_pickles_and_copies(make):
    x = make()
    copies = [pickle.loads(pickle.dumps(x, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.copy(x), copy.deepcopy(x), copy.deepcopy({x: [x]})[x][0]]
    for y in copies:
        assert type(y) is FpElement
        assert (y.value, y.p) == (x.value, x.p) and y == x
        with pytest.raises(AttributeError):
            y.value = 0
