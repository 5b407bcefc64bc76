import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weyldl.checker import number_from_json, number_to_json
from weyldl.exactnum import (
    SQRT2,
    SQRT3,
    IncompatibleRadicandError,
    QuadExt,
    integer_parts,
    qext,
)

from fraction_quadext import FractionQuadExt

rationals = st.fractions(max_denominator=50)


def quads(d):
    return st.builds(lambda a, b: QuadExt(a, b, d), rationals, rationals)


class TestSign:
    def test_zero(self):
        assert QuadExt(0, 0, 1).sign() == 0

    def test_cross_multiplication_positive(self):
        # 3 - 2 sqrt(2) > 0 since 9 > 8
        assert QuadExt(3, -2, 2).sign() == 1

    def test_cross_multiplication_negative_rational_part(self):
        # 3 sqrt(2) - 4 > 0 since 18 > 16
        assert QuadExt(-4, 3, 2).sign() == 1

    def test_both_negative(self):
        assert QuadExt(-1, -1, 3).sign() == -1

    def test_close_calls(self):
        # 7/5 < sqrt(2) < 17/12
        assert (SQRT2 - Fraction(7, 5)).sign() == 1
        assert (SQRT2 - Fraction(17, 12)).sign() == -1


class TestCmp:
    def test_sqrt2_vs_one(self):
        assert SQRT2 > 1 and not SQRT2 <= 1

    def test_one_plus_sqrt2_vs_two(self):
        assert QuadExt(1, 1, 2) > QuadExt(2, 0, 2) and not QuadExt(1, 1, 2) <= QuadExt(2, 0, 2)

    def test_reflexive(self):
        x = QuadExt(Fraction(5, 3), Fraction(-1, 7), 3)
        assert x <= x and x >= x and not x < x and not x > x

    def test_incompatible_radicands(self):
        with pytest.raises(IncompatibleRadicandError):
            SQRT2 < SQRT3


class TestNormalization:
    def test_b_zero_normalizes_d(self):
        assert QuadExt(3, 0, 2).d == 1

    def test_d_one_folds(self):
        assert QuadExt(1, 2, 1) == QuadExt(3)

    def test_rational_hash_matches_fraction(self):
        assert hash(QuadExt(Fraction(7, 2))) == hash(Fraction(7, 2))
        for n in (0, 1, -1, 2, 10 ** 30, -(2 ** 61) + 1, 2 ** 61 - 1, 2 ** 61):
            assert hash(QuadExt(n)) == hash(n) == hash(Fraction(n))

    def test_irrational_hash_follows_equality(self):
        """Equal irrational values hash alike, however they were built."""
        half = QuadExt(0, Fraction(1, 2), 2)
        for z in (SQRT2 / 2, SQRT2 * 3 / 6, 1 / SQRT2, (SQRT2 + 1) / 2 - Fraction(1, 2)):
            assert z == half and hash(z) == hash(half)
        assert {half: "found"}[SQRT2 / 2] == "found"

    def test_equality_with_int(self):
        assert SQRT2 * SQRT2 == 2
        assert SQRT3 * SQRT3 == 3


@given(quads(2), quads(2), quads(2))
def test_field_axioms_sqrt2(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x


def test_zero_is_false():
    for zero in (QuadExt(0), SQRT2 - SQRT2, qext(1) - 1, QuadExt(0, 0, 2)):
        assert not zero
    for x in (QuadExt(1), QuadExt(Fraction(-1, 3)), SQRT2, -SQRT3, QuadExt(1, -1, 2)):
        assert x


@given(quads(2), quads(3))
def test_truth_is_nonzero(x, y):
    assert bool(x) == (x != 0)
    assert bool(y) == (y != 0)


@given(quads(3))
def test_inverse_round_trip(x):
    if x.sign() != 0:
        assert x * x.inverse() == 1
        assert (1 / x) * x == 1


@given(quads(2), quads(2))
def test_sign_multiplicative(x, y):
    assert (x * y).sign() == x.sign() * y.sign()


@given(quads(3), quads(3), quads(3))
def test_order_compatible_with_addition(x, y, z):
    if x < y:
        assert x + z < y + z


@given(quads(2), quads(2), quads(2))
def test_order_compatible_with_positive_multiplication(x, y, z):
    if x < y and z.sign() > 0:
        assert x * z < y * z


def test_order_total_randomized():
    rng = random.Random(90125)
    for _ in range(10_000):
        d = rng.choice((2, 3))
        x = QuadExt(Fraction(rng.randint(-40, 40), rng.randint(1, 9)),
                    Fraction(rng.randint(-40, 40), rng.randint(1, 9)), d)
        y = QuadExt(Fraction(rng.randint(-40, 40), rng.randint(1, 9)),
                    Fraction(rng.randint(-40, 40), rng.randint(1, 9)), d)
        assert (x < y) + (x == y) + (x > y) == 1


def approx_float(x: QuadExt) -> float:
    """A float near ``x``: a sanity oracle for the tests, never a decision."""
    return float(x.a) + float(x.b) * (x.d ** 0.5)


def test_sign_agrees_with_float_oracle():
    # Sanity oracle only; exactness never depends on floats.
    rng = random.Random(5150)
    for _ in range(10_000):
        d = rng.choice((1, 2, 3))
        x = QuadExt(Fraction(rng.randint(-60, 60), rng.randint(1, 12)),
                    Fraction(rng.randint(-60, 60), rng.randint(1, 12)), d)
        approx = approx_float(x)
        if abs(approx) > 1e-9:
            assert x.sign() == (1 if approx > 0 else -1)


class TestArithmetic:
    def test_division(self):
        x = QuadExt(1, 1, 2)  # 1 + sqrt2
        assert x / x == 1
        assert (1 / SQRT2) * SQRT2 == 1

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            SQRT2 / QuadExt(0)

    def test_mixing_radicands_errors(self):
        with pytest.raises(IncompatibleRadicandError):
            SQRT2 + SQRT3

    def test_pure_rationals_interoperate_with_either(self):
        assert (SQRT2 + 1) - 1 == SQRT2
        assert (SQRT3 * 2) / 2 == SQRT3

    def test_powers(self):
        assert SQRT2 ** 4 == 4
        assert (SQRT3 ** 3) == 3 * SQRT3
        assert (SQRT2 ** -2) == Fraction(1, 2)


class TestSerialization:
    """The certificate's wire form of an exact number, ``weyldl.checker``'s codec."""

    @given(quads(2) | quads(3) | st.builds(QuadExt, rationals))
    @settings(max_examples=200)
    def test_round_trip(self, x):
        assert number_from_json(number_to_json(x)) == x

    def test_wire_form(self):
        assert number_to_json(QuadExt(Fraction(3, 2), Fraction(-1, 3), 2)) == {
            "a": "3/2",
            "b": "-1/3",
            "d": 2,
        }

    def test_malformed(self):
        with pytest.raises(ValueError):
            number_from_json({"a": "1/2", "b": "x", "d": 2})
        with pytest.raises(ValueError):
            number_from_json({"a": "1", "d": 2})
        with pytest.raises(ValueError):
            QuadExt(1, 1, 5)


# -- differential test against the Fraction-pair reference --------------------

wide_rationals = st.one_of(
    st.just(Fraction(0)),
    st.integers(-20, 20).map(Fraction),
    st.fractions(max_denominator=60),
    st.fractions(min_value=-(10 ** 12), max_value=10 ** 12, max_denominator=10 ** 9),
)
parts = st.tuples(wide_rationals, wide_rationals, st.sampled_from((1, 2, 3)))
scalars = st.one_of(st.integers(-50, 50), st.fractions(max_denominator=30))


def assert_canonical(x):
    """The invariants of the stored (p + q sqrt(d)) / r."""
    assert type(x) is QuadExt
    p, q, r, d = x._p, x._q, x._r, x._d
    assert all(type(v) is int for v in (p, q, r, d))
    assert r > 0
    assert gcd(p, q, r) == 1
    assert (q == 0) == (d == 1)
    assert d in (1, 2, 3)


def outcome(fn):
    """A comparable record of ``fn()``: its value, or the error it raised."""
    try:
        value = fn()
    except (IncompatibleRadicandError, ZeroDivisionError) as exc:
        return ("raise", type(exc))
    if isinstance(value, QuadExt):
        assert_canonical(value)
        return ("quad", value.a, value.b, value.d)
    if isinstance(value, FractionQuadExt):
        return ("quad", value.a, value.b, value.d)
    return ("value", value)


def agree(new_fn, old_fn):
    assert outcome(new_fn) == outcome(old_fn)


@given(parts, parts, scalars)
@settings(max_examples=400, deadline=None)
def test_integer_kernel_matches_fraction_pairs(xs, ys, s):
    x, y = QuadExt(*xs), QuadExt(*ys)
    ox, oy = FractionQuadExt(*xs), FractionQuadExt(*ys)
    assert_canonical(x)
    assert (x.a, x.b, x.d) == (ox.a, ox.b, ox.d)
    agree(lambda: x + y, lambda: ox + oy)
    agree(lambda: x - y, lambda: ox - oy)
    agree(lambda: x * y, lambda: ox * oy)
    agree(lambda: x / y, lambda: ox / oy)
    agree(lambda: x.inverse(), lambda: ox.inverse())
    agree(lambda: -x, lambda: -ox)
    # Mixed with plain int and Fraction operands, on both sides.
    agree(lambda: x + s, lambda: ox + s)
    agree(lambda: s - x, lambda: s - ox)
    agree(lambda: x * s, lambda: ox * s)
    agree(lambda: x / s, lambda: ox / s)
    agree(lambda: s / x, lambda: s / ox)
    agree(lambda: x == s, lambda: ox == s)
    # Order, equality and hashing.
    agree(lambda: x.sign(), lambda: ox.sign())
    agree(lambda: x < y, lambda: ox < oy)
    agree(lambda: x <= y, lambda: ox <= oy)
    agree(lambda: x == y, lambda: ox == oy)
    if x.b == 0:
        assert hash(x) == hash(ox) == hash(x.a)
    # Equal values built by other operations hash alike.
    others = [-(-x), x * 3 / 3, QuadExt(x.a, x.b, x.d)]
    if y.d in (1, x.d):
        others += [(x + y) - y, y + (x - y)]
        if y != 0:
            others.append(x * y / y)
    for z in others + [y]:
        if z == x:
            assert hash(z) == hash(x)
    # Wire form, and its round trip.
    assert number_to_json(x) == ox.to_json()
    back = number_from_json(number_to_json(x))
    assert_canonical(back)
    assert back == x and hash(back) == hash(x)


@given(parts, st.integers(-4, 5))
@settings(max_examples=200, deadline=None)
def test_integer_kernel_powers_match(xs, n):
    x, ox = QuadExt(*xs), FractionQuadExt(*xs)
    agree(lambda: x ** n, lambda: ox ** n)


def test_differential_error_cases():
    assert outcome(lambda: SQRT2 + SQRT3) == ("raise", IncompatibleRadicandError)
    assert outcome(lambda: SQRT2 < SQRT3) == ("raise", IncompatibleRadicandError)
    assert outcome(lambda: QuadExt(0) ** -1) == ("raise", ZeroDivisionError)
    assert outcome(lambda: 1 / QuadExt(0, 0, 2)) == ("raise", ZeroDivisionError)
    for x, ox in ((SQRT2, FractionQuadExt(0, 1, 2)), (QuadExt(3), FractionQuadExt(3))):
        agree(lambda: x / 0, lambda: ox / 0)
        agree(lambda: x * SQRT3, lambda: ox * FractionQuadExt(0, 1, 3))
    with pytest.raises(TypeError):
        QuadExt(1.5)
    with pytest.raises(ValueError):
        QuadExt(1, 1, 4)


# -- the fused row kernel against the unfused form ------------------------------

# Zero, one and the cells that cancel (+-sqrt 2, +-sqrt 3), beside general values.
cells = st.one_of(
    parts,
    st.sampled_from(
        ((0, 0, 1), (1, 0, 1), (-1, 0, 1), (0, 1, 2), (0, -1, 2), (0, 1, 3), (0, -1, 3))
    ),
)


@given(st.lists(st.one_of(cells, st.tuples(scalars)), max_size=8))
@settings(max_examples=300, deadline=None)
def test_integer_parts_share_one_denominator(entries):
    """Each value is (p + q sqrt d) / r over the least common denominator and
    the one radicand of the list; a list over sqrt 2 and sqrt 3 raises."""
    xs = [QuadExt(*e) if len(e) == 3 else e[0] for e in entries]
    radicands = {QuadExt(*e).d for e in entries if len(e) == 3} - {1}
    if len(radicands) > 1:
        with pytest.raises(IncompatibleRadicandError):
            integer_parts(xs)
        return
    ps, qs, r, d = integer_parts(xs)
    assert d == (radicands.pop() if radicands else 1)
    assert all(type(v) is int for v in (*ps, *qs, r, d))
    assert r == lcm(*(QuadExt(x)._r if not isinstance(x, QuadExt) else x._r for x in xs))
    for x, p, q in zip(xs, ps, qs):
        assert QuadExt(Fraction(p, r), Fraction(q, r), d) == x


def test_fused_kernels_at_cancellation():
    # sqrt2 * sqrt2 and sqrt2 - sqrt2 are rational, so a sqrt3 value may join them.
    assert integer_parts([SQRT2 * SQRT2, SQRT3]) == ([2, 0], [0, 1], 1, 3)
    assert integer_parts([SQRT2 - SQRT2, SQRT3 / 2]) == ([0, 0], [0, 1], 2, 3)
    assert integer_parts([]) == ([], [], 1, 1)
    with pytest.raises(IncompatibleRadicandError):
        integer_parts([SQRT2, SQRT3])
