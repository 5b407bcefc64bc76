import random
import re
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weyldl.exactnum import (
    SQRT2,
    SQRT3,
    IncompatibleRadicandError,
    QuadExt,
    dot,
    integer_parts,
    quad_cmp,
    quad_sign,
)

from fraction_quadext import FractionQuadExt

rationals = st.fractions(max_denominator=50)


def quads(d):
    return st.builds(lambda a, b: QuadExt(a, b, d), rationals, rationals)


class TestSign:
    def test_zero(self):
        assert quad_sign(QuadExt(0, 0, 1)) == 0

    def test_cross_multiplication_positive(self):
        # 3 - 2 sqrt(2) > 0 since 9 > 8
        assert quad_sign(QuadExt(3, -2, 2)) == 1

    def test_cross_multiplication_negative_rational_part(self):
        # 3 sqrt(2) - 4 > 0 since 18 > 16
        assert quad_sign(QuadExt(-4, 3, 2)) == 1

    def test_both_negative(self):
        assert quad_sign(QuadExt(-1, -1, 3)) == -1

    def test_close_calls(self):
        # 7/5 < sqrt(2) < 17/12
        assert quad_sign(SQRT2 - Fraction(7, 5)) == 1
        assert quad_sign(SQRT2 - Fraction(17, 12)) == -1


class TestCmp:
    def test_sqrt2_vs_one(self):
        assert quad_cmp(SQRT2, 1) == 1

    def test_one_plus_sqrt2_vs_two(self):
        assert quad_cmp(QuadExt(1, 1, 2), QuadExt(2, 0, 2)) == 1

    def test_reflexive(self):
        x = QuadExt(Fraction(5, 3), Fraction(-1, 7), 3)
        assert quad_cmp(x, x) == 0

    def test_incompatible_radicands(self):
        with pytest.raises(IncompatibleRadicandError):
            quad_cmp(SQRT2, SQRT3)


class TestNormalization:
    def test_b_zero_normalizes_d(self):
        assert QuadExt(3, 0, 2).d == 1

    def test_d_one_folds(self):
        assert QuadExt(1, 2, 1) == QuadExt(3)

    def test_rational_hash_matches_fraction(self):
        assert hash(QuadExt(Fraction(7, 2))) == hash(Fraction(7, 2))

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


@given(quads(3))
def test_inverse_round_trip(x):
    if x.sign() != 0:
        assert x * x.inverse() == 1
        assert (1 / x) * x == 1


@given(quads(2), quads(2))
def test_sign_multiplicative(x, y):
    assert quad_sign(x * y) == quad_sign(x) * quad_sign(y)


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
            assert quad_sign(x) == (1 if approx > 0 else -1)


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
    @given(quads(2) | quads(3) | st.builds(QuadExt, rationals))
    @settings(max_examples=200)
    def test_round_trip(self, x):
        assert QuadExt.from_json(x.to_json()) == x

    def test_wire_form(self):
        assert QuadExt(Fraction(3, 2), Fraction(-1, 3), 2).to_json() == {
            "a": "3/2",
            "b": "-1/3",
            "d": 2,
        }

    def test_malformed(self):
        with pytest.raises(ValueError):
            QuadExt.from_json({"a": "1/2", "b": "x", "d": 2})
        with pytest.raises(ValueError):
            QuadExt.from_json({"a": "1", "d": 2})
        with pytest.raises(ValueError):
            QuadExt(1, 1, 5)


def fraction_from_json(obj):
    """The ``Fraction``-based wire parser that ``QuadExt.from_json`` replaced: the reference."""
    def parse(text):
        match = re.fullmatch(r"(-?[0-9]+)/([0-9]+)", text) if isinstance(text, str) else None
        if match is None:
            raise ValueError("malformed rational: expected 'p/q'")
        num, den = int(match.group(1)), int(match.group(2))
        if den == 0:
            raise ValueError("malformed rational: zero denominator")
        return Fraction(num, den)

    try:
        a, b, d = obj["a"], obj["b"], obj["d"]
    except (KeyError, TypeError) as exc:
        raise ValueError("malformed QuadExt payload") from exc
    if type(d) is not int:
        raise ValueError("malformed QuadExt radicand")
    return QuadExt(parse(a), parse(b), d)


wire_ratios = st.one_of(
    st.builds("{}/{}".format, st.integers(-10 ** 6, 10 ** 6), st.integers(0, 10 ** 6)),
    st.builds("{}/{}".format, st.integers(-30, 30), st.integers(0, 12)),
    st.builds("-0/{}".format, st.integers(0, 9)),
    st.sampled_from(["1", "1/-2", "+1/2", " 1/2", "1/2 ", "1.0/2", "\u0663/4", "--1/2", "",
                     "1" * 4400 + "/1", "1/" + "2" * 4400]),
    st.text(alphabet="-/0123", max_size=6),
    st.integers(-3, 3),
    st.none(),
)
wire_radicands = st.one_of(st.sampled_from((1, 2, 3)), st.integers(-2, 6),
                           st.sampled_from((True, 2.0, "2", None)))


@given(wire_ratios, wire_ratios, wire_radicands)
@settings(max_examples=600, deadline=None)
def test_from_json_matches_fraction_parser(a, b, d):
    """Same value, or the same error text raised in the same order (a, then b, then d)."""
    obj = {"a": a, "b": b, "d": d}

    def result(parse):
        try:
            x = parse(obj)
        except ValueError as exc:
            return ("error", str(exc))
        assert_canonical(x)
        return ("value", x._p, x._q, x._r, x._d)

    assert result(QuadExt.from_json) == result(fraction_from_json)


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
    assert hash(x) == hash(ox)
    if x.b == 0:
        assert hash(x) == hash(x.a)
    # Wire form, and its round trip.
    assert x.to_json() == ox.to_json()
    back = QuadExt.from_json(x.to_json())
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


# -- the fused row kernels against the unfused forms ---------------------------

# Zero, one and the cells that cancel (+-sqrt 2, +-sqrt 3), beside general values.
cells = st.one_of(
    parts,
    st.sampled_from(
        ((0, 0, 1), (1, 0, 1), (-1, 0, 1), (0, 1, 2), (0, -1, 2), (0, 1, 3), (0, -1, 3))
    ),
)


def fold_dot(xs, ys, zero):
    """The left fold ``s = s + x*y`` from ``zero`` that ``dot`` replaces."""
    s = zero
    for x, y in zip(xs, ys):
        s = s + x * y
    return s


@given(st.lists(st.tuples(cells, cells), max_size=8))
@settings(max_examples=300, deadline=None)
def test_dot_matches_left_fold(terms):
    xs = [QuadExt(*a) for a, _ in terms]
    ys = [QuadExt(*b) for _, b in terms]
    oxs = [FractionQuadExt(*a) for a, _ in terms]
    oys = [FractionQuadExt(*b) for _, b in terms]
    agree(lambda: dot(xs, ys), lambda: fold_dot(xs, ys, QuadExt(0)))
    agree(lambda: dot(xs, ys), lambda: fold_dot(oxs, oys, FractionQuadExt(0)))


@given(st.lists(st.tuples(cells, scalars), max_size=8))
@settings(max_examples=150, deadline=None)
def test_dot_takes_int_and_fraction_operands(terms):
    xs = [QuadExt(*a) for a, _ in terms]
    ss = [s for _, s in terms]
    agree(lambda: dot(xs, ss), lambda: fold_dot(xs, ss, QuadExt(0)))
    agree(lambda: dot(ss, xs), lambda: fold_dot(ss, xs, QuadExt(0)))


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
    # sqrt2 * sqrt2 is rational, so a sqrt3 term may follow it.
    assert outcome(lambda: dot([SQRT2, SQRT3], [SQRT2, 1])) == outcome(lambda: 2 + SQRT3)
    # sqrt2 - sqrt2 leaves a rational running sum before sqrt3 arrives.
    assert outcome(lambda: dot([SQRT2, SQRT2, SQRT3], [1, -1, 1])) == outcome(lambda: SQRT3)
    # A zero factor makes a zero product, whatever the other radicand.
    assert outcome(lambda: dot([SQRT2, 0], [1, SQRT3])) == outcome(lambda: SQRT2)
    assert outcome(lambda: dot([], [])) == outcome(lambda: QuadExt(0))
    mixed = ("raise", IncompatibleRadicandError)
    assert outcome(lambda: dot([SQRT2, SQRT3], [1, 1])) == mixed
    assert outcome(lambda: dot([SQRT2], [SQRT3])) == mixed
