"""Exact ordered-field arithmetic over Q and the real quadratic fields Q(sqrt 2), Q(sqrt 3).

Every q, witness coordinate and slack in this package is a ``QuadExt``
(root coefficients stay plain ints): a value ``(p + q*sqrt(d)) / r`` stored as four Python ints
with ``d in {1, 2, 3}``.  The stored form is canonical: ``r > 0``,
``gcd(p, q, r) == 1``, and ``q == 0`` exactly when ``d == 1``, so a
rational value has radicand 1 and rational and irrational values
interoperate freely.  Every ring operation is a handful of integer
products followed by one gcd reduction (the common-denominator form of
Bareiss, Math. Comp. 22 (1968)); no ``Fraction`` is built on the way.
Signs and comparisons are exact case analysis on the integer numerator,
never floating-point evaluation.  The rational parts are still available
as the ``Fraction`` properties ``a`` and ``b``.

One kernel serves the row arithmetic of the strict systems.
``integer_parts(xs)`` puts a list of numbers over their least common
denominator r, as integers p_k + q_k sqrt(d) over r with one radicand d
for the whole list, so that a row's value at a point is one integer dot
product: the slacks of ``weyldl.criterion``, the root values that
``weyldl.checker`` carries through its walk, and the integer rows of
``weyldl.lp`` (the simplex, the Gordan witness and its check) never
build a ``QuadExt`` per cell.  ``common_parts`` does the same for
numbers given as int quadruples (p, s, den, d), not necessarily in
lowest terms, as the certificate reader holds them; ``integer_parts``
takes its quadruples from the ``QuadExt`` values.  The wire form of
these numbers belongs to the certificate format, and lives in
:mod:`weyldl.checker`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Union

__all__ = [
    "IncompatibleRadicandError",
    "QuadExt",
    "qext",
    "integer_parts",
    "common_parts",
    "SQRT2",
    "SQRT3",
    "ONE",
    "ZERO",
]

RatLike = Union[int, Fraction]
Scalar = Union[int, Fraction, "QuadExt"]

_VALID_D = (1, 2, 3)


class IncompatibleRadicandError(ValueError):
    """Raised when values over Q(sqrt 2) and Q(sqrt 3) are mixed."""


def _check_radicand(d: int) -> None:
    if d not in _VALID_D:
        raise ValueError(f"radicand must be one of {_VALID_D}, got {d!r}")


def _ratio(x: RatLike) -> tuple[int, int]:
    """Numerator and positive denominator of an exact rational."""
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    if isinstance(x, int):
        return int(x), 1
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def _join_d(d1: int, d2: int) -> int:
    if d1 == d2 or d2 == 1:
        return d1
    if d1 == 1:
        return d2
    raise IncompatibleRadicandError(f"cannot combine sqrt({d1}) with sqrt({d2})")


def _sign(p: int, q: int, d: int) -> int:
    """Exact sign of p + q sqrt(d)."""
    sp = (p > 0) - (p < 0)
    if not q:
        return sp
    sq = 1 if q > 0 else -1
    if sp == 0 or sp == sq:
        return sq
    # Opposite signs: the larger of p^2 and q^2 d wins.
    t = p * p - q * q * d
    return sp * ((t > 0) - (t < 0))


class QuadExt:
    """The real number ``(p + q*sqrt(d)) / r`` in canonical integer form.

    Immutable.  ``d`` is 1 exactly when ``q == 0``, so pure rationals
    compare and hash consistently regardless of how they were produced;
    a rational value hashes like its ``Fraction``.
    """

    __slots__ = ("_p", "_q", "_r", "_d")

    def __init__(self, a: RatLike = 0, b: RatLike = 0, d: int = 1):
        _check_radicand(d)
        p, r = _ratio(a)
        bn, bd = _ratio(b)
        q = 0
        if bn:
            p, q, r = p * bd, bn * r, r * bd
            if d == 1:
                # sqrt(1) = 1: fold b into the rational part.
                p, q = p + q, 0
            g = gcd(p, q, r)
            p, q, r = p // g, q // g, r // g
        self._p = p
        self._q = q
        self._r = r
        self._d = int(d) if q else 1

    # -- read-only views ------------------------------------------------------

    @property
    def d(self) -> int:
        """The radicand; 1 exactly when the value is rational."""
        return self._d

    @property
    def a(self) -> Fraction:
        """The rational part p/r."""
        return Fraction(self._p, self._r)

    @property
    def b(self) -> Fraction:
        """The coefficient q/r of sqrt(d)."""
        return Fraction(self._q, self._r)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: Scalar) -> "QuadExt":
        if type(other) is not QuadExt:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        d = self._d
        if d != other._d:
            d = _join_d(d, other._d)
        r1, r2 = self._r, other._r
        if r1 == r2:
            return _make(self._p + other._p, self._q + other._q, r1, d)
        return _make(
            self._p * r2 + other._p * r1, self._q * r2 + other._q * r1, r1 * r2, d
        )

    __radd__ = __add__

    def __neg__(self) -> "QuadExt":
        return _make(-self._p, -self._q, self._r, self._d)

    def __sub__(self, other: Scalar) -> "QuadExt":
        if type(other) is not QuadExt:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        d = self._d
        if d != other._d:
            d = _join_d(d, other._d)
        r1, r2 = self._r, other._r
        if r1 == r2:
            return _make(self._p - other._p, self._q - other._q, r1, d)
        return _make(
            self._p * r2 - other._p * r1, self._q * r2 - other._q * r1, r1 * r2, d
        )

    def __rsub__(self, other: Scalar) -> "QuadExt":
        o = _coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __mul__(self, other: Scalar) -> "QuadExt":
        if type(other) is not QuadExt:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        p, q, d = _product(self, other)
        return _make(p, q, self._r * other._r, d)

    __rmul__ = __mul__

    def inverse(self) -> "QuadExt":
        p, q, r = self._p, self._q, self._r
        if not q:
            if not p:
                raise ZeroDivisionError("division by zero QuadExt")
            # gcd(p, r) == 1 already.
            return _make(r, 0, p, 1) if p > 0 else _make(-r, 0, -p, 1)
        # r/(p + q sqrt(d)) = r (p - q sqrt(d)) / (p^2 - q^2 d); the norm is
        # nonzero because sqrt(d) is irrational for d in {2, 3}.  Its sign
        # moves into the numerator so the denominator stays positive.
        norm = p * p - q * q * self._d
        if norm < 0:
            return _make(-r * p, r * q, -norm, self._d)
        return _make(r * p, -r * q, norm, self._d)

    def __truediv__(self, other: Scalar) -> "QuadExt":
        if type(other) is not QuadExt:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other: Scalar) -> "QuadExt":
        o = _coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int) -> "QuadExt":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __abs__(self) -> "QuadExt":
        return -self if self.sign() < 0 else self

    # -- order -------------------------------------------------------------

    def sign(self) -> int:
        """Exact sign in {-1, 0, +1} of the real value."""
        return _sign(self._p, self._q, self._d)

    def _cmp(self, other: Scalar) -> int:
        o = _coerce(other)
        if o is NotImplemented:
            raise TypeError(f"cannot compare QuadExt with {type(other).__name__}")
        d = self._d
        if d != o._d:
            d = _join_d(d, o._d)
        # sign(x - y) is the sign of the unreduced numerator over r1 r2 > 0.
        r1, r2 = self._r, o._r
        return _sign(self._p * r2 - o._p * r1, self._q * r2 - o._q * r1, d)

    def __lt__(self, other: Scalar) -> bool:
        return self._cmp(other) < 0

    def __le__(self, other: Scalar) -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other: Scalar) -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other: Scalar) -> bool:
        return self._cmp(other) >= 0

    def __eq__(self, other: object) -> bool:
        o = _coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return (
            self._p == o._p and self._q == o._q and self._r == o._r and self._d == o._d
        )

    def __hash__(self) -> int:
        # Rational values hash like their Fraction so mixed-type lookups work;
        # an integer's Fraction hashes like the int.  An irrational value equals
        # no int or Fraction, and its stored form is canonical, so its ints do.
        if not self._q:
            return hash(self._p) if self._r == 1 else hash(self.a)
        return hash((self._p, self._q, self._r, self._d))

    def __bool__(self) -> bool:
        """False exactly at zero, as for int, Fraction and float."""
        return bool(self._p or self._q)

    # -- conversions ---------------------------------------------------------

    def __repr__(self) -> str:
        if not self._q:
            return f"QuadExt({self.a})"
        return f"QuadExt({self.a}, {self.b}, d={self._d})"

    def __str__(self) -> str:
        if not self._q:
            return str(self.a)
        return f"{self.a}+{self.b}*sqrt({self._d})"


_new = object.__new__


def _make(p: int, q: int, r: int, d: int) -> QuadExt:
    """A QuadExt from ``r > 0`` and any p, q: reduce by the gcd, nothing else."""
    g = gcd(p, q, r)
    if g != 1:
        p //= g
        q //= g
        r //= g
    x = _new(QuadExt)
    x._p = p
    x._q = q
    x._r = r
    x._d = d if q else 1
    return x


def _coerce(x: object):
    """``x`` as a QuadExt, or NotImplemented when it is not an exact number."""
    if isinstance(x, QuadExt):
        return x
    if isinstance(x, int):
        return _make(int(x), 0, 1, 1)
    if isinstance(x, Fraction):
        return _make(x.numerator, 0, x.denominator, 1)
    return NotImplemented


def qext(x: Scalar) -> QuadExt:
    """Coerce an int, Fraction or QuadExt to a QuadExt; a bool is no exact number."""
    o = NotImplemented if type(x) is bool else _coerce(x)
    if o is NotImplemented:
        raise TypeError(f"expected int or Fraction, got {type(x).__name__}")
    return o


def _product(x: QuadExt, y: QuadExt) -> tuple[int, int, int]:
    """Numerator p, q and radicand of x*y over x._r * y._r, unreduced.

    The radicand is 1 when the sqrt(d) part of the product is zero, so
    sqrt(2) * sqrt(2) is rational and mixes with sqrt(3) afterwards.
    """
    p1, q1, p2, q2 = x._p, x._q, y._p, y._q
    if q1 and q2:
        d = _join_d(x._d, y._d)
        q = p1 * q2 + q1 * p2
        return p1 * p2 + q1 * q2 * d, q, d if q else 1
    if q1:
        return p1 * p2, q1 * p2, x._d if p2 else 1
    if q2:
        return p1 * p2, p1 * q2, y._d if p1 else 1
    return p1 * p2, 0, 1


def integer_parts(xs) -> tuple[list[int], list[int], int, int]:
    """``(ps, qs, r, d)`` with x_k = (ps[k] + qs[k] sqrt(d)) / r for every x_k of ``xs``.

    r > 0 is the least common denominator and d the one radicand of the
    list (1 when every value is rational); values over sqrt 2 and sqrt 3
    together raise ``IncompatibleRadicandError``.  Entries may be int,
    Fraction or QuadExt.
    """
    xs = [x if type(x) is QuadExt else qext(x) for x in xs]
    return common_parts([(x._p, x._q, x._r, x._d) for x in xs])


def common_parts(nums) -> tuple[list[int], list[int], int, int]:
    """``(ps, qs, r, d)`` as :func:`integer_parts` gives it, for the numbers
    (p + s sqrt(e)) / den of the list ``nums`` of (p, s, den, e), den > 0 and
    e = 1 exactly when s = 0, in lowest terms or not."""
    r = d = 1
    for _, _, den, e in nums:
        if den != 1 and r % den:
            r = lcm(r, den)
        if e != d and e != 1:
            d = _join_d(d, e)
    if r == 1:
        return [n[0] for n in nums], [n[1] for n in nums], 1, d
    ps = [p * (r // den) for p, _, den, _ in nums]
    qs = [s * (r // den) for _, s, den, _ in nums] if d != 1 else [0] * len(nums)
    # Over a common denominator r, r / gcd(r, every numerator) is the least one.
    g = gcd(r, *ps)
    if g != 1:
        g = gcd(g, *qs)
        if g != 1:
            r //= g
            ps = [p // g for p in ps]
            qs = [s // g for s in qs]
    return ps, qs, r, d


ZERO = QuadExt(0)
ONE = QuadExt(1)
SQRT2 = QuadExt(0, 1, 2)
SQRT3 = QuadExt(0, 1, 3)
