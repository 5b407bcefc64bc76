"""Exact ordered-field arithmetic over Q and the real quadratic fields Q(sqrt 2), Q(sqrt 3).

Every number that enters a strict inequality in this package is a
``QuadExt``: a value ``a + b*sqrt(d)`` with rational ``a``, ``b`` and
``d in {1, 2, 3}``.  Rationals are plain :class:`fractions.Fraction`
values; a ``QuadExt`` with ``b == 0`` normalizes its radicand to 1, so
rational and irrational values interoperate freely.  Comparison is by
exact case analysis on signs and cross-multiplication, never by
floating-point evaluation.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Union

__all__ = [
    "IncompatibleRadicandError",
    "QuadExt",
    "qext",
    "quad_sign",
    "quad_cmp",
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


def _as_fraction(x: RatLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


_RATIO = re.compile(r"(-?[0-9]+)/([0-9]+)")


def _parse_ratio(text) -> Fraction:
    """Parse the wire form ``p/q``; int() enforces Python's digit limit."""
    match = _RATIO.fullmatch(text) if isinstance(text, str) else None
    if match is None:
        raise ValueError("malformed rational: expected 'p/q'")
    num, den = int(match.group(1)), int(match.group(2))
    if den == 0:
        raise ValueError("malformed rational: zero denominator")
    return Fraction(num, den)


class QuadExt:
    """The real number ``a + b*sqrt(d)`` with exact rational ``a``, ``b``.

    Immutable.  ``d`` is normalized to 1 whenever ``b == 0``, so pure
    rationals always compare and hash consistently regardless of how
    they were produced.
    """

    __slots__ = ("a", "b", "d")

    a: Fraction
    b: Fraction
    d: int

    def __init__(self, a: RatLike = 0, b: RatLike = 0, d: int = 1):
        if d not in _VALID_D:
            raise ValueError(f"radicand must be one of {_VALID_D}, got {d!r}")
        a = _as_fraction(a)
        b = _as_fraction(b)
        if b == 0:
            d = 1
        elif d == 1:
            # sqrt(1) = 1: fold b into the rational part.
            a, b = a + b, Fraction(0)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("QuadExt is immutable")

    # -- coercion helpers -------------------------------------------------

    def _coerce(self, other: Scalar) -> "QuadExt":
        if isinstance(other, QuadExt):
            return other
        if isinstance(other, (int, Fraction)):
            return QuadExt(other)
        return NotImplemented  # type: ignore[return-value]

    def _join_d(self, other: "QuadExt") -> int:
        if self.d == other.d:
            return self.d
        if self.d == 1:
            return other.d
        if other.d == 1:
            return self.d
        raise IncompatibleRadicandError(
            f"cannot combine sqrt({self.d}) with sqrt({other.d})"
        )

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: Scalar) -> "QuadExt":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d = self._join_d(o)
        return QuadExt(self.a + o.a, self.b + o.b, d)

    __radd__ = __add__

    def __neg__(self) -> "QuadExt":
        return QuadExt(-self.a, -self.b, self.d)

    def __sub__(self, other: Scalar) -> "QuadExt":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: Scalar) -> "QuadExt":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other: Scalar) -> "QuadExt":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d = self._join_d(o)
        return QuadExt(self.a * o.a + self.b * o.b * d, self.a * o.b + self.b * o.a, d)

    __rmul__ = __mul__

    def inverse(self) -> "QuadExt":
        if self.is_zero():
            raise ZeroDivisionError("division by zero QuadExt")
        # 1/(a + b sqrt(d)) = (a - b sqrt(d)) / (a^2 - b^2 d); the norm is
        # nonzero because sqrt(d) is irrational for d in {2, 3}.
        norm = self.a * self.a - self.b * self.b * self.d
        return QuadExt(self.a / norm, -self.b / norm, self.d)

    def __truediv__(self, other: Scalar) -> "QuadExt":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other: Scalar) -> "QuadExt":
        o = self._coerce(other)
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

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def sign(self) -> int:
        """Exact sign in {-1, 0, +1} of the real value a + b sqrt(d)."""
        sa = (self.a > 0) - (self.a < 0)
        sb = (self.b > 0) - (self.b < 0)
        if sb == 0:
            return sa
        if sa == 0 or sa == sb:
            return sb
        # Opposite signs: compare a^2 against b^2 d by cross-multiplication.
        t = self.a * self.a - self.b * self.b * self.d
        st = (t > 0) - (t < 0)
        return sa * st if st != 0 else 0

    def _cmp(self, other: Scalar) -> int:
        o = self._coerce(other)
        if o is NotImplemented:
            raise TypeError(f"cannot compare QuadExt with {type(other).__name__}")
        return (self - o).sign()

    def __lt__(self, other: Scalar) -> bool:
        return self._cmp(other) < 0

    def __le__(self, other: Scalar) -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other: Scalar) -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other: Scalar) -> bool:
        return self._cmp(other) >= 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (QuadExt, int, Fraction)):
            o = self._coerce(other)
            return self.a == o.a and self.b == o.b and self.d == o.d
        return NotImplemented

    def __hash__(self) -> int:
        # Rational values hash like their Fraction so mixed-type lookups work.
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    # -- conversions ---------------------------------------------------------

    def __float__(self) -> float:
        # Sanity-oracle use only; never feeds a decision.
        return float(self.a) + float(self.b) * (self.d ** 0.5)

    def __repr__(self) -> str:
        if self.b == 0:
            return f"QuadExt({self.a})"
        return f"QuadExt({self.a}, {self.b}, d={self.d})"

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        return f"{self.a}+{self.b}*sqrt({self.d})"

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        """Bit-exact wire form {"a": "p/q", "b": "r/s", "d": 1|2|3}."""
        return {
            "a": f"{self.a.numerator}/{self.a.denominator}",
            "b": f"{self.b.numerator}/{self.b.denominator}",
            "d": self.d,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "QuadExt":
        """Inverse of :meth:`to_json`; accepts nothing but its exact wire grammar."""
        try:
            a, b, d = obj["a"], obj["b"], obj["d"]
        except (KeyError, TypeError) as exc:
            raise ValueError("malformed QuadExt payload") from exc
        if type(d) is not int:
            raise ValueError("malformed QuadExt radicand")
        return cls(_parse_ratio(a), _parse_ratio(b), d)


def qext(x: Scalar) -> QuadExt:
    """Coerce an int, Fraction or QuadExt to a QuadExt."""
    if isinstance(x, QuadExt):
        return x
    return QuadExt(x)


def quad_sign(x: Scalar) -> int:
    """Sign in {-1, 0, +1} of ``x``, computed exactly."""
    return qext(x).sign()


def quad_cmp(x: Scalar, y: Scalar) -> int:
    """Ordering of two values sharing a compatible radicand: sign(x - y)."""
    return (qext(x) - qext(y)).sign()


ZERO = QuadExt(0)
ONE = QuadExt(1)
SQRT2 = QuadExt(0, 1, 2)
SQRT3 = QuadExt(0, 1, 3)
