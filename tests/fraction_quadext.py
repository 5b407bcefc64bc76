"""Reference oracle: the Fraction-pair ``QuadExt`` that the integer kernel replaced.

``FractionQuadExt`` stores ``a + b*sqrt(d)`` as two ``fractions.Fraction``
values and does every operation in ``Fraction`` arithmetic.  It is slow and
obviously correct, and exists only so that tests can compare
``weyldl.exactnum.QuadExt`` against it operation by operation.
"""

from __future__ import annotations

from fractions import Fraction

from weyldl.exactnum import IncompatibleRadicandError, QuadExt

_VALID_D = (1, 2, 3)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class FractionQuadExt:
    """The real number ``a + b*sqrt(d)`` with exact rational ``a``, ``b``."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a=0, b=0, d=1):
        if d not in _VALID_D:
            raise ValueError(f"radicand must be one of {_VALID_D}, got {d!r}")
        a = _as_fraction(a)
        b = _as_fraction(b)
        if b == 0:
            d = 1
        elif d == 1:
            a, b = a + b, Fraction(0)
        self.a, self.b, self.d = a, b, d

    def _coerce(self, other):
        if isinstance(other, FractionQuadExt):
            return other
        if isinstance(other, (int, Fraction)):
            return FractionQuadExt(other)
        return NotImplemented

    def _join_d(self, other) -> int:
        if self.d == other.d:
            return self.d
        if self.d == 1:
            return other.d
        if other.d == 1:
            return self.d
        raise IncompatibleRadicandError(
            f"cannot combine sqrt({self.d}) with sqrt({other.d})"
        )

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d = self._join_d(o)
        return FractionQuadExt(self.a + o.a, self.b + o.b, d)

    __radd__ = __add__

    def __neg__(self):
        return FractionQuadExt(-self.a, -self.b, self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d = self._join_d(o)
        return FractionQuadExt(
            self.a * o.a + self.b * o.b * d, self.a * o.b + self.b * o.a, d
        )

    __rmul__ = __mul__

    def inverse(self):
        if self.a == 0 and self.b == 0:
            raise ZeroDivisionError("division by zero QuadExt")
        norm = self.a * self.a - self.b * self.b * self.d
        return FractionQuadExt(self.a / norm, -self.b / norm, self.d)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = FractionQuadExt(1)
        for _ in range(n):
            out = out * self
        return out

    def sign(self) -> int:
        sa = (self.a > 0) - (self.a < 0)
        sb = (self.b > 0) - (self.b < 0)
        if sb == 0:
            return sa
        if sa == 0 or sa == sb:
            return sb
        t = self.a * self.a - self.b * self.b * self.d
        st = (t > 0) - (t < 0)
        return sa * st if st != 0 else 0

    def __lt__(self, other) -> bool:
        return (self - self._coerce(other)).sign() < 0

    def __le__(self, other) -> bool:
        return (self - self._coerce(other)).sign() <= 0

    def __eq__(self, other) -> bool:
        if isinstance(other, (FractionQuadExt, int, Fraction)):
            o = self._coerce(other)
            return self.a == o.a and self.b == o.b and self.d == o.d
        return NotImplemented

    def __hash__(self) -> int:
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def to_json(self):
        """The wire form of format 2: ``str`` of the ``Fraction`` a, "p" or "p/q", when
        b = 0, and [str(a), str(b), d] otherwise."""
        if self.b == 0:
            return str(self.a)
        return [str(self.a), str(self.b), self.d]

    def to_json_v1(self) -> dict:
        """The wire form of format 1: both parts as "p/q", the denominator 1 included."""
        return {
            "a": f"{self.a.numerator}/{self.a.denominator}",
            "b": f"{self.b.numerator}/{self.b.denominator}",
            "d": self.d,
        }


def certificate_json(cert, version: int = 2) -> dict:
    """The wire object of a certificate in format ``version``, 2 or 1, its envelope
    written out field by field, with each exact number as ``FractionQuadExt.to_json``
    or, in format 1, ``to_json_v1`` writes it."""
    def number(x):
        ref = FractionQuadExt(x.a, x.b, x.d) if isinstance(x, QuadExt) else FractionQuadExt(x)
        return ref.to_json() if version == 2 else ref.to_json_v1()

    return {
        "format_version": version,
        "group": {"family": cert.family, "rank": cert.rank, "twist": cert.twist},
        "direction": cert.direction,
        "q": number(cert.q),
        "w": list(cert.w),
        "form": cert.form,
        "mu": [number(x) for x in cert.mu],
    }
