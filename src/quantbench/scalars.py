"""Gaussian-rational scalars (re + im*i)/den with integer re, im and den > 0,
in the canonical form `exprs.PolyExpr` keeps for each term: gcd(re, im, den)
is 1, so equal numbers have equal integers.  Arithmetic runs on the ints with
one gcd per result; no floats are ever produced.  `gaussian_text` is the one
text of a Gaussian rational ("3/4", "-1i", "1/2-2/3i")."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import MalformedExpressionError


class ExactScalar:
    """Immutable Gaussian rational: ``num`` is the pair ``(re, im)`` of ints
    and ``den`` the positive int of ``(re + im*i) / den``, in canonical form."""

    __slots__ = ("num", "den")

    def __init__(self, re=0, im=0):
        """re + im*i for int or Fraction parts."""
        if type(re) is int and type(im) is int:
            num, den = (re, im), 1
        else:
            re, im = Fraction(re), Fraction(im)
            # the lcm of reduced denominators shares no factor with both parts
            den = lcm(re.denominator, im.denominator)
            num = (re.numerator * (den // re.denominator),
                   im.numerator * (den // im.denominator))
        _set_num(self, num)
        _set_den(self, den)

    def __setattr__(self, name, value):
        raise AttributeError("ExactScalar is immutable")

    # -- constructors -------------------------------------------------
    @staticmethod
    def coerce(value) -> "ExactScalar":
        scalar = _operand(value)
        if scalar is None:
            raise MalformedExpressionError(f"cannot coerce {value!r} to ExactScalar")
        return scalar

    # -- predicates ----------------------------------------------------
    def is_zero(self) -> bool:
        return self.num == (0, 0)

    def is_real(self) -> bool:
        return not self.num[1]

    def is_integer(self) -> bool:
        return not self.num[1] and self.den == 1

    def is_positive(self) -> bool:
        return not self.num[1] and self.num[0] > 0

    # -- arithmetic ------------------------------------------------------
    def __add__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        (a, b), p = self.num, self.den
        (c, d), q = other.num, other.den
        return from_ints(a * q + c * p, b * q + d * p, p * q)

    __radd__ = __add__

    def __neg__(self):
        re, im = self.num
        return from_ints(-re, -im, self.den)

    def __sub__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        (a, b), (c, d) = self.num, other.num
        return from_ints(a * c - b * d, a * d + b * c, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "ExactScalar":
        (a, b), p = self.num, self.den
        n = a * a + b * b
        if n == 0:
            raise ZeroDivisionError("inverse of zero ExactScalar")
        return from_ints(p * a, -p * b, n)

    def __truediv__(self, other):
        return self * ExactScalar.coerce(other).inverse()

    def __pow__(self, n: int):
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

    def conj(self) -> "ExactScalar":
        re, im = self.num
        return from_ints(re, -im, self.den)

    def abs2(self) -> "ExactScalar":
        (a, b), p = self.num, self.den
        return from_ints(a * a + b * b, 0, p * p)

    # -- comparisons / hashing -------------------------------------------
    def __eq__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        """A real value hashes as the equal Fraction, and so int, does."""
        re, im = self.num
        if im:
            return hash((self.num, self.den))
        return hash(Fraction(re, self.den))

    # -- output -----------------------------------------------------------
    def __repr__(self):
        return f"ExactScalar({str(self)!r})"

    def __str__(self):
        re, im = self.num
        return gaussian_text(re, im, self.den)

    def __complex__(self):
        re, im = self.num
        return complex(re / self.den, im / self.den)


_set_num = ExactScalar.num.__set__
_set_den = ExactScalar.den.__set__


def from_ints(re: int, im: int, den: int) -> ExactScalar:
    """(re + im*i)/den for a positive `den`, reduced by one gcd."""
    g = gcd(re, im, den)
    if g != 1:
        re, im, den = re // g, im // g, den // g
    s = object.__new__(ExactScalar)
    _set_num(s, (re, im))
    _set_den(s, den)
    return s


def _operand(value):
    """`value` as an ExactScalar, or None unless it is an int, a Fraction or
    an ExactScalar."""
    if isinstance(value, ExactScalar):
        return value
    if isinstance(value, (int, Fraction)):
        return ExactScalar(value)
    return None


def _fraction_text(n: int, den: int) -> str:
    """str(Fraction(n, den)) for a positive `den`."""
    g = gcd(n, den)
    return str(n // g) if g == den else f"{n // g}/{den // g}"


def gaussian_text(re: int, im: int, den: int, unit: str = "i") -> str:
    """The text of (re + im*i)/den for a positive `den`: each nonzero part as
    str(Fraction) would print it, the imaginary one followed by `unit`, as in
    "3/4", "-1i" or "1/2-2/3i"; zero is "0"."""
    if not im:
        return _fraction_text(re, den)
    imag = _fraction_text(im, den) + unit
    if not re:
        return imag
    return f"{_fraction_text(re, den)}{'+' if im > 0 else ''}{imag}"


ZERO = ExactScalar(0)
ONE = ExactScalar(1)
I = ExactScalar(0, 1)


def rational(p, q=1) -> ExactScalar:
    return ExactScalar(Fraction(p, q))
