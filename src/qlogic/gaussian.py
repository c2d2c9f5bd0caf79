"""Gaussian rationals: exact complex scalars, held as the lowest-terms
integers of their real and imaginary parts."""

from __future__ import annotations

import re
from dataclasses import FrozenInstanceError
from fractions import Fraction
from math import gcd

from .errors import ModelValidationError

# a rational, then either a signed rational with "i" or a lone "i": the
# groups are the integer parts of "3/4-1/4i", or of "3/4i" and its "i"
_LITERAL = re.compile(r"([+-]?\d+)(?:/([1-9]\d*))?(?:([+-]\d+)(?:/([1-9]\d*))?i|(i))?")


def _lowest(num: int, den: int) -> tuple[int, int]:
    """num/den, den > 0, as its lowest-terms numerator and denominator."""
    g = gcd(num, den)
    return num // g, den // g


def _parts_of(x) -> tuple[int, int]:
    """The lowest-terms numerator and denominator of a rational given as
    anything Fraction accepts."""
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    return x.numerator, x.denominator


_new, _set = object.__new__, object.__setattr__


class GaussianRational:
    """A complex number with exact rational real and imaginary parts.

    The value is held as four integers, the numerators and denominators of
    its real and imaginary parts in lowest terms with positive
    denominators: its ``sort_key``.  ``real`` and ``imag`` are Fractions
    built from them when read.  Field operations are closed and exact;
    equality is decidable, as equality of the parts.  Immutable.
    """

    __slots__ = ("_parts",)

    def __init__(self, real=0, imag=0):
        _set(self, "_parts", _parts_of(real) + _parts_of(imag))

    @classmethod
    def _of(cls, parts: tuple[int, int, int, int]) -> GaussianRational:
        """The scalar whose sort_key is ``parts``, taken as given."""
        self = _new(cls)
        _set(self, "_parts", parts)
        return self

    def __setattr__(self, name, *_):
        raise FrozenInstanceError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):  # copy and pickle rebuild from the parts, not through setattr
        return GaussianRational._of, (self._parts,)

    def __eq__(self, other):
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self._parts == other._parts

    def __hash__(self) -> int:
        return hash(self._parts)

    def __repr__(self) -> str:
        return f"GaussianRational(real={self.real!r}, imag={self.imag!r})"

    @property
    def real(self) -> Fraction:
        return Fraction(self._parts[0], self._parts[1])

    @property
    def imag(self) -> Fraction:
        return Fraction(self._parts[2], self._parts[3])

    @property
    def is_zero(self) -> bool:
        return not (self._parts[0] or self._parts[2])

    def __bool__(self) -> bool:
        return not self.is_zero

    def __add__(self, other: GaussianRational) -> GaussianRational:
        return GaussianRational(self.real + other.real, self.imag + other.imag)

    def __sub__(self, other: GaussianRational) -> GaussianRational:
        return GaussianRational(self.real - other.real, self.imag - other.imag)

    def __neg__(self) -> GaussianRational:
        return GaussianRational(-self.real, -self.imag)

    def __mul__(self, other: GaussianRational) -> GaussianRational:
        return GaussianRational(
            self.real * other.real - self.imag * other.imag,
            self.real * other.imag + self.imag * other.real,
        )

    def __truediv__(self, other: GaussianRational) -> GaussianRational:
        return self * other.inverse()

    def inverse(self) -> GaussianRational:
        n = self.abs2()
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(self.real / n, -self.imag / n)

    def conjugate(self) -> GaussianRational:
        return GaussianRational(self.real, -self.imag)

    def abs2(self) -> Fraction:
        """Squared modulus, an exact nonnegative rational."""
        return self.real * self.real + self.imag * self.imag

    def sort_key(self) -> tuple[int, int, int, int]:
        return self._parts

    def __str__(self) -> str:
        return format_scalar(self)


def parse_scalar(text: str) -> GaussianRational:
    """Parse a scalar literal: "1", "-1/2", "0+1i", "3/4-1/4i", "2i"."""
    if not isinstance(text, str):
        raise ModelValidationError(f"scalar literal {text!r:.40} is not a string")
    m = _LITERAL.fullmatch(text.strip())
    if m is None:
        raise ModelValidationError(f"malformed scalar literal {text!r}")
    num, den, im_num, im_den, lone_i = m.groups()
    first = _lowest(int(num), int(den or 1))
    if lone_i:
        return GaussianRational._of((0, 1) + first)
    if im_num is None:
        return GaussianRational._of(first + (0, 1))
    return GaussianRational._of(first + _lowest(int(im_num), int(im_den or 1)))


def format_scalar(z: GaussianRational) -> str:
    """Canonical literal; parse_scalar(format_scalar(z)) == z."""
    return format_parts(*z._parts)


def format_parts(re_num: int, re_den: int, im_num: int, im_den: int) -> str:
    """format_scalar of the scalar with these lowest-terms parts, its sort_key."""
    text = str(re_num) if re_den == 1 else f"{re_num}/{re_den}"
    if im_num == 0:
        return text
    sign = "+" if im_num > 0 else "-"
    im_num = abs(im_num)
    return f"{text}{sign}{im_num}i" if im_den == 1 else f"{text}{sign}{im_num}/{im_den}i"


def parse_vector(parts: list[str]) -> tuple[GaussianRational, ...]:
    return tuple(parse_scalar(p) for p in parts)


def vector_strings(vec: tuple[GaussianRational, ...]) -> list[str]:
    return [format_scalar(z) for z in vec]
