"""Gaussian rationals: exact complex scalars with Fraction parts."""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import ModelValidationError

# a rational, then either a signed rational with "i" or a lone "i": the
# groups are the integer parts of "3/4-1/4i", or of "3/4i" and its "i"
_LITERAL = re.compile(r"([+-]?\d+)(?:/([1-9]\d*))?(?:([+-]\d+)(?:/([1-9]\d*))?i|(i))?")

_ZERO = Fraction(0)


@dataclass(frozen=True, slots=True)
class GaussianRational:
    """A complex number with exact rational real and imaginary parts.

    Field operations are closed and exact; equality is decidable.  Values
    are kept in lowest terms by Fraction itself.
    """

    real: Fraction = Fraction(0)
    imag: Fraction = Fraction(0)

    def __post_init__(self):
        if not isinstance(self.real, Fraction):
            object.__setattr__(self, "real", Fraction(self.real))
        if not isinstance(self.imag, Fraction):
            object.__setattr__(self, "imag", Fraction(self.imag))

    @property
    def is_zero(self) -> bool:
        return self.real == 0 and self.imag == 0

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
        return (
            self.real.numerator,
            self.real.denominator,
            self.imag.numerator,
            self.imag.denominator,
        )

    def __str__(self) -> str:
        return format_scalar(self)


GR_ZERO = GaussianRational()


def parse_scalar(text: str) -> GaussianRational:
    """Parse a scalar literal: "1", "-1/2", "0+1i", "3/4-1/4i", "2i"."""
    if not isinstance(text, str):
        raise ModelValidationError(f"scalar literal {text!r:.40} is not a string")
    m = _LITERAL.fullmatch(text.strip())
    if m is None:
        raise ModelValidationError(f"malformed scalar literal {text!r}")
    num, den, im_num, im_den, lone_i = m.groups()
    first = Fraction(int(num), int(den or 1))
    if lone_i:
        return GaussianRational(_ZERO, first)
    if im_num is None:
        return GaussianRational(first, _ZERO)
    return GaussianRational(first, Fraction(int(im_num), int(im_den or 1)))


def format_scalar(z: GaussianRational) -> str:
    """Canonical literal; parse_scalar(format_scalar(z)) == z."""
    return format_parts(*z.sort_key())


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
