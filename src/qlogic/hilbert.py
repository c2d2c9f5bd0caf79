"""Closed subspaces of C^d in exact arithmetic.

Subspaces are represented by canonical reduced Gaussian-integer rows, so
equality of subspaces is equality of representations; the reduced-echelon
basis over the Gaussian rationals is built from them when read.  Square
roots never appear: bases are unnormalized and projections are computed
through the exact Gram-matrix formula P = V (V*V)^{-1} V*.

All elimination runs in one fraction-free Gauss-Jordan kernel over
Python-int Gaussian integers: each row is cleared to one common
denominator, kept primitive by dividing out its content after every
step, and divided by its pivot only once, to produce the canonical basis.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import DimensionMismatch, ModelValidationError, ZeroVector
from .gaussian import GR_ONE, GR_ZERO, GaussianRational, format_scalar, parse_scalar

Vector = tuple[GaussianRational, ...]
Row = tuple[Sequence[int], Sequence[int]]  # real and imaginary parts of a Gaussian-integer row


def _int_row(vec: Sequence[GaussianRational]) -> Row:
    """A Gaussian-integer multiple of a Gaussian-rational vector."""
    m = lcm(*(z.real.denominator for z in vec), *(z.imag.denominator for z in vec))
    return (
        [z.real.numerator * (m // z.real.denominator) for z in vec],
        [z.imag.numerator * (m // z.imag.denominator) for z in vec],
    )


def _primitive(re: list[int], im: list[int]) -> Row:
    """The row divided by its content, the gcd of its integer entries."""
    g = gcd(*re, *im)
    if g > 1:
        return [x // g for x in re], [x // g for x in im]
    return re, im


def _reduce(rows: Iterable[Row], ncols: int) -> list[Row]:
    """Fraction-free Gauss-Jordan elimination over the Gaussian integers.

    Returns the nonzero rows of the reduced echelon form, each primitive and
    scaled so that its pivot is a positive integer; dividing every row by
    its pivot gives the canonical RREF.  Each row stays a nonzero multiple
    of the row textbook elimination would hold, so the pivots are the same.
    """
    rows = [row for row in rows if any(row[0]) or any(row[1])]
    nrows = len(rows)
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot = next((i for i in range(r, nrows) if rows[i][0][c] or rows[i][1][c]), None)
        if pivot is None:
            continue
        pre, pim = rows[pivot]
        rows[pivot] = rows[r]
        p, q = pre[c], pim[c]
        if q or p < 0:  # times the conjugate pivot, which makes it |pivot|^2 > 0
            pre, pim = (
                [p * x + q * y for x, y in zip(pre, pim)],
                [p * y - q * x for x, y in zip(pre, pim)],
            )
        pre, pim = _primitive(pre, pim)
        p = pre[c]
        rows[r] = (pre, pim)
        for i in range(nrows):
            re, im = rows[i]
            qr, qi = re[c], im[c]
            if i != r and (qr or qi):  # row := p * row - q * pivot row
                rows[i] = _primitive(
                    [p * a - qr * x + qi * y for a, x, y in zip(re, pre, pim)],
                    [p * b - qr * y - qi * x for b, x, y in zip(im, pre, pim)],
                )
        r += 1
    return rows[:r]


def _lead(re: list[int]) -> int:
    """Pivot column of a reduced row (its pivot is real, earlier entries 0)."""
    return next(c for c, x in enumerate(re) if x)


def _nullspace(rows: list[Row], ncols: int) -> list[Row]:
    """Gaussian-integer basis of {x : M x = 0}, M given in the kernel's reduced form."""
    cols = [_lead(re) for re, _ in rows]
    scale = lcm(*(re[c] for (re, _), c in zip(rows, cols)))
    basis = []
    for free in (c for c in range(ncols) if c not in cols):
        vre = [0] * ncols
        vim = [0] * ncols
        vre[free] = scale
        for (re, im), c in zip(rows, cols):
            k = scale // re[c]
            vre[c] = -re[free] * k
            vim[c] = -im[free] * k
        basis.append((vre, vim))
    return basis


def _conj_dot(u: Row, v: Row) -> tuple[int, int]:
    """<u|v> for Gaussian-integer vectors, as (real, imaginary)."""
    (ur, ui), (vr, vi) = u, v
    return (
        sum(a * c + b * d for a, b, c, d in zip(ur, ui, vr, vi)),
        sum(a * d - b * c for a, b, c, d in zip(ur, ui, vr, vi)),
    )


class Subspace:
    """A closed subspace of C^ambient, identified by its canonical integer rows.

    ``_rows`` are the kernel's reduced rows, each primitive with a positive
    integer pivot, a form unique to each subspace; equality and hashing
    compare ``(ambient, _rows)``.  The canonical echelon ``basis`` is built
    from them on first read.  The constructor validates and reduces what it
    is given; kernel results are built already reduced.  Immutable.
    """

    # _basis is None until first read; _ortho, once computed, is set on both ends
    __slots__ = ("ambient", "_rows", "_hash", "_basis", "_ortho")

    def __init__(self, ambient: int, basis: Iterable[Sequence[GaussianRational]] = ()):
        object.__setattr__(self, "ambient", ambient)
        self.__post_init__(tuple(basis))

    # kept as a separate hook on the class: perfbench's tracer wraps it by name
    def __post_init__(self, basis: tuple[Sequence[GaussianRational], ...]):
        if self.ambient < 1:
            raise ModelValidationError("ambient dimension must be positive")
        for vec in basis:
            if len(vec) != self.ambient:
                raise DimensionMismatch(
                    f"basis vector of length {len(vec)} in C^{self.ambient}"
                )
        self._set_rows(_reduce([_int_row(v) for v in basis], self.ambient))

    @classmethod
    def _from_reduced(cls, ambient: int, rows: list[Row]) -> Subspace:
        """The subspace spanned by rows the kernel returned."""
        self = object.__new__(cls)
        object.__setattr__(self, "ambient", ambient)
        self._set_rows(rows)
        return self

    def _set_rows(self, rows: list[Row]) -> None:
        rows = tuple((tuple(re), tuple(im)) for re, im in rows)
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_hash", hash((self.ambient, rows)))
        object.__setattr__(self, "_basis", None)
        object.__setattr__(self, "_ortho", None)

    def __setattr__(self, name, *_):
        raise FrozenInstanceError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):  # copy and pickle rebuild from the rows, not through setattr
        return Subspace._from_reduced, (self.ambient, self._rows)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace) and self._rows == other._rows and self.ambient == other.ambient
        )

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def span(cls, vectors: Iterable[Sequence[GaussianRational]], ambient: int | None = None) -> Subspace:
        vecs = [tuple(v) for v in vectors]
        if ambient is None:
            if not vecs:
                raise ModelValidationError("cannot infer ambient dimension of an empty span")
            ambient = len(vecs[0])
        return cls(ambient, tuple(vecs))

    @classmethod
    def zero(cls, ambient: int) -> Subspace:
        return cls(ambient, ())

    @classmethod
    def full(cls, ambient: int) -> Subspace:
        rows = tuple(
            tuple(GR_ONE if i == j else GR_ZERO for j in range(ambient))
            for i in range(ambient)
        )
        return cls(ambient, rows)

    @property
    def basis(self) -> tuple[Vector, ...]:
        """The canonical RREF basis: each reduced row divided by its pivot."""
        if self._basis is None:
            basis = []
            for re, im in self._rows:
                d = re[_lead(re)]
                basis.append(tuple(
                    GaussianRational(Fraction(a, d), Fraction(b, d)) if a or b else GR_ZERO
                    for a, b in zip(re, im)
                ))
            object.__setattr__(self, "_basis", tuple(basis))
        return self._basis

    @property
    def dim(self) -> int:
        return len(self._rows)

    def sort_key(self):
        return (
            self.dim,
            tuple(z.sort_key() for row in self.basis for z in row),
        )

    def __repr__(self) -> str:
        rows = "; ".join(",".join(format_scalar(z) for z in row) for row in self.basis)
        return f"Subspace(C^{self.ambient}, dim={self.dim}, [{rows}])"


def _check_same_space(a: Subspace, b: Subspace) -> None:
    if a.ambient != b.ambient:
        raise DimensionMismatch(f"C^{a.ambient} vs C^{b.ambient}")


def ortho(a: Subspace) -> Subspace:
    """Orthocomplement: the exact null space of the conjugated basis."""
    o = a._ortho
    if o is None:
        conjugated = [(re, [-y for y in im]) for re, im in a._rows]
        o = Subspace._from_reduced(a.ambient, _reduce(_nullspace(conjugated, a.ambient), a.ambient))
        object.__setattr__(a, "_ortho", o)
        object.__setattr__(o, "_ortho", a)
    return o


def meet(a: Subspace, b: Subspace) -> Subspace:
    """Intersection, as the orthocomplement of the join of the complements."""
    _check_same_space(a, b)
    return ortho(join(ortho(a), ortho(b)))


def join(a: Subspace, b: Subspace) -> Subspace:
    """Closed linear span of the union."""
    _check_same_space(a, b)
    return Subspace._from_reduced(a.ambient, _reduce(a._rows + b._rows, a.ambient))


def leq(a: Subspace, b: Subspace) -> bool:
    """Inclusion: every basis vector of a is orthogonal to ortho(b)."""
    _check_same_space(a, b)
    perp = ortho(b)._rows
    return not any(any(_conj_dot(w, u)) for u in a._rows for w in perp)


def born(psi: Sequence[GaussianRational], a: Subspace) -> Fraction:
    """Projection probability <psi|P|psi> / <psi|psi>, exactly.

    P projects onto ``a``; the value is an exact rational in [0, 1], equal
    to 1 iff psi lies in the subspace and 0 iff psi is orthogonal to it.
    Both are computed from integer multiples of psi and of the basis,
    which leave the value unchanged.
    """
    psi = tuple(psi)
    if len(psi) != a.ambient:
        raise DimensionMismatch(f"vector of length {len(psi)} in C^{a.ambient}")
    v = _int_row(psi)
    norm2 = _conj_dot(v, v)[0]
    if norm2 == 0:
        raise ZeroVector("born probability of the zero vector")
    if a.dim == 0:
        return Fraction(0)
    # Gram system G y = c in one augmented matrix [G | c]; its reduced rows
    # hold y_r = e_r / d_r with d_r the pivot and e_r the last entry
    coeffs = [_conj_dot(u, v) for u in a._rows]
    augmented = []
    for u, c in zip(a._rows, coeffs):
        entries = [_conj_dot(u, w) for w in a._rows] + [c]
        augmented.append(([x for x, _ in entries], [y for _, y in entries]))
    solved = _reduce(augmented, a.dim + 1)
    scale = lcm(*(re[r] for r, (re, _) in enumerate(solved)))
    num_re = num_im = 0
    for r, ((cr, ci), (re, im)) in enumerate(zip(coeffs, solved)):
        k = scale // re[r]
        er, ei = re[-1], im[-1]
        num_re += (cr * er + ci * ei) * k
        num_im += (cr * ei - ci * er) * k
    if num_im != 0:
        raise AssertionError("projection probability must be real")
    return Fraction(num_re, scale * norm2)


def contains_vector(a: Subspace, v: Sequence[GaussianRational]) -> bool:
    return Subspace.span([tuple(v)], a.ambient).dim == 0 or join(
        a, Subspace.span([tuple(v)], a.ambient)
    ) == a


def subspace_from_strings(rows: list[list[str]], ambient: int) -> Subspace:
    """Build a subspace from basis vectors given as scalar literals."""
    vecs = []
    for row in rows:
        if len(row) != ambient:
            raise ModelValidationError(
                f"basis vector has {len(row)} components, expected {ambient}"
            )
        vecs.append(tuple(parse_scalar(s) for s in row))
    return Subspace.span(vecs, ambient)


def subspace_to_strings(a: Subspace) -> list[list[str]]:
    return [[format_scalar(z) for z in row] for row in a.basis]
