"""Closed subspaces of C^d in exact arithmetic.

Subspaces are represented by canonical reduced Gaussian-integer rows, so
equality of subspaces is equality of representations; the reduced-echelon
basis over the Gaussian rationals is built from them when read.  Square
roots never appear: bases are unnormalized, and projection probabilities
come from a fraction-free orthogonal basis computed once per subspace.

All elimination runs in one fraction-free Gauss-Jordan kernel over
Python-int Gaussian integers: each row is cleared to one common
denominator, kept primitive by dividing out its content after every
step, and divided by its pivot only once, to produce the canonical basis.
Not every complement runs it: those of 0, C^d and lines are written
straight in canonical rows, and only other ranks take the null space of
the conjugated rows through the kernel.
"""

from __future__ import annotations

import weakref
from dataclasses import FrozenInstanceError
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Callable, Iterable, Sequence

from .errors import DimensionMismatch, ModelValidationError, ZeroVector
from .gaussian import GaussianRational, format_parts, parse_scalar

_ZERO, _ONE = Fraction(0), Fraction(1)
_ZERO_PARTS = (0, 1, 0, 1)  # the lowest-terms parts of a zero entry

Vector = tuple[GaussianRational, ...]
Row = tuple[Sequence[int], Sequence[int]]  # real and imaginary parts of a Gaussian-integer row


def _int_row(vec: Sequence[GaussianRational]) -> Row:
    """A Gaussian-integer multiple of a Gaussian-rational vector, read from
    its lowest-terms parts."""
    parts = [z._parts for z in vec]
    m = lcm(*(p[1] for p in parts), *(p[3] for p in parts))
    return [a * (m // b) for a, b, _, _ in parts], [c * (m // d) for _, _, c, d in parts]


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
        pivot = r
        while pivot < nrows and not (rows[pivot][0][c] or rows[pivot][1][c]):
            pivot += 1
        if pivot == nrows:
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
        for i, (re, im) in enumerate(rows):
            qr, qi = re[c], im[c]
            if i != r and (qr or qi):  # row := p * row - q * pivot row, made primitive
                re = [p * a - qr * x + qi * y for a, x, y in zip(re, pre, pim)]
                im = [p * b - qr * y - qi * x for b, x, y in zip(im, pre, pim)]
                g = gcd(*re, *im)
                if g > 1:
                    re, im = [x // g for x in re], [y // g for y in im]
                rows[i] = (re, im)
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


def _identity(ncols: int) -> list[Row]:
    """The reduced rows of C^ncols."""
    return [([0] * i + [1] + [0] * (ncols - 1 - i), [0] * ncols) for i in range(ncols)]


def _line_complement(v: Row, ncols: int) -> list[Row]:
    """Reduced rows of the hyperplane orthogonal to the line of reduced row v.

    With f the column of v's last nonzero entry, the rows are
    |v_f|^2 e_k - v_f conj(v_k) e_f for each k != f, each made primitive:
    each is orthogonal to v, has its pivot |v_f|^2 > 0 in column k, and
    column f, the one non-pivot column, is the only other entry."""
    re, im = v
    f = max(k for k in range(ncols) if re[k] or im[k])
    a, b = re[f], im[f]
    norm = a * a + b * b
    rows = []
    for k in range(ncols):
        if k != f:
            rre, rim = [0] * ncols, [0] * ncols
            rre[k] = norm
            x, y = re[k], im[k]  # v_f conj(v_k) = (ax + by) + (bx - ay)i
            rre[f], rim[f] = -(a * x + b * y), a * y - b * x
            rows.append(_primitive(rre, rim))
    return rows


def _complement(rows: Sequence[Row], ncols: int) -> list[Row]:
    """Reduced rows of the orthocomplement, chosen by rank: 0, C^d and lines
    in closed form, any other rank as the null space of the conjugated
    rows, reduced."""
    rank = len(rows)
    if rank == 0:
        return _identity(ncols)
    if rank == ncols:
        return []
    if rank == 1:
        return _line_complement(rows[0], ncols)
    conjugated = [(re, [-y for y in im]) for re, im in rows]
    return _reduce(_nullspace(conjugated, ncols), ncols)


def _conj_dot(u: Row, v: Row) -> tuple[int, int]:
    """<u|v> for Gaussian-integer vectors, as (real, imaginary), in one pass."""
    re = im = 0
    for a, b, c, d in zip(*u, *v):
        re += a * c + b * d
        im += a * d - b * c
    return re, im


class Subspace:
    """A closed subspace of C^ambient, identified by its canonical integer rows.

    ``_rows`` are the kernel's reduced rows, each primitive with a positive
    integer pivot, a form unique to each subspace; equality and hashing
    compare ``(ambient, _rows)``.  The canonical echelon ``basis`` is built
    from them on each read.  The constructor validates and reduces what it
    is given; kernel results are built already reduced.  Immutable.
    """

    # _parts is None until first read; _ortho, once computed, is a weak
    # reference set on both ends, so a subspace and its complement form no cycle
    __slots__ = ("ambient", "_rows", "_hash", "_parts", "_ortho", "__weakref__")

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
        object.__setattr__(self, "_parts", None)
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
        # the integer identity rows are already reduced; the constructor refuses ambient < 1
        return cls._from_reduced(ambient, _identity(ambient)) if ambient > 0 else cls(ambient)

    @property
    def basis(self) -> tuple[Vector, ...]:
        """The canonical RREF basis: each reduced row divided by its pivot."""
        return tuple(tuple(map(GaussianRational._of, row)) for row in _basis_parts(self))

    @property
    def dim(self) -> int:
        return len(self._rows)

    def sort_key(self):
        """(dim, GaussianRational.sort_key of each basis entry, row-major),
        read from the rows without building the basis."""
        return len(self._rows), tuple(chain.from_iterable(_basis_parts(self)))

    def __repr__(self) -> str:
        rows = "; ".join(",".join(row) for row in subspace_to_strings(self))
        return f"Subspace(C^{self.ambient}, dim={self.dim}, [{rows}])"


def _basis_parts(a: Subspace) -> tuple[tuple[tuple[int, int, int, int], ...], ...]:
    """The canonical basis as lowest-terms integer parts, read from the rows
    once and kept: entry (x + yi)/d of a row with pivot d is
    (x/g, d/g, y/h, d/h) with g = gcd(x, d) and h = gcd(y, d), the
    numerators and denominators of its Fraction parts, so each tuple is
    that entry's sort_key.  No gcd is taken where it cannot change a part:
    a row whose pivot is 1 is its own parts, and a zero entry is
    (0, 1, 0, 1)."""
    if a._parts is None:
        parts = []
        for re, im in a._rows:
            d = re[_lead(re)]
            if d == 1:
                row = [(x, 1, y, 1) for x, y in zip(re, im)]
            else:
                row = []
                for x, y in zip(re, im):
                    if x or y:
                        g, h = gcd(x, d), gcd(y, d)
                        row.append((x // g, d // g, y // h, d // h))
                    else:
                        row.append(_ZERO_PARTS)
            parts.append(tuple(row))
        object.__setattr__(a, "_parts", tuple(parts))
    return a._parts


def _check_same_space(a: Subspace, b: Subspace) -> None:
    if a.ambient != b.ambient:
        raise DimensionMismatch(f"C^{a.ambient} vs C^{b.ambient}")


def ortho(a: Subspace) -> Subspace:
    """Orthocomplement, exactly, cached on both ends.  The complements of 0,
    C^d and lines are written straight in canonical rows; other ranks run
    elimination, for the null space of the conjugated rows."""
    o = a._ortho() if a._ortho is not None else None
    if o is None:
        o = Subspace._from_reduced(a.ambient, _complement(a._rows, a.ambient))
        object.__setattr__(a, "_ortho", weakref.ref(o))
        object.__setattr__(o, "_ortho", weakref.ref(a))
    return o


def meet(a: Subspace, b: Subspace) -> Subspace:
    """Intersection, as the orthocomplement of the join of the complements."""
    _check_same_space(a, b)
    return ortho(join(ortho(a), ortho(b)))


def join(a: Subspace, b: Subspace) -> Subspace:
    """Closed linear span of the union."""
    _check_same_space(a, b)
    return Subspace._from_reduced(a.ambient, _reduce(a._rows + b._rows, a.ambient))


def _orthogonal(rows: Iterable[Row], v: Row) -> bool:
    """Whether the integer row v is orthogonal to every one of ``rows``;
    stops at the first row that is not."""
    for w in rows:
        if any(_conj_dot(w, v)):
            return False
    return True


def leq(a: Subspace, b: Subspace) -> bool:
    """Inclusion: every basis vector of a is orthogonal to ortho(b)."""
    _check_same_space(a, b)
    perp = ortho(b)._rows
    return all(_orthogonal(perp, u) for u in a._rows)


def _state_row(psi: Sequence[GaussianRational], ambient: int) -> tuple[Row, int]:
    """A state vector's Gaussian-integer row and its squared norm."""
    if len(psi) != ambient:
        raise DimensionMismatch(f"vector of length {len(psi)} in C^{ambient}")
    v = _int_row(psi)
    norm2 = _conj_dot(v, v)[0]
    if norm2 == 0:
        raise ZeroVector("born probability of the zero vector")
    return v, norm2


def born(psi: Sequence[GaussianRational], a: Subspace) -> Fraction:
    """Projection probability <psi|P|psi> / <psi|psi>, exactly.

    P projects onto ``a``; the value is an exact rational in [0, 1], equal
    to 1 iff psi lies in the subspace and 0 iff psi is orthogonal to it.
    It is computed from integer multiples of psi and of the basis, which
    leave the value unchanged.
    """
    v, norm2 = _state_row(tuple(psi), a.ambient)
    return _born_of(a, ortho(a))(v, norm2)


def _born_of(a: Subspace, perp: Subspace) -> Callable[[Row, int], Fraction]:
    """born(., a) as a function of a state's integer row v and squared norm,
    with the work that depends on ``a`` alone done once.

    ``perp`` is ortho(a).  P_a + P_perp = I exactly, so when perp has the
    smaller dimension the value is read as 1 - born(psi, perp), from the
    integer parts of born(psi, perp).  The rows of the subspace read are
    made pairwise orthogonal once, by fraction-free Gram-Schmidt, into w_r
    with squared norms n_r, and born = sum_r |<w_r|v>|^2 / n_r / <v|v>: one
    inner product per row and state, and none for the zero subspace or,
    through its complement, C^d.
    """
    complement = perp.dim < a.dim
    ws: list[tuple[Row, int]] = []  # orthogonal rows and their squared norms
    for u in (perp if complement else a)._rows:  # w = scale * u minus its projections
        scale = lcm(*(n for _, n in ws))
        re, im = [scale * x for x in u[0]], [scale * y for y in u[1]]
        for w, n in ws:
            cr, ci = _conj_dot(w, u)
            k = scale // n
            cr, ci = cr * k, ci * k
            re = [x - cr * p + ci * q for x, p, q in zip(re, *w)]
            im = [y - cr * q - ci * p for y, p, q in zip(im, *w)]
        w = _primitive(re, im)
        ws.append((w, _conj_dot(w, w)[0]))
    total = lcm(*(n for _, n in ws))
    weighted = [(w, total // n) for w, n in ws]

    def value(v: Row, norm2: int) -> Fraction:
        num = 0
        for w, k in weighted:
            cr, ci = _conj_dot(w, v)
            num += (cr * cr + ci * ci) * k
        den = total * norm2
        if num == 0 or num == den:  # certain: a shared constant, no Fraction built
            return _ONE if (num == 0) == complement else _ZERO
        return Fraction(den - num, den) if complement else Fraction(num, den)

    return value


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
    """The canonical basis as scalar literals, written from the rows."""
    return [[format_parts(*part) for part in row] for row in _basis_parts(a)]
