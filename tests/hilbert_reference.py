"""Slow reference linear algebra over Fraction-based Gaussian rationals.

This is the textbook Gauss-Jordan elimination on GaussianRational
scalars, with one field inversion per pivot.  The package computes the
same things fraction-free over Gaussian integers; the differential tests
require both to agree exactly, so this module shares no code with
``qlogic.hilbert`` beyond the scalar type.

Subspaces are plain tuples of canonical basis rows here.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from qlogic.gaussian import GaussianRational

from conftest import GR_ONE, GR_ZERO

Rows = tuple[tuple[GaussianRational, ...], ...]


def rref(rows: list[list[GaussianRational]]) -> list[list[GaussianRational]]:
    """Reduced row echelon form; returns the nonzero rows (leading entries 1)."""
    rows = [list(r) for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if not rows[i][c].is_zero), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and not rows[i][c].is_zero:
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == nrows:
            break
    return rows[:r]


def nullspace(rows: list[list[GaussianRational]], ncols: int) -> list[list[GaussianRational]]:
    """Basis of {x : M x = 0} for the matrix with the given rows."""
    red = rref(rows)
    pivot_cols = [next(c for c, x in enumerate(row) if not x.is_zero) for row in red]
    pivot_set = set(pivot_cols)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [GR_ZERO] * ncols
        vec[free] = GR_ONE
        for row, pc in zip(red, pivot_cols):
            vec[pc] = -row[free]
        basis.append(vec)
    return basis


def solve(matrix: list[list[GaussianRational]], rhs: list[GaussianRational]) -> list[GaussianRational]:
    """Solve a square nonsingular system by Gauss-Jordan on the augmented matrix."""
    n = len(matrix)
    aug = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    for c in range(n):
        pivot = next(i for i in range(c, n) if not aug[i][c].is_zero)
        aug[c], aug[pivot] = aug[pivot], aug[c]
        inv = aug[c][c].inverse()
        aug[c] = [x * inv for x in aug[c]]
        for i in range(n):
            if i != c and not aug[i][c].is_zero:
                factor = aug[i][c]
                aug[i] = [a - factor * b for a, b in zip(aug[i], aug[c])]
    return [aug[i][n] for i in range(n)]


def conj_dot(u: Sequence[GaussianRational], v: Sequence[GaussianRational]) -> GaussianRational:
    acc = GR_ZERO
    for a, b in zip(u, v):
        acc = acc + a.conjugate() * b
    return acc


def span(vectors: Sequence[Sequence[GaussianRational]]) -> Rows:
    return tuple(tuple(row) for row in rref([list(v) for v in vectors]))


def ortho(a: Rows, ambient: int) -> Rows:
    constraints = [[z.conjugate() for z in row] for row in a]
    return span(nullspace(constraints, ambient))


def meet(a: Rows, b: Rows, ambient: int) -> Rows:
    """Intersection, via the stacked orthocomplement constraints."""
    constraints = [[z.conjugate() for z in row] for row in ortho(a, ambient)]
    constraints += [[z.conjugate() for z in row] for row in ortho(b, ambient)]
    return span(nullspace(constraints, ambient))


def join(a: Rows, b: Rows) -> Rows:
    return span(a + b)


def leq(a: Rows, b: Rows, ambient: int) -> bool:
    return meet(a, b, ambient) == a


def born(psi: Sequence[GaussianRational], a: Rows) -> Fraction:
    """<psi|P|psi> / <psi|psi> through the Gram system of the basis."""
    norm2 = conj_dot(psi, psi)
    if not a:
        return Fraction(0)
    gram = [[conj_dot(u, v) for v in a] for u in a]
    coeffs = [conj_dot(u, psi) for u in a]
    solved = solve(gram, coeffs)
    num = GR_ZERO
    for c, y in zip(coeffs, solved):
        num = num + c.conjugate() * y
    value = num / norm2
    if value.imag != 0:  # raised, not asserted, so that it holds under python -O
        raise AssertionError(f"<psi|P|psi> has imaginary part {value.imag}")
    return Fraction(value.real)
