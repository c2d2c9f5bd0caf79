"""Float reference for the quantum read path: what a qwff denotes and the
verdict each state gives it, from numpy's SVD instead of exact elimination.

Subspaces are orthonormal row bases in C^d and are compared through their
projectors within ``TOL``.  Nothing here reads qlogic's lattice tables,
theta sets or probabilities: a formula's subspace is computed from the
spec's property bases alone, and a verdict from the state's vector alone.
"""

from __future__ import annotations

import numpy as np

from qlogic.formulas import Formula, Pred, QAnd, QImp, QNot, QOr

TOL = 1e-9


def to_complex(rows) -> np.ndarray:
    """Rows of exact Gaussian rationals as a complex matrix."""
    return np.array(
        [[complex(float(z.real), float(z.imag)) for z in row] for row in rows], dtype=complex
    )


def _rank(s: np.ndarray) -> int:
    return int(np.sum(s > TOL * max(1.0, s[0]))) if s.size else 0


def span(rows: np.ndarray, dim: int) -> np.ndarray:
    """Orthonormal rows spanning the given rows."""
    if rows.shape[0] == 0:
        return np.zeros((0, dim), dtype=complex)
    _, s, vh = np.linalg.svd(rows)
    return vh[: _rank(s)]


def ortho(basis: np.ndarray, dim: int) -> np.ndarray:
    """Orthonormal rows of {x : <b, x> = 0 for every row b}."""
    if basis.shape[0] == 0:
        return np.eye(dim, dtype=complex)
    _, s, vh = np.linalg.svd(basis.conj(), full_matrices=True)
    return vh[_rank(s) :].conj()


def join(a: np.ndarray, b: np.ndarray, dim: int) -> np.ndarray:
    return span(np.vstack([a, b]), dim)


def meet(a: np.ndarray, b: np.ndarray, dim: int) -> np.ndarray:
    return ortho(join(ortho(a, dim), ortho(b, dim), dim), dim)


def projector(basis: np.ndarray, dim: int) -> np.ndarray:
    return basis.T @ basis.conj() if basis.shape[0] else np.zeros((dim, dim), dtype=complex)


def same_subspace(a: np.ndarray, b: np.ndarray, dim: int) -> bool:
    return a.shape[0] == b.shape[0] and np.allclose(
        projector(a, dim), projector(b, dim), rtol=0, atol=TOL
    )


def subspace_of(f: Formula, properties: dict[str, np.ndarray], dim: int, memo: dict) -> np.ndarray:
    """The subspace a pure qwff over property predicates denotes, with
    implication in its orthocomplement-join (Sasaki) form."""
    if f not in memo:
        if isinstance(f, Pred):
            memo[f] = properties[f.name]
        elif isinstance(f, QNot):
            memo[f] = ortho(subspace_of(f.child, properties, dim, memo), dim)
        else:
            a = subspace_of(f.left, properties, dim, memo)
            b = subspace_of(f.right, properties, dim, memo)
            if isinstance(f, QAnd):
                memo[f] = meet(a, b, dim)
            elif isinstance(f, QOr):
                memo[f] = join(a, b, dim)
            elif isinstance(f, QImp):
                memo[f] = join(ortho(a, dim), meet(a, b, dim), dim)
            else:
                raise ValueError(f"not a pure qwff: {f}")
    return memo[f]


def verdict(basis: np.ndarray, psi: np.ndarray) -> str:
    """Q-true when the state lies in the subspace (projection probability
    1), Q-false when it is orthogonal to it (0), else Q-indeterminate."""
    p = float(np.sum(np.abs(basis.conj() @ psi) ** 2) / np.vdot(psi, psi).real)
    if abs(p - 1) < TOL:
        return "Q-true"
    if p < TOL:
        return "Q-false"
    return "Q-indeterminate"
