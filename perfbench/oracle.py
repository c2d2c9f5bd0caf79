"""Reference computations the benchmark checks the program's answers with.

They share no code with qlogic: subspaces are float orthonormal bases from
numpy's SVD compared within a tolerance, formulas are the benchmark's own
tuple trees evaluated over the raw extension sets, and the proposition
lattice of a classical model is rebuilt from its atoms.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

TOL = 1e-9

# A formula tree is ("pred", name) or (op, child) or (op, left, right), with
# op one of "~", "&", "|" (classical) or "~q", "&q", "|q", "->q" (quantum).
QUANTUM_OPS = ("~q", "&q", "|q", "->q")


def render(tree) -> str:
    """Fully parenthesised formula text in the program's input syntax."""
    if tree[0] == "pred":
        return tree[1]
    if len(tree) == 2:
        return f"{tree[0]} ({render(tree[1])})"
    return f"({render(tree[1])} {tree[0]} {render(tree[2])})"


def has_quantum(tree) -> bool:
    return tree[0] in QUANTUM_OPS or any(has_quantum(t) for t in tree[1:] if isinstance(t, tuple))


def truth(tree, extensions, state: str, obj: int) -> bool:
    """Classical truth at one (state, object) pair from the extension sets."""
    op = tree[0]
    if op == "pred":
        return obj in extensions[(state, tree[1])]
    if op == "~":
        return not truth(tree[1], extensions, state, obj)
    if op == "&":
        return truth(tree[1], extensions, state, obj) and truth(tree[2], extensions, state, obj)
    if op == "|":
        return truth(tree[1], extensions, state, obj) or truth(tree[2], extensions, state, obj)
    raise ValueError(f"quantum node {op} in classical evaluation")


# -- float subspaces: orthonormal row bases -------------------------------------


def to_complex(rows) -> np.ndarray:
    """Exact Gaussian-rational rows (objects with .real/.imag Fractions) as floats."""
    return np.array([[complex(float(z.real), float(z.imag)) for z in row] for row in rows],
                    dtype=complex)


def span(rows: np.ndarray, dim: int) -> np.ndarray:
    if rows.shape[0] == 0:
        return np.zeros((0, dim), dtype=complex)
    _, s, vh = np.linalg.svd(rows)
    rank = int(np.sum(s > TOL * max(1.0, s[0])))
    return vh[:rank]


def ortho(basis: np.ndarray, dim: int) -> np.ndarray:
    """{x : <b, x> = 0 for every row b}: the null space of the conjugated rows."""
    if basis.shape[0] == 0:
        return np.eye(dim, dtype=complex)
    _, s, vh = np.linalg.svd(basis.conj(), full_matrices=True)
    rank = int(np.sum(s > TOL * max(1.0, s[0])))
    return vh[rank:].conj()


def meet(a: np.ndarray, b: np.ndarray, dim: int) -> np.ndarray:
    return ortho(span(np.vstack([ortho(a, dim), ortho(b, dim)]), dim), dim)


def join(a: np.ndarray, b: np.ndarray, dim: int) -> np.ndarray:
    return span(np.vstack([a, b]), dim)


def same_subspace(a: np.ndarray, b: np.ndarray, dim: int) -> bool:
    return a.shape[0] == b.shape[0] == span(np.vstack([a, b]), dim).shape[0]


def verdict(basis: np.ndarray, psi: np.ndarray) -> str:
    """Q-true when psi lies in the subspace, Q-false when it is orthogonal
    to it, Q-indeterminate otherwise."""
    scale = TOL * np.linalg.norm(psi)
    coeffs = basis.conj() @ psi
    if np.linalg.norm(psi - basis.T @ coeffs) <= scale:
        return "Q-true"
    if np.linalg.norm(coeffs) <= scale:
        return "Q-false"
    return "Q-indeterminate"


def subspace_of(tree, leaf_basis, dim: int) -> np.ndarray:
    """Subspace a formula denotes.  A classical negation may only sit on a
    leaf, where it denotes the orthocomplement partner of the predicate."""
    op = tree[0]
    if op == "pred":
        return leaf_basis[tree[1]]
    if op in ("~", "~q"):
        return ortho(subspace_of(tree[1], leaf_basis, dim), dim)
    a = subspace_of(tree[1], leaf_basis, dim)
    b = subspace_of(tree[2], leaf_basis, dim)
    if op == "&q":
        return meet(a, b, dim)
    if op == "|q":
        return join(a, b, dim)
    if op == "->q":
        return join(ortho(a, dim), meet(a, b, dim), dim)
    raise ValueError(f"classical node {op} above a leaf in a quantum formula")


# -- proposition lattice of a classical model -------------------------------------


def atoms(model: dict) -> list[set[str]]:
    """The cells into which the predicates cut the (state, object) pairs,
    each given as the set of states that have a pair in it."""
    names = [p["name"] for p in model["predicates"]]
    cells: dict[tuple[bool, ...], set[str]] = {}
    for st in model["states"]:
        for u in range(st["universe"]):
            key = tuple(u in st["extensions"].get(n, ()) for n in names)
            cells.setdefault(key, set()).add(st["name"])
    return list(cells.values())


def proposition_lattice(model: dict) -> tuple[set[tuple[str, ...]], set[tuple]]:
    """State sets and cover edges of the propositions of every classical
    formula over the model's predicates.

    Every union of atoms is the signature of some formula, and its
    proposition is the set of states with no pair outside the union.
    """
    cells = atoms(model)
    all_states = {st["name"] for st in model["states"]}
    props = set()
    for k in range(len(cells) + 1):
        for chosen in combinations(range(len(cells)), k):
            outside = set().union(*(cells[i] for i in range(len(cells)) if i not in chosen))
            props.add(tuple(sorted(all_states - outside)))
    as_sets = {p: set(p) for p in props}
    edges = {
        (a, b)
        for a in props
        for b in props
        if as_sets[a] < as_sets[b]
        and not any(as_sets[a] < as_sets[c] < as_sets[b] for c in props)
    }
    return props, edges
