"""Finite families of subspaces closed under orthocomplement, meet, join.

A QLattice materializes the operation tables of the least closed family
containing a generator set together with the zero and full subspaces.
Closed families of subspaces need not stay finite, hence the element cap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ClosureOverflow, DimensionMismatch
from .hilbert import Subspace, join, meet, ortho

DEFAULT_CLOSURE_CAP = 512


@dataclass
class QLattice:
    dim: int
    elements: tuple[Subspace, ...]
    ortho: tuple[int, ...]
    meet: tuple[tuple[int, ...], ...]
    join: tuple[tuple[int, ...], ...]
    zero_index: int
    full_index: int
    index: dict[Subspace, int] = field(repr=False, default_factory=dict)

    def __post_init__(self):
        if not self.index:
            self.index = {s: i for i, s in enumerate(self.elements)}

    def __len__(self) -> int:
        return len(self.elements)

    def leq(self, i: int, j: int) -> bool:
        return self.meet[i][j] == i


def close(
    generators: list[Subspace],
    cap: int = DEFAULT_CLOSURE_CAP,
    dim: int | None = None,
) -> QLattice:
    """Fixpoint closure of the generators under ortho, meet and join."""
    if dim is None:
        if not generators:
            raise ValueError("dimension required when there are no generators")
        dim = generators[0].ambient
    for g in generators:
        if g.ambient != dim:
            raise DimensionMismatch(f"generator in C^{g.ambient}, lattice in C^{dim}")

    def overflow_check(elems: set) -> None:
        if len(elems) > cap:
            raise ClosureOverflow(
                f"closure exceeded cap {cap} in C^{dim}", generators=tuple(generators)
            )

    elems: set[Subspace] = {Subspace.zero(dim), Subspace.full(dim)}
    elems.update(generators)
    overflow_check(elems)

    meet_cache: dict[tuple[Subspace, Subspace], Subspace] = {}
    join_cache: dict[tuple[Subspace, Subspace], Subspace] = {}

    def pair_key(a: Subspace, b: Subspace) -> tuple[Subspace, Subspace]:
        return (a, b) if a.sort_key() <= b.sort_key() else (b, a)

    changed = True
    while changed:
        changed = False
        current = sorted(elems, key=Subspace.sort_key)
        for a in current:
            o = ortho(a)
            if o not in elems:
                elems.add(o)
                overflow_check(elems)
                changed = True
        current = sorted(elems, key=Subspace.sort_key)
        for i, a in enumerate(current):
            for b in current[i:]:
                key = pair_key(a, b)
                m = meet_cache.get(key)
                if m is None:
                    m = meet_cache[key] = meet(a, b)
                if m not in elems:
                    elems.add(m)
                    overflow_check(elems)
                    changed = True
                j = join_cache.get(key)
                if j is None:
                    j = join_cache[key] = join(a, b)
                if j not in elems:
                    elems.add(j)
                    overflow_check(elems)
                    changed = True

    ordered = tuple(sorted(elems, key=Subspace.sort_key))
    index = {s: i for i, s in enumerate(ordered)}
    ortho_row = tuple(index[ortho(s)] for s in ordered)
    meet_rows = []
    join_rows = []
    for a in ordered:
        mrow = []
        jrow = []
        for b in ordered:
            key = pair_key(a, b)
            mrow.append(index[meet_cache.setdefault(key, meet(a, b))])
            jrow.append(index[join_cache.setdefault(key, join(a, b))])
        meet_rows.append(tuple(mrow))
        join_rows.append(tuple(jrow))
    return QLattice(
        dim=dim,
        elements=ordered,
        ortho=ortho_row,
        meet=tuple(meet_rows),
        join=tuple(join_rows),
        zero_index=index[Subspace.zero(dim)],
        full_index=index[Subspace.full(dim)],
        index=index,
    )


def orthomodularity_witness(lat: QLattice) -> tuple[Subspace, Subspace] | None:
    """First ordered pair A <= B with B != A v (B ^ A-perp), if any."""
    n = len(lat)
    for i in range(n):
        for j in range(n):
            if lat.meet[i][j] == i:  # i <= j
                rebuilt = lat.join[i][lat.meet[j][lat.ortho[i]]]
                if rebuilt != j:
                    return (lat.elements[i], lat.elements[j])
    return None


def is_orthomodular(lat: QLattice) -> bool:
    return orthomodularity_witness(lat) is None


def find_distributivity_failure(
    lat: QLattice,
) -> tuple[Subspace, Subspace, Subspace] | None:
    """First triple with A ^ (B v C) != (A ^ B) v (A ^ C), or None."""
    n = len(lat)
    meet_arr = np.array(lat.meet, dtype=np.intp)
    join_arr = np.array(lat.join, dtype=np.intp)
    for a in range(n):
        lhs = meet_arr[a][join_arr]  # lhs[b, c] = a ^ (b v c)
        ma = meet_arr[a]
        rhs = join_arr[ma[:, None], ma[None, :]]  # rhs[b, c] = (a^b) v (a^c)
        bad = np.argwhere(lhs != rhs)
        if bad.size:
            b, c = map(int, bad[0])
            return (lat.elements[a], lat.elements[b], lat.elements[c])
    return None


def demorgan_violations(lat: QLattice) -> list[tuple[int, int]]:
    """Pairs where (A ^ B)-perp != A-perp v B-perp in the tables."""
    n = len(lat)
    out = []
    for i in range(n):
        for j in range(n):
            if lat.ortho[lat.meet[i][j]] != lat.join[lat.ortho[i]][lat.ortho[j]]:
                out.append((i, j))
    return out


def ortho_involution_violations(lat: QLattice) -> list[int]:
    return [i for i in range(len(lat)) if lat.ortho[lat.ortho[i]] != i]
