"""Finite families of subspaces closed under orthocomplement, meet, join.

A QLattice materializes the operation tables of the least closed family
containing a generator set together with the zero and full subspaces.
Closed families of subspaces need not stay finite, hence the element cap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ._fixpoint import fixpoint
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

    overflow = ClosureOverflow(
        f"closure exceeded cap {cap} in C^{dim}", generators=tuple(generators)
    )
    seeds = dict.fromkeys([Subspace.zero(dim), Subspace.full(dim), *generators])
    if len(seeds) > cap:
        raise overflow

    pairs: dict[tuple[Subspace, Subspace], tuple[Subspace, Subspace]] = {}

    def meet_join(a: Subspace, b: Subspace) -> tuple[Subspace, Subspace]:
        """Meet and join of a and b, computed once per unordered pair."""
        got = pairs.get((a, b)) or pairs.get((b, a))
        if got is None:
            got = pairs[(a, b)] = (meet(a, b), join(a, b))
        return got

    found = fixpoint(
        seeds,
        unary=[(ortho, lambda _: None)],
        binary=[
            (lambda a, b: meet_join(a, b)[0], lambda *_: None),
            (lambda a, b: meet_join(a, b)[1], lambda *_: None),
        ],
        cap=cap,
        overflow=overflow,
    )

    ordered = tuple(sorted(found, key=Subspace.sort_key))
    index = {s: i for i, s in enumerate(ordered)}
    cells = [[meet_join(a, b) for b in ordered] for a in ordered]
    return QLattice(
        dim=dim,
        elements=ordered,
        ortho=tuple(index[ortho(s)] for s in ordered),
        meet=tuple(tuple(index[m] for m, _ in row) for row in cells),
        join=tuple(tuple(index[j] for _, j in row) for row in cells),
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
    import numpy as np  # only this sweep needs it, and it dominates start-up

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
