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
    zero = Subspace.zero(dim)
    seeds = dict.fromkeys([zero, Subspace.full(dim), *generators])

    pairs: dict[tuple[Subspace, Subspace], tuple[Subspace, Subspace]] = {}

    def meet_join(a: Subspace, b: Subspace) -> tuple[Subspace, Subspace]:
        """Meet and join of a and b, computed once per unordered pair.

        The join comes first; the subspace lattice of C^dim is modular, so
        dim(a ^ b) = dim a + dim b - dim(a v b) (Grassmann), and the meet is
        0, a or b whenever that dimension is 0, dim a or dim b."""
        got = pairs.get((a, b)) or pairs.get((b, a))
        if got is None:
            if a == b or b.dim == 0 or a.dim == dim:  # b lies in a
                got = (b, a)
            elif a.dim == 0 or b.dim == dim:  # a lies in b
                got = (a, b)
            else:
                j = join(a, b)
                d = a.dim + b.dim - j.dim
                if d == 0:
                    got = (zero, j)
                elif d == a.dim:
                    got = (a, j)
                elif d == b.dim:
                    got = (b, j)
                else:
                    got = (meet(a, b), j)
            pairs[(a, b)] = got
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
    """First triple, in lexicographic index order, with
    A ^ (B v C) != (A ^ B) v (A ^ C), or None."""
    join = lat.join
    for a, meet_a in enumerate(lat.meet):
        for b, join_b in enumerate(join):
            join_ab = join[meet_a[b]]
            for c, bc in enumerate(join_b):
                if meet_a[bc] != join_ab[meet_a[c]]:
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
