"""Finite families of subspaces closed under orthocomplement, meet, join.

A QLattice materializes the operation tables of the least closed family
containing a generator set together with the zero and full subspaces.
A family closed under orthocomplement and join is closed under meet too,
by De Morgan: a ^ b = (a-perp v b-perp)-perp, which is how meets are read.
Closed families of subspaces need not stay finite, hence the element cap.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._fixpoint import fixpoint
from .errors import ClosureOverflow, DimensionMismatch
from .hilbert import Subspace, join, leq, ortho

DEFAULT_CLOSURE_CAP = 512


@dataclass(frozen=True)
class QLattice:
    dim: int
    elements: tuple[Subspace, ...]  # by Subspace.sort_key, dimension first: 0 first, C^dim last
    ortho: tuple[int, ...]
    meet: tuple[tuple[int, ...], ...]
    join: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.elements)


def close(
    generators: list[Subspace],
    cap: int = DEFAULT_CLOSURE_CAP,
    dim: int | None = None,
) -> QLattice:
    """Fixpoint closure of the generators under ortho, meet and join.

    Joins reuse what the closure already knows; the ids, insertion order
    and overflow point are those of computing every join.  Two inclusion
    rules are recorded as inclusions are learned: a <= b gives
    b-perp <= a-perp, and what lies above b lies above a.  The subspace
    lattice is modular (Kalmbach 1983): dim(a v b) = dim a + dim b -
    dim(a ^ b), and a ^ b is the complement of a-perp v b-perp.  So once
    the complements' join is known, so is the dimension of a v b, and
    a <= b exactly when a v b has the dimension of b.  Otherwise, for
    dim a <= dim b, inclusion is read off the recorded inclusions or
    tested, and the join of incomparable operands has a dimension above
    dim b.  A join then absorbs an operand inside the other; a join of
    dimension dim, as of a hyperplane with anything outside it or of an
    element with its complement, is C^dim; and a known element of the
    join's dimension, or least dimension, above both operands is the join.
    Only the other joins reach the kernel.
    """
    if dim is None:
        if not generators:
            raise ValueError("dimension required when there are no generators")
        dim = generators[0].ambient
    for g in generators:
        if g.ambient != dim:
            raise DimensionMismatch(f"generator in C^{g.ambient}, lattice in C^{dim}")

    zero, full = Subspace.zero(dim), Subspace.full(dim)
    elements: list[Subspace] = []  # by id, in the order first found
    dims: list[int] = []  # by id
    ids: dict[Subspace, int] = {}
    above: list[int] = []  # by id: bit k set when element k is known to contain it
    of_dim = [0] * (dim + 1)  # by dimension: bit k set for each id k of it
    perp: list[int] = []  # by id: id of its complement, -1 until found
    joins: list[dict[int, int]] = []  # by id i: j -> id of the join, for i <= j

    def intern(s: Subspace) -> int:
        i = ids.get(s)
        if i is None:
            i = ids[s] = len(elements)
            elements.append(s)
            dims.append(s.dim)
            above.append(0)
            perp.append(-1)
            joins.append({})
            of_dim[s.dim] |= 1 << i
        return i

    def complement(i: int) -> int:
        o = ortho(elements[i])
        k = intern(o)
        # o may equal an element found earlier; keep o, which carries the
        # (weak) ortho link to elements[i], so later ortho calls hit the cache
        elements[k] = o
        perp[i], perp[k] = k, i
        return k

    def contains(i: int, j: int) -> None:
        """Record i <= j, and j-perp <= i-perp once j's complement is known."""
        above[i] |= 1 << j | above[j]
        if perp[j] >= 0:
            above[perp[j]] |= 1 << perp[i] | above[perp[i]]

    seeds = dict.fromkeys(intern(s) for s in [zero, full, *generators])
    full_id = ids[full]

    def join_id(i: int, j: int) -> int:
        """Id of the join of elements i and j, recorded in ``joins`` under
        the unordered pair; the symmetric fixpoint asks once per unordered
        pair, after both complements are known.  Only the joins the rules
        in ``close``'s docstring leave open reach the kernel."""
        if i < j:
            memo, key = joins[i], j
        else:
            memo, key = joins[j], i
        di, dj = dims[i], dims[j]
        if di > dj:
            i, j, di, dj = j, i, dj, di
        if i == j or not di or dj == dim:
            # zero and C^dim are comparable to all; no rule reads an
            # inclusion of an element in itself, above C^dim or from 0
            memo[key] = j
            return j
        pi, pj = perp[i], perp[j]
        dual = joins[pi].get(pj) if pi < pj else joins[pj].get(pi)
        if dual is not None:
            size = di + dj - dim + dims[dual]  # dual is the complement of the meet
        elif di < dj and (above[i] >> j & 1 or leq(elements[i], elements[j])):
            size = dj
        else:  # incomparable; a lower bound
            size = dj + 1
        if size == dj:
            got = j
            contains(i, j)
        elif size == dim or pi == j:
            got = full_id
        else:
            known = above[i] & above[j] & of_dim[size]
            if known:
                got = known.bit_length() - 1
            else:
                got = intern(join(elements[i], elements[j]))
                contains(i, got)
                contains(j, got)
        memo[key] = got
        return got

    found = fixpoint(
        seeds,
        unary=[(complement, lambda _: None)],
        binary=[(join_id, lambda *_: None)],
        limit=cap + 1,
        symmetric=True,
    )
    if len(found) > cap:
        raise ClosureOverflow(f"closure exceeded cap {cap} in C^{dim}", generators=tuple(generators))

    ordered = sorted(found, key=lambda i: elements[i].sort_key())
    position = [0] * len(ordered)  # by id
    for p, i in enumerate(ordered):
        position[i] = p
    # the fixpoint joined every unordered pair once; fill both halves from the memo
    rows = [[0] * len(ordered) for _ in ordered]
    for i, memo in enumerate(joins):
        a = position[i]
        row = rows[a]
        for j, k in memo.items():
            b = position[j]
            row[b] = rows[b][a] = position[k]
    join_table = tuple(map(tuple, rows))
    ortho_table = tuple(position[perp[i]] for i in ordered)
    # a ^ b = (a-perp v b-perp)-perp: meet row a is join row a-perp read at
    # the complements, complemented
    meet_table = tuple([
        tuple([ortho_table[row[b]] for b in ortho_table])
        for row in map(join_table.__getitem__, ortho_table)
    ])
    return QLattice(
        dim=dim,
        elements=tuple(elements[i] for i in ordered),
        ortho=ortho_table,
        meet=meet_table,
        join=join_table,
    )


def up_sets(lat: QLattice) -> list[int]:
    """By element: bit k set when the element lies in element k, read off
    the meet rows (i <= k exactly when i ^ k = i)."""
    return [sum(1 << k for k, m in enumerate(row) if m == i) for i, row in enumerate(lat.meet)]


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
    """Pairs where (A ^ B)-perp != A-perp v B-perp in the tables.  close reads
    meets through this law, so it holds on close output by construction; the
    hilbert.meet differentials and test_close_matches_reference check meets."""
    n = len(lat)
    out = []
    for i in range(n):
        for j in range(n):
            if lat.ortho[lat.meet[i][j]] != lat.join[lat.ortho[i]][lat.ortho[j]]:
                out.append((i, j))
    return out


def ortho_involution_violations(lat: QLattice) -> list[int]:
    return [i for i in range(len(lat)) if lat.ortho[lat.ortho[i]] != i]
