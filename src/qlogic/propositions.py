"""Physical propositions, testability, proposition posets, relation checks.

The physical proposition of a formula is the set of states where its
universal closure holds.  A formula is testable when some predicate has
exactly its signature; restricting the witness search to property
predicates gives the stricter notion used by the quantum bridge.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Sequence

from .formulas import Formula
from .models import Model, SignatureSpace, SuiteResult, quotient_size
from .models import _bits as _bitset


def testable(m: Model, f: Formula, scope: str = "properties") -> str | None:
    """First predicate (in table order) whose signature equals f's.

    scope="effects" searches every predicate, scope="properties" only the
    property predicates; returns None when no witness exists.
    """
    space = SignatureSpace(m)
    return space.witnesses(scope).get(space.mask_of(f))


@dataclass
class PropositionPoset:
    """Deduplicated state sets under inclusion.

    ``meets``/``joins`` record, per index pair, the index of the greatest
    lower / least upper bound inside the element set, or None when it does
    not exist; the poset is a lattice when every entry is present.  The
    orthocomplement map is attached only when the poset was induced from a
    Hilbert-backed model.
    """

    elements: tuple[frozenset[str], ...]
    meets: dict[tuple[int, int], int | None]
    joins: dict[tuple[int, int], int | None]
    is_lattice: bool
    orthocomplement: dict[int, int] | None = None


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def cover_edges(ups: Sequence[int]) -> list[tuple[int, int]]:
    """Hasse edges (i, j) of a finite order on range(len(ups)), where bit j
    of ups[i] is set when i <= j: j covers i when it lies strictly above i
    and strictly above nothing else that does.  In (i, j) lexicographic
    order."""
    strict = [up & ~(1 << i) for i, up in enumerate(ups)]
    edges = []
    for i, above in enumerate(strict):
        beyond = 0
        for k in _bits(above):
            beyond |= strict[k]
        edges += [(i, j) for j in _bits(above & ~beyond)]
    return edges


def proposition_poset(m: Model, formulas: list[Formula]) -> PropositionPoset:
    """Poset of the distinct physical propositions of the given formulas.

    Bounds come from bitmask down-sets and up-sets: the glb of i and j is
    the element whose down-set is down[i] & down[j], the one with exactly
    their common lower bounds, and dually for the lub."""
    space = SignatureSpace(m)
    seen = dict.fromkeys(space.proposition(space.mask_of(f)) for f in formulas)
    elements = tuple(sorted(seen, key=lambda s: (len(s), sorted(s))))
    downs = [sum(1 << k for k, q in enumerate(elements) if q <= p) for p in elements]
    ups = [sum(1 << k for k, q in enumerate(elements) if p <= q) for p in elements]
    by_down = {d: i for i, d in enumerate(downs)}
    by_up = {u: i for i, u in enumerate(ups)}
    pairs = [(i, j) for i in range(len(elements)) for j in range(len(elements))]
    meets = {(i, j): by_down.get(downs[i] & downs[j]) for i, j in pairs}
    joins = {(i, j): by_up.get(ups[i] & ups[j]) for i, j in pairs}
    is_lattice = None not in meets.values() and None not in joins.values()
    return PropositionPoset(elements, meets, joins, is_lattice)


# -- connective/set-operation relations ------------------------------------------


def check_connective_relations(
    space: SignatureSpace, predicates: tuple[str, ...] | None = None
) -> list[SuiteResult]:
    """Strictness census of the connective/set-operation relations over
    the 2**atoms classes the alphabet generates (Givant & Halmos), none for
    an empty alphabet: the negation, meet and join suites, in that order.

    Propositions are per-state "the mask covers the state's block" and
    universes are nonempty, so the relations are theorems for any masks.
    A class, a set of atoms, fills a block when it holds the group of atoms
    meeting it.  A negation is strict when the class holds part of a group,
    a join of an ordered pair when the union holds a group that neither
    operand holds; meets are never strict.  What is not strict is counted
    per connected component of the groups, which are independent, times 2
    (negations) or 4 (joins) per atom in no group.  ``predicates`` is the
    alphabet; None means the whole table.
    """
    names = space.model.predicate_names() if predicates is None else predicates
    atoms = space.atoms(names)
    blocks = space.state_masks.values()
    met = {_bitset([i for i, atom in enumerate(atoms) if atom & block]) for block in blocks}
    groups = {g for g in met if g.bit_count() > 1}  # a block met by one atom is never strict
    components: list[int] = []  # unions of groups linked by shared atoms, disjoint
    for group in groups:
        linked = [c for c in components if c & group]
        components = [c for c in components if not c & group] + [group | sum(linked)]
    free = len(atoms) - sum(components).bit_count()
    plain_joins = 4**free * prod(_plain_joins([g for g in groups if g & c]) for c in components)
    n = quotient_size(space, names)
    strict = (n - 2 ** (free + len(components)), n * n - plain_joins) if n else (0, 0)
    return [
        SuiteResult("connective-relation-negation", n, info={"strict": strict[0]}),
        SuiteResult("connective-relation-meet", n * n, info={"strict": 0}),
        SuiteResult("connective-relation-join", n * n, info={"strict": strict[1]}),
    ]


def _plain_joins(groups: list[int]) -> int:
    """Ordered pairs of sets of the groups' atoms that fill a group
    together only where one of them fills it alone.

    A pair puts each atom in the first set only, the second only, both or
    neither, and fills a group together alone when the group has an atom in
    each set only and none in neither.  Counted atom by atom, keeping per
    open group what its atoms so far show and dropping it at its last atom:
    the work follows the groups open at once, not the 4**atoms pairs, so
    the next group is the one with fewest atoms left among those begun."""
    order, seen, todo = [], 0, list(groups)
    while todo:
        group = min(todo, key=lambda g: (not g & seen, (g & ~seen).bit_count()))
        todo.remove(group)
        order += _bits(group & ~seen)
        seen |= group
    # Bits 3k..3k+2 of a state are group k's: bit 0 set by an atom in the
    # first set only, bit 1 by one in the second only, all three by one in
    # neither, so the group is filled by the pair alone when they read 3.
    counts, left = {0: 1}, list(groups)  # left: each group's atoms yet to come
    for atom in order:
        bit, step, last = 1 << atom, 0, 0
        for k, g in enumerate(left):
            if g & bit:
                step |= 1 << 3 * k
                left[k] = g = g ^ bit
                if not g:
                    last |= 1 << 3 * k
        keep, neither = ~(7 * last), 7 * step
        after: dict[int, int] = {}
        for state, n in counts.items():
            for new in (state, state | step, state | 2 * step):  # both, first only, second only
                if not new & (new >> 1) & ~(new >> 2) & last:
                    new &= keep
                    after[new] = after.get(new, 0) + n
            # in neither: every group of the atom reads 7, so none is filled alone
            new = (state | neither) & keep
            after[new] = after.get(new, 0) + n
        counts = after
    return counts[0]
