"""Physical propositions, testability, proposition posets, relation checks.

The physical proposition of a formula is the set of states where its
universal closure holds.  A formula is testable when some predicate has
exactly its signature; restricting the witness search to property
predicates gives the stricter notion used by the quantum bridge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import DepthLimitExceeded
from .formulas import Formula
from .models import MAX_RELATION_DEPTH, Model, SignatureSpace, SuiteResult
from .models import _bits as _bitset


@dataclass(frozen=True)
class PhysicalProposition:
    """Set of states where the provenance formula is certainly true."""

    states: frozenset[str]
    provenance: Formula

    def __eq__(self, other) -> bool:
        if isinstance(other, PhysicalProposition):
            return self.states == other.states
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.states)


def physical_proposition(m: Model, f: Formula) -> PhysicalProposition:
    space = SignatureSpace(m)
    return PhysicalProposition(space.proposition(space.mask_of(f)), f)


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

    def cover_edges(self) -> list[tuple[int, int]]:
        """Hasse edges: i covered by j with nothing strictly between."""
        n = len(self.elements)
        return cover_edges(
            [sum(1 << j for j in range(n) if self.meets[(i, j)] == i) for i in range(n)]
        )


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
    cache: dict[Formula, int] = {}
    seen = dict.fromkeys(space.proposition(space.mask_of(f, cache)) for f in formulas)
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
    space: SignatureSpace, max_depth: int = 3, predicates: tuple[str, ...] | None = None
) -> list[SuiteResult]:
    """Strictness census of the connective/set-operation relations over
    all signature classes of formulas up to max_depth.

    Propositions are per-state "the mask covers the state's block" and
    universes are nonempty, so the relations are theorems for any masks:
    a negation's proposition lies inside the complement, a conjunction's is
    the intersection, a disjunction's contains the union.  Only the census
    is computed: a negation is strict when some state slice of the class is
    neither empty nor full, a join of an ordered pair when some block is
    full in m1|m2 but in neither operand; meets are never strict.
    ``predicates`` bounds the formula alphabet; None means the whole table.
    Returns the negation, meet and join suites, in that order, each with
    its strict count in ``info``.
    """
    if max_depth > MAX_RELATION_DEPTH:
        raise DepthLimitExceeded(f"depth {max_depth} exceeds cap {MAX_RELATION_DEPTH}")
    names = space.model.predicate_names() if predicates is None else predicates
    classes = list(space.atom_classes(names, max_depth))  # atom sets, bit i for atoms[i]
    atoms = space.atoms(names)

    # A class's slice of a state block follows from the atoms it holds among
    # those meeting the block: blocks met by the same atoms form one group,
    # counted once, and a block met by one atom is never strict.
    groups: dict[int, list[int]] = {}
    for block in space.state_masks.values():
        met = [i for i, atom in enumerate(atoms) if atom & block]
        if len(met) > 1:
            groups.setdefault(_bitset(met), met)
    # holders[i]: the classes holding atom i, a bitset over positions in
    # classes, read in linear time off the columns of their binary numerals;
    # the last class comes first, so bit p is class p and a set of early
    # classes stays a short int (the union loop below ORs these sets)
    numerals = [format(key, f"0{len(atoms)}b") for key in reversed(classes)]
    holders = [int("".join(column), 2) for column in zip(*numerals)][::-1]

    # Per group, each slice x that is neither empty nor full maps to the
    # classes whose slice y fills the group with x and is not full either.
    # The classes are split by slice one atom at a time, as atoms split the
    # bits, so the bitsets are disjoint and their sum is their union.
    split = 0  # the classes with a slice neither empty nor full
    fillers = []
    for group, met in groups.items():
        bits = {0: (1 << len(classes)) - 1}
        for i in met:
            refined = {}
            for x, members in bits.items():
                if inside := members & holders[i]:
                    refined[x | 1 << i] = inside
                if outside := members ^ inside:
                    refined[x] = outside
            bits = refined
        bits.pop(group, None)
        bits.pop(0, None)
        split |= sum(bits.values())
        table = {x: f for x in bits if (f := sum(b for y, b in bits.items() if x | y == group))}
        if table:
            fillers.append((group, table))
    strict_joins = 0
    for key in classes:
        partners = 0
        for group, table in fillers:
            partners |= table.get(key & group, 0)
        strict_joins += partners.bit_count()

    n = len(classes)
    return [
        SuiteResult("connective-relation-negation", n, info={"strict": split.bit_count()}),
        SuiteResult("connective-relation-meet", n * n, info={"strict": 0}),
        SuiteResult("connective-relation-join", n * n, info={"strict": strict_joins}),
    ]
