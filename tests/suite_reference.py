"""Reference sweeps that enumerate what ``check`` now decides directly.

These are the loops the classical and quantum suites ran before they were
decided from atoms, state bitmasks and table lookups, and brute forces
over what they now count in closed form.  The connective relations
compare propositions for every class of the generated algebra and every
ordered pair, on atoms found by a method of their own; the Boolean
quotient closed the generators' signatures to their fixpoint; the De
Morgan and implication identities re-reduced the composed qwffs for every
pair of reachable representatives; and the Q-truth trichotomy read each
verdict from the theta sets per (element, state).  Both quantum loops take
their representatives from the all-pairs sweep of ``closure_reference``,
run to its fixpoint, not from the package's sweep.  The build's
postconditions compared extension frozensets per (pair, state), and so
did equivalence-coincidence and the preorder comparison of
state-separation, with propositions as frozensets of state names.  The
differential tests in ``test_suites.py`` require the same counts,
violations, elements and overflow from the package.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from qlogic.bridge import (
    QTruth,
    _primary_pairs,
    _reduce_element,
    _rule_count,
    _table_order,
)
from qlogic.formulas import QAnd, QImp, QNot, QOr, render
from qlogic.models import SignatureSpace, SuiteResult

from closure_reference import reachable_elements
from conftest import to_signature


@dataclass
class Tally:
    """A suite's name, cases checked, one witness per violation, and cases
    that held strictly."""

    suite: str
    checked: int = 0
    witnesses: list[str] = field(default_factory=list)
    strict: int = 0


# -- classical connectives over the generated algebra ----------------------------


def atoms(space, names) -> list[int]:
    """Masks of the cells of (state, object) bits that lie in exactly the
    same generators: each bit keyed by the generators that hold it."""
    cells: dict[tuple[int, ...], int] = {}
    for bit in range(space.omega.bit_length()):
        key = tuple(space.pred_masks[name] >> bit & 1 for name in names)
        cells[key] = cells.get(key, 0) | 1 << bit
    return list(cells.values())


def groups(space, cells: list[int]) -> set[frozenset[int]]:
    """The distinct sets of two or more cells (by position) that meet one
    state block."""
    blocks = space.state_masks.values()
    met = (frozenset(i for i, cell in enumerate(cells) if cell & block) for block in blocks)
    return {group for group in met if len(group) > 1}


def connective_relations(m, predicates=None) -> tuple[Tally, ...]:
    """The census by brute force: every union of atoms X, and every ordered
    pair (X, Y) of them, with propositions read per state block.  Inputs of
    at most 8 atoms (65 536 pairs)."""
    space = SignatureSpace(m)
    names = m.predicate_names() if predicates is None else predicates
    negation = Tally("connective-relation-negation")
    meet_rel = Tally("connective-relation-meet")
    join_rel = Tally("connective-relation-join")
    if not names:  # no formula, so no class
        return negation, meet_rel, join_rel
    cells = atoms(space, names)
    if len(cells) > 8:  # raised, not asserted, so that it holds under python -O
        raise AssertionError(f"{len(cells)} atoms are too many for the brute force")
    masks = [sum(c for i, c in enumerate(cells) if x >> i & 1) for x in range(1 << len(cells))]
    blocks = list(space.state_masks.values())
    prop = {x: sum(1 << k for k, b in enumerate(blocks) if x & b == b) for x in masks}
    all_states = (1 << len(blocks)) - 1

    for x in masks:
        negation.checked += 1
        p_neg, complement = prop[space.omega & ~x], all_states & ~prop[x]
        if p_neg & ~complement:
            negation.witnesses.append(f"~{x:#x}")
        elif p_neg != complement:
            negation.strict += 1
    for x in masks:
        for y in masks:
            meet_rel.checked += 1
            if prop[x & y] != prop[x] & prop[y]:
                meet_rel.witnesses.append(f"{x:#x} & {y:#x}")
            join_rel.checked += 1
            union = prop[x] | prop[y]
            if union & ~prop[x | y]:
                join_rel.witnesses.append(f"{x:#x} | {y:#x}")
            elif prop[x | y] != union:
                join_rel.strict += 1
    return negation, meet_rel, join_rel


def strict_by_inclusion_exclusion(m, predicates=None) -> tuple[int, int]:
    """Strict negations and strict joins by inclusion-exclusion over the
    groups, for inputs of many atoms and few groups (5**groups terms).

    A pair (X, Y) of unions of atoms puts each atom in X only, Y only, both
    or neither; its join is strict when some group has an atom in X only,
    one in Y only and none in neither.  The terms pick a set T of groups
    that are all so, each less the pairs missing T's atoms in X only, in Y
    only, or both.  The negation of X is strict exactly when the join of X
    and its complement is: those pairs put every atom in X only or Y only."""
    space = SignatureSpace(m)
    names = m.predicate_names() if predicates is None else predicates
    if not names:
        return 0, 0
    cells = atoms(space, names)
    split = list(groups(space, cells))
    member = [sum(1 << k for k, g in enumerate(split) if i in g) for i in range(len(cells))]
    strict = [0, 0]
    for marks in product(range(5), repeat=len(split)):  # 0: out of T; 1-4: missing -/X/Y/both
        chosen = sum(1 << k for k, mark in enumerate(marks) if mark)
        if not chosen:
            continue
        no_x = sum(1 << k for k, mark in enumerate(marks) if mark in (2, 4))
        no_y = sum(1 << k for k, mark in enumerate(marks) if mark in (3, 4))
        sign = (-1) ** (chosen.bit_count() + 1 + no_x.bit_count() + no_y.bit_count())
        for slot, palette in enumerate((2, 4)):  # negations: X or Y only; joins: all four
            count = 1
            for bits in member:  # the colours each atom may take
                neither = palette == 4 and bool(bits & chosen)
                count *= palette - neither - bool(bits & no_x) - bool(bits & no_y)
            strict[slot] += sign * count
    return strict[0], strict[1]


# -- the Boolean quotient -------------------------------------------------------------


def quotient_elements(m, predicates=None, max_elements: int | None = 512) -> frozenset:
    """Signatures of the generated subalgebra, closed to its fixpoint."""
    names = tuple(predicates) if predicates is not None else m.predicate_names()
    if not names:
        return frozenset()
    space = SignatureSpace(m)
    classes = space.closed_classes(names, max_elements)
    return frozenset(to_signature(space, mask) for mask in classes)


# -- the build's postconditions ---------------------------------------------------------


def qmt(qm) -> SuiteResult:
    """proposition-theta-agreement on extension frozensets: a predicate's
    proposition is the states where its extension is the whole universe,
    partners' extensions are set complements, and each primary's is the
    set range(k) the probability rule gives."""
    model = qm.model
    violations: list[str] = []
    checked = len(qm.predicate_names)
    for name in qm.predicate_names:
        prop = frozenset(
            s
            for s in model.states
            if model.extensions[(s, name)] == frozenset(range(model.universe_sizes[s]))
        )
        if prop != qm.theta[name]:
            violations.append(
                f"predicate {name}: proposition {sorted(prop)} != theta {sorted(qm.theta[name])}"
            )
    n = qm.spec.universe_size
    full = frozenset(range(n))
    order = _table_order(qm.spec, qm.lattice, qm.element_index)
    for i, j in _primary_pairs(qm.lattice, order):
        name_i, name_j = qm.predicate_names[i], qm.predicate_names[j]
        for sname, _ in qm.spec.states:
            ext_i = model.extensions[(sname, name_i)]
            ext_j = model.extensions[(sname, name_j)]
            if ext_j != full - ext_i:
                violations.append(
                    f"state {sname}, predicate {name_j}: extension is not the "
                    f"complement of its partner {name_i}"
                )
            checked += 1
            p = qm.probabilities[(sname, name_i)]
            k = _rule_count(p.numerator, p.denominator, n, name_i, sname)
            if ext_i != frozenset(range(k)):
                violations.append(
                    f"state {sname}, predicate {name_i}: extension {sorted(ext_i)} "
                    f"does not match its projection probability"
                )
    return SuiteResult("proposition-theta-agreement", checked, len(violations), violations)


# -- the two meanings of a proposition on the testable classes -------------------------


def equivalence_coincidence(qm) -> Tally:
    """Every pair of testable classes, a before b in witness order, with a
    witness for each pair whose propositions are equal."""
    space = SignatureSpace(qm.model)
    reps = [(name, space.proposition(mask)) for mask, name in space.witnesses().items()]
    tally = Tally("equivalence-coincidence")
    for a, (name_a, prop_a) in enumerate(reps):
        for name_b, prop_b in reps[a + 1 :]:
            tally.checked += 1
            if prop_b == prop_a:
                tally.witnesses.append(
                    f"{name_a} and {name_b}: equal propositions, distinct signatures"
                )
    return tally


def preorder_coincides(qm) -> bool:
    """Whether signature inclusion and proposition inclusion agree on every
    ordered pair of testable classes."""
    space = SignatureSpace(qm.model)
    reps = [(mask, space.proposition(mask)) for mask in space.witnesses()]
    return all((a | b == b) == (prop_a <= prop_b) for a, prop_a in reps for b, prop_b in reps)


# -- quantum identities over reachable qwffs ------------------------------------------


def demorgan_and_implication(qm) -> tuple[Tally, Tally]:
    space = SignatureSpace(qm.model)
    reach = list(reachable_elements(qm).items())

    def sig_of_element(idx: int) -> int:
        return space.pred_masks[qm.predicate_names[idx]]

    demorgan = Tally("quantum-demorgan")
    sasaki = Tally("quantum-implication")
    for _, fi in reach:
        for _, fj in reach:
            demorgan.checked += 1
            lhs = _reduce_element(qm, space, QOr(fi, fj))
            rhs = _reduce_element(qm, space, QNot(QAnd(QNot(fi), QNot(fj))))
            if sig_of_element(lhs) != sig_of_element(rhs):
                demorgan.witnesses.append(f"{render(fi)} / {render(fj)}")
            sasaki.checked += 1
            lhs = _reduce_element(qm, space, QImp(fi, fj))
            rhs = _reduce_element(qm, space, QOr(QNot(fi), QAnd(fi, fj)))
            if sig_of_element(lhs) != sig_of_element(rhs):
                sasaki.witnesses.append(f"{render(fi)} / {render(fj)}")
    return demorgan, sasaki


def q_trichotomy(qm, space) -> Tally:
    def verdict(element: int, state: str) -> str:
        if state in qm.theta[qm.predicate_names[element]]:
            return QTruth.TRUE
        if state in qm.theta[qm.predicate_names[qm.lattice.ortho[element]]]:
            return QTruth.FALSE
        return QTruth.INDETERMINATE

    tally = Tally("q-truth-trichotomy")
    for idx, f in reachable_elements(qm).items():
        element = _reduce_element(qm, space, f)
        negation = _reduce_element(qm, space, QNot(f))
        for state in qm.model.states:
            tally.checked += 1
            true_here = state in qm.theta[qm.predicate_names[idx]]
            false_here = state in qm.theta[qm.predicate_names[qm.lattice.ortho[idx]]]
            if true_here and false_here:
                tally.witnesses.append(f"{render(f)} both certain in {state}")
            got = verdict(element, state)
            expected = (
                QTruth.TRUE if true_here else QTruth.FALSE if false_here else QTruth.INDETERMINATE
            )
            if got != expected:
                tally.witnesses.append(f"{render(f)} in {state}: got {got}")
            if (got == QTruth.FALSE) != (verdict(negation, state) == QTruth.TRUE):
                tally.witnesses.append(f"{render(f)} in {state}: falsehood and negated truth disagree")
    return tally
