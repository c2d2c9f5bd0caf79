"""Reference sweeps that enumerate what ``check`` now decides directly.

These are the loops the classical and quantum suites ran before they were
decided from atoms, state bitmasks and table lookups: the connective
relations compared proposition frozensets for every class and ordered pair,
the Boolean quotient closed the generators' signatures to their fixpoint,
the De Morgan and implication identities re-reduced the composed qwffs
for every pair of reachable representatives, and the Q-truth trichotomy
read each verdict from the theta sets per (element, state).  The differential tests in
``test_suites.py`` require the same counts, violations, elements and
overflow from the package.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from qlogic.bridge import QTruth, _reachable_elements, _reduce_element
from qlogic.formulas import QAnd, QImp, QNot, QOr, render
from qlogic.models import SignatureSpace


@dataclass
class Tally:
    """A suite's name, cases checked, one witness per violation, and cases
    that held strictly."""

    suite: str
    checked: int = 0
    witnesses: list[str] = field(default_factory=list)
    strict: int = 0


# -- classical connectives over signature classes -----------------------------------


def connective_relations(m, max_depth: int, predicates=None) -> tuple[Tally, ...]:
    space = SignatureSpace(m)
    names = m.predicate_names() if predicates is None else predicates
    items = list(space.reachable_classes(names, max_depth).items())
    all_states = frozenset(m.states)
    prop_cache: dict[int, frozenset[str]] = {}

    def prop(mask: int) -> frozenset[str]:
        if mask not in prop_cache:
            prop_cache[mask] = space.proposition(mask)
        return prop_cache[mask]

    negation = Tally("connective-relation-negation")
    for mask, rep in items:
        negation.checked += 1
        p_neg = prop(space.omega & ~mask)
        complement = all_states - prop(mask)
        if not p_neg <= complement:
            negation.witnesses.append(render(rep))
        elif p_neg < complement:
            negation.strict += 1

    meet_rel = Tally("connective-relation-meet")
    join_rel = Tally("connective-relation-join")
    for m1, f1 in items:
        p1 = prop(m1)
        for m2, f2 in items:
            p2 = prop(m2)
            meet_rel.checked += 1
            if prop(m1 & m2) != p1 & p2:
                meet_rel.witnesses.append(f"{render(f1)} / {render(f2)}")
            join_rel.checked += 1
            p_or = prop(m1 | m2)
            if not p_or >= p1 | p2:
                join_rel.witnesses.append(f"{render(f1)} / {render(f2)}")
            elif p_or > p1 | p2:
                join_rel.strict += 1
    return negation, meet_rel, join_rel


# -- the Boolean quotient -------------------------------------------------------------


def quotient_elements(m, predicates=None, max_elements: int | None = 512) -> frozenset:
    """Signatures of the generated subalgebra, closed to its fixpoint."""
    names = tuple(predicates) if predicates is not None else m.predicate_names()
    if not names:
        return frozenset()
    space = SignatureSpace(m)
    classes = space.closed_classes(names, max_elements)
    return frozenset(space.to_signature(mask) for mask in classes)


# -- quantum identities over reachable qwffs ------------------------------------------


def demorgan_and_implication(qm, max_depth: int) -> tuple[Tally, Tally]:
    space = SignatureSpace(qm.model)
    reach = list(_reachable_elements(qm, max_depth).items())

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


def q_trichotomy(qm, space, max_depth: int) -> Tally:
    def verdict(element: int, state: str) -> str:
        if state in qm.theta[qm.predicate_names[element]]:
            return QTruth.TRUE
        if state in qm.theta[qm.predicate_names[qm.lattice.ortho[element]]]:
            return QTruth.FALSE
        return QTruth.INDETERMINATE

    tally = Tally("q-truth-trichotomy")
    for idx, f in _reachable_elements(qm, max_depth).items():
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
