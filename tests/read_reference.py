"""Reference read path: truth at a (state, object) pair and the Q-truth
verdict, computed by walking formulas over extension and theta frozensets.

No bitmask, no memo and no state layout: a classical formula's signature is
a frozenset of (state, object) pairs built by set operations, a quantum
node reduces through the lattice tables, and a verdict is read from the
theta sets by predicate name.  The differential tests in
``tests/test_read_path.py`` require ``models.eval_open`` and
``bridge.q_truth`` to give the same answers and the same errors.
"""

from __future__ import annotations

from qlogic.bridge import QTruth
from qlogic.errors import (
    NotTestable,
    ObjectOutOfRange,
    QuantumNodeInClassicalEval,
    UnknownPredicate,
    UnknownState,
)
from qlogic.formulas import And, Not, Or, Pred, QAnd, QImp, QNot, QOr, render

_QUANTUM = (QNot, QAnd, QOr, QImp)


def eval_open(m, f, state: str, obj: int) -> bool:
    """Truth at one pair: the state, then the object, then a leaf's
    extension or membership in the formula's pair set."""
    if state not in m.universe_sizes:
        raise UnknownState(state)
    n = m.universe_sizes[state]
    if not 0 <= obj < n:
        raise ObjectOutOfRange(f"object {obj} outside universe of size {n} in {state!r}")
    if isinstance(f, Pred):
        if f.name not in m.predicate_names():
            raise UnknownPredicate(f.name)
        return obj in m.extensions[(state, f.name)]
    return (state, obj) in pair_set(m, f)


def pair_set(m, f) -> frozenset:
    """The signature of a classical formula as a frozenset of pairs, both
    sides of every connective read, left first, so an unknown leaf or a
    quantum node raises where a mask would."""
    if isinstance(f, Pred):
        if f.name not in m.predicate_names():
            raise UnknownPredicate(f.name)
        return frozenset((s, u) for s in m.states for u in m.extensions[(s, f.name)])
    if isinstance(f, Not):
        child = pair_set(m, f.child)
        return frozenset((s, u) for s in m.states for u in range(m.universe_sizes[s])) - child
    if isinstance(f, (And, Or)):
        left, right = pair_set(m, f.left), pair_set(m, f.right)
        return left & right if isinstance(f, And) else left | right
    raise QuantumNodeInClassicalEval(render(f))


def _quantum(f) -> bool:
    if isinstance(f, _QUANTUM):
        return True
    return any(_quantum(child) for child in _children(f))


def _children(f) -> tuple:
    if isinstance(f, (Not, QNot)):
        return (f.child,)
    if isinstance(f, Pred):
        return ()
    return (f.left, f.right)


def reduce_element(qm, f) -> int:
    """Lattice element of the qwff: a classical subtree through the first
    property predicate, in table order, with its pair set; quantum nodes
    through the tables."""
    if not _quantum(f):
        target = pair_set(qm.model, f)
        for p in qm.model.predicates:
            if p.is_property and pair_set(qm.model, Pred(p.name)) == target:
                return qm.element_index[p.name]
        raise NotTestable(f"no property predicate has the signature of {render(f)}")
    lat = qm.lattice
    if isinstance(f, QNot):
        return lat.ortho[reduce_element(qm, f.child)]
    if isinstance(f, (QAnd, QOr, QImp)):
        a, b = reduce_element(qm, f.left), reduce_element(qm, f.right)
        if isinstance(f, QAnd):
            return lat.meet[a][b]
        if isinstance(f, QOr):
            return lat.join[a][b]
        return lat.join[lat.ortho[a]][lat.meet[a][b]]
    raise NotTestable(f"classical connective above a quantum subformula in {render(f)}")


def q_truth(qm, f, state: str) -> str:
    """The verdict read from theta by predicate name: the state first, then
    the formula, then certain truth before certain falsehood."""
    if state not in qm.model.states:
        raise UnknownState(state)
    element = reduce_element(qm, f)
    if state in qm.theta[qm.predicate_names[element]]:
        return QTruth.TRUE
    if state in qm.theta[qm.predicate_names[qm.lattice.ortho[element]]]:
        return QTruth.FALSE
    return QTruth.INDETERMINATE
