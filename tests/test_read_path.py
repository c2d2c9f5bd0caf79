"""The read path's contract: ``eval_open`` and ``q_truth`` answer, and
fail, as the frozenset walk of ``tests/read_reference.py`` does, on built
models, on their copies and on models edited by ``replace``."""

from __future__ import annotations

import copy
import functools
import pickle
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import read_reference as reference
from conftest import DATA_DIR, SPEC_DIR, with_extensions
from qlogic.bridge import QTruth, build_model, load_spec, q_truth
from qlogic.errors import NotTestable, QLogicError, UnknownPredicate, UnknownState
from qlogic.formulas import And, Not, Or, Pred, QAnd, QImp, QNot, QOr
from qlogic.models import Model, eval_open


def test_q_truth_checks_the_state_before_the_formula(worked_qm):
    untestable = QNot(And(Pred("Ez"), Pred("Ex")))
    for f in (untestable, QNot(Pred("Unknown")), Or(QNot(Pred("Ez")), Pred("Ex"))):
        with pytest.raises(UnknownState, match="^Nowhere$"):
            q_truth(worked_qm, f, "Nowhere")
        with pytest.raises((NotTestable, UnknownPredicate)):
            q_truth(worked_qm, f, "Sz+")


def test_a_state_certain_both_ways_reads_q_true(worked_qm):
    """Q-true is read before Q-false: with Ez_perp also made certain in
    Sz+, both Ez and ~q Ez (which reduces to Ez_perp) read Q-true there."""
    theta = dict(worked_qm.theta)
    theta["Ez_perp"] = theta["Ez_perp"] | {"Sz+"}
    corrupted = replace(worked_qm, theta=theta)
    for f in (Pred("Ez"), QNot(Pred("Ez")), Pred("Ez_perp")):
        assert q_truth(corrupted, f, "Sz+") == QTruth.TRUE
        assert q_truth(corrupted, f, "Sz+") == reference.q_truth(corrupted, f, "Sz+")
    assert q_truth(worked_qm, QNot(Pred("Ez")), "Sz+") == QTruth.FALSE


def _swapped_theta(qm):
    theta = dict(qm.theta)
    theta["Ez"], theta["Ex"] = theta["Ex"], theta["Ez"]
    return replace(qm, theta=theta)


def _reordered_states(qm):
    """The model with its states listed in reverse: the same theta, read
    through another state order."""
    m = qm.model
    return replace(qm, model=Model(m.predicates, m.states[::-1], dict(m.universe_sizes),
                                   dict(m.extensions)))


def _fewer_states(qm):
    """The model without state Sz+: theta still names it, q_truth no longer
    accepts it."""
    m = qm.model
    states = tuple(s for s in m.states if s != "Sz+")
    extensions = {key: ext for key, ext in m.extensions.items() if key[0] != "Sz+"}
    return replace(qm, model=Model(m.predicates, states, {s: 4 for s in states}, extensions))


EDITS = {
    "replace-theta": _swapped_theta,
    "replace-model-reordered": _reordered_states,
    "replace-model-fewer-states": _fewer_states,
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda qm: pickle.loads(pickle.dumps(qm)),
    "copy-of-replace-theta": lambda qm: copy.copy(_swapped_theta(qm)),
    "pickle-of-replace-theta": lambda qm: pickle.loads(pickle.dumps(_swapped_theta(qm))),
}


@pytest.mark.parametrize("edit", sorted(EDITS))
def test_q_truth_reads_the_theta_it_was_given(worked_spec, edit):
    """After the original has answered, so that whatever it keeps is
    filled, every edited copy answers from its own theta and states."""
    qm = build_model(worked_spec)
    formulas = [Pred("Ez"), Pred("Ex"), QNot(Pred("Ez")), QOr(Pred("Ez"), Pred("Ex"))]
    states = ("Sz+", "Sz-", "Sx+", "Sx-", "Nowhere")
    before = [_outcome(q_truth, qm, f, s) for f in formulas for s in states]
    edited = EDITS[edit](qm)
    got = [_outcome(q_truth, edited, f, s) for f in formulas for s in states]
    assert got == [_outcome(reference.q_truth, edited, f, s) for f in formulas for s in states]
    assert [_outcome(q_truth, qm, f, s) for f in formulas for s in states] == before
    if edit.endswith("replace-theta"):
        assert got != before
        assert _outcome(q_truth, edited, Pred("Ez"), "Sx+") == QTruth.TRUE
    if edit == "replace-model-fewer-states":
        assert _outcome(q_truth, edited, Pred("Ez"), "Sz+") == (UnknownState, "Sz+")


# -- differential against the frozenset walk -------------------------------------------


def _outcome(evaluate, *args):
    try:
        return evaluate(*args)
    except QLogicError as err:
        return type(err), str(err)


@functools.lru_cache(maxsize=None)
def _built(name: str):
    path = SPEC_DIR / "worked_qm.json" if name == "worked_qm" else DATA_DIR / f"{name}.json"
    return build_model(load_spec(path))


def _trees(names):
    """Formulas over the names and, now and then, an unknown leaf, with
    classical and quantum connectives mixed at any height."""
    leaves = st.sampled_from([Pred(n) for n in (*names, *names, "Unknown")])

    def extend(children):
        classical = (
            st.builds(Not, children),
            st.builds(And, children, children),
            st.builds(Or, children, children),
        )
        quantum = (
            st.builds(QNot, children),
            st.builds(QAnd, children, children),
            st.builds(QOr, children, children),
            st.builds(QImp, children, children),
        )
        return st.one_of(*classical, *quantum)

    return st.recursive(leaves, extend, max_leaves=6)


@st.composite
def _variants(draw):
    """A built model, maybe with one property pair given another's
    extensions and some theta entries toggled, then maybe copied or
    pickled."""
    qm = _built(draw(st.sampled_from(["worked_qm", "gen_qm_seed11"])))
    states, names = qm.model.states, qm.predicate_names
    if draw(st.booleans()):  # target and its partner take source's and its partner's
        source, target = draw(st.permutations([name for name, _ in qm.spec.properties]))[:2]
        partner = {name: names[qm.lattice.ortho[i]] for i, name in enumerate(names)}
        ext = qm.model.extensions
        qm = with_extensions(qm, {
            (s, b): ext[(s, a)]
            for s in states
            for a, b in ((source, target), (partner[source], partner[target]))
        })
    toggles = draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(states)), max_size=4))
    if toggles:
        theta = dict(qm.theta)
        for name, state in toggles:
            theta[name] = theta[name] ^ {state}
        qm = replace(qm, theta=theta)
    twin = draw(st.sampled_from(["self", "copy", "pickle"]))
    if twin == "copy":
        qm = copy.copy(qm)
    elif twin == "pickle":
        qm = pickle.loads(pickle.dumps(qm))
    return qm


@settings(max_examples=120, deadline=None)
@given(_variants(), st.data())
def test_read_path_agrees_with_the_frozenset_walk(qm, data):
    """Formulas asked about in turn, each at several states and pairs, some
    outside the model: every verdict, truth value and error is the
    reference's."""
    m = qm.model
    trees = _trees(qm.predicate_names)
    states = st.sampled_from([*m.states, "Nowhere"])
    for f in data.draw(st.lists(trees, min_size=1, max_size=3)):
        for state in data.draw(st.lists(states, min_size=1, max_size=4)):
            assert _outcome(q_truth, qm, f, state) == _outcome(reference.q_truth, qm, f, state)
            for obj in data.draw(st.lists(st.integers(-1, 4), min_size=1, max_size=3)):
                assert _outcome(eval_open, m, f, state, obj) == _outcome(
                    reference.eval_open, m, f, state, obj
                )
