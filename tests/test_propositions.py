from __future__ import annotations

from dataclasses import astuple

import pytest
from hypothesis import given, settings, strategies as st

from qlogic import propositions
from qlogic.bridge import build_model, load_spec
from qlogic.cli import main
from qlogic.formulas import And, Not, Or, Pred
from qlogic.models import Model, PredicateInfo, SignatureSpace
from qlogic.propositions import check_connective_relations, cover_edges, proposition_poset
from qlogic.propositions import testable as find_witness

import suite_reference as reference
from conftest import (
    build_cm_model,
    eval_universal,
    physical_proposition,
    qm_corpus_draws,
    signature,
)
from formula_reference import enumerate_formulas


def test_proposition_cm_single_state():
    m = build_cm_model(["S1", "S2"], ["E"], {("S1", "E"): True}, 3)
    assert physical_proposition(m, Pred("E")) == frozenset({"S1"})


def test_proposition_tautology():
    m = build_cm_model(["S1", "S2"], ["E"], {("S1", "E"): True}, 3)
    assert physical_proposition(m, Or(Pred("E"), Not(Pred("E")))) == frozenset(
        {"S1", "S2"}
    )


def test_proposition_matches_universal_truth_oracle(worked_qm):
    # certainly-true state set recomputed object by object
    m = worked_qm.model
    for f in [Pred("Ez"), And(Pred("Ez"), Pred("Ex")), Or(Pred("Ez"), Pred("Ez_perp"))]:
        expected = frozenset(s for s in m.states if eval_universal(m, f, s))
        assert physical_proposition(m, f) == expected
    assert physical_proposition(m, Pred("Ez")) == frozenset({"Sz+"})


def test_proposition_equality_is_state_set_equality():
    m = build_cm_model(["S1"], ["E", "F"], {("S1", "E"): True, ("S1", "F"): True}, 2)
    assert physical_proposition(m, Pred("E")) == physical_proposition(m, Pred("F"))


def test_testable_self_witness():
    m = build_cm_model(["S1"], ["E"], {("S1", "E"): True}, 2)
    assert find_witness(m, Pred("E")) == "E"


def test_testable_effect_but_not_property():
    # G is an effect whose extension equals E meet F per state
    m = Model(
        predicates=(
            PredicateInfo("E", True),
            PredicateInfo("F", True),
            PredicateInfo("G", False),
        ),
        states=("S",),
        universe_sizes={"S": 3},
        extensions={
            ("S", "E"): frozenset({0, 1}),
            ("S", "F"): frozenset({1, 2}),
            ("S", "G"): frozenset({1}),
        },
    )
    conj = And(Pred("E"), Pred("F"))
    assert find_witness(m, conj, scope="effects") == "G"
    assert find_witness(m, conj, scope="properties") is None


def test_testable_contradiction_absent():
    # no predicate has an empty signature here, so nothing witnesses E & ~E
    m = build_cm_model(["S1", "S2"], ["E"], {("S1", "E"): True, ("S2", "E"): False}, 2)
    assert find_witness(m, And(Pred("E"), Not(Pred("E"))), scope="effects") is None
    # once some predicate is empty everywhere, it becomes the witness
    m2 = build_cm_model(["S1"], ["E"], {("S1", "E"): True}, 2)
    assert find_witness(m2, And(Pred("E"), Not(Pred("E"))), scope="effects") == "E_perp"


def test_properties_scope_implies_effects_scope(worked_qm):
    m = worked_qm.model
    for f in enumerate_formulas(["Ez", "Ex"], 2):
        prop_witness = find_witness(m, f, scope="properties")
        if prop_witness is not None:
            assert find_witness(m, f, scope="effects") is not None


def test_testable_scope_validation():
    m = build_cm_model(["S1"], ["E"], {("S1", "E"): True}, 2)
    with pytest.raises(ValueError):
        find_witness(m, Pred("E"), scope="anything")


def test_testable_matches_brute_force_witness_search():
    # the effect N shares E's extension and comes first in the table; the
    # properties F and G share one signature, the complement of E's
    m = Model(
        predicates=(
            PredicateInfo("N", False),
            PredicateInfo("E", True),
            PredicateInfo("F", True),
            PredicateInfo("G", True),
        ),
        states=("S1", "S2"),
        universe_sizes={"S1": 2, "S2": 3},
        extensions={
            ("S1", "N"): {0}, ("S2", "N"): {1, 2},
            ("S1", "E"): {0}, ("S2", "E"): {1, 2},
            ("S1", "F"): {1}, ("S2", "F"): {0},
            ("S1", "G"): {1}, ("S2", "G"): {0},
        },
    )

    def first_carrier(f, scope):
        target = signature(m, f)
        for p in m.predicates:
            if scope == "effects" or p.is_property:
                if signature(m, Pred(p.name)) == target:
                    return p.name
        return None

    found = {"effects": set(), "properties": set()}
    for f in enumerate_formulas(m.predicate_names(), 2):
        for scope in found:
            expected = first_carrier(f, scope)
            assert find_witness(m, f, scope) == expected, (f, scope)
            found[scope].add(expected)
    assert found == {"effects": {"N", "F", None}, "properties": {"E", "F", None}}


def test_poset_boolean_for_independent_cm_predicates(cm_two_states):
    formulas = list(enumerate_formulas(cm_two_states.property_names()[:4], 2))
    poset = proposition_poset(cm_two_states, formulas)
    assert poset.is_lattice
    assert len(poset.elements) <= 16


def test_poset_single_tautology():
    m = build_cm_model(["S1"], ["E"], {("S1", "E"): True}, 2)
    poset = proposition_poset(m, [Or(Pred("E"), Not(Pred("E")))])
    assert len(poset.elements) == 1
    assert poset.is_lattice


def test_poset_worked_spec_is_not_a_lattice(worked_qm):
    names = ["Ez", "Ez_perp", "Ex", "Ex_perp"]
    poset = proposition_poset(worked_qm.model, [Pred(n) for n in names])
    assert not poset.is_lattice
    elements = set(poset.elements)
    assert frozenset({"Sz+"}) in elements and frozenset({"Sx+"}) in elements
    i = poset.elements.index(frozenset({"Sz+"}))
    j = poset.elements.index(frozenset({"Sx+"}))
    assert poset.joins[(i, j)] is None  # no least upper bound without the top
    with_top = proposition_poset(
        worked_qm.model, [Pred(n) for n in names] + [Or(Pred("Ez"), Pred("Ez_perp"))]
    )
    k = with_top.elements.index(frozenset({"Sz+"}))
    l = with_top.elements.index(frozenset({"Sx+"}))
    assert with_top.joins[(k, l)] is not None


def test_cover_edges_of_diamond(cm_two_states):
    poset = proposition_poset(
        cm_two_states, list(enumerate_formulas(cm_two_states.property_names()[:4], 2))
    )
    n = len(poset.elements)
    ups = [sum(1 << j for j in range(n) if poset.meets[(i, j)] == i) for i in range(n)]
    edges = cover_edges(ups)
    bottom = poset.elements.index(frozenset())
    top = poset.elements.index(frozenset({"S1", "S2"}))
    assert all(i != top for i, _ in edges)
    assert all(j != bottom for _, j in edges)


def test_connective_relations_hold_on_cm(cm_two_states):
    negation, meet, join = check_connective_relations(SignatureSpace(cm_two_states))
    assert not (negation.violations or meet.violations or join.violations)
    assert meet.info == {"strict": 0}
    assert negation.info == {"strict": 0}  # CM collapse: all equalities
    assert join.info == {"strict": 0}


def test_connective_relations_strict_on_worked_spec(worked_qm):
    negation, meet, join = check_connective_relations(SignatureSpace(worked_qm.model))
    assert not (negation.violations or meet.violations or join.violations)
    assert join.info["strict"] > 0
    assert negation.info["strict"] > 0
    assert [s.suite for s in (negation, meet, join)] == [
        "connective-relation-negation", "connective-relation-meet", "connective-relation-join"
    ]


def test_join_strictness_witness_values(worked_qm):
    m = worked_qm.model
    p_or = physical_proposition(m, Or(Pred("Ez"), Pred("Ez_perp")))
    p_union = (
        physical_proposition(m, Pred("Ez"))
        | physical_proposition(m, Pred("Ez_perp"))
    )
    assert p_union == frozenset({"Sz+", "Sz-"})
    assert p_or == frozenset(m.states)
    assert p_union < p_or


def test_relations_agree_with_literal_enumeration():
    # the relations hold on a direct sweep over enumerated formula pairs,
    # and the census over classes counts what the brute force over every
    # pair of unions of atoms counts
    from qlogic.generate import random_classical_model

    for seed in (0, 3, 5):
        m = random_classical_model(seed, n_states=2, n_predicates=2, universe=3)
        space = SignatureSpace(m)
        census = check_connective_relations(space)
        want = reference.connective_relations(m)
        assert [(r.suite, r.checked, r.witnesses, r.info["strict"]) for r in census] == [
            astuple(t) for t in want
        ]
        states = frozenset(m.states)
        formulas = list(enumerate_formulas(m.predicate_names()[:2], 2))
        for f in formulas:
            pf = space.proposition(space.mask_of(f))
            p_not = space.proposition(space.mask_of(Not(f)))
            assert p_not <= states - pf
            for g in formulas:
                pg = space.proposition(space.mask_of(g))
                p_and = space.proposition(space.mask_of(And(f, g)))
                p_or = space.proposition(space.mask_of(Or(f, g)))
                assert p_and == pf & pg
                assert p_or >= pf | pg


# -- the census step against brute force -------------------------------------------


def _brute_plain_joins(groups: list[int]) -> int:
    """Ordered pairs (x, y) of sets of the groups' atoms, all 4**atoms of
    them, such that every group x | y holds is held by x or by y."""
    atoms = 0
    for g in groups:
        atoms |= g
    subsets = [x for x in range(atoms + 1) if not x & ~atoms]
    return sum(
        all(g & x == g or g & y == g for g in groups if g & (x | y) == g)
        for x in subsets
        for y in subsets
    )


@st.composite
def _group_families(draw):
    """2 to 6 distinct groups of 2 to 4 atoms over at most 6 atoms."""
    atoms = draw(st.integers(2, 6))
    group = st.lists(st.integers(0, atoms - 1), min_size=2, max_size=4, unique=True).map(
        lambda members: sum(1 << a for a in members)
    )
    return draw(st.lists(group, min_size=2, max_size=6, unique=True))


@settings(max_examples=200, deadline=None)
@given(_group_families())
def test_plain_joins_match_brute_force_on_random_group_families(groups):
    assert propositions._plain_joins(groups) == _brute_plain_joins(groups)


def test_plain_joins_match_brute_force_on_a_benchmark_spec(tmp_path, monkeypatch, capsys):
    """The census step on the groups of the first (3, 3) spec of the seed-1
    qm_corpus benchmark (8 atoms in 11 groups, one component), as the check
    of its three properties meets them, against the 4**8 pairs."""
    dim, props, seed = qm_corpus_draws(1, 1)[1]
    path = tmp_path / "spec.json"
    assert main(["gen", "--kind", "qm", "--seed", str(seed), "--dim", str(dim),
                 "--properties", str(props), "--cap", "64", "--out", str(path)]) == 0
    capsys.readouterr()
    spec = load_spec(path)
    calls = []
    plain_joins = propositions._plain_joins

    def recording(groups):
        calls.append(list(groups))
        return plain_joins(groups)

    monkeypatch.setattr(propositions, "_plain_joins", recording)
    check_connective_relations(
        SignatureSpace(build_model(spec).model), tuple(name for name, _ in spec.properties)
    )
    [groups] = calls
    atoms = 0
    for g in groups:
        atoms |= g
    assert (atoms.bit_count(), len(groups)) == (8, 11)
    assert plain_joins(groups) == _brute_plain_joins(groups) == 25_882
