from __future__ import annotations

import copy
import gc
import json
import math
import pickle
import random
import time
import tracemalloc
import weakref
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction
from itertools import count

import pytest

from qlogic import bridge, hilbert, lattice
from qlogic.bridge import (
    QMModelSpec,
    QTruth,
    QuantumModel,
    _reachable_elements,
    build_model,
    check_q_trichotomy,
    check_qmt,
    check_quantum_equivalences,
    load_spec,
    lt_quotient_check,
    q_truth,
    reduce_qwff,
    spec_from_dict,
    spec_to_dict,
    states_separate,
)
from qlogic.bridge import testable_proposition_poset as proposition_poset_of
from qlogic.cli import main
from qlogic.errors import (
    DimensionMismatch,
    ModelValidationError,
    NotTestable,
    PostconditionFailed,
    UniverseTooSmall,
    ZeroVector,
)
from qlogic.formulas import And, Pred, QAnd, QImp, QNot, QOr, parse, render
from qlogic.generate import random_qm_spec
from qlogic.hilbert import Subspace, born, join, leq, meet, ortho
from qlogic.models import Model, SignatureSpace, eval_open
from qlogic.propositions import testable as find_witness

import hilbert_reference as reference
from conftest import (
    DATA_DIR,
    SPEC_DIR,
    gr,
    physical_proposition,
    qm_corpus_draws,
    signature,
    suite_line,
    tau_eval,
    with_extension,
    with_extensions,
    without_state,
)
from formula_reference import enumerate_formulas


def _equivalences(qm, space):
    return check_quantum_equivalences(qm, space, _reachable_elements(qm))


def _trichotomy(qm, space):
    return check_q_trichotomy(qm, space, _reachable_elements(qm))


def test_worked_build_theta_and_extensions(worked_qm):
    qm = worked_qm
    assert len(qm.lattice) == 6
    assert qm.theta["Ez"] == frozenset({"Sz+"})
    assert qm.theta["Ex"] == frozenset({"Sx+"})
    # born oracle + clamp rule: p = 1/2 at Sx+, k = clamp(round(4/2), 1, 3) = 2
    p = born((gr(1), gr(1)), qm.lattice.elements[qm.element_index["Ez"]])
    assert p == Fraction(1, 2)
    assert qm.model.extensions[("Sx+", "Ez")] == frozenset({0, 1})
    assert qm.model.extensions[("Sx+", "Ez_perp")] == frozenset({2, 3})


def test_worked_signature_of_two_state_variant(worked_spec):
    # restriction of the worked data to the Sz+/Sx+ states
    spec = QMModelSpec(
        dim=2,
        states=tuple(s for s in worked_spec.states if s[0] in ("Sz+", "Sx+")),
        properties=worked_spec.properties,
        universe_size=4,
        closure_cap=512,
    )
    qm = build_model(spec)
    assert signature(qm.model, Pred("Ez")) == frozenset(
        {("Sz+", 0), ("Sz+", 1), ("Sz+", 2), ("Sz+", 3), ("Sx+", 0), ("Sx+", 1)}
    )


def test_qmt_holds_by_construction(worked_qm):
    for name in worked_qm.predicate_names:
        prop = physical_proposition(worked_qm.model, Pred(name))
        assert prop == worked_qm.theta[name]
    assert not check_qmt(worked_qm, SignatureSpace(worked_qm.model)).violations


def test_universe_too_small_only_when_fraction_needed():
    # with only the aligned state, probabilities stay 0/1 and n=1 is fine
    ok = QMModelSpec(
        dim=2,
        states=(("Sz+", (gr(1), gr(0))),),
        properties=(("Ez", Subspace.span([(gr(1), gr(0))])),),
        universe_size=1,
    )
    build_model(ok)
    # adding a skew line forces a strict fraction, which n=1 cannot host
    bad = QMModelSpec(
        dim=2,
        states=(("Sz+", (gr(1), gr(0))),),
        properties=(
            ("Ez", Subspace.span([(gr(1), gr(0))])),
            ("Ex", Subspace.span([(gr(1), gr(1))])),
        ),
        universe_size=1,
    )
    with pytest.raises(UniverseTooSmall):
        build_model(bad)


def test_build_on_a_large_universe_meets_its_budget(worked_spec):
    """The build makes the prefix set and its rest for each count k it
    meets, on first use: a table over every k in 0..n would hold about
    3 * 10^8 entries at n = 25 000.  Each extension is still the rule's
    range(k), with k read here from the probability, and its partner's the
    complement.  The build takes about 0.05 s on a shared 2-CPU VM."""
    n = 25_000
    start = time.perf_counter()
    qm = build_model(replace(worked_spec, universe_size=n))
    assert time.perf_counter() - start < 1.0
    full, names = frozenset(range(n)), qm.predicate_names
    order = bridge._table_order(qm.spec, qm.lattice, qm.element_index)
    for i, j in bridge._primary_pairs(qm.lattice, order):
        for s, _ in worked_spec.states:
            p = qm.probabilities[(s, names[i])]
            k = int(n * p)
            if p not in (0, 1):
                k = min(max(math.floor(n * p + Fraction(1, 2)), 1), n - 1)
            assert qm.model.extensions[(s, names[i])] == frozenset(range(k))
            assert qm.model.extensions[(s, names[j])] == full - frozenset(range(k))


def test_signature_on_a_large_universe_meets_its_budget(worked_spec):
    """``signature`` reads the mask's bits once, block by block: at
    universe 200 000 (800 000 pairs) Ez's 400 000 pairs take about 0.25 s
    on a shared 2-CPU VM, nearly all of it making the frozenset.  Reading
    bit i as ``mask >> i`` copied the mask once per pair: 12 s there."""
    n = 200_000
    m = build_model(replace(worked_spec, universe_size=n)).model
    start = time.perf_counter()
    sig = signature(m, Pred("Ez"))
    assert time.perf_counter() - start < 5.0
    assert len(sig) == 2 * n
    assert sig == {(s, u) for s in m.states for u in m.extensions[(s, "Ez")]}


def test_build_on_a_large_universe_keeps_no_object_per_pair(worked_spec):
    """The model's index is a bit per (state, object) pair and a record per
    state: at universe 200 000 the build's traced peak is about 52 MB.  A
    tuple per pair and a dict from each back to its bit took it to 216 MB."""
    spec = replace(worked_spec, universe_size=200_000)
    tracemalloc.start()
    try:
        build_model(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000_000


def test_rule_extension_rounds_half_up_exactly():
    """floor(n p + 1/2), clamped to [1, n - 1], for every n <= 8 and every
    p = a/b with 0 <= a <= b <= 12, against Fraction arithmetic."""
    for n in range(1, 9):
        for b in range(1, 13):
            for a in range(b + 1):
                p = Fraction(a, b)
                if p in (0, 1):
                    assert bridge._rule_count(p, n, "E", "S") == int(n * p)
                elif n < 2:
                    with pytest.raises(UniverseTooSmall):
                        bridge._rule_count(p, n, "E", "S")
                else:
                    k = min(max(math.floor(n * p + Fraction(1, 2)), 1), n - 1)
                    assert bridge._rule_count(p, n, "E", "S") == k


def test_spec_validation():
    with pytest.raises(ZeroVector):
        QMModelSpec(dim=2, states=(("S", (gr(0), gr(0))),), properties=())
    with pytest.raises(DimensionMismatch):
        QMModelSpec(dim=3, states=(("S", (gr(1), gr(0))),), properties=())
    with pytest.raises(ModelValidationError):
        QMModelSpec(
            dim=2,
            states=(("S", (gr(1), gr(0))),),
            properties=(
                ("A", Subspace.span([(gr(1), gr(0))])),
                ("B", Subspace.span([(gr(2), gr(0))])),  # same line, two names
            ),
        )


def test_spec_dict_round_trip(worked_spec):
    data = spec_to_dict(worked_spec)
    again = spec_from_dict(json.loads(json.dumps(data)))
    assert spec_to_dict(again) == data


def test_reduce_examples(worked_qm):
    qm = worked_qm
    assert reduce_qwff(qm, QNot(Pred("Ez"))) == "Ez_perp"
    zero_pred = reduce_qwff(qm, QAnd(Pred("Ez"), Pred("Ex")))
    assert qm.lattice.elements[qm.element_index[zero_pred]].dim == 0
    full_pred = reduce_qwff(qm, QOr(Pred("Ez"), Pred("Ez_perp")))
    assert qm.lattice.elements[qm.element_index[full_pred]].dim == 2


def test_reduce_sasaki_definition(worked_qm):
    qm = worked_qm
    for a in ("Ez", "Ex"):
        for b in ("Ez_perp", "Ex"):
            lhs = reduce_qwff(qm, QImp(Pred(a), Pred(b)))
            rhs = reduce_qwff(qm, QOr(QNot(Pred(a)), QAnd(Pred(a), Pred(b))))
            assert lhs == rhs


def test_reduce_mixed_with_testable_classical_subtree(worked_qm):
    # the classical subtree (Ez & Ez) shares its signature with Ez
    assert reduce_qwff(worked_qm, QNot(And(Pred("Ez"), Pred("Ez")))) == "Ez_perp"


def test_reduce_rejects_untestable_classical_subtree(worked_qm):
    with pytest.raises(NotTestable):
        reduce_qwff(worked_qm, QNot(And(Pred("Ez"), Pred("Ex"))))


def test_reduce_rejects_classical_over_quantum(worked_qm):
    with pytest.raises(NotTestable):
        reduce_qwff(worked_qm, And(QNot(Pred("Ez")), Pred("Ex")))


def test_tau_eval_examples(worked_qm):
    qm = worked_qm
    assert tau_eval(qm, Pred("Ez"), "Sz+", 0) is True
    for s in qm.model.states:
        for u in range(4):
            assert tau_eval(qm, QAnd(Pred("Ez"), Pred("Ex")), s, u) is False
            assert tau_eval(qm, QOr(Pred("Ez"), Pred("Ez_perp")), s, u) is True


def test_tau_agrees_with_classical_eval_on_testable(worked_qm):
    qm = worked_qm
    for name in qm.predicate_names:
        f = Pred(name)
        for s in qm.model.states:
            for u in range(4):
                assert tau_eval(qm, f, s, u) == eval_open(qm.model, f, s, u)


def test_q_truth_examples(worked_qm):
    assert q_truth(worked_qm, Pred("Ez"), "Sz+") == QTruth.TRUE
    assert q_truth(worked_qm, Pred("Ez"), "Sz-") == QTruth.FALSE
    assert q_truth(worked_qm, Pred("Ez"), "Sx+") == QTruth.INDETERMINATE


def test_q_falsehood_is_negated_truth(worked_qm):
    for name in ("Ez", "Ex", "Ez_perp"):
        for s in worked_qm.model.states:
            false_here = q_truth(worked_qm, Pred(name), s) == QTruth.FALSE
            neg_true = q_truth(worked_qm, QNot(Pred(name)), s) == QTruth.TRUE
            assert false_here == neg_true


def test_qmn_signature_complement(worked_qm):
    qm = worked_qm
    space = SignatureSpace(qm.model)
    for i, name in enumerate(qm.predicate_names):
        partner = qm.predicate_names[qm.lattice.ortho[i]]
        assert space.pred_masks[partner] == space.omega & ~space.pred_masks[name]


def test_check_qmt_detects_full_extension_where_half(worked_qm):
    qm = with_extension(worked_qm, "Sx+", "Ez", range(4))
    report = check_qmt(qm, SignatureSpace(qm.model))
    assert report.violations
    assert any("Sx+" in v and "Ez" in v for v in report.witnesses)


def test_build_postcondition_raises_on_a_corrupted_extension(worked_spec, monkeypatch):
    original = bridge._rule_count
    calls = []

    def corrupt_first(p, n, predicate, state):
        k = original(p, n, predicate, state)
        calls.append(predicate)
        if len(calls) == 1:  # flip certain truth of one extension
            return n - 1 if k == n else n
        return k

    monkeypatch.setattr(bridge, "_rule_count", corrupt_first)
    with pytest.raises(PostconditionFailed, match="certain truth differs from theta"):
        build_model(worked_spec)


def test_check_qmt_detects_any_single_extension_edit(worked_qm):
    original = worked_qm.model.extensions[("Sx+", "Ex_perp")]
    qm = with_extension(worked_qm, "Sx+", "Ex_perp", original | {3})
    assert check_qmt(qm, SignatureSpace(qm.model)).violations


def test_equiv_coincidence_on_worked_spec(worked_qm):
    report = suite_line(
        _equivalences(worked_qm, SignatureSpace(worked_qm.model)), "equivalence-coincidence"
    )
    assert not report.violations and report.checked == 15


def test_equiv_coincidence_fails_without_separating_states(worked_spec):
    # dropping the Sx- state leaves the zero subspace and Ex_perp with the
    # same (empty) proposition while their signatures differ
    qm = build_model(without_state(worked_spec, "Sx-"))
    space = SignatureSpace(qm.model)
    assert not states_separate(qm, space)
    report = suite_line(_equivalences(qm, space), "equivalence-coincidence")
    assert report.violations
    assert lt_quotient_check(qm, space).info["status"] == "isomorphic"  # signatures still separate


def test_quantum_equivalences_on_worked_spec(worked_qm):
    space = SignatureSpace(worked_qm.model)
    report = {suite.suite: suite for suite in _equivalences(worked_qm, space)}
    assert not any(suite.violations for suite in report.values())
    assert report["quantum-demorgan"].checked == 36
    assert report["quantum-implication"].checked == 36
    # conjunction footnote witnessed
    assert report["conjunction-signature-gap"].info["witnesses_found"]
    assert report["join-image"].info["strict"] > 0


@pytest.mark.parametrize(
    "source,gaps",
    [(SPEC_DIR / "worked_qm.json", 8), (DATA_DIR / "gen_qm_seed11.json", 168)],
    ids=["worked_qm", "gen_qm_seed11"],
)
def test_signature_gap_counts_every_pair(source, gaps):
    """witnesses_found counts every ordered pair of testable classes whose
    classical and quantum conjunctions share a proposition but not a
    signature, recounted here from frozensets and formulas."""
    qm = build_model(load_spec(source))
    space = SignatureSpace(qm.model)
    reps = list(space.witnesses().values())
    found = []
    for a in reps:
        for b in reps:
            classical = And(Pred(a), Pred(b))
            quantum = Pred(reduce_qwff(qm, QAnd(Pred(a), Pred(b))))
            p_classical = physical_proposition(qm.model, classical)
            sig_classical = signature(qm.model, classical)
            if p_classical == qm.theta[quantum.name] and sig_classical != signature(qm.model, quantum):
                found.append(f"{a} & {b}")
    gap = suite_line(_equivalences(qm, space), "conjunction-signature-gap")
    assert gap.info == {
        "witnesses_found": gaps,
        "example": f"{found[0]}: same proposition, different signatures",
    }
    assert len(found) == gaps


def test_join_image_strictly_above_union(worked_qm):
    qm = worked_qm
    p_union = qm.theta["Ez"] | qm.theta["Ex"]
    joined = reduce_qwff(qm, QOr(Pred("Ez"), Pred("Ex")))
    assert p_union < qm.theta[joined]
    assert qm.theta[joined] == frozenset(qm.model.states)


def test_conjunction_footnote_values(worked_qm):
    qm = worked_qm
    classical = And(Pred("Ez"), Pred("Ex"))
    quantum = QAnd(Pred("Ez"), Pred("Ex"))
    p_classical = physical_proposition(qm.model, classical)
    p_quantum = qm.theta[reduce_qwff(qm, quantum)]
    assert p_classical == p_quantum == frozenset()
    qpred = reduce_qwff(qm, quantum)
    assert signature(qm.model, classical) != signature(qm.model, Pred(qpred))
    # the classical conjunction is not itself p-testable here
    assert find_witness(qm.model, classical, scope="properties") is None


def test_trichotomy_on_worked_spec(worked_qm):
    report = _trichotomy(worked_qm, SignatureSpace(worked_qm.model))
    assert not report.violations
    assert report.checked > 0


def test_monotonicity_of_theta(worked_qm):
    qm = worked_qm
    for i in range(len(qm.lattice)):
        for j in range(len(qm.lattice)):
            if leq(qm.lattice.elements[i], qm.lattice.elements[j]):
                assert qm.theta[qm.predicate_names[i]] <= qm.theta[qm.predicate_names[j]]


def test_lt_quotient_isomorphic_on_worked_spec(worked_qm):
    report = lt_quotient_check(worked_qm, SignatureSpace(worked_qm.model))
    assert report.info == {"status": "isomorphic"}


def test_lt_quotient_reports_an_edited_extension(worked_qm):
    original = worked_qm.model.extensions[("Sx+", "Ex_perp")]
    qm = with_extension(worked_qm, "Sx+", "Ex_perp", original | {3})
    report = lt_quotient_check(qm, SignatureSpace(qm.model))
    assert report.info == {"status": "mismatch"}
    assert report.violations == 1 and report.witnesses[0].startswith("ortho at ")


def test_lt_quotient_degenerate_when_signatures_collide():
    # one state, two distinct non-orthogonal lines with equal projection
    # probability: the rounding rule gives both the same extensions
    spec = QMModelSpec(
        dim=2,
        states=(("S", (gr(1), gr(0))),),
        properties=(
            ("A", Subspace.span([(gr(1), gr(1))])),
            ("B", Subspace.span([(gr(1), gr(0, 1))])),
        ),
        universe_size=4,
    )
    qm = build_model(spec)
    report = lt_quotient_check(qm, SignatureSpace(qm.model))
    assert report.info == {"status": "degenerate"}
    assert report.violations == 0 and not report.witnesses


def test_testable_proposition_poset_orthocomplement(worked_qm):
    poset = proposition_poset_of(worked_qm)
    assert poset.orthocomplement is not None
    for src, dst in poset.orthocomplement.items():
        assert poset.orthocomplement[dst] == src  # involution on the image


@pytest.mark.parametrize("state", ["Sz+", "Sz-", "Sx+", "Sx-"])
def test_testable_proposition_poset_leaves_an_ill_defined_complement_off(worked_spec, state):
    """Without one of its states the worked spec's six elements have five
    propositions, and two elements that share one have partners that do
    not, so no complement is attached."""
    qm = build_model(without_state(worked_spec, state))
    assert len(qm.lattice) == 6
    poset = proposition_poset_of(qm)
    assert len(poset.elements) == 5
    assert poset.orthocomplement is None


def test_states_separate_worked_spec(worked_qm):
    assert states_separate(worked_qm, SignatureSpace(worked_qm.model))


def test_tau_agrees_on_composite_testable_formula(worked_qm):
    composite = And(Pred("Ez"), Pred("Ez"))  # testable with witness Ez
    for s in worked_qm.model.states:
        for u in range(4):
            assert tau_eval(worked_qm, composite, s, u) == eval_open(
                worked_qm.model, composite, s, u
            )


def test_quantum_reachable_elements_match_literal_enumeration(worked_qm):
    """The sweep's elements are those of every qwff up to the first depth
    that adds none, after which no depth can add one."""
    input_names = [name for name, _ in worked_qm.spec.properties]
    literal: set[int] = set()
    for depth_cap in count():
        before = set(literal)
        for f in enumerate_formulas(input_names, depth_cap, "quantum"):
            literal.add(worked_qm.element_index[reduce_qwff(worked_qm, f)])
        if depth_cap and literal == before:
            break
    assert set(_reachable_elements(worked_qm)) == literal


def test_reduce_qwff_matches_direct_subspace_operations():
    # each qwff's subspace computed on the spec's own subspaces, no lattice tables
    spec = load_spec(DATA_DIR / "gen_qm_seed11.json")
    qm = build_model(spec)
    direct = {Pred(name): sub for name, sub in spec.properties}

    def subspace_of(f):
        if f not in direct:
            if isinstance(f, QNot):
                direct[f] = ortho(subspace_of(f.child))
            else:
                a, b = subspace_of(f.left), subspace_of(f.right)
                if isinstance(f, QAnd):
                    direct[f] = meet(a, b)
                elif isinstance(f, QOr):
                    direct[f] = join(a, b)
                else:
                    direct[f] = join(ortho(a), meet(a, b))
        return direct[f]

    names = [name for name, _ in spec.properties]
    reached = set()
    for f in enumerate_formulas(names, 2, "quantum"):
        element = qm.element_index[reduce_qwff(qm, f)]
        assert qm.lattice.elements[element] == subspace_of(f), render(f)
        reached.add(element)
    assert len(reached) > len(names) + 2


def test_trichotomy_flags_a_state_certain_both_ways(worked_qm):
    rng = random.Random("trichotomy-control")
    space = SignatureSpace(worked_qm.model)
    certain = [
        (name, s) for name in worked_qm.predicate_names for s in sorted(worked_qm.theta[name])
    ]
    for name, state in rng.sample(certain, 4):
        partner = worked_qm.predicate_names[worked_qm.lattice.ortho[worked_qm.element_index[name]]]
        theta = dict(worked_qm.theta)
        theta[partner] = theta[partner] | {state}
        report = _trichotomy(replace(worked_qm, theta=theta), space)
        assert report.violations
        assert any(v.endswith(f"both certain in {state}") for v in report.witnesses)
    assert not _trichotomy(worked_qm, space).violations


def _corrupted_for_trichotomy(worked_qm):
    """Ex given Ez's extensions, Ez_perp made certain where Ez is and
    Ex_perp where Ex is."""
    qm = with_extensions(
        worked_qm, {(s, "Ex"): worked_qm.model.extensions[(s, "Ez")] for s in worked_qm.model.states}
    )
    theta = dict(qm.theta)
    theta["Ez_perp"] = theta["Ez_perp"] | {"Sz+", "Sx+"}
    theta["Ex_perp"] = theta["Ex_perp"] | {"Sx+"}
    return replace(qm, theta=theta)


def test_trichotomy_witnesses_of_a_corrupted_build(worked_qm):
    """Every witness kind, each in more than one state, in the order the
    suite walks elements and states.  Ex is given Ez's extensions, so a
    leaf Ex reduces through its witness Ez and its verdicts are Ez's ("got");
    Ez_perp is made certain where Ez is, and Ex_perp where Ex is ("both
    certain"), which also makes falsehood disagree with negated truth."""
    qm = _corrupted_for_trichotomy(worked_qm)
    report = _trichotomy(qm, SignatureSpace(qm.model))
    assert (report.checked, report.violations) == (24, 12)
    assert report.witnesses == [
        "Ez both certain in Sz+",
        "Ez in Sz+: falsehood and negated truth disagree",
        "Ez_perp both certain in Sz+",
        "Ez_perp in Sz+: falsehood and negated truth disagree",
        "Ex in Sz+: got Q-true",
        "Ex in Sz+: falsehood and negated truth disagree",
        "Ex in Sz-: got Q-false",
        "Ex both certain in Sx+",
        "Ex in Sx+: got Q-false",
        "Ex in Sx-: got Q-indeterminate",
        "Ex_perp both certain in Sx+",
        "Ex_perp in Sx+: falsehood and negated truth disagree",
    ]


def test_trichotomy_walks_only_the_states_of_a_fault(worked_qm, monkeypatch):
    """The fault mask is an exact filter: clean builds read no verdict state
    by state, and the corrupted build reads three, the element's, theta's
    and the negation's, per (formula, state) pair that has a witness."""
    calls = []
    verdict = bridge._verdict

    def counting_verdict(qm, element, bit):
        calls.append((element, bit))
        return verdict(qm, element, bit)

    monkeypatch.setattr(bridge, "_verdict", counting_verdict)
    for qm in (worked_qm, build_model(load_spec(DATA_DIR / "gen_qm_seed11.json"))):
        assert not _trichotomy(qm, SignatureSpace(qm.model)).violations
    assert calls == []
    qm = _corrupted_for_trichotomy(worked_qm)
    report = _trichotomy(qm, SignatureSpace(qm.model))
    faulty = {(w.split()[0], w.split(" in ")[1].split(":")[0]) for w in report.witnesses}
    assert faulty == {
        ("Ez", "Sz+"),
        ("Ez_perp", "Sz+"),
        ("Ex", "Sz+"),
        ("Ex", "Sz-"),
        ("Ex", "Sx+"),
        ("Ex", "Sx-"),
        ("Ex_perp", "Sx+"),
    }
    assert len(calls) == 3 * len(faulty)


def test_quantum_equivalences_flag_a_corrupted_meet_entry(worked_qm):
    rng = random.Random("meet-control")
    lat = worked_qm.lattice
    space = SignatureSpace(worked_qm.model)
    for _ in range(4):
        a, b = rng.randrange(len(lat)), rng.randrange(len(lat))
        rows = [list(row) for row in lat.meet]
        rows[a][b] = rng.choice([k for k in range(len(lat)) if k != lat.meet[a][b]])
        corrupted = replace(lat, meet=tuple(tuple(row) for row in rows))
        report = _equivalences(replace(worked_qm, lattice=corrupted), space)
        meet_image = next(suite for suite in report if suite.suite == "meet-image")
        names = worked_qm.predicate_names
        assert f"{names[a]} / {names[b]}" in meet_image.witnesses
    assert not any(suite.violations for suite in _equivalences(worked_qm, space))


@pytest.mark.parametrize(
    "source",
    [SPEC_DIR / "worked_qm.json", DATA_DIR / "gen_qm_seed11.json", (3, 2), (3, 3), (4, 2)],
    ids=["worked_qm", "gen_qm_seed11", "gen-3-2", "gen-3-3", "gen-4-2"],
)
def test_recorded_probabilities_match_born(source):
    """The build reads each state's integer row once and shares born's row
    kernel; what it records must equal the public born and the slow
    Fraction-based reference, for every primary predicate and state."""
    if isinstance(source, tuple):
        specs = [random_qm_spec(seed, *source, 3)[0] for seed in range(4)]
    else:
        specs = [load_spec(source)]
    for spec in specs:
        qm = build_model(spec)
        vectors = dict(spec.states)
        assert len(qm.probabilities) == len(spec.states) * len(qm.lattice) // 2
        for (state, name), p in qm.probabilities.items():
            element = qm.lattice.elements[qm.element_index[name]]
            assert p == born(vectors[state], element)
            assert p == reference.born(vectors[state], element.basis)


@pytest.mark.parametrize("dim,props,seed", qm_corpus_draws(1, 4))
def test_gen_check_builds_a_fraction_only_for_each_uncertain_probability(
    dim, props, seed, tmp_path, monkeypatch, capsys
):
    """Scalars go from the drawn and parsed literals to the kernel rows as
    integer parts, so ``gen`` then ``check`` on a spec of the seed-1
    benchmark corpus constructs one Fraction per recorded probability
    strictly between 0 and 1, and no other (certain ones are shared
    constants)."""
    path = tmp_path / "spec.json"
    made = [0]
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made[0] += 1
        return new(cls, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(Fraction, "__new__", counting)
        assert main(["gen", "--kind", "qm", "--seed", str(seed), "--dim", str(dim),
                     "--properties", str(props), "--cap", "64", "--out", str(path)]) == 0
        assert main(["check", "--qm-spec", str(path), "--depth", "3"]) == 0
    capsys.readouterr()
    probabilities = build_model(load_spec(path)).probabilities.values()
    assert made[0] == sum(0 < p < 1 for p in probabilities) > 0


# -- one reduction per query -------------------------------------------------------


def test_a_formula_is_reduced_once_per_query(monkeypatch):
    """The element slot answers every call about the formula object it
    holds: a verdict in each of 15 states, the reduced name and tau_eval
    reduce it once.  It matches by identity, so an equal formula parsed
    afresh is reduced again, to the same element, and takes the slot."""
    qm = build_model(load_spec(DATA_DIR / "gen_qm_seed11.json"))
    f = QImp(QAnd(Pred("E1"), QNot(Pred("E2"))), QOr(Pred("E3"), And(Pred("E1"), Pred("E1"))))
    reduce = bridge._reduce_element
    roots = []

    def counting(qm, space, g):
        if g == f:
            roots.append(g)
        return reduce(qm, space, g)

    monkeypatch.setattr(bridge, "_reduce_element", counting)
    verdicts = [q_truth(qm, f, s) for s in qm.model.states]
    name = reduce_qwff(qm, f)
    assert tau_eval(qm, f, "W1", 0) == eval_open(qm.model, Pred(name), "W1", 0)
    assert len(verdicts) == 15 and len(roots) == 1
    g = parse(render(f))
    assert reduce_qwff(qm, g) == name and q_truth(qm, g, qm.model.states[0]) == verdicts[0]
    assert len(roots) == 2 and qm._element_slot[0]() is g


def test_the_element_slot_keeps_no_formula_alive(worked_spec):
    """The slot holds the last formula weakly: it answers the next call
    about that formula, and a dropped formula leaves it."""
    qm = build_model(worked_spec)
    gc.disable()
    try:
        f = QOr(Pred("Ez"), QNot(Pred("Ex")))
        verdict = q_truth(qm, f, "Sz+")
        assert qm._element_slot[0]() is f
        assert q_truth(qm, f, "Sz+") == verdict
        ref = weakref.ref(f)
        del f
        assert ref() is None and qm._element_slot[0]() is None
    finally:
        gc.enable()


def _rebuilt(qm: QuantumModel, extensions) -> QuantumModel:
    """A model built fresh from ``qm``'s parts and the given extension table."""
    m = qm.model
    return QuantumModel(
        qm.spec,
        Model(m.predicates, m.states, dict(m.universe_sizes), extensions),
        qm.lattice,
        dict(qm.theta),
        qm.predicate_names,
        dict(qm.element_index),
        dict(qm.probabilities),
    )


def test_copies_reduce_against_their_own_model(worked_qm):
    """A reduction kept for one model never answers for another: copies made
    after the original reduced ~q Ex start an empty slot and answer as a
    model built fresh from their own table."""
    f = QNot(Pred("Ex"))
    states = worked_qm.model.states
    original = [q_truth(worked_qm, f, s) for s in states]
    assert worked_qm._element_slot[0]() is f
    for twin in (copy.copy(worked_qm), copy.deepcopy(worked_qm), pickle.loads(pickle.dumps(worked_qm))):
        assert twin == worked_qm and twin._element_slot[0]() is None
        assert [q_truth(twin, f, s) for s in states] == original

    # with_extension: with a full Ex in Sz+, Ex & Ex_perp is no longer empty
    # there, so no property has its signature and ~q(Ex & Ex_perp) is not
    # testable in the copy, though the original holds it Q-true everywhere
    g = QNot(And(Pred("Ex"), Pred("Ex_perp")))
    assert {q_truth(worked_qm, g, s) for s in states} == {QTruth.TRUE}
    edited = with_extension(worked_qm, "Sz+", "Ex", range(4))
    assert edited._element_slot[0]() is None
    with pytest.raises(NotTestable):
        q_truth(edited, g, "Sz-")

    # Ex and Ex_perp take the extensions of Ez and Ez_perp: ~q Ex reduces
    # through Ez's witness, so its verdicts become those of Ez_perp
    extensions = dict(worked_qm.model.extensions)
    for s in states:
        for target, source in (("Ex", "Ez"), ("Ex_perp", "Ez_perp")):
            extensions[(s, target)] = extensions[(s, source)]
    swapped = replace(worked_qm, model=_rebuilt(worked_qm, extensions).model)
    expected = [q_truth(_rebuilt(worked_qm, extensions), f, s) for s in states]
    assert expected == [q_truth(worked_qm, QNot(Pred("Ez")), s) for s in states] != original
    for qm in (swapped, copy.deepcopy(swapped), pickle.loads(pickle.dumps(swapped))):
        assert qm._element_slot[0]() is None
        assert [q_truth(qm, f, s) for s in states] == expected


def test_an_untestable_formula_raises_on_every_call(worked_qm):
    f = QNot(And(Pred("Ez"), Pred("Ex")))
    for _ in range(3):
        with pytest.raises(NotTestable):
            reduce_qwff(worked_qm, f)
        with pytest.raises(NotTestable):
            q_truth(worked_qm, f, "Sz+")
        with pytest.raises(NotTestable):
            tau_eval(worked_qm, f, "Sz+", 0)
    assert worked_qm._element_slot[0]() is not f


def test_the_lattice_under_a_model_cannot_be_edited_in_place(worked_qm):
    """QLattice is frozen like the model that holds it: setting the (Ex, Ez)
    meet entry to C^d in place would leave the element slot answering
    Ex &q Ez from the old table, so the assignment raises; replace builds
    an edited copy."""
    f = QAnd(Pred("Ex"), Pred("Ez"))
    name = reduce_qwff(worked_qm, f)
    lat = worked_qm.lattice
    rows = [list(row) for row in lat.meet]
    rows[worked_qm.element_index["Ex"]][worked_qm.element_index["Ez"]] = len(lat) - 1
    meet = tuple(map(tuple, rows))
    with pytest.raises(FrozenInstanceError):
        lat.meet = meet
    assert lat.meet != meet and reduce_qwff(worked_qm, parse(render(f))) == name
    assert replace(lat, meet=meet).meet == meet


def test_exact_work_counts_of_gen_check_on_seed11(monkeypatch):
    """Operation counts on gen_qm_seed11.json (16 elements, 15 states, 7
    line primaries), independent of the machine.  close makes 5 kernel
    joins (21 before it reused known joins and inclusions) and 4 null
    spaces.  Each of its 8 complement pairs is of 0 and C^3 or of a line
    and a plane; ortho writes the complements of 0, C^3 and lines in
    closed form, so only the 4 pairs close meets from the plane take a null space
    (8, one per pair, before the closed forms).  So it makes
    5 + 4 + 1 = 10 eliminations (14 before), the 1 for the zero subspace
    it starts from (the full one is built from identity rows, which are
    already reduced).  The build makes 127
    Gaussian-integer inner products and no elimination: one squared norm
    per state, one <u|u> per line primary and one per (line, state); the
    partner planes read 1 - born of their line, and the zero/full pair
    needs none.  Born values read once per (pair, state) took 225."""
    spec = load_spec(DATA_DIR / "gen_qm_seed11.json")
    counts = {"dot": 0, "reduce": 0, "nullspace": 0, "join": 0}

    def counting(module, name, key):
        original = getattr(module, name)

        def wrapper(*args):
            counts[key] += 1
            return original(*args)

        monkeypatch.setattr(module, name, wrapper)

    counting(hilbert, "_conj_dot", "dot")
    counting(hilbert, "_reduce", "reduce")
    counting(hilbert, "_nullspace", "nullspace")
    counting(lattice, "join", "join")
    lat = lattice.close([sub for _, sub in spec.properties], cap=spec.closure_cap, dim=spec.dim)
    assert (len(lat), counts["join"], counts["nullspace"], counts["reduce"]) == (16, 5, 4, 10)
    for key in counts:
        counts[key] = 0
    qm = bridge._model_from_lattice(spec, lat)
    order = bridge._table_order(spec, lat, qm.element_index)
    primary_dims = [lat.elements[i].dim for i, _ in bridge._primary_pairs(lat, order)]
    assert (len(spec.states), primary_dims.count(1)) == (15, 7)
    assert counts == {"dot": 15 + 7 + 7 * 15, "reduce": 0, "nullspace": 0, "join": 0}
