from __future__ import annotations

import copy
import gc
import json
import pickle
import time
import weakref
from dataclasses import FrozenInstanceError, replace

import pytest
from hypothesis import given, settings, strategies as st

from qlogic import models
from qlogic.bridge import build_model, load_spec, reduce_qwff
from qlogic.errors import (
    ModelValidationError,
    NotTestable,
    ObjectOutOfRange,
    QuantumNodeInClassicalEval,
    UnknownPredicate,
    UnknownState,
)
from qlogic.formulas import (
    And,
    Not,
    Or,
    Pred,
    QAnd,
    QNot,
    QOr,
    parse,
    render,
)
from qlogic.generate import random_classical_model
from qlogic.models import (
    Model,
    PredicateInfo,
    SignatureSpace,
    boolean_law_violations,
    check_cms,
    check_cmt,
    eval_open,
    load_model,
    logical_leq,
    model_from_dict,
    model_to_dict,
    physical_leq,
)

import closure_reference
from conftest import DATA_DIR, SPEC_DIR, build_cm_model, eval_universal, signature, to_signature
from formula_reference import enumerate_formulas


def state_major_pairs(m: Model) -> list[tuple[str, int]]:
    """The model's (state, object) pairs, state by state in its state
    order, objects ascending: the order of its bits."""
    return [(s, u) for s in m.states for u in range(m.universe_sizes[s])]


def tiny_model() -> Model:
    return Model(
        predicates=(PredicateInfo("E"), PredicateInfo("F")),
        states=("S",),
        universe_sizes={"S": 3},
        extensions={("S", "E"): frozenset({0, 2}), ("S", "F"): frozenset({1, 2})},
    )


def test_eval_open_membership():
    m = tiny_model()
    assert eval_open(m, Pred("E"), "S", 0) is True
    assert eval_open(m, Not(Pred("E")), "S", 1) is True
    for u in range(3):
        assert eval_open(m, And(Pred("E"), Not(Pred("E"))), "S", u) is False


@pytest.mark.parametrize(
    "f,state,obj,outcome",
    [
        # a formula with no mask raises at every pair, whatever its other side
        (Or(Pred("E"), Pred("Unknown")), "S", 0, (UnknownPredicate, "Unknown")),
        (And(Pred("F"), Pred("Unknown")), "S", 0, (UnknownPredicate, "Unknown")),
        (And(Pred("F"), QNot(Pred("Unknown"))), "S", 0, (QuantumNodeInClassicalEval, "~qUnknown")),
        (Or(Pred("F"), Pred("Unknown")), "S", 0, (UnknownPredicate, "Unknown")),
        # the state and then the object are checked before any leaf
        (Pred("Unknown"), "T", 0, (UnknownState, "T")),
        (Pred("Unknown"), "S", 3, (ObjectOutOfRange, "object 3 outside universe of size 3 in 'S'")),
        (Pred("E"), "S", -1, (ObjectOutOfRange, "object -1 outside universe of size 3 in 'S'")),
        (And(Pred("E"), QNot(Pred("Unknown"))), "S", 0, (QuantumNodeInClassicalEval, "~qUnknown")),
        (Not(QOr(Pred("E"), Pred("F"))), "S", 1, (QuantumNodeInClassicalEval, "E |q F")),
        # an unknown state wins over an object out of range, which wins over the formula
        (Pred("Unknown"), "T", 7, (UnknownState, "T")),
        (And(Pred("E"), Pred("Unknown")), "T", 7, (UnknownState, "T")),
        (And(Pred("E"), Pred("Unknown")), "S", 7,
         (ObjectOutOfRange, "object 7 outside universe of size 3 in 'S'")),
    ],
)
def test_eval_open_reads_leaves_in_order_and_raises_where_it_did(f, state, obj, outcome):
    """The state, then the object, then the formula: a formula with no mask
    raises what ``signature`` raises, its leftmost fault, and leaves the
    slot empty."""
    m = tiny_model()
    if isinstance(outcome, bool):
        assert eval_open(m, f, state, obj) is outcome
        return
    error, message = outcome
    with pytest.raises(error) as err:
        eval_open(m, f, state, obj)
    assert str(err.value) == message
    assert m._eval_slot[0]() is None


def walk_eval_open(m: Model, f, state: str, obj: int) -> bool:
    """Reference: eval_open as a walk of the tree at each pair, the state
    and then the object checked first, connectives short-circuiting."""
    if state not in m.universe_sizes:
        raise UnknownState(state)
    n = m.universe_sizes[state]
    if not 0 <= obj < n:
        raise ObjectOutOfRange(f"object {obj} outside universe of size {n} in {state!r}")
    return _walk(m, f, state, obj)


def _walk(m: Model, f, state: str, obj: int) -> bool:
    if isinstance(f, Pred):
        try:
            return obj in m.extensions[(state, f.name)]
        except KeyError:
            raise UnknownPredicate(f.name) from None
    if isinstance(f, Not):
        return not _walk(m, f.child, state, obj)
    if isinstance(f, And):
        return _walk(m, f.left, state, obj) and _walk(m, f.right, state, obj)
    if isinstance(f, Or):
        return _walk(m, f.left, state, obj) or _walk(m, f.right, state, obj)
    raise QuantumNodeInClassicalEval(render(f))


def _outcome(evaluate, m, f, state, obj):
    try:
        return evaluate(m, f, state, obj)
    except (UnknownState, ObjectOutOfRange, UnknownPredicate, QuantumNodeInClassicalEval) as err:
        return type(err), str(err)


def _mask_fault(m: Model, f):
    """The error ``signature`` raises for a formula with no mask, else None."""
    try:
        signature(m, f)
    except (UnknownPredicate, QuantumNodeInClassicalEval) as err:
        return type(err), str(err)
    return None


def eval_trees(names):
    """Classical trees over the names and, now and then, an unknown leaf or
    a quantum node."""
    leaves = st.sampled_from([Pred(n) for n in (*names, *names, "Unknown")])

    def extend(children):
        classical = (
            st.builds(Not, children),
            st.builds(And, children, children),
            st.builds(Or, children, children),
        )
        quantum = st.builds(QNot, children) | st.builds(QAnd, children, children)
        return st.one_of(*classical, *classical, quantum)

    return st.recursive(leaves, extend, max_leaves=8)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_eval_open_agrees_with_the_per_pair_walk(data):
    """Three formulas asked about in turn, so the model's slot is replaced
    again and again, at random pairs, some outside the model, on the model
    and its copies: every answer and every error is the walk's, except
    that a formula with no mask raises at every pair of the model what
    ``signature`` raises.  A table that sizes a state left out of the
    state list builds no model."""
    predicates, states, sizes, extensions = data.draw(model_tables())
    if data.draw(st.booleans()):
        with pytest.raises(ModelValidationError, match="universe for unknown state 'T'"):
            Model(
                predicates, states, {**sizes, "T": 2},
                {**extensions, ("T", predicates[0].name): frozenset({1})},
            )
    m = Model(predicates, states, sizes, extensions)
    twins = [m, copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))]
    trees = eval_trees([p.name for p in predicates])
    f = data.draw(trees)
    formulas = [f, Not(f), data.draw(trees)]  # f and ~f differ at every pair
    listed = state_major_pairs(m)
    pairs = st.sampled_from(listed) | st.tuples(
        st.sampled_from([*states, "T", "Nowhere"]), st.integers(-1, 3)
    )
    faults = [_mask_fault(m, g) for g in formulas]
    queries = st.tuples(st.integers(0, 2), st.sampled_from(range(len(twins))), pairs)
    for k, twin, (state, obj) in data.draw(st.lists(queries, min_size=1, max_size=30)):
        g, model = formulas[k], twins[twin]
        expected = _outcome(walk_eval_open, model, g, state, obj)
        if faults[k] is not None and (state, obj) in listed:
            expected = faults[k]
        assert _outcome(eval_open, model, g, state, obj) == expected


def test_eval_open_forms_one_mask_and_no_space_for_a_query(monkeypatch):
    """A classical query with no property witness is answered by
    evaluation at all 45 pairs of a 15-state model; its mask is formed at
    the first and read at the other 44, and no SignatureSpace is built."""
    qm = build_model(load_spec(DATA_DIR / "gen_qm_seed11.json"))
    f = parse("~(E1 & E2) | E3")
    with pytest.raises(NotTestable):
        reduce_qwff(qm, f)
    roots, spaces = [], []
    mask = models._mask

    def counting(pred_masks, omega, g):
        if g is f:
            roots.append(g)
        return mask(pred_masks, omega, g)

    monkeypatch.setattr(models, "_mask", counting)
    monkeypatch.setattr(SignatureSpace, "__init__", lambda *args: spaces.append(args))
    m = qm.model
    values = [eval_open(m, f, s, u) for s in m.states for u in range(m.universe_sizes[s])]
    assert len(values) == 45 and len(roots) == 1 and spaces == []
    assert values == [walk_eval_open(m, f, s, u) for s, u in state_major_pairs(m)]


def test_the_eval_slot_keeps_no_formula_alive():
    m = tiny_model()
    gc.disable()
    try:
        f = And(Pred("E"), Not(Pred("F")))
        assert eval_open(m, f, "S", 0) is True
        assert m._eval_slot[0]() is f
        ref = weakref.ref(f)
        del f
        assert ref() is None and m._eval_slot[0]() is None
        g = And(Pred("E"), Not(Pred("F")))  # may reuse the address: the slot still misses
        assert eval_open(m, g, "S", 2) is False and m._eval_slot[0]() is g
    finally:
        gc.enable()


def test_eval_open_errors():
    m = tiny_model()
    with pytest.raises(ObjectOutOfRange):
        eval_open(m, Pred("E"), "S", 5)
    with pytest.raises(UnknownPredicate):
        eval_open(m, Pred("Z"), "S", 0)
    with pytest.raises(QuantumNodeInClassicalEval):
        eval_open(m, QAnd(Pred("E"), Pred("F")), "S", 0)


def test_eval_universal_gap_between_true_and_certain():
    m = Model(
        predicates=(PredicateInfo("E"),),
        states=("S1", "S2", "S3"),
        universe_sizes={"S1": 2, "S2": 1, "S3": 1},
        extensions={
            ("S1", "E"): frozenset({0}),
            ("S2", "E"): frozenset({0}),
            ("S3", "E"): frozenset(),
        },
    )
    assert eval_open(m, Pred("E"), "S1", 0) is True
    assert eval_universal(m, Pred("E"), "S1") is False
    assert eval_universal(m, Pred("E"), "S2") is True
    assert eval_universal(m, Pred("E"), "S3") is False


def test_signature_of_tautology_and_conjunction():
    m = tiny_model()
    omega = {("S", u) for u in range(3)}
    assert signature(m, Or(Pred("E"), Not(Pred("E")))) == omega
    assert signature(m, And(Pred("E"), Pred("F"))) == signature(m, Pred("E")) & signature(
        m, Pred("F")
    )


def test_signature_matches_pointwise_evaluation():
    m = tiny_model()
    for f in enumerate_formulas(["E", "F"], 2):
        expected = {
            ("S", u) for u in range(3) if eval_open(m, f, "S", u)
        }
        assert signature(m, f) == expected


def test_logical_vs_physical_preorder():
    m = tiny_model()
    assert logical_leq(m, And(Pred("E"), Pred("F")), Pred("E"))
    # physical holds vacuously while logical fails
    gap = Model(
        predicates=(PredicateInfo("E"), PredicateInfo("F")),
        states=("S1",),
        universe_sizes={"S1": 2},
        extensions={("S1", "E"): frozenset({0}), ("S1", "F"): frozenset()},
    )
    assert physical_leq(gap, Pred("E"), Pred("F"))
    assert not logical_leq(gap, Pred("E"), Pred("F"))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 200))
def test_logical_implies_physical(seed, pick):
    m = random_classical_model(seed, n_states=2, n_predicates=2, universe=3)
    formulas = list(enumerate_formulas(["E1", "E2"], 1))
    f = formulas[pick % len(formulas)]
    g = formulas[(pick * 7 + 3) % len(formulas)]
    if logical_leq(m, f, g):
        assert physical_leq(m, f, g)


def _quotient(m: Model, predicates) -> tuple[frozenset, frozenset]:
    """The universe of (state, object) pairs and the signatures of the
    algebra the predicates generate, closed to its fixpoint."""
    space = SignatureSpace(m)
    classes = space.closed_classes(predicates)
    return to_signature(space, space.omega), frozenset(to_signature(space, c) for c in classes)


def test_quotient_boolean_single_proper_predicate():
    m = tiny_model()
    omega, elements = _quotient(m, ["E"])
    sig = signature(m, Pred("E"))
    assert omega == frozenset({("S", u) for u in range(3)})
    assert elements == frozenset({frozenset(), sig, omega - sig, omega})
    assert not boolean_law_violations(omega, elements)


def test_quotient_boolean_cm_two_state():
    m = build_cm_model(["S1", "S2"], ["E"], {("S1", "E"): True, ("S2", "E"): False}, 2)
    omega, elements = _quotient(m, ["E"])
    assert len(elements) == 4
    assert not boolean_law_violations(omega, elements)


def _carrier(*element_bits: int) -> tuple[frozenset, frozenset]:
    """Three pairs of state S and a family of their subsets, each given
    as a bitmask (bit u set when object u is in the signature)."""
    omega = frozenset(("S", u) for u in range(3))
    elements = frozenset(
        frozenset(("S", u) for u in range(3) if bits >> u & 1) for bits in element_bits
    )
    return omega, elements


def test_boolean_law_violations_negative_controls():
    assert boolean_law_violations(*_carrier(0b000, 0b001, 0b110, 0b111)) == []
    assert boolean_law_violations(*_carrier(0b000, 0b001, 0b110)) == [
        "top (full signature) missing",
        "complement of element 0x0 not in carrier",
        "carrier not closed for pair (0x1, 0x6)",
        "carrier not closed for pair (0x6, 0x1)",
    ]
    assert boolean_law_violations(*_carrier(0b000, 0b001, 0b111)) == [
        "complement of element 0x1 not in carrier",
    ]
    # complements all present, but {0,1} ^ {1,2} = {1} is not
    lacks_meet = boolean_law_violations(*_carrier(0b000, 0b001, 0b011, 0b100, 0b110, 0b111))
    assert "carrier not closed for pair (0x3, 0x6)" in lacks_meet
    assert not any("complement" in line or "missing" in line for line in lacks_meet)


def test_boolean_law_violations_on_a_large_universe_meets_its_budget(worked_spec):
    """Each element's mask is built once from its pairs' positions: at
    universe 20 000 (80 000 pairs, 16 elements) the check takes about
    0.45 s on a shared 2-CPU VM.  Adding one growing int per pair was
    quadratic in the pairs: 2.5 s there."""
    m = build_model(replace(worked_spec, universe_size=20_000)).model
    omega, elements = _quotient(m, m.predicate_names())
    assert len(elements) == 16
    start = time.perf_counter()
    assert boolean_law_violations(omega, elements) == []
    assert time.perf_counter() - start < 1.0


def test_quotient_boolean_no_predicates():
    assert SignatureSpace(tiny_model()).closed_classes([]) == {}


def test_quotient_matches_literal_enumeration():
    m = tiny_model()
    _, elements = _quotient(m, m.predicate_names())
    enumerated = {signature(m, f) for f in enumerate_formulas(["E", "F"], 2)}
    assert enumerated <= elements


def test_build_cm_model_extensions_and_partners():
    m = build_cm_model(["S1", "S2"], ["E"], {("S1", "E"): True, ("S2", "E"): False}, 3)
    assert m.extensions[("S1", "E")] == frozenset({0, 1, 2})
    assert m.extensions[("S2", "E")] == frozenset()
    assert m.extensions[("S1", "E_perp")] == frozenset()
    assert m.predicates[0] == PredicateInfo("E", True, "E_perp")
    assert check_cms(m)
    assert eval_universal(m, Pred("E"), "S1")
    assert not eval_universal(m, Pred("E"), "S2")


def test_cm_truth_is_object_independent():
    m = build_cm_model(
        ["S1", "S2"],
        ["E", "F"],
        {("S1", "E"): True, ("S2", "E"): False, ("S1", "F"): False, ("S2", "F"): True},
        4,
    )
    for f in enumerate_formulas(["E", "F"], 2):
        for s in m.states:
            values = {eval_open(m, f, s, u) for u in range(4)}
            assert len(values) == 1
            assert eval_open(m, f, s, 0) == eval_universal(m, f, s)


def test_cmt_holds_on_closed_table(cm_two_states):
    assert check_cms(cm_two_states)
    report = check_cmt(SignatureSpace(cm_two_states))
    assert report.info == {"holds": True}


def test_cmt_fails_without_conjunction_witness():
    # E, F independent but no predicate for their conjunction
    m = build_cm_model(
        ["S1", "S2", "S3"],
        ["E", "F"],
        {
            ("S1", "E"): True,
            ("S2", "E"): True,
            ("S3", "E"): False,
            ("S1", "F"): True,
            ("S2", "F"): False,
            ("S3", "F"): True,
        },
        2,
    )
    space = SignatureSpace(m)
    report = check_cmt(space)
    assert report.info["holds"] is False
    witness_mask = space.mask_of(parse(report.info["witness"]))
    assert witness_mask not in {space.pred_masks[p] for p in m.property_names()}


def test_cms_fails_on_quantum_built_model(worked_qm):
    assert not check_cms(worked_qm.model)


def test_qmn_pairing_enforced():
    with pytest.raises(ModelValidationError) as err:
        Model(
            predicates=(PredicateInfo("E", True, "F"), PredicateInfo("F", True, "E")),
            states=("S",),
            universe_sizes={"S": 2},
            extensions={("S", "E"): frozenset({0}), ("S", "F"): frozenset({0})},
        )
    assert "E" in str(err.value) or "F" in str(err.value)
    # the first state, in state order, whose block the pair does not fill
    paired = (PredicateInfo("G"), PredicateInfo("E", True, "F"), PredicateInfo("F", True, "E"))
    with pytest.raises(ModelValidationError) as err:
        Model(
            paired, ("S", "T", "U"), {"S": 2, "T": 3, "U": 1},
            {("S", "E"): {0}, ("S", "F"): {1}, ("T", "E"): {0}, ("T", "F"): {2},
             ("U", "F"): set()},
        )
    assert str(err.value) == (
        "state 'T', predicate 'E': extension is not the complement of its partner 'F'"
    )
    # a universe for a state that is not listed
    with pytest.raises(ModelValidationError) as err:
        Model((PredicateInfo("E"),), ("S",), {"S": 1, "T": 2}, {("T", "E"): frozenset({1})})
    assert str(err.value) == "universe for unknown state 'T'"


def test_validation_rejects_out_of_range_index():
    with pytest.raises(ModelValidationError) as err:
        model_from_dict(
            {
                "predicates": [{"name": "E", "property": True, "ortho": None}],
                "states": [{"name": "S1", "universe": 2, "extensions": {"E": [0, 5]}}],
            }
        )
    assert "S1" in str(err.value) and "E" in str(err.value)


def test_shared_out_of_range_extension_names_its_first_key():
    """The range check runs once per distinct (extension, universe size);
    an extension object shared by several keys is still reported at the
    first key in ``extensions`` order, and one that fits a larger universe
    is still checked against a smaller one."""
    fits, shared = frozenset({0, 2}), frozenset({4})
    predicates = (PredicateInfo("A"), PredicateInfo("B"))
    sizes = {"S0": 3, "S1": 3, "S2": 2}
    extensions = {
        ("S0", "A"): fits,
        ("S1", "B"): shared,
        ("S0", "B"): shared,
        ("S1", "A"): shared,
    }
    with pytest.raises(ModelValidationError) as err:
        Model(predicates, ("S0", "S1", "S2"), sizes, extensions)
    assert str(err.value) == "state 'S1', predicate 'B': object index 4 outside universe of size 3"
    extensions = {("S0", "A"): fits, ("S1", "A"): fits, ("S2", "B"): fits, ("S2", "A"): fits}
    with pytest.raises(ModelValidationError) as err:
        Model(predicates, ("S0", "S1", "S2"), sizes, extensions)
    assert str(err.value) == "state 'S2', predicate 'B': object index 2 outside universe of size 2"


@pytest.mark.parametrize("index", [10**12, 2**63, 10**30])
def test_huge_object_index_is_refused_before_any_bit_buffer(index):
    """An index far above every universe, read from a model file, is a
    validation error at once: the index's bit buffer is never sized by it,
    which would allocate gigabytes, or fail with MemoryError or
    OverflowError."""
    data = {
        "predicates": [{"name": "E", "property": True, "ortho": None}],
        "states": [{"name": "S1", "universe": 3, "extensions": {"E": [0, index]}}],
    }
    with pytest.raises(ModelValidationError) as err:
        model_from_dict(data)
    assert str(err.value) == (
        f"state 'S1', predicate 'E': object index {index} outside universe of size 3"
    )


def test_validation_rejects_asymmetric_ortho():
    with pytest.raises(ModelValidationError):
        model_from_dict(
            {
                "predicates": [
                    {"name": "E", "property": True, "ortho": "F"},
                    {"name": "F", "property": True, "ortho": None},
                ],
                "states": [{"name": "S1", "universe": 1, "extensions": {"E": [0]}}],
            }
        )


def test_model_json_round_trip(tmp_path):
    m = build_cm_model(["S1", "S2"], ["E"], {("S1", "E"): True}, 2)
    data = model_to_dict(m)
    again = model_from_dict(json.loads(json.dumps(data)))
    assert model_to_dict(again) == data
    path = tmp_path / "m.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert model_to_dict(load_model(path)) == data


def test_signature_set_laws_random_models():
    for seed in range(5):
        m = random_classical_model(seed, n_states=2, n_predicates=2, universe=3)
        space = SignatureSpace(m)
        omega = to_signature(space, space.omega)
        for f in [Pred("E1"), parse("E1 & E2"), parse("~E1 | E2_perp")]:
            for g in [Pred("E2"), parse("~E2")]:
                assert signature(m, And(f, g)) == signature(m, f) & signature(m, g)
                assert signature(m, Or(f, g)) == signature(m, f) | signature(m, g)
            assert signature(m, Not(f)) == omega - signature(m, f)


def test_logical_leq_reflexive_over_enumeration():
    m = tiny_model()
    for f in enumerate_formulas(["E", "F"], 1):
        assert logical_leq(m, f, f)
        assert physical_leq(m, f, f)


def test_signature_classes_equal_literal_enumeration_classes():
    # the layered class computation must coincide exactly, per depth, with
    # the signatures of the literal formula enumeration
    for seed in range(6):
        m = random_classical_model(seed, n_states=2, n_predicates=2, universe=3)
        space = SignatureSpace(m)
        names = ["E1", "E2", "E1_perp"]
        for depth_cap in (0, 1, 2):
            literal = {space.mask_of(f) for f in enumerate_formulas(names, depth_cap)}
            layered = set(space.reachable_classes(names, depth_cap))
            assert layered == literal


def test_reachable_classes_are_unions_of_atoms_in_the_ordered_sweep(worked_qm):
    """The atoms partition omega; at each depth, every class the sweep
    gives is a union of atoms, with the representatives and order of the
    ordered reference sweep."""
    seed11 = build_model(load_spec(DATA_DIR / "gen_qm_seed11.json"))
    inputs = [(qm.model, tuple(name for name, _ in qm.spec.properties)) for qm in (worked_qm, seed11)]
    inputs += [(m, m.predicate_names()) for m in map(random_classical_model, range(4))]
    for m, names in inputs:
        space = SignatureSpace(m)
        atoms = space.atoms(names)
        assert sum(atoms) == space.omega and all(a & b == 0 for a in atoms for b in atoms if a != b)
        for depth in range(4):
            classes = space.reachable_classes(names, depth)
            assert all(mask & atom in (0, atom) for mask in classes for atom in atoms)
            want = closure_reference.reachable_classes(space, names, depth)
            assert list(classes.items()) == list(want.items())


# -- the frozen model and its signature index ---------------------------------------


def test_model_is_frozen(worked_qm):
    m = tiny_model()
    for name in ("predicates", "states", "universe_sizes", "extensions", "pred_masks", "colour"):
        with pytest.raises(FrozenInstanceError):
            setattr(m, name, None)
    with pytest.raises(FrozenInstanceError):
        del m.extensions
    for mapping, key, value in (
        (m.extensions, ("S", "E"), frozenset()),
        (m.universe_sizes, "S", 5),
        (m.pred_masks, "E", 0),
        (m.state_masks, "S", 0),
        (SignatureSpace(m).witnesses(), 0, "F"),
    ):
        with pytest.raises(TypeError):
            mapping[key] = value
    for name in ("model", "theta", "lattice", "state_bits", "theta_masks"):
        with pytest.raises(FrozenInstanceError):
            setattr(worked_qm, name, None)
    for mapping, key in (
        (worked_qm.theta, "Ez"),
        (worked_qm.state_bits, "Sz+"),
        (worked_qm.element_index, "Ez"),
        (worked_qm.probabilities, ("Sz+", "Ez")),
    ):
        with pytest.raises(TypeError):
            mapping[key] = mapping[key]
        with pytest.raises(TypeError):
            del mapping[key]


def test_copy_and_pickle_rebuild_a_frozen_model(worked_qm):
    for twin in (copy.deepcopy(worked_qm), pickle.loads(pickle.dumps(worked_qm))):
        assert twin == worked_qm and twin.model is not worked_qm.model
        assert twin.model.pred_masks == worked_qm.model.pred_masks
        assert twin.model.witnesses == worked_qm.model.witnesses


def test_model_copies_the_mappings_it_is_given():
    sizes = {"S": 3}
    extensions = {("S", "E"): frozenset({0, 2})}
    m = Model((PredicateInfo("E"),), ("S",), sizes, extensions)
    sizes["S"] = 9
    extensions[("S", "E")] = frozenset({1})
    assert m.universe_sizes == {"S": 3}
    assert m.extensions == {("S", "E"): frozenset({0, 2})}
    assert to_signature(SignatureSpace(m), m.pred_masks["E"]) == {("S", 0), ("S", 2)}


def test_spaces_of_a_model_share_its_index(worked_qm):
    a, b = SignatureSpace(worked_qm.model), SignatureSpace(worked_qm.model)
    assert a.pred_masks is b.pred_masks is worked_qm.model.pred_masks
    assert a.state_masks is b.state_masks is worked_qm.model.state_masks
    assert a.witnesses("effects") is b.witnesses("effects")


def test_a_dropped_model_is_freed_by_reference_counting(worked_spec):
    """The model holds no reference to a space, so neither a model nor its
    quantum bundle sits in a reference cycle."""
    gc.disable()
    try:
        m = tiny_model()
        qm = build_model(worked_spec)
        space = SignatureSpace(qm.model)
        refs = weakref.ref(m), weakref.ref(qm), weakref.ref(qm.model), weakref.ref(space)
        del m, qm, space
        assert [ref() for ref in refs] == [None] * 4
    finally:
        gc.enable()


def reference_index(predicates, states, sizes, extensions):
    """Per predicate and per state the set of (state, object) pairs, and
    per scope each predicate pair set mapped to the first predicate in
    table order carrying it, by a plain loop over the extension table
    (missing entries read as empty)."""
    blocks = {s: {(s, u) for u in range(sizes[s])} for s in states}
    signatures = {}
    for p in predicates:
        pairs = set()
        for s in states:
            for u in extensions.get((s, p.name), ()):
                pairs.add((s, u))
        signatures[p.name] = pairs
    witnesses = {"effects": {}, "properties": {}}
    for p in predicates:
        key = frozenset(signatures[p.name])
        if key not in witnesses["effects"]:
            witnesses["effects"][key] = p.name
        if p.is_property and key not in witnesses["properties"]:
            witnesses["properties"][key] = p.name
    return blocks, signatures, witnesses


def assert_index_matches(m: Model, predicates, states, sizes, extensions):
    blocks, signatures, witnesses = reference_index(predicates, states, sizes, extensions)
    space = SignatureSpace(m)
    offset = 0  # each state's block is contiguous, in state order
    for s in states:
        assert space.state_masks[s] == ((1 << sizes[s]) - 1) << offset
        offset += sizes[s]
    assert list(space.state_masks) == list(states) and space.omega == (1 << offset) - 1
    assert to_signature(space, space.omega) == set().union(*blocks.values())
    assert {s: to_signature(space, mask) for s, mask in space.state_masks.items()} == blocks
    assert {p: to_signature(space, mask) for p, mask in space.pred_masks.items()} == signatures
    for scope, expected in witnesses.items():
        got = {to_signature(space, mask): name for mask, name in space.witnesses(scope).items()}
        assert got == expected
    # the atoms of each prefix of the table: the pairs grouped by which of its predicates hold
    names = [p.name for p in predicates]
    for k in range(len(names) + 1):
        cells: dict[tuple[bool, ...], set] = {}
        for pair in set().union(*blocks.values()):
            cells.setdefault(tuple(pair in signatures[n] for n in names[:k]), set()).add(pair)
        atoms = [to_signature(space, mask) for mask in space.atoms(names[:k])]
        assert len(atoms) == len(cells) and set(atoms) == set(map(frozenset, cells.values()))


@st.composite
def model_tables(draw):
    """A table of 1-3 states with universes of 1-3 objects and 1-3 base
    predicates, each maybe paired with a complementary partner, maybe not
    a property, and with empty extensions maybe left out."""
    states = tuple(f"S{i}" for i in range(draw(st.integers(1, 3))))
    sizes = {s: draw(st.integers(1, 3)) for s in states}
    predicates, extensions = [], {}
    for i in range(draw(st.integers(1, 3))):
        name, partner = f"E{i}", f"E{i}_perp"
        paired = draw(st.booleans())
        predicates.append(PredicateInfo(name, draw(st.booleans()), partner if paired else None))
        if paired:
            predicates.append(PredicateInfo(partner, draw(st.booleans()), name))
        for s in states:
            ext = frozenset(draw(st.sets(st.integers(0, sizes[s] - 1))))
            if ext or draw(st.booleans()):
                extensions[(s, name)] = ext
            if paired:
                extensions[(s, partner)] = frozenset(range(sizes[s])) - ext
    return tuple(predicates), states, sizes, extensions


@settings(max_examples=150, deadline=None)
@given(model_tables())
def test_index_matches_a_reference_on_random_tables(table):
    assert_index_matches(Model(*table), *table)


@pytest.mark.parametrize(
    "path", [SPEC_DIR / "worked_qm.json", DATA_DIR / "gen_qm_seed11.json"], ids=lambda p: p.stem
)
def test_index_matches_a_reference_on_built_models(path):
    m = build_model(load_spec(path)).model
    assert_index_matches(m, m.predicates, m.states, m.universe_sizes, m.extensions)


def bitwise_masks(m: Model) -> tuple[dict[str, int], dict[str, int]]:
    """State and predicate masks laid out one bit at a time, by position
    in the state-major list of pairs."""
    position = {pair: i for i, pair in enumerate(state_major_pairs(m))}
    state_masks = {s: 0 for s in m.states}
    pred_masks = {p.name: 0 for p in m.predicates}
    for (s, _), i in position.items():
        state_masks[s] |= 1 << i
    for p in m.predicates:
        for s in m.states:
            for u in m.extensions[(s, p.name)]:
                pred_masks[p.name] |= 1 << position[(s, u)]
    return state_masks, pred_masks


@st.composite
def wide_model_tables(draw):
    """Tables whose universes differ from state to state and cross byte
    boundaries: 1-4 states of 1-20 objects, 1-3 paired predicates."""
    states = tuple(f"S{i}" for i in range(draw(st.integers(1, 4))))
    sizes = {s: draw(st.integers(1, 20)) for s in states}
    predicates, extensions = [], {}
    for i in range(draw(st.integers(1, 3))):
        name, partner = f"E{i}", f"E{i}_perp"
        predicates += [PredicateInfo(name, True, partner), PredicateInfo(partner, True, name)]
        for s in states:
            ext = frozenset(draw(st.sets(st.integers(0, sizes[s] - 1))))
            extensions[(s, name)] = ext
            extensions[(s, partner)] = frozenset(range(sizes[s])) - ext
    return tuple(predicates), states, sizes, extensions


@settings(max_examples=100, deadline=None)
@given(wide_model_tables())
def test_block_layout_matches_the_bitwise_layout(table):
    m = Model(*table)
    state_masks, pred_masks = bitwise_masks(m)
    assert dict(m.state_masks) == state_masks
    assert dict(m.pred_masks) == pred_masks


@settings(max_examples=100, deadline=None)
@given(wide_model_tables(), st.data())
def test_proposition_of_a_conjunction_is_the_meet_of_propositions(table, data):
    """proposition(a & b) == proposition(a) & proposition(b) on any masks,
    so conjunction-footnote and meet-image flag the same pairs."""
    space = SignatureSpace(Model(*table))
    # masks biased towards full blocks, where the identity has content
    blocks = st.lists(st.sampled_from(list(space.state_masks.values())), max_size=4)
    for _ in range(5):
        a, b = (
            data.draw(st.integers(0, space.omega)) | sum(set(data.draw(blocks)))
            for _ in range(2)
        )
        assert space.proposition(a & b) == space.proposition(a) & space.proposition(b)
