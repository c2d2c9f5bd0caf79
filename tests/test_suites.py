"""Differential tests: the classical and quantum suites that ``check`` decides
from atoms, state bitmasks and table lookups, against the enumerating loops
of ``suite_reference``, on random classical models and generated specs."""

from __future__ import annotations

import json
import random
from dataclasses import astuple, replace
from functools import lru_cache
from itertools import count
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from qlogic.bridge import (
    _primary_pairs,
    _reachable_elements,
    _table_order,
    build_model,
    check_q_trichotomy,
    check_qmt,
    check_quantum_equivalences,
    load_spec,
    spec_from_dict,
)
from qlogic.cli import main
from qlogic.formulas import Pred, parse, render
from qlogic.generate import random_classical_model, random_qm_spec
from qlogic.models import (
    Model,
    PredicateInfo,
    SignatureSpace,
    check_cmt,
    quotient_size,
)
from qlogic.propositions import check_connective_relations

import closure_reference
import suite_reference as reference
from conftest import SPEC_DIR, mo_squared_spec, suite_line, with_extensions, without_state
from formula_reference import depth as formula_depth


def _stats(records):
    """(suite, checked, witnesses, strict) of suite records, as a reference
    ``Tally`` reads through ``astuple``; each record has one witness per
    violation."""
    assert all(r.violations == len(r.witnesses) for r in records)
    return [(r.suite, r.checked, r.witnesses, r.info.get("strict", 0)) for r in records]


@st.composite
def _models(draw):
    states = tuple(f"S{i}" for i in range(draw(st.integers(1, 3))))
    names = tuple(f"P{i}" for i in range(draw(st.integers(1, 3))))
    sizes = {s: draw(st.integers(1, 3)) for s in states}
    extensions = {
        (s, name): frozenset(draw(st.sets(st.integers(0, sizes[s] - 1))))
        for s in states
        for name in names
    }
    return Model(tuple(PredicateInfo(n) for n in names), states, sizes, extensions)


def _alphabets(model):
    """None (the whole table) or a permutation of a subset, possibly empty."""
    subsets = st.lists(st.sampled_from(model.predicate_names()), unique=True)
    return st.none() | subsets.map(tuple)


def _check_quotient(model, names):
    """quotient_size counts the fixpoint quotient."""
    size = len(reference.quotient_elements(model, names, None))
    assert quotient_size(SignatureSpace(model), names) == size


@settings(max_examples=150, deadline=None)
@given(_models(), st.data())
def test_classical_suites_match_reference_on_random_models(model, data):
    names = data.draw(_alphabets(model))
    got = check_connective_relations(SignatureSpace(model), predicates=names)
    assert _stats(got) == [astuple(t) for t in reference.connective_relations(model, names)]
    _check_quotient(model, names if names is not None else model.predicate_names())


_GENERATORS = ("P0", "P1", "P2")


def _pattern(rng, size):
    """Extensions of the generators in a state of the given size (at least
    2), with at least one generator splitting the state."""
    while True:
        exts = {name: frozenset(u for u in range(size) if rng.random() < 0.5) for name in _GENERATORS}
        if any(0 < len(ext) < size for ext in exts.values()):
            return exts


def _census_matches_reference(rng, states):
    """The census on a model of (state, size, extensions) triples, taken in
    the rng's order, equals the reference's."""
    rng.shuffle(states)
    sizes = {s: size for s, size, _ in states}
    extensions = {(s, name): exts[name] for s, _, exts in states for name in _GENERATORS}
    model = Model(tuple(map(PredicateInfo, _GENERATORS)), tuple(sizes), sizes, extensions)
    got = check_connective_relations(SignatureSpace(model))
    assert _stats(got) == [astuple(t) for t in reference.connective_relations(model)]


@pytest.mark.parametrize("seed", range(8))
def test_census_keeps_apart_blocks_of_equal_slices_and_different_sizes(seed):
    """One state has another's generator slices and one more object, in no
    generator: every class has the same slice of both on the shared
    objects, yet a join can fill the narrow block and not the wide."""
    rng = random.Random(f"census-width:{seed}")
    size = rng.randint(2, 3)
    exts = _pattern(rng, size)
    _census_matches_reference(rng, [("N", size, exts), ("W", size + 1, exts)])


@pytest.mark.parametrize("seed", range(8))
def test_census_skips_a_state_no_generator_splits(seed):
    """A state where each generator is empty or full holds every class
    empty or full, so it makes no relation strict."""
    rng = random.Random(f"census-whole:{seed}")
    whole = rng.randint(1, 3)
    unsplit = {name: frozenset(range(whole) if rng.random() < 0.5 else ()) for name in _GENERATORS}
    _census_matches_reference(
        rng, [("S", 3, _pattern(rng, 3)), ("T", 2, _pattern(rng, 2)), ("U", whole, unsplit)]
    )


@pytest.mark.parametrize("seed", range(8))
def test_census_counts_a_repeated_pattern_once(seed):
    """States that repeat one block pattern, next to one of the same size
    where a single generator differs."""
    rng = random.Random(f"census-repeat:{seed}")
    size = rng.randint(2, 3)
    exts = _pattern(rng, size)
    states = [(f"R{k}", size, exts) for k in range(rng.randint(2, 4))]
    name = rng.choice(_GENERATORS)
    near = {**exts, name: frozenset(range(size)) - exts[name]}
    _census_matches_reference(rng, [*states, ("V", size, near)])


@pytest.mark.parametrize("k", [1, 2, 3])
def test_census_takes_the_product_form_on_mo_k_squared(k):
    """On MO_k x MO_k the groups of atoms meeting a split state block are
    disjoint, so the pairs whose join is not strict are a product over the
    groups: of the 4**s pairs on a group of s atoms, the 3**s whose union
    holds it are strict unless one operand holds it (2**(s+1) - 1 pairs)."""
    qm = build_model(spec_from_dict(mo_squared_spec(k)))
    names = tuple(name for name, _ in qm.spec.properties)
    space = SignatureSpace(qm.model)
    cells = reference.atoms(space, names)
    groups = reference.groups(space, cells)
    sizes = [len(group) for group in groups]
    assert sum(sizes) == len(frozenset().union(*groups))  # disjoint
    if k == 3:
        assert len(sizes) == 12 and set(sizes) == {3, 4}
    m, free = len(cells), len(cells) - sum(sizes)
    plain_joins = 4**free * prod(4**s - 3**s + 2 ** (s + 1) - 1 for s in sizes)
    got = _stats(check_connective_relations(space, predicates=names))
    assert got == [
        ("connective-relation-negation", 2**m, [], 2**m - 2 ** (free + len(sizes))),
        ("connective-relation-meet", 4**m, [], 0),
        ("connective-relation-join", 4**m, [], 4**m - plain_joins),
    ]
    if m <= 8:
        assert got == [astuple(t) for t in reference.connective_relations(qm.model, names)]


@pytest.mark.parametrize("seed", range(12))
def test_census_matches_inclusion_exclusion_on_wide_classical_models(seed):
    """Generated classical models of up to 32 atoms in few states, past the
    brute force's reach: the census equals the inclusion-exclusion count
    over the groups, which equals the brute force wherever that runs."""
    rng = random.Random(f"census-wide:{seed}")
    model = random_classical_model(seed, rng.randint(2, 4), rng.randint(2, 5), rng.randint(3, 6))
    negation, _, join = check_connective_relations(SignatureSpace(model))
    want = reference.strict_by_inclusion_exclusion(model)
    assert (negation.info["strict"], join.info["strict"]) == want
    if negation.checked <= 2**8:
        brute = reference.connective_relations(model)
        assert (brute[0].strict, brute[2].strict) == want


@pytest.mark.parametrize("dim,properties", [(2, 2), (2, 3), (3, 2), (3, 3)])
@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_suites_match_reference_on_generated_specs(dim, properties, seed):
    qm = build_model(random_qm_spec(seed, dim, properties)[0])
    generators = tuple(name for name, _ in qm.spec.properties)
    _check_quotient(qm.model, generators)
    space = SignatureSpace(qm.model)
    got = check_connective_relations(space, predicates=generators)
    want = reference.connective_relations(qm.model, generators)
    assert _stats(got) == [astuple(t) for t in want]
    report = check_quantum_equivalences(qm, space, _reachable_elements(qm))
    got = [suite_line(report, suite) for suite in ("quantum-demorgan", "quantum-implication")]
    assert _stats(got) == [astuple(t) for t in reference.demorgan_and_implication(qm)]
    _check_both_meanings(qm, report)


def _check_both_meanings(qm, report):
    """equivalence-coincidence and preorder-coincides against the
    frozenset loops of the reference."""
    got = suite_line(report, "equivalence-coincidence")
    assert _stats([got]) == [astuple(reference.equivalence_coincidence(qm))]
    info = suite_line(report, "state-separation").info
    assert info["preorder-coincides"] == reference.preorder_coincides(qm)


@pytest.mark.parametrize(
    "drop,coincide,equal",
    [(None, True, 0), ("mo2", False, 0)] + [(s, False, 1) for s in ("Sz+", "Sz-", "Sx+", "Sx-")],
    ids=["worked_qm", "mo2_squared", "no-Sz+", "no-Sz-", "no-Sx+", "no-Sx-"],
)
def test_both_meanings_match_reference_where_they_part(worked_spec, drop, coincide, equal):
    """The worked spec; MO_2 x MO_2, where proposition inclusion nests
    classes that signature inclusion does not; and the worked spec without
    one of its states, where two classes share a proposition, so that
    neither line holds."""
    if drop == "mo2":
        spec = spec_from_dict(mo_squared_spec(2))
    else:
        spec = worked_spec if drop is None else without_state(worked_spec, drop)
    qm = build_model(spec)
    report = check_quantum_equivalences(qm, SignatureSpace(qm.model), _reachable_elements(qm))
    _check_both_meanings(qm, report)
    assert suite_line(report, "equivalence-coincidence").violations == equal
    assert suite_line(report, "state-separation").info["preorder-coincides"] == coincide


def _cm_testability_by_ordered_sweep(space, names):
    """(holds, witness, checked) of cm-testability read off the ordered
    mask sweep of ``closure_reference``, deepened until it meets a class
    whose mask no property predicate carries, rendered as the witness, or
    reaches its fixpoint; checked counts the unions of the reference atoms."""
    carried = {space.mask_of(Pred(name)) for name in space.model.property_names()}
    checked = 2 ** len(reference.atoms(space, names)) if names else 0
    size = -1
    for depth in count():
        classes = closure_reference.reachable_classes(space, names, depth)
        witness = next((render(f) for mask, f in classes.items() if mask not in carried), None)
        if witness is not None or len(classes) == size:
            return witness is None, witness, checked
        size = len(classes)


def _cm_testability(space, names):
    result = check_cmt(space, predicates=names)
    return result.info["holds"], result.info.get("witness"), result.checked


@pytest.mark.parametrize("dim,properties", [(2, 2), (2, 3), (3, 2), (3, 3)])
@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_cm_testability_matches_the_ordered_sweep_on_generated_specs(dim, properties, seed):
    qm = build_model(random_qm_spec(seed, dim, properties)[0])
    names = tuple(name for name, _ in qm.spec.properties)
    space = SignatureSpace(qm.model)
    assert _cm_testability(space, names) == _cm_testability_by_ordered_sweep(space, names)


def test_cm_testability_matches_the_ordered_sweep_on_mo2_squared():
    qm = build_model(spec_from_dict(mo_squared_spec(2)))
    names = tuple(name for name, _ in qm.spec.properties)
    space = SignatureSpace(qm.model)
    want = _cm_testability_by_ordered_sweep(space, names)
    assert want[:2] == (False, "Pa0_0 | Pb0_0")
    assert _cm_testability(space, names) == want


def test_cm_testability_rebuilds_a_deeper_witness_as_the_ordered_sweep_renders_it():
    """Properties carry every class of depth 1 over P and Q, so the first
    class none carries is swept at depth 2, with the formula built there."""
    depth_one = {"P": {0, 1}, "Q": {1, 2}, "NP": {2, 3}, "NQ": {0, 3}, "PQ": {1}, "PoQ": {0, 1, 2}}
    model = Model(
        tuple(PredicateInfo(name) for name in depth_one),
        ("S",),
        {"S": 4},
        {("S", name): frozenset(ext) for name, ext in depth_one.items()},
    )
    space = SignatureSpace(model)
    want = _cm_testability_by_ordered_sweep(space, ("P", "Q"))
    assert want[0] is False and want[2] == 16  # four atoms, one per object
    assert formula_depth(parse(want[1])) == 2
    assert _cm_testability(space, ("P", "Q")) == want


def test_cm_testability_fails_on_one_uncarried_class():
    """Properties that carry three of the four classes over P, the empty one
    left out, and then all four."""
    exts = {"P": {0}, "NP": {1}, "T": {0, 1}, "Z": set()}
    for names, holds in ((("P", "NP", "T"), False), (tuple(exts), True)):
        model = Model(
            tuple(map(PredicateInfo, names)),
            ("S",),
            {"S": 2},
            {("S", name): frozenset(exts[name]) for name in names},
        )
        space = SignatureSpace(model)
        want = _cm_testability_by_ordered_sweep(space, ("P",))
        assert (want[0], want[2]) == (holds, 4)
        assert _cm_testability(space, ("P",)) == want


def test_cm_testability_counts_only_the_carried_classes_of_the_algebra():
    """P and its complement NP are the two atoms over P, and T is their
    union; Q splits P's atom, so its mask lies outside the algebra.  Four
    witness masks against four classes, but only three classes carried:
    the empty one is the witness."""
    exts = {"P": {0, 1}, "NP": {2}, "T": {0, 1, 2}, "Q": {0}}
    model = Model(
        tuple(map(PredicateInfo, exts)),
        ("S",),
        {"S": 3},
        {("S", name): frozenset(ext) for name, ext in exts.items()},
    )
    space = SignatureSpace(model)
    assert len(space.witnesses()) == 4
    assert _cm_testability(space, ("P",)) == (False, "P & ~P", 4)
    assert _cm_testability_by_ordered_sweep(space, ("P",)) == (False, "P & ~P", 4)


def test_quantum_demorgan_flags_a_corrupted_join_entry(worked_qm):
    """A join entry changed on a copy of the worked model shows as a De Morgan
    violation on the pair of representatives of its row and column."""
    rng = random.Random("join-control")
    lat = worked_qm.lattice
    space = SignatureSpace(worked_qm.model)
    for _ in range(4):
        a, b = rng.randrange(len(lat)), rng.randrange(len(lat))
        rows = [list(row) for row in lat.join]
        rows[a][b] = rng.choice([k for k in range(len(lat)) if k != lat.join[a][b]])
        corrupted = replace(worked_qm, lattice=replace(lat, join=tuple(map(tuple, rows))))
        reach = _reachable_elements(corrupted)
        report = check_quantum_equivalences(corrupted, space, reach)
        assert any(suite.violations for suite in report)
        demorgan, implication = (
            suite_line(report, suite) for suite in ("quantum-demorgan", "quantum-implication")
        )
        assert f"{render(reach[a])} / {render(reach[b])}" in demorgan.witnesses
        want = reference.demorgan_and_implication(corrupted)
        assert _stats([demorgan, implication]) == [astuple(t) for t in want]
    reach = _reachable_elements(worked_qm)
    report = check_quantum_equivalences(worked_qm, space, reach)
    assert not suite_line(report, "quantum-demorgan").violations


@pytest.mark.parametrize("seed", range(16))
def test_trichotomy_matches_reference_on_corrupted_builds(worked_qm, seed):
    """Random theta edits, and on half the seeds one property given another's
    extensions so that its leaf reduces through the other's witness, on the
    worked spec and a generated one: the same checked count and witnesses,
    in order, as the per-(element, state) walk."""
    rng = random.Random(f"trichotomy:{seed}")
    generated = build_model(random_qm_spec(seed, 3, 3)[0])
    for qm in (worked_qm, generated):
        names, states = qm.predicate_names, qm.model.states
        if seed % 2:
            source, target = rng.sample([name for name, _ in qm.spec.properties], 2)
            qm = with_extensions(qm, {(s, target): qm.model.extensions[(s, source)] for s in states})
        theta = dict(qm.theta)
        for _ in range(rng.randint(1, 4)):
            name, state = rng.choice(names), rng.choice(states)
            theta[name] = theta[name] ^ {state}
        qm = replace(qm, theta=theta)
        space = SignatureSpace(qm.model)
        got = check_q_trichotomy(qm, space, _reachable_elements(qm))
        assert _stats([got]) == [astuple(reference.q_trichotomy(qm, space))]


@lru_cache(maxsize=None)
def _worked_at(universe: int):
    return build_model(replace(load_spec(SPEC_DIR / "worked_qm.json"), universe_size=universe))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([3, 1000]), st.booleans(), st.data())
def test_qmt_matches_reference_on_one_object_edits(universe, with_partner, data):
    """One object toggled in a primary's extension in one state of the
    worked spec, alone or in its partner's too, which keeps the two
    complementary but breaks the rule: check_qmt, on the masks,
    reports it as the frozenset comparison does, and so fails."""
    qm = _worked_at(universe)
    order = _table_order(qm.spec, qm.lattice, qm.element_index)
    pair = data.draw(st.sampled_from(_primary_pairs(qm.lattice, order)))
    state = data.draw(st.sampled_from(qm.model.states))
    u = data.draw(st.integers(0, universe - 1))
    names = [qm.predicate_names[k] for k in pair[: 1 + with_partner]]
    qm = with_extensions(qm, {(state, n): qm.model.extensions[(state, n)] ^ {u} for n in names})
    result = check_qmt(qm, SignatureSpace(qm.model))
    assert result.violations and result == reference.qmt(qm)


def test_zero_property_spec_sweeps_the_empty_alphabet(tmp_path, capsys):
    """A spec with no properties gives every classical suite the empty
    alphabet, the one boolean-quotient already used, not the closure's
    generated predicates."""
    data = json.loads((SPEC_DIR / "worked_qm.json").read_text())
    data["properties"] = []
    path = tmp_path / "no_properties.json"
    path.write_text(json.dumps(data))
    assert main(["check", "--qm-spec", str(path), "--format", "json"]) == 0
    suites = {s["suite"]: s for s in json.loads(capsys.readouterr().out)["suites"]}
    for name in ("negation", "meet", "join"):
        assert suites[f"connective-relation-{name}"]["checked"] == 0
    assert suites["boolean-quotient"]["info"] == {"elements": 0}
    cmt = suites["cm-testability"]
    assert (cmt["checked"], cmt["info"]) == (0, {"holds": True})
    assert suites["truth-certainty-collapse"]["checked"] == 0

    model = build_model(replace(random_qm_spec(0)[0], properties=())).model
    assert len(model.predicates) == 2  # the closure's zero and full subspaces
    space = SignatureSpace(model)
    assert check_cmt(space, predicates=()).checked == 0
    assert check_cmt(space, predicates=()).info == {"holds": True}
    relations = check_connective_relations(space, predicates=())
    assert all(e.checked == 0 for e in relations)
