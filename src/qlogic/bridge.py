"""Hilbert-backed finite models and the three-valued quantum semantics.

A spec names pure states (nonzero vectors, each spanning an atom) and
property subspaces.  Building closes the properties into a finite
subspace lattice, gives every lattice element a predicate, wires
orthocomplement partners, and manufactures extensions from exact
projection probabilities: probability 1 gives the full universe, 0 the
empty set, and anything strictly between a proper nonempty prefix whose
size echoes the probability.  Partner extensions are set complements by
construction, never rounded independently.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Mapping

from ._fixpoint import fixpoint
from .errors import (
    DepthLimitExceeded,
    DimensionMismatch,
    ModelValidationError,
    NotTestable,
    PostconditionFailed,
    UniverseTooSmall,
    UnknownState,
    ZeroVector,
)
from .formulas import (
    Formula,
    Pred,
    QAnd,
    QImp,
    QNot,
    QOr,
    has_quantum,
    render,
)
from .gaussian import GaussianRational, parse_vector, vector_strings
from .hilbert import Subspace, born, subspace_from_strings, subspace_to_strings
from .hilbert import leq as subspace_leq
from .lattice import DEFAULT_CLOSURE_CAP, QLattice, close
from .models import (
    MAX_RELATION_DEPTH,
    Model,
    PredicateInfo,
    SignatureSpace,
    eval_open,
    read_json,
)
from .propositions import RelationStats, proposition_poset

_NAME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_]*$")


@dataclass(frozen=True)
class QMModelSpec:
    """Hilbert data from which a finite model is manufactured."""

    dim: int
    states: tuple[tuple[str, tuple[GaussianRational, ...]], ...]
    properties: tuple[tuple[str, Subspace], ...]
    universe_size: int = 4
    closure_cap: int = DEFAULT_CLOSURE_CAP

    def __post_init__(self):
        if self.dim < 1:
            raise ModelValidationError("dimension must be positive")
        if self.universe_size < 1:
            raise ModelValidationError("universe size must be positive")
        if not self.states:
            raise ModelValidationError("at least one state is required")
        state_names = [s for s, _ in self.states]
        if len(set(state_names)) != len(state_names):
            raise ModelValidationError("duplicate state names")
        for name, vec in self.states:
            if len(vec) != self.dim:
                raise DimensionMismatch(
                    f"state {name!r}: vector of length {len(vec)} in C^{self.dim}"
                )
            if all(z.is_zero for z in vec):
                raise ZeroVector(f"state {name!r} has the zero vector")
        prop_names = [n for n, _ in self.properties]
        if len(set(prop_names)) != len(prop_names):
            raise ModelValidationError("duplicate property names")
        for name, sub in self.properties:
            if not _NAME_RE.match(name):
                raise ModelValidationError(f"property name {name!r} is not an identifier")
            if sub.ambient != self.dim:
                raise DimensionMismatch(
                    f"property {name!r}: subspace of C^{sub.ambient} in C^{self.dim}"
                )
        seen: dict[Subspace, str] = {}
        for name, sub in self.properties:
            if sub in seen:
                raise ModelValidationError(
                    f"properties {seen[sub]!r} and {name!r} name the same subspace"
                )
            seen[sub] = name


def spec_from_dict(data: Mapping) -> QMModelSpec:
    try:
        dim = int(data["dim"])
        states = tuple(
            (str(s["name"]), parse_vector(list(s["vector"]))) for s in data["states"]
        )
        properties = tuple(
            (str(p["name"]), subspace_from_strings([list(r) for r in p["basis"]], dim))
            for p in data["properties"]
        )
        universe = int(data.get("universe", 4))
        cap = int(data.get("closure_cap", DEFAULT_CLOSURE_CAP))
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelValidationError(f"malformed spec file: {exc}") from exc
    return QMModelSpec(dim, states, properties, universe, cap)


def spec_to_dict(spec: QMModelSpec) -> dict:
    return {
        "dim": spec.dim,
        "universe": spec.universe_size,
        "closure_cap": spec.closure_cap,
        "states": [
            {"name": name, "vector": vector_strings(vec)} for name, vec in spec.states
        ],
        "properties": [
            {"name": name, "basis": subspace_to_strings(sub)}
            for name, sub in spec.properties
        ],
    }


def load_spec(path: str | Path) -> QMModelSpec:
    return spec_from_dict(read_json(path))


def save_spec(spec: QMModelSpec, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(spec_to_dict(spec), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


@dataclass
class QuantumModel:
    """A built model together with its Hilbert provenance."""

    spec: QMModelSpec
    model: Model
    lattice: QLattice
    theta: dict[str, frozenset[str]]
    predicate_names: tuple[str, ...]  # aligned with lattice.elements
    element_index: dict[str, int]  # predicate name -> element index


def _generated_name(sub: Subspace, taken: set[str]) -> str:
    payload = f"{sub.ambient};" + "|".join(
        ",".join(str(z) for z in row) for row in sub.basis
    )
    digest = hashlib.sha256(payload.encode("ascii")).hexdigest()
    for length in range(10, len(digest) + 1):
        name = f"Q_{digest[:length]}"
        if name not in taken:
            return name
    raise ModelValidationError("could not derive a fresh predicate name")


def _round_half_up(x: Fraction) -> int:
    return math.floor(x + Fraction(1, 2))


def _table_order(spec: QMModelSpec, lat: QLattice, element_index: dict[str, int]) -> list[int]:
    """Element indices in predicate-table order: the input properties in
    spec order, then the closure-generated elements canonically."""
    order = [element_index[name] for name, _ in spec.properties]
    listed = set(order)
    order.extend(i for i in range(len(lat)) if i not in listed)
    return order


def _primary_pairs(spec: QMModelSpec, lat: QLattice, order: list[int]) -> list[tuple[int, int]]:
    """Ortho pairs as (primary, partner): the primary is the first member
    in table order and is the one the probability rule applies to; its
    partner always receives the set complement."""
    pairs = []
    assigned: set[int] = set()
    for i in order:
        if i in assigned:
            continue
        j = lat.ortho[i]
        pairs.append((i, j))
        assigned.update((i, j))
    return pairs


def _rule_extension(p: Fraction, n: int, predicate: str, state: str) -> frozenset[int]:
    if p == 1:
        return frozenset(range(n))
    if p == 0:
        return frozenset()
    if n < 2:
        raise UniverseTooSmall(
            f"universe size {n} cannot host a proper extension for "
            f"predicate {predicate!r} in state {state!r}"
        )
    k = min(max(_round_half_up(n * p), 1), n - 1)
    return frozenset(range(k))


def build_model(spec: QMModelSpec) -> QuantumModel:
    """Close the properties, name every element, manufacture extensions.

    The returned bundle satisfies: the physical proposition of every
    predicate equals its theta set (the states whose atoms the subspace
    contains), and paired predicates have complementary extensions in
    every state.
    """
    return _model_from_lattice(
        spec, close([sub for _, sub in spec.properties], cap=spec.closure_cap, dim=spec.dim)
    )


def _model_from_lattice(spec: QMModelSpec, lat: QLattice) -> QuantumModel:
    """build_model on the closure of the spec's properties, already computed."""
    input_names = {sub: name for name, sub in spec.properties}
    taken = set(input_names.values())
    names: list[str] = []
    for element in lat.elements:
        name = input_names.get(element)
        if name is None:
            name = _generated_name(element, taken)
            taken.add(name)
        names.append(name)
    element_index = {name: i for i, name in enumerate(names)}

    state_names = tuple(name for name, _ in spec.states)
    atoms = {name: Subspace.span([vec]) for name, vec in spec.states}
    theta = {
        names[i]: frozenset(
            s for s in state_names if subspace_leq(atoms[s], lat.elements[i])
        )
        for i in range(len(lat))
    }

    n = spec.universe_size
    full = frozenset(range(n))
    order = _table_order(spec, lat, element_index)
    extensions: dict[tuple[str, str], frozenset[int]] = {}
    for i, j in _primary_pairs(spec, lat, order):
        for sname, vec in spec.states:
            ext = _rule_extension(born(vec, lat.elements[i]), n, names[i], sname)
            extensions[(sname, names[i])] = ext
            extensions[(sname, names[j])] = full - ext

    predicates = tuple(
        PredicateInfo(names[i], True, names[lat.ortho[i]]) for i in order
    )
    model = Model(predicates, state_names, {s: n for s in state_names}, extensions)
    for name in names:  # certain truth must coincide with theta
        for s in state_names:
            if (model.extensions[(s, name)] == full) != (s in theta[name]):
                raise PostconditionFailed(
                    f"predicate {name!r} in state {s!r}: certain truth differs from theta"
                )
    return QuantumModel(
        spec=spec,
        model=model,
        lattice=lat,
        theta=theta,
        predicate_names=tuple(names),
        element_index=element_index,
    )


# -- quantum evaluation ---------------------------------------------------------


def _reduce_element(qm: QuantumModel, space: SignatureSpace, f: Formula) -> int:
    """Lattice element of the qwff, with leaves witnessed in the caller's space."""
    if not has_quantum(f):
        witness = space.witnesses().get(space.mask_of(f, {}))
        if witness is None:
            raise NotTestable(f"no property predicate has the signature of {render(f)}")
        return qm.element_index[witness]
    lat = qm.lattice
    if isinstance(f, QNot):
        return lat.ortho[_reduce_element(qm, space, f.child)]
    if isinstance(f, (QAnd, QOr, QImp)):
        a = _reduce_element(qm, space, f.left)
        b = _reduce_element(qm, space, f.right)
        if isinstance(f, QAnd):
            return lat.meet[a][b]
        if isinstance(f, QOr):
            return lat.join[a][b]
        return lat.join[lat.ortho[a]][lat.meet[a][b]]
    raise NotTestable(f"classical connective above a quantum subformula in {render(f)}")


def reduce_qwff(qm: QuantumModel, f: Formula) -> str:
    """Predicate of the subspace the formula denotes.

    Leaves and maximal classical subtrees reduce through their property
    witness; quantum negation, meet, join and implication map to the
    lattice operations (implication as the orthocomplement-join form).
    """
    return qm.predicate_names[_reduce_element(qm, SignatureSpace(qm.model), f)]


def tau_eval(qm: QuantumModel, f: Formula, state: str, obj: int) -> bool:
    """Truth at one (state, object) pair of the reduced predicate; agrees
    with classical evaluation on testable classical formulas."""
    return eval_open(qm.model, Pred(reduce_qwff(qm, f)), state, obj)


class QTruth:
    TRUE = "Q-true"
    FALSE = "Q-false"
    INDETERMINATE = "Q-indeterminate"


def q_truth(qm: QuantumModel, f: Formula, state: str) -> str:
    """Trivalent verdict: certainly true, certainly false, or neither."""
    if state not in qm.model.states:
        raise UnknownState(state)
    return _verdict(qm, _reduce_element(qm, SignatureSpace(qm.model), f), state)


def _verdict(qm: QuantumModel, element: int, state: str) -> str:
    if state in qm.theta[qm.predicate_names[element]]:
        return QTruth.TRUE
    if state in qm.theta[qm.predicate_names[qm.lattice.ortho[element]]]:
        return QTruth.FALSE
    return QTruth.INDETERMINATE


# -- conformance checks -----------------------------------------------------------


@dataclass
class QmtReport:
    ok: bool
    checked: int
    violations: list[str]


def check_qmt(qm: QuantumModel) -> QmtReport:
    """Re-verify the build postconditions against the model as it stands.

    Checks, per predicate and state: the proposition of the predicate is
    its theta set; paired extensions are complements; and each extension
    matches the probability rule (full at 1, empty at 0, clamped rounded
    prefix otherwise).  A single corrupted extension always trips at
    least one of the three.
    """
    model = qm.model
    space = SignatureSpace(model)
    violations: list[str] = []
    checked = 0
    for i, name in enumerate(qm.predicate_names):
        checked += 1
        prop = space.proposition(space.pred_masks[name])
        if prop != qm.theta[name]:
            violations.append(
                f"predicate {name}: proposition {sorted(prop)} != theta {sorted(qm.theta[name])}"
            )
    n = qm.spec.universe_size
    full = frozenset(range(n))
    order = _table_order(qm.spec, qm.lattice, qm.element_index)
    for i, j in _primary_pairs(qm.spec, qm.lattice, order):
        name_i, name_j = qm.predicate_names[i], qm.predicate_names[j]
        for sname, vec in qm.spec.states:
            ext_i = model.extensions[(sname, name_i)]
            ext_j = model.extensions[(sname, name_j)]
            if ext_j != full - ext_i:
                violations.append(
                    f"state {sname}, predicate {name_j}: extension is not the "
                    f"complement of its partner {name_i}"
                )
            checked += 1
            expected = _rule_extension(born(vec, qm.lattice.elements[i]), n, name_i, sname)
            if ext_i != expected:
                violations.append(
                    f"state {sname}, predicate {name_i}: extension {sorted(ext_i)} "
                    f"does not match its projection probability"
                )
    return QmtReport(not violations, checked, violations)


@dataclass
class EquivCoincidenceReport:
    ok: bool
    checked_pairs: int
    violations: list[str]


def check_equiv_coincidence(qm: QuantumModel, max_depth: int = 3) -> EquivCoincidenceReport:
    """Equal propositions iff equal signatures, over testable formulas.

    A formula is p-testable exactly when its signature is some property
    predicate's signature, and predicates are depth-0 formulas, so the
    testable signature classes at any depth are the predicate signature
    classes; the nontrivial direction is that distinct classes keep
    distinct propositions.
    """
    if max_depth > MAX_RELATION_DEPTH:
        raise DepthLimitExceeded(f"depth {max_depth} exceeds cap {MAX_RELATION_DEPTH}")
    space = SignatureSpace(qm.model)
    reps = list(space.witnesses().items())
    violations = []
    checked = 0
    for a, (mask_a, name_a) in enumerate(reps):
        prop_a = space.proposition(mask_a)
        for mask_b, name_b in reps[a + 1 :]:
            checked += 1
            if space.proposition(mask_b) == prop_a:
                violations.append(
                    f"{name_a} and {name_b}: equal propositions, distinct signatures"
                )
    return EquivCoincidenceReport(not violations, checked, violations)


def _reachable_elements(qm: QuantumModel, max_depth: int) -> dict[int, Formula]:
    """Lattice elements denoted by qwffs over the input properties up to
    max_depth, with one representative qwff each."""
    lat = qm.lattice
    seeds: dict[int, Formula] = {}
    for name, _ in qm.spec.properties:
        seeds.setdefault(qm.element_index[name], Pred(name))
    return fixpoint(
        seeds,
        unary=[(lat.ortho.__getitem__, QNot)],
        binary=[
            (lambda i, j: lat.meet[i][j], QAnd),
            (lambda i, j: lat.join[i][j], QOr),
            (lambda i, j: lat.join[lat.ortho[i]][lat.meet[i][j]], QImp),
        ],
        rounds=max_depth,
    )


@dataclass
class QuantumEquivalencesReport:
    demorgan: RelationStats
    sasaki: RelationStats
    conjunction_propositions: RelationStats
    signature_gap_witnesses: list[str]
    ortho_relation: RelationStats
    meet_relation: RelationStats
    join_relation: RelationStats
    preorder_coincides: bool

    @property
    def ok(self) -> bool:
        return all(
            not stats.violations
            for stats in (
                self.demorgan,
                self.sasaki,
                self.conjunction_propositions,
                self.ortho_relation,
                self.meet_relation,
                self.join_relation,
            )
        )

    def entries(self) -> list[RelationStats]:
        return [
            self.demorgan,
            self.sasaki,
            self.conjunction_propositions,
            self.ortho_relation,
            self.meet_relation,
            self.join_relation,
        ]


def check_quantum_equivalences(qm: QuantumModel, max_depth: int = 3) -> QuantumEquivalencesReport:
    """Quantum De Morgan and implication identities over reachable qwffs,
    the conjunction footnote (classical and quantum conjunction share a
    proposition while signatures may differ), and the relations between
    set operations and lattice images on testable propositions."""
    if max_depth > MAX_RELATION_DEPTH:
        raise DepthLimitExceeded(f"depth {max_depth} exceeds cap {MAX_RELATION_DEPTH}")
    lat = qm.lattice
    space = SignatureSpace(qm.model)
    reach = list(_reachable_elements(qm, max_depth).items())

    def sig_of_element(idx: int) -> int:
        return space.pred_masks[qm.predicate_names[idx]]

    demorgan = RelationStats("quantum-demorgan", 0, [], 0)
    sasaki = RelationStats("quantum-implication", 0, [], 0)
    for i, fi in reach:
        for j, fj in reach:
            demorgan.checked += 1
            lhs = _reduce_element(qm, space, QOr(fi, fj))
            rhs = _reduce_element(qm, space, QNot(QAnd(QNot(fi), QNot(fj))))
            if sig_of_element(lhs) != sig_of_element(rhs):
                demorgan.violations.append(f"{render(fi)} / {render(fj)}")
            sasaki.checked += 1
            lhs = _reduce_element(qm, space, QImp(fi, fj))
            rhs = _reduce_element(qm, space, QOr(QNot(fi), QAnd(fi, fj)))
            if sig_of_element(lhs) != sig_of_element(rhs):
                sasaki.violations.append(f"{render(fi)} / {render(fj)}")

    # testable classical classes are exactly the predicate signature classes
    reps = list(space.witnesses().items())

    conj = RelationStats("conjunction-footnote", 0, [], 0)
    gap_witnesses: list[str] = []
    ortho_rel = RelationStats("ortho-image", 0, [], 0)
    meet_rel = RelationStats("meet-image", 0, [], 0)
    join_rel = RelationStats("join-image", 0, [], 0)
    all_states = frozenset(qm.model.states)
    preorder_ok = True
    for mask_a, name_a in reps:
        a = qm.element_index[name_a]
        prop_a = space.proposition(mask_a)
        ortho_rel.checked += 1
        ortho_image = qm.theta[qm.predicate_names[lat.ortho[a]]]
        if not ortho_image <= all_states - prop_a:
            ortho_rel.violations.append(name_a)
        elif ortho_image < all_states - prop_a:
            ortho_rel.strict += 1
        for mask_b, name_b in reps:
            b = qm.element_index[name_b]
            prop_b = space.proposition(mask_b)

            conj.checked += 1
            classical_mask = mask_a & mask_b
            quantum_element = lat.meet[a][b]
            quantum_mask = sig_of_element(quantum_element)
            prop_classical = space.proposition(classical_mask)
            prop_quantum = qm.theta[qm.predicate_names[quantum_element]]
            if prop_classical != prop_quantum:
                conj.violations.append(f"{name_a} & {name_b}")
            elif classical_mask != quantum_mask and len(gap_witnesses) < 5:
                gap_witnesses.append(
                    f"{name_a} & {name_b}: same proposition, different signatures"
                )

            meet_rel.checked += 1
            if prop_a & prop_b != prop_quantum:
                meet_rel.violations.append(f"{name_a} / {name_b}")
            join_rel.checked += 1
            join_image = qm.theta[qm.predicate_names[lat.join[a][b]]]
            if not prop_a | prop_b <= join_image:
                join_rel.violations.append(f"{name_a} / {name_b}")
            elif prop_a | prop_b < join_image:
                join_rel.strict += 1

            if (mask_a | mask_b == mask_b) != (prop_a <= prop_b):
                preorder_ok = False

    return QuantumEquivalencesReport(
        demorgan=demorgan,
        sasaki=sasaki,
        conjunction_propositions=conj,
        signature_gap_witnesses=gap_witnesses,
        ortho_relation=ortho_rel,
        meet_relation=meet_rel,
        join_relation=join_rel,
        preorder_coincides=preorder_ok,
    )


@dataclass
class QTrichotomyReport:
    ok: bool
    checked: int
    violations: list[str]


def check_q_trichotomy(qm: QuantumModel, max_depth: int = 2) -> QTrichotomyReport:
    """Exactly one verdict per (qwff, state), and certain falsehood of a
    formula coincides with certain truth of its quantum negation."""
    if max_depth > MAX_RELATION_DEPTH:
        raise DepthLimitExceeded(f"depth {max_depth} exceeds cap {MAX_RELATION_DEPTH}")
    space = SignatureSpace(qm.model)
    reach = list(_reachable_elements(qm, max_depth).items())
    violations = []
    checked = 0
    for idx, f in reach:
        name = qm.predicate_names[idx]
        partner = qm.predicate_names[qm.lattice.ortho[idx]]
        element = _reduce_element(qm, space, f)
        negation = _reduce_element(qm, space, QNot(f))
        for state in qm.model.states:
            checked += 1
            true_here = state in qm.theta[name]
            false_here = state in qm.theta[partner]
            if true_here and false_here:
                violations.append(f"{render(f)} both certain in {state}")
            verdict = _verdict(qm, element, state)
            expected = (
                QTruth.TRUE if true_here else QTruth.FALSE if false_here else QTruth.INDETERMINATE
            )
            if verdict != expected:
                violations.append(f"{render(f)} in {state}: got {verdict}")
            negated = _verdict(qm, negation, state)
            if (verdict == QTruth.FALSE) != (negated == QTruth.TRUE):
                violations.append(
                    f"{render(f)} in {state}: falsehood and negated truth disagree"
                )
    return QTrichotomyReport(not violations, checked, violations)


def states_separate(qm: QuantumModel) -> bool:
    """True when the represented states distinguish every pair of lattice
    elements, both through theta and through extension profiles.

    This is the finite stand-in for representing every atom: on separating
    models, equal propositions imply equal signatures on all testable
    formulas, and the qwff quotient is isomorphic to the lattice.
    """
    space = SignatureSpace(qm.model)
    thetas = [qm.theta[name] for name in qm.predicate_names]
    sigs = [space.pred_masks[name] for name in qm.predicate_names]
    return len(set(thetas)) == len(thetas) and len(set(sigs)) == len(sigs)


@dataclass
class LtQuotientReport:
    status: str  # "isomorphic" | "degenerate" | "mismatch"
    detail: list[str]

    @property
    def ok(self) -> bool:
        return self.status != "mismatch"


def lt_quotient_check(qm: QuantumModel) -> LtQuotientReport:
    """Compare the quotient of qwffs under signature equality with the
    built lattice.

    Every lattice element is denoted by some qwff, so the quotient is the
    image of the element set under the signature map.  When the states
    separate elements (the map is injective) the quotient with the induced
    operations is isomorphic to the lattice and the tables are re-verified
    through the signature indexing; otherwise the quotient is degenerate
    and reported as such, with the conflated pairs listed.
    """
    space = SignatureSpace(qm.model)
    sigs = [space.pred_masks[name] for name in qm.predicate_names]
    by_sig: dict[int, list[int]] = {}
    for i, s in enumerate(sigs):
        by_sig.setdefault(s, []).append(i)
    conflated = {s: idxs for s, idxs in by_sig.items() if len(idxs) > 1}
    if conflated:
        detail = [
            "conflated elements: "
            + ", ".join(qm.predicate_names[i] for i in idxs)
            for idxs in conflated.values()
        ]
        return LtQuotientReport("degenerate", detail)
    element_of_sig = {s: idxs[0] for s, idxs in by_sig.items()}
    lat = qm.lattice
    omega = space.omega
    for i in range(len(lat)):
        if element_of_sig[omega & ~sigs[i]] != lat.ortho[i]:
            return LtQuotientReport("mismatch", [f"ortho at {qm.predicate_names[i]}"])
        for j in range(len(lat)):
            meet_sig = sigs[lat.meet[i][j]]
            join_sig = sigs[lat.join[i][j]]
            if element_of_sig[meet_sig] != lat.meet[i][j]:
                return LtQuotientReport("mismatch", [f"meet at ({i},{j})"])
            if element_of_sig[join_sig] != lat.join[i][j]:
                return LtQuotientReport("mismatch", [f"join at ({i},{j})"])
    return LtQuotientReport("isomorphic", [])


def testable_proposition_poset(qm: QuantumModel):
    """Poset of the predicates' propositions with the induced complement.

    The complement map is attached only when it is well defined, i.e. when
    predicates sharing a proposition have partners that also share one.
    """
    poset = proposition_poset(qm.model, [Pred(name) for name in qm.predicate_names])
    index_of = {states: i for i, states in enumerate(poset.elements)}
    mapping: dict[int, int] = {}
    for i, name in enumerate(qm.predicate_names):
        src = index_of[qm.theta[name]]
        dst = index_of[qm.theta[qm.predicate_names[qm.lattice.ortho[i]]]]
        if mapping.setdefault(src, dst) != dst:
            return poset  # ill-defined on this fragment; leave it off
    poset.orthocomplement = mapping
    return poset
