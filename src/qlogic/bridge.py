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
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from types import MappingProxyType
from typing import Mapping
from weakref import ref

from ._fixpoint import fixpoint
from .errors import (
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
from .gaussian import GaussianRational, format_parts, parse_vector, vector_strings
from .hilbert import (
    Subspace,
    _basis_parts,
    _born_of,
    _state_row,
    subspace_from_strings,
    subspace_to_strings,
)
from .lattice import DEFAULT_CLOSURE_CAP, QLattice, close
from .models import (
    _EMPTY_SLOT,
    _IDENT_RE,
    MAX_DIM,
    Model,
    PredicateInfo,
    SignatureSpace,
    SuiteResult,
    check_pair_count,
    expect_json,
    read_json,
)
from .propositions import proposition_poset


_ZERO, _ONE = Fraction(0), Fraction(1)  # the certain probabilities, shared by every build


def _check_dim(dim: int) -> None:
    if dim < 1:
        raise ModelValidationError("dimension must be positive")
    if dim > MAX_DIM:
        raise ModelValidationError(f"dimension {dim}, over the cap {MAX_DIM}")


@dataclass(frozen=True)
class QMModelSpec:
    """Hilbert data from which a finite model is manufactured."""

    dim: int
    states: tuple[tuple[str, tuple[GaussianRational, ...]], ...]
    properties: tuple[tuple[str, Subspace], ...]
    universe_size: int = 4
    closure_cap: int = DEFAULT_CLOSURE_CAP

    def __post_init__(self):
        _check_dim(self.dim)
        if self.universe_size < 1:
            raise ModelValidationError("universe size must be positive")
        if not self.states:
            raise ModelValidationError("at least one state is required")
        if self.closure_cap < 2:  # every closure holds 0 and C^dim
            raise ModelValidationError(f"closure cap {self.closure_cap}, below 2")
        check_pair_count(len(self.states) * self.universe_size)
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
            if not _IDENT_RE.match(name):
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
        data = expect_json(data, dict, "a spec")
        dim = expect_json(data["dim"], int, "dim")
        _check_dim(dim)  # before any basis is parsed
        states = []
        for s in expect_json(data["states"], list, "states"):
            s = expect_json(s, dict, "a state")
            name = expect_json(s["name"], str, "a state name")
            vector = expect_json(s["vector"], list, f"the vector of {name!r}")
            states.append((name, parse_vector(vector)))
        properties = []
        for p in expect_json(data["properties"], list, "properties"):
            p = expect_json(p, dict, "a property")
            name = expect_json(p["name"], str, "a property name")
            basis = expect_json(p["basis"], list, f"the basis of {name!r}")
            rows = [expect_json(r, list, f"a basis vector of {name!r}") for r in basis]
            properties.append((name, subspace_from_strings(rows, dim)))
        universe = expect_json(data.get("universe", 4), int, "universe")
        cap = expect_json(data.get("closure_cap", DEFAULT_CLOSURE_CAP), int, "closure_cap")
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelValidationError(f"malformed spec file: {exc}") from exc
    return QMModelSpec(dim, tuple(states), tuple(properties), universe, cap)


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


@dataclass(frozen=True)
class QuantumModel:
    """A built model together with its Hilbert provenance.

    Frozen like its model: the mappings are read-only copies of the
    caller's.  Construction lays out one bit per state of the model
    (``state_bits``) and each element's theta as a mask of those bits
    (``theta_masks``).  One weak slot holds the last formula reduced, matched
    by identity, with its element, so a query asking about one formula in
    every state reduces it once; it keeps no formula alive.  ``replace``,
    copy and pickle lay out afresh from their fields and start the slot empty.
    """

    spec: QMModelSpec
    model: Model
    lattice: QLattice
    theta: Mapping[str, frozenset[str]]
    predicate_names: tuple[str, ...]  # aligned with lattice.elements
    element_index: Mapping[str, int]  # predicate name -> element index
    # (state, primary predicate) -> projection probability the build read
    probabilities: Mapping[tuple[str, str], Fraction]
    _element_slot: tuple = field(default=_EMPTY_SLOT, init=False, compare=False, repr=False)

    def __post_init__(self):
        for name in ("theta", "element_index", "probabilities"):
            object.__setattr__(self, name, MappingProxyType(dict(getattr(self, name))))
        bits = {s: 1 << k for k, s in enumerate(self.model.states)}
        masks = tuple(sum(bits.get(s, 0) for s in self.theta[n]) for n in self.predicate_names)
        object.__setattr__(self, "state_bits", MappingProxyType(bits))
        object.__setattr__(self, "theta_masks", masks)

    def __reduce__(self):  # copy and pickle rebuild through the constructor, slot empty
        fields = (self.spec, self.model, self.lattice, dict(self.theta), self.predicate_names,
                  dict(self.element_index), dict(self.probabilities))
        return QuantumModel, fields


def _generated_name(sub: Subspace, taken: set[str]) -> str:
    """Q_ and a prefix of the sha256 of the canonical basis as literals,
    written from the rows without building the basis."""
    payload = f"{sub.ambient};" + "|".join(
        ",".join(format_parts(*part) for part in row) for row in _basis_parts(sub)
    )
    digest = hashlib.sha256(payload.encode("ascii")).hexdigest()
    for length in range(10, len(digest) + 1):
        name = f"Q_{digest[:length]}"
        if name not in taken:
            return name
    raise ModelValidationError("could not derive a fresh predicate name")


def _table_order(spec: QMModelSpec, lat: QLattice, element_index: dict[str, int]) -> list[int]:
    """Element indices in predicate-table order: the input properties in
    spec order, then the closure-generated elements canonically."""
    order = [element_index[name] for name, _ in spec.properties]
    listed = set(order)
    order.extend(i for i in range(len(lat)) if i not in listed)
    return order


def _primary_pairs(lat: QLattice, order: list[int]) -> list[tuple[int, int]]:
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


def _rule_count(num: int, den: int, n: int, predicate: str, state: str) -> int:
    """The size k of the probability rule's extension, the prefix range(k),
    for the probability p = num/den, 0 <= num <= den, den > 0: n at 1, 0 at
    0, and floor(n p + 1/2) = (2 n num + den) // (2 den) clamped to
    [1, n - 1] otherwise.  That floor is the same in any terms of p, so
    the parts need not be in lowest terms."""
    if num == den:
        return n
    if num == 0:
        return 0
    if n < 2:
        raise UniverseTooSmall(
            f"universe size {n} cannot host a proper extension for "
            f"predicate {predicate!r} in state {state!r}"
        )
    return min(max((2 * n * num + den) // (2 * den), 1), n - 1)


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
    n = spec.universe_size
    full = frozenset(range(n))
    shared: dict[int, tuple[frozenset[int], frozenset[int]]] = {}  # k -> (range(k), the rest)
    order = _table_order(spec, lat, element_index)
    inside: list[list[str]] = [[] for _ in lat.elements]  # theta, element order
    extensions: dict[tuple[str, str], frozenset[int]] = {}
    probabilities: dict[tuple[str, str], Fraction] = {}
    rows = [_state_row(vec, spec.dim) for _, vec in spec.states]
    for i, j in _primary_pairs(lat, order):
        name_i, name_j = names[i], names[j]
        born = _born_of(lat.elements[i], lat.elements[j], rows)
        for sname, (num, den) in zip(state_names, born):  # the atom lies in i at 1, in j at 0
            if num == den:
                p = _ONE
                inside[i].append(sname)
            elif num == 0:
                p = _ZERO
                inside[j].append(sname)
            else:
                p = Fraction(num, den)
            key = (sname, name_i)
            probabilities[key] = p
            k = _rule_count(num, den, n, name_i, sname)
            pair = shared.get(k)
            if pair is None:  # made on first use: a table over every k could be huge
                prefix = frozenset(range(k))
                pair = shared[k] = (prefix, full - prefix)
            extensions[key], extensions[(sname, name_j)] = pair
    theta = {name: frozenset(states) for name, states in zip(names, inside)}

    predicates = tuple(
        PredicateInfo(names[i], True, names[lat.ortho[i]]) for i in order
    )
    model = Model(predicates, state_names, {s: n for s in state_names}, extensions)
    for name in names:  # certain truth, a full block of the mask, must coincide with theta
        mask, certain = model.pred_masks[name], theta[name]
        for s, block in model.state_masks.items():
            if (mask & block == block) != (s in certain):
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
        probabilities=probabilities,
    )


# -- quantum evaluation ---------------------------------------------------------


def _reduce_element(qm: QuantumModel, space: SignatureSpace, f: Formula) -> int:
    """Lattice element of the qwff, with leaves witnessed in the caller's space."""
    if not has_quantum(f):
        witness = space.witnesses().get(space.mask_of(f))
        if witness is None:
            raise NotTestable("no property predicate has the signature of", f)
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
    raise NotTestable("classical connective above a quantum subformula in", f)


def _element(qm: QuantumModel, f: Formula) -> int:
    """The qwff's lattice element, reduced once per run of calls about one
    formula object; an untestable formula raises every time, never kept."""
    last, element = qm._element_slot
    if last() is not f:
        element = _reduce_element(qm, SignatureSpace(qm.model), f)
        object.__setattr__(qm, "_element_slot", (ref(f), element))
    return element


def reduce_qwff(qm: QuantumModel, f: Formula) -> str:
    """Predicate of the subspace the formula denotes.

    Leaves and maximal classical subtrees reduce through their property
    witness; quantum negation, meet, join and implication map to the
    lattice operations (implication as the orthocomplement-join form).
    """
    return qm.predicate_names[_element(qm, f)]


class QTruth:
    TRUE = "Q-true"
    FALSE = "Q-false"
    INDETERMINATE = "Q-indeterminate"


def q_truth(qm: QuantumModel, f: Formula, state: str) -> str:
    """Trivalent verdict: certainly true, certainly false, or neither; the
    state is checked before the formula, and certain truth before falsehood."""
    try:
        bit = qm.state_bits[state]
    except KeyError:
        raise UnknownState(state) from None
    return _verdict(qm, _element(qm, f), bit)


def _verdict(qm: QuantumModel, element: int, bit: int) -> str:
    if qm.theta_masks[element] & bit:
        return QTruth.TRUE
    if qm.theta_masks[qm.lattice.ortho[element]] & bit:
        return QTruth.FALSE
    return QTruth.INDETERMINATE


# -- conformance checks -----------------------------------------------------------
# Each suite reads the masks of a SignatureSpace of qm.model that its caller built.


def _relation(suite: str, checked: int, witnesses: list[str], strict: int = 0) -> SuiteResult:
    """A suite with one witness per violation, showing its count of
    strictly held cases only when there are some."""
    info = {"strict": strict} if strict else {}
    return SuiteResult(suite, checked, len(witnesses), witnesses, info)


def check_qmt(qm: QuantumModel, space: SignatureSpace) -> SuiteResult:
    """Re-verify the build postconditions against the model as it stands.

    Checks, per predicate and state: the proposition of the predicate is
    its theta set; on the state's block of the masks, paired extensions
    split it and each primary's is the probability rule's prefix range(k)
    applied to the projection probability the build recorded, so no Born
    probability is computed twice.  A single corrupted extension always
    trips at least one of the three; an extension is read only to word it.
    """
    model = qm.model
    violations: list[str] = []
    checked = len(qm.predicate_names)
    for name in qm.predicate_names:
        prop = space.proposition(space.pred_masks[name])
        if prop != qm.theta[name]:
            violations.append(
                f"predicate {name}: proposition {sorted(prop)} != theta {sorted(qm.theta[name])}"
            )
    n = qm.spec.universe_size
    order = _table_order(qm.spec, qm.lattice, qm.element_index)
    for i, j in _primary_pairs(qm.lattice, order):
        name_i, name_j = qm.predicate_names[i], qm.predicate_names[j]
        mask_i, mask_j = space.pred_masks[name_i], space.pred_masks[name_j]
        for sname, _ in qm.spec.states:
            block, offset = space.state_masks[sname], model.blocks[sname][0]
            if (mask_i ^ mask_j) & block != block:
                violations.append(
                    f"state {sname}, predicate {name_j}: extension is not the "
                    f"complement of its partner {name_i}"
                )
            checked += 1
            p = qm.probabilities[(sname, name_i)]
            k = _rule_count(p.numerator, p.denominator, n, name_i, sname)
            if mask_i & block != ((1 << k) - 1) << offset:  # range(k) in the state's block
                ext_i = model.extensions[(sname, name_i)]
                violations.append(
                    f"state {sname}, predicate {name_i}: extension {sorted(ext_i)} "
                    f"does not match its projection probability"
                )
    return _relation("proposition-theta-agreement", checked, violations)


def _reachable_elements(qm: QuantumModel) -> dict[int, Formula]:
    """Lattice elements denoted by qwffs over the input properties, each
    with the representative of the first round that reaches it.  The sweep
    runs to its fixpoint, which is every element when there is a property:
    the lattice closes the same properties, 0 and 1 (P ∧ ¬P and P ∨ ¬P)
    under the same operations.  So it stops as soon as it holds every
    element of the lattice, since no later pair can add one."""
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
        limit=len(lat),
    )


def check_quantum_equivalences(
    qm: QuantumModel, space: SignatureSpace, qwffs: Mapping[int, Formula]
) -> list[SuiteResult]:
    """The logical and physical meanings of a proposition compared on the
    testable classes (the property-witness classes of ``space``), and the
    quantum De Morgan and implication identities over ``qwffs``, the
    representatives of ``_reachable_elements``.  One loop over ordered
    pairs of classes decides the conjunction footnote (classical and
    quantum conjunction share a proposition while signatures may differ),
    the relations between set operations and lattice images, and
    state-separation's ``preorder-coincides``; equivalence-coincidence
    visits only the pairs of classes that share a proposition.

    Each reachable qwff is reduced once; a quantum connective over reduced
    operands is one table lookup, so De Morgan compares ``join[a][b]`` with
    ``ortho[meet[ortho a][ortho b]]`` and catches a corrupted entry.  The two
    sides of quantum implication, a→b and ¬a∨(a∧b), are the same table
    expression ``join[ortho a][meet a b]``: that suite only counts pairs.

    The proposition of the classical conjunction is ``prop_a & prop_b``
    (``SignatureSpace.proposition`` maps ``&`` of masks to ``&`` of
    propositions), so conjunction-footnote and meet-image compare the same
    two sets and flag exactly the same pairs: neither can fail alone.
    Propositions and theta sets are read as state bitmasks once per check,
    so each pair costs integer operations only.

    Returns, in report order: equivalence-coincidence, quantum-demorgan,
    quantum-implication, conjunction-footnote, ortho-image, meet-image,
    join-image, conjunction-signature-gap and state-separation."""
    lat = qm.lattice
    sigs = [space.pred_masks[name] for name in qm.predicate_names]
    reach = [(_reduce_element(qm, space, f), f) for f in qwffs.values()]
    demorgan = [
        f"{render(fa)} / {render(fb)}"
        for a, fa in reach
        for b, fb in reach
        if sigs[lat.join[a][b]] != sigs[lat.ortho[lat.meet[lat.ortho[a]][lat.ortho[b]]]]
    ]

    # propositions and theta sets as state bitmasks, bit k for the k-th state
    theta, all_states = qm.theta_masks, (1 << len(qm.state_bits)) - 1
    blocks = [(bit, space.state_masks[s]) for s, bit in qm.state_bits.items()]
    reps = [
        (mask, name, sum(bit for bit, block in blocks if mask & block == block),
         qm.element_index[name])
        for mask, name in space.witnesses().items()
    ]
    later: dict[int, list[str]] = {}  # proposition -> its classes the loop has yet to pass
    for _, name, prop, _ in reps:
        later.setdefault(prop, []).append(name)

    equal: list[str] = []
    conj: list[str] = []
    gaps, gap_example = 0, None
    ortho_rel: list[str] = []
    meet_rel: list[str] = []
    join_rel: list[str] = []
    ortho_strict = join_strict = 0
    coincides = True
    for mask_a, name_a, prop_a, a in reps:
        same = later[prop_a]
        del same[0]  # name_a itself
        for name_b in same:
            equal.append(f"{name_a} and {name_b}: equal propositions, distinct signatures")
        ortho_image, outside = theta[lat.ortho[a]], all_states & ~prop_a
        if ortho_image & ~outside:
            ortho_rel.append(name_a)
        elif ortho_image != outside:
            ortho_strict += 1
        meets, joins = lat.meet[a], lat.join[a]
        for mask_b, name_b, prop_b, b in reps:
            quantum_element = meets[b]
            both, common = prop_a & prop_b, mask_a & mask_b
            if both != theta[quantum_element]:
                conj.append(f"{name_a} & {name_b}")
                meet_rel.append(f"{name_a} / {name_b}")
            elif common != sigs[quantum_element]:
                gaps += 1
                gap_example = gap_example or f"{name_a} & {name_b}"
            coincides &= (common == mask_a) == (both == prop_a)
            either, join_image = prop_a | prop_b, theta[joins[b]]
            if either & ~join_image:
                join_rel.append(f"{name_a} / {name_b}")
            elif either != join_image:
                join_strict += 1

    pairs = len(reps) ** 2
    gap_info = {"witnesses_found": gaps}
    if gap_example:
        gap_info["example"] = f"{gap_example}: same proposition, different signatures"
    separation = {"separating": states_separate(qm, space), "preorder-coincides": coincides}
    return [
        _relation("equivalence-coincidence", len(reps) * (len(reps) - 1) // 2, equal),
        _relation("quantum-demorgan", len(reach) ** 2, demorgan),
        _relation("quantum-implication", len(reach) ** 2, []),
        _relation("conjunction-footnote", pairs, conj),
        _relation("ortho-image", len(reps), ortho_rel, ortho_strict),
        _relation("meet-image", pairs, meet_rel),
        _relation("join-image", pairs, join_rel, join_strict),
        SuiteResult("conjunction-signature-gap", pairs, info=gap_info),
        SuiteResult("state-separation", len(lat), info=separation),
    ]


def check_q_trichotomy(
    qm: QuantumModel, space: SignatureSpace, qwffs: Mapping[int, Formula]
) -> SuiteResult:
    """Exactly one verdict per (qwff, state) over ``qwffs``, and certain
    falsehood of a formula coincides with certain truth of its negation.

    Theta sets are read as state bitmasks, so each reachable element is
    checked in all states at once; only an element with a fault is walked
    state by state, for its witnesses."""
    bit, theta, ortho = qm.state_bits, qm.theta_masks, qm.lattice.ortho
    violations = []
    checked = 0
    for idx, f in qwffs.items():
        element = _reduce_element(qm, space, f)
        negation = ortho[element]  # what QNot(f) reduces to
        checked += len(bit)
        true, false = theta[idx], theta[ortho[idx]]
        got_true, got_false = theta[element], theta[ortho[element]] & ~theta[element]
        faults = (
            (true & false)
            | (got_true ^ true)
            | (got_false ^ (false & ~true))
            | (got_false ^ theta[negation])
        )
        if not faults:
            continue
        for state, b in bit.items():
            if not faults & b:
                continue
            if true & false & b:
                violations.append(f"{render(f)} both certain in {state}")
            verdict = _verdict(qm, element, b)
            if verdict != _verdict(qm, idx, b):  # the verdict theta gives the element itself
                violations.append(f"{render(f)} in {state}: got {verdict}")
            negated = _verdict(qm, negation, b)
            if (verdict == QTruth.FALSE) != (negated == QTruth.TRUE):
                violations.append(
                    f"{render(f)} in {state}: falsehood and negated truth disagree"
                )
    return _relation("q-truth-trichotomy", checked, violations)


def states_separate(qm: QuantumModel, space: SignatureSpace) -> bool:
    """True when the represented states distinguish every pair of lattice
    elements, both through theta and through extension profiles.

    This is the finite stand-in for representing every atom: on separating
    models, equal propositions imply equal signatures on all testable
    formulas, and the qwff quotient is isomorphic to the lattice.
    """
    thetas = [qm.theta[name] for name in qm.predicate_names]
    sigs = [space.pred_masks[name] for name in qm.predicate_names]
    return len(set(thetas)) == len(thetas) and len(set(sigs)) == len(sigs)


def lt_quotient_check(qm: QuantumModel, space: SignatureSpace) -> SuiteResult:
    """Compare the quotient of qwffs under signature equality with the
    built lattice; ``info["status"]`` is "isomorphic", "degenerate" or
    "mismatch", and only a mismatch is a violation.

    Every lattice element is denoted by some qwff, so the quotient is the
    image of the element set under the signature map.  When the states
    separate elements (the map is injective) the induced meet and join are
    the lattice's by construction, so only the complement is compared: the
    signature of each element's orthocomplement must be the complement of
    its own in the model as it stands, and the first element where it is
    not is the witness.  Otherwise the quotient is degenerate, which is
    reported by its status alone.  Faults in the tables themselves are
    caught by the table-demorgan and orthomodularity suites.
    """
    sigs = [space.pred_masks[name] for name in qm.predicate_names]
    element_of_sig = {s: i for i, s in enumerate(sigs)}
    status, witnesses = "isomorphic", []
    if len(element_of_sig) < len(sigs):
        status = "degenerate"
    else:
        for i, ortho in enumerate(qm.lattice.ortho):
            if element_of_sig.get(space.omega & ~sigs[i]) != ortho:
                status, witnesses = "mismatch", [f"ortho at {qm.predicate_names[i]}"]
                break
    return SuiteResult(
        "qwff-quotient-isomorphism", len(sigs), len(witnesses), witnesses, {"status": status}
    )


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
