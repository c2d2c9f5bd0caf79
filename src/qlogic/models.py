"""Finite models: states, per-state universes, predicate extensions.

Evaluation is two-valued and Tarskian: an open formula is checked at a
(state, object) pair, a sentence is the universal closure over the state's
universe.  Because formulas carry a single variable, quantifying over all
interpretations collapses to quantifying over the objects of each state;
the ``signature`` of a formula (the set of satisfying (state, object)
pairs) therefore realizes logical equivalence, while the set of states
where the universal closure holds realizes physical equivalence.
"""

from __future__ import annotations

import json
import operator
import re
import weakref
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import Collection, Iterable, Mapping

from ._fixpoint import fixpoint
from .errors import (
    ClosureOverflow,
    DepthLimitExceeded,
    ModelValidationError,
    ObjectOutOfRange,
    QuantumNodeInClassicalEval,
    UnknownPredicate,
    UnknownState,
)
from .formulas import (
    MAX_ENUM_DEPTH,
    And,
    Formula,
    Not,
    Or,
    Pred,
    render,
)

Signature = frozenset  # of (state, object index) pairs

# A one-slot memo is (weak reference to a formula, value); the empty one's
# reference matches no formula.
_EMPTY_SLOT = (lambda: None, None)

_IDENT_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_]*$")

MAX_RELATION_DEPTH = 3

MAX_PAIRS = 1_000_000  # (state, object) pairs of a model: its index has an entry for each
MAX_DIM = 64  # Hilbert space dimension of a spec: exact elimination grows about as dim**2.5


@dataclass(frozen=True)
class PredicateInfo:
    name: str
    is_property: bool = True
    ortho: str | None = None


@dataclass(frozen=True)
class Model:
    """Frozen finite structure that owns its signature index.

    ``extensions`` maps (state, predicate name) to a frozenset of object
    indices; missing entries are treated as empty during normalization.
    Every state in ``states``, and no other, has a universe.  Both
    mappings are read-only copies of the caller's.  Construction lays out
    the index every ``SignatureSpace`` view reads and checks on it that
    paired predicates have complementary extensions in every state.

    Next to the index sits one weak slot, the memo of ``eval_open``: the
    last formula it was asked about other than a leaf, held by weak
    reference and matched by identity, with that formula's mask as bytes.
    It keeps no formula alive, and copy and pickle rebuild the model with
    the slot empty.
    """

    predicates: tuple[PredicateInfo, ...]
    states: tuple[str, ...]
    universe_sizes: Mapping[str, int]
    extensions: Mapping[tuple[str, str], frozenset[int]]

    def __post_init__(self):
        object.__setattr__(self, "predicates", tuple(self.predicates))
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "universe_sizes", MappingProxyType(dict(self.universe_sizes)))
        names = [p.name for p in self.predicates]
        if len(set(names)) != len(names):
            raise ModelValidationError("duplicate predicate names")
        for name in names:
            if not _IDENT_RE.match(name):
                raise ModelValidationError(
                    f"predicate name {name!r} is not an identifier"
                )
        if len(set(self.states)) != len(self.states):
            raise ModelValidationError("duplicate state names")
        by_name = {p.name: p for p in self.predicates}
        for s in self.states:
            if self.universe_sizes.get(s, 0) < 1:
                raise ModelValidationError(f"state {s!r} needs a universe of size >= 1")
        if len(self.universe_sizes) != len(self.states):  # every state has a size
            s = next(s for s in self.universe_sizes if s not in self.states)
            raise ModelValidationError(f"universe for unknown state {s!r}")
        if (count := sum(self.universe_sizes.values())) > MAX_PAIRS:
            raise ModelValidationError(f"{count} (state, object) pairs, over the cap {MAX_PAIRS}")
        normalized: dict[tuple[str, str], frozenset[int]] = {}
        in_range: set[tuple[frozenset[int], int]] = set()  # few extensions are distinct
        for (s, pname), ext in self.extensions.items():
            if s not in self.universe_sizes:
                raise ModelValidationError(f"extension for unknown state {s!r}")
            if pname not in by_name:
                raise ModelValidationError(f"extension for unknown predicate {pname!r}")
            ext = frozenset(ext)
            n = self.universe_sizes[s]
            if (ext, n) not in in_range:
                bad = [u for u in ext if not 0 <= u < n]
                if bad:
                    raise ModelValidationError(
                        f"state {s!r}, predicate {pname!r}: object index {bad[0]} "
                        f"outside universe of size {n}"
                    )
                in_range.add((ext, n))
            normalized[(s, pname)] = ext
        for s in self.states:
            for p in self.predicates:
                normalized.setdefault((s, p.name), frozenset())
        object.__setattr__(self, "extensions", MappingProxyType(normalized))
        self._index()
        for p in self.predicates:
            if p.ortho is None:
                continue
            partner = by_name.get(p.ortho)
            if partner is None:
                raise ModelValidationError(
                    f"predicate {p.name!r} pairs with unknown predicate {p.ortho!r}"
                )
            if partner.ortho != p.name:
                raise ModelValidationError(
                    f"pairing of {p.name!r} and {p.ortho!r} is not symmetric"
                )
            filled = self.pred_masks[p.name] ^ self.pred_masks[p.ortho]
            for s, block in self.state_masks.items():
                if filled & block != block:
                    raise ModelValidationError(
                        f"state {s!r}, predicate {p.name!r}: extension is not the "
                        f"complement of its partner {p.ortho!r}"
                    )

    def _index(self) -> None:
        """Lay out the bit index every SignatureSpace of the model reads: one
        bit per (state, object) pair, one record per state (first bit, size,
        extensions by predicate), the state and predicate masks, and per scope
        the first predicate carrying each mask; empty the memo of eval_open."""
        pairs = tuple((s, u) for s in self.states for u in range(self.universe_sizes[s]))
        position = {pair: i for i, pair in enumerate(pairs)}
        blocks = {
            s: (position[(s, 0)], self.universe_sizes[s],
                MappingProxyType({p.name: self.extensions[(s, p.name)] for p in self.predicates}))
            for s in self.states
        }
        state_masks = {s: ((1 << n) - 1) << offset for s, (offset, n, _) in blocks.items()}
        ext_bits: dict[frozenset[int], int] = {}  # extension -> its bits; few are distinct
        pred_masks: dict[str, int] = {}
        witnesses: dict[str, dict[int, str]] = {"effects": {}, "properties": {}}
        for p in self.predicates:
            mask = 0
            for s in self.states:  # each state's extension as one block, shifted in once
                ext = self.extensions[(s, p.name)]
                block = ext_bits.get(ext)
                if block is None:
                    block = ext_bits[ext] = _bits(ext)
                mask |= block << blocks[s][0]
            pred_masks[p.name] = mask
            witnesses["effects"].setdefault(mask, p.name)
            if p.is_property:
                witnesses["properties"].setdefault(mask, p.name)
        for name, value in dict(
            pairs=pairs,
            position=MappingProxyType(position),
            blocks=MappingProxyType(blocks),
            omega=(1 << len(pairs)) - 1,
            state_masks=MappingProxyType(state_masks),
            pred_masks=MappingProxyType(pred_masks),
            witnesses=MappingProxyType({k: MappingProxyType(w) for k, w in witnesses.items()}),
            _eval_slot=_EMPTY_SLOT,
        ).items():  # not vars(self): a dict made that way slows every attribute load
            object.__setattr__(self, name, value)

    def __reduce__(self):  # copy and pickle rebuild through the constructor, index and all
        fields = (self.predicates, self.states, dict(self.universe_sizes), dict(self.extensions))
        return Model, fields

    # -- lookups ------------------------------------------------------------

    def predicate(self, name: str) -> PredicateInfo:
        for p in self.predicates:
            if p.name == name:
                return p
        raise UnknownPredicate(name)

    def predicate_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.predicates)

    def property_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.predicates if p.is_property)

    def universe_size(self, state: str) -> int:
        try:
            return self.universe_sizes[state]
        except KeyError:
            raise UnknownState(state) from None


def _bits(indices: Collection[int]) -> int:
    """The int with bit u set for each u in the nonnegative indices, in time
    linear in the largest: setting the bits of one growing int one at a
    time would copy it once per bit."""
    buf = bytearray((max(indices, default=-1) >> 3) + 1)
    for u in indices:
        buf[u >> 3] |= 1 << (u & 7)
    return int.from_bytes(buf, "little")


# -- model files --------------------------------------------------------------


_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", int: "an integer"}


def expect_json(value, kind: type, what: str):
    """``value`` if it has the JSON type ``kind`` (dict, list, str or int,
    never a boolean); otherwise TypeError, which the loaders report as a
    malformed file."""
    if not isinstance(value, kind) or isinstance(value, bool):
        raise TypeError(f"{what} must be {_JSON_TYPES[kind]}, not {value!r:.40}")
    return value


def _property_flag(entry: Mapping) -> bool:
    flag = entry.get("property", True)
    if not isinstance(flag, bool):
        raise ModelValidationError(
            f"predicate {entry.get('name')!r}: property must be true or false, not {flag!r}"
        )
    return flag


def model_from_dict(data: Mapping) -> Model:
    try:
        data = expect_json(data, dict, "a model")
        preds = []
        for p in expect_json(data["predicates"], list, "predicates"):
            p = expect_json(p, dict, "a predicate")
            name = expect_json(p["name"], str, "a predicate name")
            ortho = p.get("ortho")
            if ortho is not None:
                expect_json(ortho, str, f"the ortho of {name!r}")
            preds.append(PredicateInfo(name, _property_flag(p), ortho))
        states = []
        sizes: dict[str, int] = {}
        extensions: dict[tuple[str, str], frozenset[int]] = {}
        for entry in expect_json(data["states"], list, "states"):
            entry = expect_json(entry, dict, "a state")
            s = expect_json(entry["name"], str, "a state name")
            states.append(s)
            sizes[s] = expect_json(entry["universe"], int, f"the universe of {s!r}")
            exts = expect_json(entry.get("extensions", {}), dict, f"the extensions of {s!r}")
            for pname, indices in exts.items():
                what = f"the extension of {pname!r} in {s!r}"
                extensions[(s, pname)] = frozenset(
                    expect_json(i, int, f"an index in {what}")
                    for i in expect_json(indices, list, what)
                )
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelValidationError(f"malformed model file: {exc}") from exc
    return Model(tuple(preds), tuple(states), sizes, extensions)


def model_to_dict(m: Model) -> dict:
    return {
        "predicates": [
            {"name": p.name, "property": p.is_property, "ortho": p.ortho}
            for p in m.predicates
        ],
        "states": [
            {
                "name": s,
                "universe": m.universe_sizes[s],
                "extensions": {
                    p.name: sorted(m.extensions[(s, p.name)]) for p in m.predicates
                },
            }
            for s in m.states
        ],
    }


def read_json(path: str | Path):
    """Parsed contents of a JSON input file; unreadable or malformed files
    raise ModelValidationError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ModelValidationError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON, UTF-8, digit limit, nesting
        raise ModelValidationError(f"{path} is not valid JSON: {exc}") from exc


def load_model(path: str | Path) -> Model:
    return model_from_dict(read_json(path))


def save_model(m: Model, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(model_to_dict(m), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


# -- evaluation ----------------------------------------------------------------


def eval_open(m: Model, f: Formula, state: str, obj: int) -> bool:
    """Truth of the open formula at one (state, object) pair.

    One lookup finds the state's record, against which the object is
    checked; a leaf is then one lookup among the state's extensions, and
    any other formula reads a bit of its mask, kept for the last one asked.
    A formula with no mask (an unknown leaf or a quantum node) raises at
    every pair what ``signature`` raises for it, and leaves the slot as it
    was."""
    try:
        offset, n, extensions = m.blocks[state]
    except KeyError:
        raise UnknownState(state) from None
    if not 0 <= obj < n:
        raise ObjectOutOfRange(f"object {obj} outside universe of size {n} in {state!r}")
    if isinstance(f, Pred):
        try:
            return obj in extensions[f.name]
        except KeyError:
            raise UnknownPredicate(f.name) from None
    ref, bits = m._eval_slot
    if ref() is not f:
        # bytes, because reading bit i of a big int shifts a copy of it:
        # quadratic over a large universe
        bits = _mask(m.pred_masks, m.omega, f, {}).to_bytes(len(m.pairs) // 8 + 1, "little")
        object.__setattr__(m, "_eval_slot", (weakref.ref(f), bits))  # frozen: past __setattr__
    i = offset + obj
    return bits[i >> 3] >> (i & 7) & 1 == 1


def eval_universal(m: Model, f: Formula, state: str) -> bool:
    """Truth of the universally closed sentence: every object satisfies f."""
    return all(eval_open(m, f, state, u) for u in range(m.universe_size(state)))


# -- signatures as bitmasks ------------------------------------------------------


class SignatureSpace:
    """View of a model's bit layout of all (state, object) pairs.

    Signatures are manipulated as integer bitmasks internally; the public
    API converts to frozensets of pairs.  The masks and witness maps are
    the model's own, laid out once at its construction, so a space costs
    a few references; what a space adds is the memo of its class sweeps.
    """

    def __init__(self, m: Model):
        self.model = m
        self.pairs, self.position, self.omega = m.pairs, m.position, m.omega
        self.state_masks, self.pred_masks = m.state_masks, m.pred_masks
        self._witnesses = m.witnesses
        self._classes: dict[tuple[tuple[str, ...], int], dict[int, Formula]] = {}

    def witnesses(self, scope: str = "properties") -> Mapping[int, str]:
        """Each predicate signature mapped to the first predicate, in table
        order, that carries it, among the property predicates (scope
        "properties") or all of them ("effects"): a formula is testable
        exactly when its mask is a key."""
        if scope not in self._witnesses:
            raise ValueError(f"scope must be 'effects' or 'properties', got {scope!r}")
        return self._witnesses[scope]

    def mask_of(self, f: Formula, cache: dict[Formula, int] | None = None) -> int:
        return _mask(self.pred_masks, self.omega, f, cache)

    def to_signature(self, mask: int) -> Signature:
        return frozenset(pair for i, pair in enumerate(self.pairs) if mask >> i & 1)

    def proposition(self, mask: int) -> frozenset[str]:
        """States whose whole universe satisfies the mask.

        A state's block is full in ``a & b`` iff it is full in both, so
        ``proposition(a & b) == proposition(a) & proposition(b)`` for all
        masks: the proposition of a classical conjunction is the meet of
        its operands' propositions."""
        return frozenset(
            s for s in self.model.states if mask & self.state_masks[s] == self.state_masks[s]
        )

    def reachable_classes(
        self, generator_names: Iterable[str], max_depth: int
    ) -> dict[int, Formula]:
        """Signature classes of all classical formulas over the generators
        up to the given depth, each with one representative formula.

        Signatures compose (the mask of a connective node is a set
        operation on the children's masks), so layering over class
        representatives enumerates exactly the signatures of the full
        formula enumeration without materializing it.  Each sweep runs once
        per space, and its callers share the dict, which none may change.
        """
        key = (tuple(generator_names), max_depth)
        if key not in self._classes:
            self._classes[key] = self._closure(key[0], rounds=max_depth)
        return self._classes[key]

    def closed_classes(
        self, generator_names: Iterable[str], max_elements: int | None = None
    ) -> dict[int, Formula]:
        """Fixpoint of reachable_classes: the full generated subalgebra.

        The subalgebra has up to 2**a elements for a partition with a
        atoms, so callers that cannot bound the generator count should
        pass a cap; exceeding it raises ClosureOverflow.
        """
        names = tuple(generator_names)
        overflow = ClosureOverflow(
            f"signature algebra exceeded {max_elements} elements", generators=names
        )
        return self._closure(names, cap=max_elements, overflow=overflow)

    def atoms(self, generator_names: Iterable[str]) -> list[int]:
        """Masks of the cells of bits lying in exactly the same generators,
        refined one generator at a time by splitting each cell into its
        part inside and its part outside the generator; in no set order.
        The generators close to the unions of these atoms (Givant & Halmos),
        2**len(atoms) elements."""
        cells = [self.omega] if self.omega else []
        for name in generator_names:
            mask = self.mask_of(Pred(name))
            cells = [part for cell in cells for part in (cell & mask, cell & ~mask) if part]
        return cells

    def _closure(self, generator_names: Iterable[str], **limits) -> dict[int, Formula]:
        seeds: dict[int, Formula] = {}
        for name in generator_names:
            seeds.setdefault(self.mask_of(Pred(name)), Pred(name))
        unary = [(lambda mask, omega=self.omega: omega & ~mask, Not)]
        binary = [(operator.and_, And), (operator.or_, Or)]
        return fixpoint(seeds, unary, binary, symmetric=True, **limits)


def _mask(
    pred_masks: Mapping[str, int], omega: int, f: Formula, cache: dict[Formula, int] | None
) -> int:
    """The mask of the classical formula over the predicate masks: set
    operations on the children's masks, each subtree once per cache."""
    if cache is not None and f in cache:
        return cache[f]
    if isinstance(f, Pred):
        try:
            value = pred_masks[f.name]
        except KeyError:
            raise UnknownPredicate(f.name) from None
    elif isinstance(f, Not):
        value = omega & ~_mask(pred_masks, omega, f.child, cache)
    elif isinstance(f, And):
        value = _mask(pred_masks, omega, f.left, cache) & _mask(pred_masks, omega, f.right, cache)
    elif isinstance(f, Or):
        value = _mask(pred_masks, omega, f.left, cache) | _mask(pred_masks, omega, f.right, cache)
    else:
        raise QuantumNodeInClassicalEval(render(f))
    if cache is not None:
        cache[f] = value
    return value


def signature(m: Model, f: Formula) -> Signature:
    """The set of (state, object) pairs satisfying the classical formula."""
    space = SignatureSpace(m)
    return space.to_signature(space.mask_of(f))


def logical_leq(m: Model, f: Formula, g: Formula) -> bool:
    """Signature inclusion: truth of f implies truth of g pointwise."""
    space = SignatureSpace(m)
    cache: dict[Formula, int] = {}
    mf, mg = space.mask_of(f, cache), space.mask_of(g, cache)
    return mf & ~mg == 0


def physical_leq(m: Model, f: Formula, g: Formula) -> bool:
    """Certain truth of f implies certain truth of g, state by state."""
    space = SignatureSpace(m)
    cache: dict[Formula, int] = {}
    pf = space.proposition(space.mask_of(f, cache))
    pg = space.proposition(space.mask_of(g, cache))
    return pf <= pg


# -- quotient algebra -------------------------------------------------------------


@dataclass
class QuotientAlgebra:
    """Signature classes: subsets of omega, closed under the set operations."""

    omega: Signature
    elements: frozenset
    generators: dict[str, Signature]


def quotient_boolean(
    m: Model, predicates: Iterable[str] | None = None, max_elements: int = 512
) -> QuotientAlgebra:
    """The algebra of signatures of classical formulas over the predicates:
    the unions of their atoms, a Boolean subalgebra by construction.  A
    carrier above max_elements raises ClosureOverflow instead of being
    built."""
    space = SignatureSpace(m)
    names = tuple(predicates) if predicates is not None else m.predicate_names()
    atoms = space.atoms(names)
    if names and 2 ** len(atoms) > max_elements:
        raise ClosureOverflow(
            f"signature algebra exceeded {max_elements} elements", generators=names
        )
    unions = [0] if names else []
    for atom in atoms:
        unions += [union | atom for union in unions]
    return QuotientAlgebra(
        omega=space.to_signature(space.omega),
        elements=frozenset(space.to_signature(mask) for mask in unions),
        generators={name: space.to_signature(space.pred_masks[name]) for name in names},
    )


def quotient_size(space: SignatureSpace, predicates: Iterable[str] | None = None) -> int:
    """Element count of ``quotient_boolean``'s carrier without building it:
    2**atoms, 0 for an empty alphabet."""
    names = tuple(predicates) if predicates is not None else space.model.predicate_names()
    return 2 ** len(space.atoms(names)) if names else 0


def boolean_law_violations(alg: QuotientAlgebra, max_reports: int = 20) -> list[str]:
    """Boolean-subalgebra check over the algebra's elements.

    Complement, meet and join are bitwise not, and, or on masks, so the
    lattice laws (identity, idempotence, commutativity, absorption,
    associativity, distributivity, complementation) hold for any set of
    masks.  What can fail is membership: bottom, top, each complement, and
    the meet and join of each pair must lie in the carrier.
    """
    if not alg.elements:
        return []
    pairs = sorted(alg.omega)
    position = {p: i for i, p in enumerate(pairs)}
    masks = sorted(sum(1 << position[p] for p in sig) for sig in alg.elements)
    element_set = set(masks)
    omega_mask = (1 << len(pairs)) - 1
    out: list[str] = []

    def report(msg: str) -> None:
        if len(out) < max_reports:
            out.append(msg)

    if 0 not in element_set:
        report("bottom (empty signature) missing")
    if omega_mask not in element_set:
        report("top (full signature) missing")
    for a in masks:
        if omega_mask & ~a not in element_set:
            report(f"complement of element {a:#x} not in carrier")
    for a in masks:
        for b in masks:
            if a & b not in element_set or a | b not in element_set:
                report(f"carrier not closed for pair ({a:#x}, {b:#x})")
    return out


# -- suite outcomes -------------------------------------------------------------------


@dataclass
class SuiteResult:
    """One conformance suite's line in the ``check`` report: its name, how
    many cases it checked, how many violated it, witness strings, and named
    facts (``info``).

    ``violations`` is a count of its own: most suites give one witness per
    violation, but table-demorgan and ortho-involution give none and
    orthomodularity gives the two elements of its one failure.  Suites
    with no violation path report through ``info`` alone.  Text shows at
    most 3 witnesses, JSON at most 5.
    """

    suite: str
    checked: int = 0
    violations: int = 0
    witnesses: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)
    applicable: bool = True

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        out = {
            "suite": self.suite,
            "applicable": self.applicable,
            "checked": self.checked,
            "violations": self.violations,
        }
        if self.witnesses:
            out["witnesses"] = self.witnesses[:5]
        if self.info:
            out["info"] = self.info
        return out

    def text(self) -> str:
        if not self.applicable:
            return f"suite {self.suite}: not applicable"
        status = "ok" if not self.violations else f"{self.violations} violation(s)"
        line = f"suite {self.suite}: {status} (checked {self.checked})"
        if self.info:
            extras = ", ".join(f"{k}={v}" for k, v in sorted(self.info.items()))
            line += f" [{extras}]"
        if self.witnesses:
            line += f" witnesses: {'; '.join(self.witnesses[:3])}"
        return line


# -- classical-mechanics profile ----------------------------------------------------


def build_cm_model(
    states: Iterable[str],
    predicates: Iterable[str],
    truth: Mapping[tuple[str, str], bool],
    universe_sizes: int | Mapping[str, int] = 4,
) -> Model:
    """Model in which every extension is full or empty per the truth table.

    Each predicate is flagged as a property and paired with a generated
    ``<name>_perp`` partner carrying the complemented table.
    """
    states = tuple(states)
    base = tuple(predicates)
    if isinstance(universe_sizes, int):
        sizes = {s: universe_sizes for s in states}
    else:
        sizes = dict(universe_sizes)
    preds: list[PredicateInfo] = []
    extensions: dict[tuple[str, str], frozenset[int]] = {}
    for name in base:
        partner = f"{name}_perp"
        if partner in base:
            raise ModelValidationError(f"predicate name {partner!r} already taken")
        preds.append(PredicateInfo(name, True, partner))
        preds.append(PredicateInfo(partner, True, name))
        for s in states:
            full = frozenset(range(sizes[s]))
            holds = bool(truth.get((s, name), False))
            extensions[(s, name)] = full if holds else frozenset()
            extensions[(s, partner)] = frozenset() if holds else full
    return Model(tuple(preds), states, sizes, extensions)


def check_cms(m: Model) -> bool:
    """Every property extension is the whole universe or empty."""
    for p in m.predicates:
        if not p.is_property:
            continue
        for s in m.states:
            ext = m.extensions[(s, p.name)]
            if ext and len(ext) != m.universe_sizes[s]:
                return False
    return True


def check_cmt(
    space: SignatureSpace, max_depth: int = 3, predicates: tuple[str, ...] | None = None
) -> SuiteResult:
    """cm-testability: whether every property-wff up to max_depth has a
    property predicate with its signature (``info["holds"]``); when not,
    ``info["witness"]`` renders a formula with no such predicate.  A
    profile, not a law, so it reports no violations.

    ``predicates`` restricts which property predicates the wffs are built
    from (witness search always covers the whole table); callers with
    large tables pass the generating fragment to keep the sweep bounded.
    """
    if max_depth > MAX_ENUM_DEPTH:
        raise DepthLimitExceeded(f"depth {max_depth} exceeds cap {MAX_ENUM_DEPTH}")
    names = space.model.property_names() if predicates is None else predicates
    classes = space.reachable_classes(names, max_depth)
    result = SuiteResult("cm-testability", len(classes), info={"holds": True})
    for mask, rep in classes.items():
        if mask not in space.witnesses():
            result.info = {"holds": False, "witness": render(rep)}
            break
    return result


def truth_collapse_violations(
    space: SignatureSpace, max_depth: int = 3, predicates: tuple[str, ...] | None = None
) -> list[str]:
    """Property-wffs whose truth at some state depends on the object.

    Empty on any model satisfying the full-or-empty extension profile:
    there, truth and certain truth coincide.
    """
    if max_depth > MAX_ENUM_DEPTH:
        raise DepthLimitExceeded(f"depth {max_depth} exceeds cap {MAX_ENUM_DEPTH}")
    names = space.model.property_names() if predicates is None else predicates
    classes = space.reachable_classes(names, max_depth)
    out = []
    for mask, rep in classes.items():
        for s, block in space.state_masks.items():
            slice_ = mask & block
            if slice_ and slice_ != block:
                out.append(f"{render(rep)} is object-dependent in state {s}")
                break
    return out
