"""Finite models: states, per-state universes, predicate extensions.

Evaluation is two-valued and Tarskian: an open formula is checked at a
(state, object) pair, a sentence is the universal closure over the state's
universe.  Because formulas carry a single variable, quantifying over all
interpretations collapses to quantifying over the objects of each state;
the signature of a formula (the set of satisfying (state, object) pairs)
therefore realizes logical equivalence, while the set of states
where the universal closure holds realizes physical equivalence.
"""

from __future__ import annotations

import json
import operator
import re
import weakref
from dataclasses import dataclass, field
from itertools import count
from pathlib import Path
from types import MappingProxyType
from typing import Collection, Iterable, Mapping

from ._fixpoint import fixpoint
from .errors import (
    ClosureOverflow,
    ModelValidationError,
    ObjectOutOfRange,
    QuantumNodeInClassicalEval,
    UnknownPredicate,
    UnknownState,
)
from .formulas import (
    And,
    Formula,
    Not,
    Or,
    Pred,
    render,
)

# A one-slot memo is (weak reference to a formula, value); the empty one's
# reference matches no formula.
_EMPTY_SLOT = (lambda: None, None)

_IDENT_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_]*$")

MAX_PAIRS = 1_000_000  # (state, object) pairs of a model: its index has a bit for each
MAX_DIM = 64  # Hilbert space dimension of a spec: exact elimination grows about as dim**2.5


def check_pair_count(count: int) -> None:
    """Refuse a model of ``count`` (state, object) pairs over MAX_PAIRS."""
    if count > MAX_PAIRS:
        raise ModelValidationError(f"{count} (state, object) pairs, over the cap {MAX_PAIRS}")


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
    mappings are read-only copies of the caller's.  Construction
    normalises the extensions and lays out the index every
    ``SignatureSpace`` view reads in one state-major pass, then checks on
    the index that paired predicates have complementary extensions in
    every state: the XOR of their masks is ``omega``.

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
        check_pair_count(sum(self.universe_sizes.values()))
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
            # complements in every state exactly when the masks split omega
            filled = self.pred_masks[p.name] ^ self.pred_masks[p.ortho]
            if filled != self.omega:
                s = next(s for s, block in self.state_masks.items() if filled & block != block)
                raise ModelValidationError(
                    f"state {s!r}, predicate {p.name!r}: extension is not the "
                    f"complement of its partner {p.ortho!r}"
                )

    def _index(self) -> None:
        """Normalise ``extensions`` and lay out the bit index every
        SignatureSpace of the model reads, in one state-major pass: one bit
        per (state, object) pair and no object per bit, one record per state
        (first bit, size, extensions by predicate), the state and predicate
        masks, and per scope the first predicate carrying each mask; empty
        the memo of eval_open.  A missing extension is empty."""
        given = self.extensions
        normalized: dict[tuple[str, str], frozenset[int]] = {}
        ext_bits: dict[frozenset[int], int] = {}  # extension -> its bits; few are distinct
        masks = [0] * len(self.predicates)
        total = 0  # bits laid out so far
        blocks = {}
        largest = max(self.universe_sizes.values(), default=0)  # bounds every _bits buffer
        found = 0  # keys of ``given`` met; if fewer than it holds, one names no listed pair
        for s in self.states:
            offset, n = total, self.universe_sizes[s]
            total += n
            by_predicate = {}
            for k, p in enumerate(self.predicates):
                ext = given.get((s, p.name))
                if ext is None:
                    ext = frozenset()
                else:
                    found += 1
                    ext = frozenset(ext)
                bits = ext_bits.get(ext)
                if bits is None:
                    if ext and (min(ext) < 0 or max(ext) >= largest):
                        raise self._extension_error(given)
                    bits = ext_bits[ext] = _bits(ext)
                if bits >> n:
                    raise self._extension_error(given)
                normalized[(s, p.name)] = by_predicate[p.name] = ext
                masks[k] |= bits << offset
            blocks[s] = (offset, n, MappingProxyType(by_predicate))
        if found != len(given):
            raise self._extension_error(given)
        witnesses: dict[str, dict[int, str]] = {"effects": {}, "properties": {}}
        for p, mask in zip(self.predicates, masks):
            witnesses["effects"].setdefault(mask, p.name)
            if p.is_property:
                witnesses["properties"].setdefault(mask, p.name)
        for name, value in dict(
            extensions=MappingProxyType(normalized),
            blocks=MappingProxyType(blocks),
            omega=(1 << total) - 1,
            state_masks=MappingProxyType(
                {s: ((1 << n) - 1) << offset for s, (offset, n, _) in blocks.items()}
            ),
            pred_masks=MappingProxyType({p.name: m for p, m in zip(self.predicates, masks)}),
            witnesses=MappingProxyType({k: MappingProxyType(w) for k, w in witnesses.items()}),
            _eval_slot=_EMPTY_SLOT,
        ).items():  # not vars(self): a dict made that way slows every attribute load
            object.__setattr__(self, name, value)

    def _extension_error(self, given: Mapping) -> ModelValidationError:
        """The error for the first key of ``given``, in its order, that names
        an unlisted state or predicate or holds an index outside its universe;
        asked only once the pass in ``_index`` has met such a key."""
        names = {p.name for p in self.predicates}
        for (s, pname), ext in given.items():
            if s not in self.universe_sizes:
                return ModelValidationError(f"extension for unknown state {s!r}")
            if pname not in names:
                return ModelValidationError(f"extension for unknown predicate {pname!r}")
            n = self.universe_sizes[s]
            bad = [u for u in ext if not 0 <= u < n]
            if bad:
                return ModelValidationError(
                    f"state {s!r}, predicate {pname!r}: object index {bad[0]} "
                    f"outside universe of size {n}"
                )
        raise AssertionError("_index met a bad extension that _extension_error cannot name")

    def __reduce__(self):  # copy and pickle rebuild through the constructor, index and all
        fields = (self.predicates, self.states, dict(self.universe_sizes), dict(self.extensions))
        return Model, fields

    # -- lookups ------------------------------------------------------------

    def predicate_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.predicates)

    def property_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.predicates if p.is_property)


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


# -- evaluation ----------------------------------------------------------------


def eval_open(m: Model, f: Formula, state: str, obj: int) -> bool:
    """Truth of the open formula at one (state, object) pair.

    One lookup finds the state's record, against which the object is
    checked; a leaf is then one lookup among the state's extensions, and
    any other formula reads a bit of its mask, kept for the last one asked.
    A formula with no mask (an unknown leaf or a quantum node) raises at
    every pair what ``SignatureSpace.mask_of`` raises for it, and leaves the
    slot as it was."""
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
        bits = _mask(m.pred_masks, m.omega, f)  # as bytes: bit i of an int shifts a copy
        bits = bits.to_bytes(m.omega.bit_length() // 8 + 1, "little")
        object.__setattr__(m, "_eval_slot", (weakref.ref(f), bits))  # frozen: past __setattr__
    i = offset + obj
    return bits[i >> 3] >> (i & 7) & 1 == 1


# -- signatures as bitmasks ------------------------------------------------------


class SignatureSpace:
    """View of a model's bit layout of all (state, object) pairs.

    Signatures are integer bitmasks, bit ``offset + u`` for object u of
    the state whose block starts at ``offset``.  The masks and witness
    maps are the model's own, laid out once at its construction, so a
    space costs a few references; what a space adds is the memo of its
    atoms.
    """

    def __init__(self, m: Model):
        self.model = m
        self.omega, self.state_masks, self.pred_masks = m.omega, m.state_masks, m.pred_masks
        self._witnesses = m.witnesses
        self._atoms: dict[tuple[str, ...], tuple[int, ...]] = {}

    def witnesses(self, scope: str = "properties") -> Mapping[int, str]:
        """Each predicate signature mapped to the first predicate, in table
        order, that carries it, among the property predicates (scope
        "properties") or all of them ("effects"): a formula is testable
        exactly when its mask is a key."""
        if scope not in self._witnesses:
            raise ValueError(f"scope must be 'effects' or 'properties', got {scope!r}")
        return self._witnesses[scope]

    def mask_of(self, f: Formula) -> int:
        return _mask(self.pred_masks, self.omega, f)

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
        up to the given depth, each mask mapped to one representative
        formula.  Signatures compose, so layering over classes enumerates
        those of the full formula enumeration.  Each call sweeps afresh."""
        return self._closure(tuple(generator_names), rounds=max_depth)

    def closed_classes(
        self, generator_names: Iterable[str], max_elements: int | None = None
    ) -> dict[int, Formula]:
        """Fixpoint of reachable_classes: the full generated subalgebra.

        It has quotient_size = 2**a elements for a partition with a atoms:
        a cap below that raises ClosureOverflow before any sweep, and the
        sweep stops once it holds them all.
        """
        names = tuple(generator_names)
        size = quotient_size(self, names)
        if max_elements is not None and size > max_elements:
            raise ClosureOverflow(
                f"signature algebra exceeded {max_elements} elements", generators=names
            )
        return self._closure(names, limit=size)

    def atoms(self, generator_names: Iterable[str]) -> tuple[int, ...]:
        """Masks of the cells of bits lying in exactly the same generators,
        refined one generator at a time by splitting each cell into its
        part inside and its part outside the generator; in no set order,
        computed once per alphabet.  The generators close to the unions of
        these atoms (Givant & Halmos), 2**len(atoms) elements."""
        names = tuple(generator_names)
        if names not in self._atoms:
            cells = [self.omega] if self.omega else []
            for name in names:
                mask = self.mask_of(Pred(name))
                cells = [part for cell in cells for part in (cell & mask, cell & ~mask) if part]
            self._atoms[names] = tuple(cells)
        return self._atoms[names]

    def _closure(self, generator_names: tuple[str, ...], **limits) -> dict[int, Formula]:
        seeds: dict[int, Formula] = {}
        for name in generator_names:
            seeds.setdefault(self.mask_of(Pred(name)), Pred(name))
        unary = [(self.omega.__xor__, Not)]
        binary = [(operator.and_, And), (operator.or_, Or)]
        return fixpoint(seeds, unary, binary, symmetric=True, **limits)


def _mask(pred_masks: Mapping[str, int], omega: int, f: Formula) -> int:
    """The mask of the classical formula over the predicate masks: set
    operations on the children's masks."""
    if isinstance(f, Pred):
        try:
            return pred_masks[f.name]
        except KeyError:
            raise UnknownPredicate(f.name) from None
    if isinstance(f, Not):
        return omega & ~_mask(pred_masks, omega, f.child)
    if isinstance(f, And):
        return _mask(pred_masks, omega, f.left) & _mask(pred_masks, omega, f.right)
    if isinstance(f, Or):
        return _mask(pred_masks, omega, f.left) | _mask(pred_masks, omega, f.right)
    raise QuantumNodeInClassicalEval(render(f))


def logical_leq(m: Model, f: Formula, g: Formula) -> bool:
    """Signature inclusion: truth of f implies truth of g pointwise."""
    space = SignatureSpace(m)
    return space.mask_of(f) & ~space.mask_of(g) == 0


def physical_leq(m: Model, f: Formula, g: Formula) -> bool:
    """Certain truth of f implies certain truth of g, state by state."""
    space = SignatureSpace(m)
    return space.proposition(space.mask_of(f)) <= space.proposition(space.mask_of(g))


# -- quotient algebra -------------------------------------------------------------


def quotient_size(space: SignatureSpace, predicates: Iterable[str] | None = None) -> int:
    """Element count of the algebra the predicates generate, without
    building it (``SignatureSpace.closed_classes`` does): 2**atoms, 0 for
    an empty alphabet."""
    names = tuple(predicates) if predicates is not None else space.model.predicate_names()
    return 2 ** len(space.atoms(names)) if names else 0


def boolean_law_violations(
    omega: frozenset, elements: Collection[frozenset], max_reports: int = 20
) -> list[str]:
    """Boolean-subalgebra check of a family of subsets of omega.

    Complement, meet and join are bitwise not, and, or on masks, so the
    lattice laws (identity, idempotence, commutativity, absorption,
    associativity, distributivity, complementation) hold for any set of
    masks.  What can fail is membership: bottom, top, each complement, and
    the meet and join of each pair must lie in the carrier.
    """
    if not elements:
        return []
    pairs = sorted(omega)
    position = {p: i for i, p in enumerate(pairs)}
    masks = sorted(_bits([position[p] for p in sig]) for sig in elements)
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


def check_cms(m: Model) -> bool:
    """Every property mask fills or misses each state's block: full or empty."""
    return all(
        m.pred_masks[p.name] & block in (0, block)
        for p in m.predicates
        if p.is_property
        for block in m.state_masks.values()
    )


def check_cmt(space: SignatureSpace, predicates: tuple[str, ...] | None = None) -> SuiteResult:
    """cm-testability: whether every class of the algebra the property
    predicates generate has a property predicate with its signature
    (``info["holds"]``); when not, ``info["witness"]`` renders the first
    class, in sweep order, that none carries.  A profile, not a law, so it
    reports no violations.

    ``predicates`` restricts which property predicates generate the
    algebra (witness search always covers the whole table).
    """
    names = space.model.property_names() if predicates is None else predicates
    checked = quotient_size(space, names)  # 0 for an empty alphabet, which builds no formula
    atoms = space.atoms(names)
    # the carried classes of the algebra: witness masks that are unions of its atoms
    carried = {mask for mask in space.witnesses() if all(mask & a in (0, a) for a in atoms)}
    result = SuiteResult("cm-testability", checked, info={"holds": True})
    if names and len(carried) < checked:
        # One round deeper at a time, each depth swept from the generators:
        # the shallower sweeps' classes were all carried, so no more than the predicates
        for depth in count(1):
            classes = space.reachable_classes(names, depth)
            rep = next((f for mask, f in classes.items() if mask not in carried), None)
            if rep is not None:
                result.info = {"holds": False, "witness": render(rep)}
                break
    return result
