"""Formula syntax: AST, parser, renderer, classifier, enumeration.

Concrete grammar (ASCII, whitespace between tokens is insignificant):

    formula := imp
    imp     := or ( "->q" or )*
    or      := and ( ("|" | "|q") and )*
    and     := unary ( ("&" | "&q") unary )*
    unary   := ("~" | "~q") unary | atom
    atom    := IDENT | "(" formula ")"
    IDENT   := [A-Za-z][A-Za-z0-9_]*

Unary connectives bind tightest, then the conjunctions, then the
disjunctions, then "->q"; binary connectives associate to the left.
Formulas nest at most MAX_NESTING (100) levels deep: more enclosing
parentheses, more stacked prefix operators or a taller syntax tree is a
FormulaSyntaxError at the token that crosses the limit.
Operator tokens are matched by maximal munch, so "E&qF" is a quantum
conjunction of E and F; write "E & qF" to apply the classical connective
to a predicate whose name starts with "q".

There is a single implicit individual variable: a bare predicate name is
the atomic formula applying that predicate to it.  Universal closure is a
model-level operation, never a token.
"""

from __future__ import annotations

import enum
import re
from dataclasses import FrozenInstanceError, dataclass
from typing import Iterable, Iterator

from .errors import DepthLimitExceeded, FormulaSyntaxError

MAX_ENUM_DEPTH = 4
MAX_NESTING = 100  # parentheses, prefix operators and tree height, each


class Formula:
    """Base class for all AST nodes; instances are immutable and hashable.

    Each node hashes its class name and fields once, at construction, into
    ``_hash``, a slot that equality ignores, so dict lookups keyed by
    formulas do not rehash whole trees; the class name keeps connectives
    over the same children (``E & F``, ``E | F``) from colliding.  Next to
    it, ``_quantum`` records whether the subtree holds a quantum
    connective, read off the children's flags, so no question about the
    whole tree walks it again.  Nodes can be weakly referenced, so caches
    keyed by formulas need not keep them alive.
    """

    __slots__ = ("_hash", "_quantum", "__weakref__")
    _quantum_connective = False  # class-level: True on the quantum node types

    def _fields(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__match_args__))

    def __hash__(self) -> int:
        return self._hash

    def __setattr__(self, name, *_):
        raise FrozenInstanceError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):  # copy and pickle rebuild the node, which recomputes its slots
        return type(self), self._fields()

    def __str__(self) -> str:
        return render(self)


# The slots' own setters: a node refuses setattr.  Children enter a
# node's hash tuple as nodes (hashing to their ``_hash``), not as ints: an
# int above 2**61 - 1 hashes to itself modulo that prime, another value.
_set_hash = Formula._hash.__set__
_set_quantum = Formula._quantum.__set__


def _leaf_init(cls):
    kind, set_name = cls.__name__, cls.name.__set__

    def __init__(self, name: str):
        set_name(self, name)
        _set_hash(self, hash((kind, name)))
        _set_quantum(self, False)

    return __init__


def _unary_init(cls):
    kind, set_child, quantum = cls.__name__, cls.child.__set__, cls._quantum_connective

    def __init__(self, child: Formula):
        set_child(self, child)
        _set_hash(self, hash((kind, child)))
        _set_quantum(self, quantum or child._quantum)

    return __init__


def _binary_init(cls):
    kind, quantum = cls.__name__, cls._quantum_connective
    set_left, set_right = cls.left.__set__, cls.right.__set__

    def __init__(self, left: Formula, right: Formula):
        set_left(self, left)
        set_right(self, right)
        _set_hash(self, hash((kind, left, right)))
        _set_quantum(self, quantum or left._quantum or right._quantum)

    return __init__


_INITS = {("name",): _leaf_init, ("child",): _unary_init, ("left", "right"): _binary_init}


def _node(cls):
    """A slotted dataclass node, built in one step by a constructor for its
    arity that sets the fields, ``_hash`` and ``_quantum``.  Not frozen:
    Formula itself refuses setattr and delattr, where a frozen dataclass's
    guards name the class that ``slots`` replaces and raise TypeError for
    other names.  It keeps Formula's cached ``__hash__``, which the
    dataclass would replace by one that rehashes the fields."""
    cls = dataclass(slots=True, init=False)(cls)
    cls.__hash__ = Formula.__hash__
    cls.__init__ = _INITS[cls.__match_args__](cls)
    return cls


@_node
class Pred(Formula):
    name: str


@_node
class Not(Formula):
    child: Formula


@_node
class And(Formula):
    left: Formula
    right: Formula


@_node
class Or(Formula):
    left: Formula
    right: Formula


@_node
class QNot(Formula):
    _quantum_connective = True
    child: Formula


@_node
class QAnd(Formula):
    _quantum_connective = True
    left: Formula
    right: Formula


@_node
class QOr(Formula):
    _quantum_connective = True
    left: Formula
    right: Formula


@_node
class QImp(Formula):
    _quantum_connective = True
    left: Formula
    right: Formula


_UNARY_TYPES = (Not, QNot)


def has_quantum(f: Formula) -> bool:
    """True when any node of the tree is a quantum connective."""
    return f._quantum


def depth(f: Formula) -> int:
    if isinstance(f, Pred):
        return 0
    if isinstance(f, _UNARY_TYPES):
        return 1 + depth(f.child)
    return 1 + max(depth(f.left), depth(f.right))


def leaf_names(f: Formula) -> Iterator[str]:
    if isinstance(f, Pred):
        yield f.name
    elif isinstance(f, _UNARY_TYPES):
        yield from leaf_names(f.child)
    else:
        yield from leaf_names(f.left)
        yield from leaf_names(f.right)


class LanguageTag(enum.Enum):
    EFFECT_WFF = "effect-wff"
    PROPERTY_WFF = "property-wff"
    PURE_QWFF = "pure-qwff"
    MIXED = "mixed"


def classify(f: Formula, property_names: Iterable[str]) -> LanguageTag:
    """Total language classification of a formula tree.

    Classical trees are effect-wffs, and property-wffs when every leaf is a
    property predicate.  Trees whose internal nodes are all quantum and
    whose leaves are all property predicates are pure qwffs.  Everything
    else (a classical connective under a quantum one, or a non-property
    leaf under a quantum node) is mixed: accepted syntactically, vetted
    again at evaluation time.
    """
    props = set(property_names)
    if not f._quantum:
        if all(name in props for name in leaf_names(f)):
            return LanguageTag.PROPERTY_WFF
        return LanguageTag.EFFECT_WFF
    return LanguageTag.PURE_QWFF if _pure_qwff(f, props) else LanguageTag.MIXED


def _pure_qwff(f: Formula, props: set[str]) -> bool:
    """Every internal node quantum and every leaf a property predicate."""
    if isinstance(f, Pred):
        return f.name in props
    if not f._quantum_connective:
        return False
    if isinstance(f, QNot):
        return _pure_qwff(f.child, props)
    return _pure_qwff(f.left, props) and _pure_qwff(f.right, props)


# --- parsing ---------------------------------------------------------------

# One token per match: leading whitespace (what str.isspace accepts, which
# is what \s matches), then an operator by maximal munch, an identifier, or
# any other non-space character, which is an error.  Trailing whitespace
# matches nothing.
_TOKEN_RE = re.compile(r"\s*(?:(->q|~q|&q|\|q|[~&|()])|([A-Za-z][A-Za-z0-9_]*)|(\S))")

_Token = tuple[str, int, str]  # kind (an operator literal, "IDENT" or "EOF"), 1-based position, text


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for m in _TOKEN_RE.finditer(text):
        op, ident, stray = m.groups()
        if op:
            tokens.append((op, m.start(1) + 1, ""))
        elif ident:
            tokens.append(("IDENT", m.start(2) + 1, ident))
        else:
            raise FormulaSyntaxError(f"unknown token {stray!r}", m.start(3) + 1)
    tokens.append(("EOF", len(text) + 1, ""))
    return tokens


_BINARY = {  # operator -> (binding level, loosest first; all left-associative), node
    "->q": (0, QImp),
    "|": (1, Or),
    "|q": (1, QOr),
    "&": (2, And),
    "&q": (2, QAnd),
}
_PREFIX = {"~": Not, "~q": QNot}


def _limit(levels: int, pos: int) -> None:
    if levels > MAX_NESTING:
        raise FormulaSyntaxError(f"formula nested deeper than {MAX_NESTING} levels", pos)


class _Parser:
    """Precedence climbing; each rule returns a subtree and its height."""

    def __init__(self, tokens: list[_Token]):
        self._tokens = tokens
        self._i = 0
        self._open = 0  # parentheses and prefix operators around the parse point

    def _advance(self) -> _Token:
        tok = self._tokens[self._i]
        self._i += 1
        return tok

    def parse(self) -> Formula:
        f, _ = self._binary(0)
        kind, pos, text = self._tokens[self._i]
        if kind != "EOF":
            raise FormulaSyntaxError(f"unexpected {text or kind!r}", pos)
        return f

    def _binary(self, min_level: int) -> tuple[Formula, int]:
        """Operands joined by binary operators binding at least as tightly
        as ``min_level``; each right operand takes the tighter ones."""
        left, height = self._unary()
        while True:
            kind, pos, _ = self._tokens[self._i]
            op = _BINARY.get(kind)
            if op is None or op[0] < min_level:
                return left, height
            self._i += 1
            right, right_height = self._binary(op[0] + 1)
            left, height = op[1](left, right), 1 + max(height, right_height)
            _limit(height, pos)

    def _unary(self) -> tuple[Formula, int]:
        kind, pos, _ = self._tokens[self._i]
        if kind not in _PREFIX:
            return self._atom()
        self._i += 1
        self._open += 1
        _limit(self._open, pos)
        child, height = self._unary()
        self._open -= 1
        _limit(height + 1, pos)
        return _PREFIX[kind](child), height + 1

    def _atom(self) -> tuple[Formula, int]:
        kind, pos, text = self._advance()
        if kind == "IDENT":
            return Pred(text), 0
        if kind == "(":
            self._open += 1
            _limit(self._open, pos)
            inner = self._binary(0)
            self._open -= 1
            closing, closing_pos, _ = self._advance()
            if closing != ")":
                raise FormulaSyntaxError("expected ')'", closing_pos)
            return inner
        raise FormulaSyntaxError(f"expected predicate or '(', got {text or kind!r}", pos)


def parse(text: str) -> Formula:
    """Parse formula text into its unique AST under the declared precedence."""
    return _Parser(_tokenize(text)).parse()


# --- rendering -------------------------------------------------------------

_PREC = {QImp: 1, Or: 2, QOr: 2, And: 3, QAnd: 3, Not: 4, QNot: 4, Pred: 5}
_BINARY_TOKEN = {And: "&", QAnd: "&q", Or: "|", QOr: "|q", QImp: "->q"}
_UNARY_TOKEN = {Not: "~", QNot: "~q"}


def render(f: Formula) -> str:
    """Minimal-parenthesis text; parse(render(f)) is structurally equal to f."""
    if isinstance(f, Pred):
        return f.name
    prec = _PREC[type(f)]
    if isinstance(f, _UNARY_TYPES):
        inner = render(f.child)
        if _PREC[type(f.child)] < prec:
            inner = f"({inner})"
        token = _UNARY_TOKEN[type(f)]
        if token == "~" and inner.startswith("q"):  # keep "~" from munching into "~q"
            return f"~ {inner}"
        return token + inner
    left = render(f.left)
    if _PREC[type(f.left)] < prec:
        left = f"({left})"
    right = render(f.right)
    if _PREC[type(f.right)] <= prec:  # left-associative: right side needs parens
        right = f"({right})"
    return f"{left} {_BINARY_TOKEN[type(f)]} {right}"


# --- enumeration -----------------------------------------------------------

_FAMILIES: dict[str, tuple[tuple, tuple]] = {
    "classical": ((Not,), (And, Or)),
    "quantum": ((QNot,), (QAnd, QOr, QImp)),
}


def enumerate_formulas(
    predicates: Iterable[str], max_depth: int, connectives: str = "classical"
) -> Iterator[Formula]:
    """All formulas over the predicates up to max_depth, in canonical order.

    Ordering is by depth layer; within a layer, unary nodes over the
    previous layer come first, then each binary connective over all pairs
    of lower-depth operands in (left-major, right-minor) order.  No tree
    is produced twice.  Deterministic: equal arguments, equal sequence.
    """
    if max_depth < 0:
        raise ValueError("max_depth must be nonnegative")
    if max_depth > MAX_ENUM_DEPTH:
        raise DepthLimitExceeded(
            f"enumeration depth {max_depth} exceeds the cap {MAX_ENUM_DEPTH}"
        )
    if connectives not in _FAMILIES:
        raise ValueError(f"connectives must be 'classical' or 'quantum', got {connectives!r}")
    unary, binary = _FAMILIES[connectives]
    names = tuple(predicates)

    def walk() -> Iterator[Formula]:
        upto: list[Formula] = [Pred(name) for name in names]
        yield from upto
        exact_lo = 0  # upto[exact_lo:] holds the trees of exactly the previous depth
        for _ in range(max_depth):
            hi = len(upto)
            fresh: list[Formula] = []
            for ctor in unary:
                fresh.extend(ctor(f) for f in upto[exact_lo:hi])
            for ctor in binary:
                for i in range(hi):
                    for j in range(hi):
                        if i >= exact_lo or j >= exact_lo:
                            fresh.append(ctor(upto[i], upto[j]))
            yield from fresh
            upto.extend(fresh)
            exact_lo = hi

    return walk()
