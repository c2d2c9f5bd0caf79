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
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import DepthLimitExceeded, FormulaSyntaxError

MAX_ENUM_DEPTH = 4
MAX_NESTING = 100  # parentheses, prefix operators and tree height, each


class Formula:
    """Base class for all AST nodes; instances are immutable and hashable.

    Each node hashes its class name and fields once, at construction, into
    ``_hash``, a slot that equality ignores, so dict lookups keyed by
    formulas do not rehash whole trees; the class name keeps connectives
    over the same children (``E & F``, ``E | F``) from colliding.
    """

    __slots__ = ("_hash",)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((type(self).__name__, *self._fields())))

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):  # copy and pickle rebuild the node, which rehashes it
        return type(self), self._fields()

    def __str__(self) -> str:
        return render(self)


def _node(cls):
    """A frozen slotted dataclass node keeping Formula's cached ``__hash__``,
    which the dataclass would replace by one that rehashes the fields."""
    cls = dataclass(frozen=True, slots=True)(cls)
    cls.__hash__ = Formula.__hash__
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
    child: Formula


@_node
class QAnd(Formula):
    left: Formula
    right: Formula


@_node
class QOr(Formula):
    left: Formula
    right: Formula


@_node
class QImp(Formula):
    left: Formula
    right: Formula


_QUANTUM_TYPES = (QNot, QAnd, QOr, QImp)
_UNARY_TYPES = (Not, QNot)


def has_quantum(f: Formula) -> bool:
    """True when any node of the tree is a quantum connective."""
    if isinstance(f, Pred):
        return False
    if isinstance(f, _QUANTUM_TYPES):
        return True
    if isinstance(f, Not):
        return has_quantum(f.child)
    return has_quantum(f.left) or has_quantum(f.right)


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
    all_prop_leaves = all(name in props for name in leaf_names(f))
    if not has_quantum(f):
        return LanguageTag.PROPERTY_WFF if all_prop_leaves else LanguageTag.EFFECT_WFF
    if all_prop_leaves and _internal_all_quantum(f):
        return LanguageTag.PURE_QWFF
    return LanguageTag.MIXED


def _internal_all_quantum(f: Formula) -> bool:
    if isinstance(f, Pred):
        return True
    if not isinstance(f, _QUANTUM_TYPES):
        return False
    if isinstance(f, QNot):
        return _internal_all_quantum(f.child)
    return _internal_all_quantum(f.left) and _internal_all_quantum(f.right)


# --- parsing ---------------------------------------------------------------

_OPERATORS = ("->q", "~q", "&q", "|q", "~", "&", "|", "(", ")")


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str  # an operator literal, "IDENT" or "EOF"
    pos: int  # 1-based character position
    text: str = ""


def _ident_start(c: str) -> bool:
    return "a" <= c <= "z" or "A" <= c <= "Z"


def _ident_char(c: str) -> bool:
    return _ident_start(c) or "0" <= c <= "9" or c == "_"


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        op = next((op for op in _OPERATORS if text.startswith(op, i)), None)
        if op is not None:
            tokens.append(_Token(op, i + 1))
            i += len(op)
            continue
        if _ident_start(c):
            j = i + 1
            while j < n and _ident_char(text[j]):
                j += 1
            tokens.append(_Token("IDENT", i + 1, text[i:j]))
            i = j
            continue
        raise FormulaSyntaxError(f"unknown token {c!r}", i + 1)
    tokens.append(_Token("EOF", n + 1))
    return tokens


_BINARY_LEVELS = (  # loosest first; every level is left-associative
    {"->q": QImp},
    {"|": Or, "|q": QOr},
    {"&": And, "&q": QAnd},
)
_PREFIX = {"~": Not, "~q": QNot}


class _Parser:
    """Recursive descent; each rule returns a subtree and its height."""

    def __init__(self, tokens: list[_Token]):
        self._tokens = tokens
        self._i = 0
        self._open = 0  # parentheses and prefix operators around the parse point

    def _peek(self) -> _Token:
        return self._tokens[self._i]

    def _advance(self) -> _Token:
        tok = self._tokens[self._i]
        self._i += 1
        return tok

    def _limit(self, levels: int, tok: _Token) -> None:
        if levels > MAX_NESTING:
            raise FormulaSyntaxError(f"formula nested deeper than {MAX_NESTING} levels", tok.pos)

    def parse(self) -> Formula:
        f, _ = self._binary(0)
        tok = self._peek()
        if tok.kind != "EOF":
            raise FormulaSyntaxError(f"unexpected {tok.text or tok.kind!r}", tok.pos)
        return f

    def _binary(self, level: int) -> tuple[Formula, int]:
        if level == len(_BINARY_LEVELS):
            return self._unary()
        ops = _BINARY_LEVELS[level]
        left, height = self._binary(level + 1)
        while self._peek().kind in ops:
            tok = self._advance()
            right, right_height = self._binary(level + 1)
            left, height = ops[tok.kind](left, right), 1 + max(height, right_height)
            self._limit(height, tok)
        return left, height

    def _unary(self) -> tuple[Formula, int]:
        tok = self._peek()
        if tok.kind not in _PREFIX:
            return self._atom()
        self._advance()
        self._open += 1
        self._limit(self._open, tok)
        child, height = self._unary()
        self._open -= 1
        self._limit(height + 1, tok)
        return _PREFIX[tok.kind](child), height + 1

    def _atom(self) -> tuple[Formula, int]:
        tok = self._advance()
        if tok.kind == "IDENT":
            return Pred(tok.text), 0
        if tok.kind == "(":
            self._open += 1
            self._limit(self._open, tok)
            inner = self._binary(0)
            self._open -= 1
            closing = self._advance()
            if closing.kind != ")":
                raise FormulaSyntaxError("expected ')'", closing.pos)
            return inner
        what = tok.text or tok.kind
        raise FormulaSyntaxError(f"expected predicate or '(', got {what!r}", tok.pos)


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
