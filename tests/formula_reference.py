"""Reference formula scanning, parsing, node construction and tree walks,
kept from before the package tokenized with one regular-expression scan,
parsed the token strings in one loop with pending operators on a stack,
cached the quantum flag on each node and built each node in one step.

The differential tests require ``qlogic.formulas`` to give the same tokens
(kind, 1-based position, text), the same trees, the same syntax errors
(message and position), the same quantum flags, the same language tags
and the same nodes (fields, hash, flag) as these loops.

The module also holds the enumeration of every formula up to a depth, and
``depth`` itself, with which the tests sweep small formula spaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from qlogic.errors import FormulaSyntaxError
from qlogic.formulas import (
    MAX_NESTING,
    And,
    Formula,
    LanguageTag,
    Not,
    Or,
    Pred,
    QAnd,
    QImp,
    QNot,
    QOr,
    leaf_names,
)

_OPERATORS = ("->q", "~q", "&q", "|q", "~", "&", "|", "(", ")")


@dataclass(frozen=True, slots=True)
class Token:
    kind: str  # an operator literal, "IDENT" or "EOF"
    pos: int  # 1-based character position
    text: str = ""


def _ident_start(c: str) -> bool:
    return "a" <= c <= "z" or "A" <= c <= "Z"


def _ident_char(c: str) -> bool:
    return _ident_start(c) or "0" <= c <= "9" or c == "_"


def tokenize(text: str) -> list[Token]:
    """Character by character: skip whitespace, try every operator by
    maximal munch, then an identifier; anything else is an error."""
    tokens: list[Token] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        op = next((op for op in _OPERATORS if text.startswith(op, i)), None)
        if op is not None:
            tokens.append(Token(op, i + 1))
            i += len(op)
            continue
        if _ident_start(c):
            j = i + 1
            while j < n and _ident_char(text[j]):
                j += 1
            tokens.append(Token("IDENT", i + 1, text[i:j]))
            i = j
            continue
        raise FormulaSyntaxError(f"unknown token {c!r}", i + 1)
    tokens.append(Token("EOF", n + 1))
    return tokens


_BINARY_LEVELS = (  # loosest first; every level is left-associative
    {"->q": QImp},
    {"|": Or, "|q": QOr},
    {"&": And, "&q": QAnd},
)
_PREFIX = {"~": Not, "~q": QNot}


class _Parser:
    """Recursive descent, one rule per binding level; each rule returns a
    subtree and its height."""

    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._i = 0
        self._open = 0  # parentheses and prefix operators around the parse point

    def _peek(self) -> Token:
        return self._tokens[self._i]

    def _advance(self) -> Token:
        tok = self._tokens[self._i]
        self._i += 1
        return tok

    def _limit(self, levels: int, tok: Token) -> None:
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
    return _Parser(tokenize(text)).parse()


def two_step(cls: type, *fields) -> Formula:
    """A node built as the dataclass constructor and ``__post_init__`` built
    it: the fields set one by one, then the hash of the class name and the
    fields, then the quantum flag read off the children."""
    node = object.__new__(cls)
    for name, value in zip(cls.__match_args__, fields):
        object.__setattr__(node, name, value)
    object.__setattr__(node, "_hash", hash((cls.__name__, *fields)))
    quantum = cls._quantum_connective
    for child in fields:
        if isinstance(child, Formula) and child._quantum:
            quantum = True
    object.__setattr__(node, "_quantum", quantum)
    return node


def rebuild(f: Formula) -> Formula:
    """The tree rebuilt bottom-up by ``two_step``."""
    if isinstance(f, Pred):
        return two_step(Pred, f.name)
    return two_step(type(f), *map(rebuild, f._fields()))


def has_quantum(f: Formula) -> bool:
    """Walk the whole tree for a quantum connective."""
    if isinstance(f, Pred):
        return False
    if isinstance(f, (QNot, QAnd, QOr, QImp)):
        return True
    if isinstance(f, Not):
        return has_quantum(f.child)
    return has_quantum(f.left) or has_quantum(f.right)


def classify(f: Formula, property_names) -> LanguageTag:
    """Walk the leaves, then the quantum flag, then the internal nodes."""
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
    if not isinstance(f, (QNot, QAnd, QOr, QImp)):
        return False
    if isinstance(f, QNot):
        return _internal_all_quantum(f.child)
    return _internal_all_quantum(f.left) and _internal_all_quantum(f.right)


def depth(f: Formula) -> int:
    if isinstance(f, Pred):
        return 0
    if isinstance(f, (Not, QNot)):
        return 1 + depth(f.child)
    return 1 + max(depth(f.left), depth(f.right))


MAX_ENUM_DEPTH = 4  # layers grow about as the square of the one below


class EnumerationTooDeep(ValueError):
    """An enumeration depth above MAX_ENUM_DEPTH."""


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
        raise EnumerationTooDeep(f"enumeration depth {max_depth} exceeds the cap {MAX_ENUM_DEPTH}")
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
