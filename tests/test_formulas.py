from __future__ import annotations

import copy
import pickle
import re
import sys
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import example, given, strategies as st

from qlogic.errors import FormulaSyntaxError
from qlogic.formulas import (
    MAX_NESTING,
    And,
    LanguageTag,
    Not,
    Or,
    Pred,
    QAnd,
    QImp,
    QNot,
    QOr,
    _tokenize,
    classify,
    has_quantum,
    parse,
    render,
)

import formula_reference as reference
from formula_reference import EnumerationTooDeep, depth, enumerate_formulas


def test_parse_classical():
    assert parse("E & ~F") == And(Pred("E"), Not(Pred("F")))


def test_parse_quantum_grouping():
    assert parse("E |q (F &q G)") == QOr(Pred("E"), QAnd(Pred("F"), Pred("G")))


def test_parse_unbalanced_parenthesis_position():
    with pytest.raises(FormulaSyntaxError) as err:
        parse("E & (F")
    assert err.value.position == 7


def test_parse_unknown_token_position():
    with pytest.raises(FormulaSyntaxError) as err:
        parse("E + F")
    assert err.value.position == 3


def test_parse_dangling_operator():
    with pytest.raises(FormulaSyntaxError):
        parse("E &")


def test_parse_precedence_and_associativity():
    # unary > conjunction > disjunction > implication, binaries left-assoc
    assert parse("~E & F | G") == Or(And(Not(Pred("E")), Pred("F")), Pred("G"))
    assert parse("E | F | G") == Or(Or(Pred("E"), Pred("F")), Pred("G"))
    assert parse("E ->q F ->q G") == QImp(QImp(Pred("E"), Pred("F")), Pred("G"))
    assert parse("E |q F ->q G") == QImp(QOr(Pred("E"), Pred("F")), Pred("G"))


def test_parse_maximal_munch():
    assert parse("E&qF") == QAnd(Pred("E"), Pred("F"))
    assert parse("E & qF") == And(Pred("E"), Pred("qF"))


def test_render_examples():
    assert render(And(Pred("E"), Not(Pred("F")))) == "E & ~F"
    assert render(QImp(Pred("E"), Pred("F"))) == "E ->q F"
    assert render(Or(And(Pred("E"), Pred("F")), Pred("G"))) == "E & F | G"


def test_render_needs_parens_on_right_assoc_break():
    f = Or(Pred("E"), QOr(Pred("F"), Pred("G")))
    assert render(f) == "E | (F |q G)"
    assert parse(render(f)) == f


def test_classify_examples():
    props = {"E", "F"}
    assert classify(And(Pred("E"), Pred("F")), props) is LanguageTag.PROPERTY_WFF
    assert classify(QAnd(Pred("E"), Pred("F")), props) is LanguageTag.PURE_QWFF
    assert classify(QNot(And(Pred("E"), Pred("F"))), props) is LanguageTag.MIXED
    assert classify(And(Pred("E"), Pred("G")), props) is LanguageTag.EFFECT_WFF
    assert classify(QAnd(Pred("E"), Pred("G")), props) is LanguageTag.MIXED
    assert classify(Pred("E"), props) is LanguageTag.PROPERTY_WFF


def test_classify_stable_under_flag_preserving_renaming():
    f = QImp(Pred("E"), QAnd(Pred("F"), Pred("E")))
    g = QImp(Pred("X"), QAnd(Pred("Y"), Pred("X")))
    assert classify(f, {"E", "F"}) == classify(g, {"X", "Y"})


def test_enumerate_depth_zero_and_one():
    assert list(enumerate_formulas(["E"], 0)) == [Pred("E")]
    e = Pred("E")
    assert list(enumerate_formulas(["E"], 1)) == [e, Not(e), And(e, e), Or(e, e)]


def brute_force_count(k: int, max_depth: int, unary: int, binary: int) -> int:
    # independent recursive tree count: a tree of depth <= d is a leaf or a
    # connective over trees of depth <= d-1
    total = k
    for _ in range(max_depth):
        total = k + unary * total + binary * total * total
    return total


@pytest.mark.parametrize(
    "names,depth_cap,family,unary,binary",
    [
        (["E", "F"], 2, "quantum", 1, 3),
        (["E", "F"], 2, "classical", 1, 2),
        (["E"], 3, "classical", 1, 2),
        (["E", "F", "G"], 2, "quantum", 1, 3),
    ],
)
def test_enumerate_count_matches_recursive_oracle(names, depth_cap, family, unary, binary):
    formulas = list(enumerate_formulas(names, depth_cap, family))
    assert len(formulas) == brute_force_count(len(names), depth_cap, unary, binary)
    assert len(set(formulas)) == len(formulas)  # no structural duplicates
    assert all(depth(f) <= depth_cap for f in formulas)


def test_enumerate_deterministic():
    a = list(enumerate_formulas(["E", "F"], 2, "quantum"))
    b = list(enumerate_formulas(["E", "F"], 2, "quantum"))
    assert a == b


def test_enumerate_depth_guard():
    with pytest.raises(EnumerationTooDeep):
        list(enumerate_formulas(["E"], 5))


def test_round_trip_over_enumeration():
    for f in enumerate_formulas(["E", "F"], 2, "classical"):
        assert parse(render(f)) == f
    for f in enumerate_formulas(["E", "F"], 2, "quantum"):
        assert parse(render(f)) == f


def _formulas(names=("E", "F", "Gx", "q2")):
    leaves = st.sampled_from([Pred(n) for n in names])

    def extend(children):
        return st.one_of(
            st.builds(Not, children),
            st.builds(QNot, children),
            st.builds(And, children, children),
            st.builds(Or, children, children),
            st.builds(QAnd, children, children),
            st.builds(QOr, children, children),
            st.builds(QImp, children, children),
        )

    return st.recursive(leaves, extend, max_leaves=12)


@given(_formulas())
def test_round_trip_property(f):
    assert parse(render(f)) == f


@pytest.mark.parametrize(
    "template",
    [
        lambda n: "(" * n + "E" + ")" * n,
        lambda n: "~q" * n + "E",
        lambda n: " &q ".join(["E"] * (n + 1)),  # left-nested: tree height n
        lambda n: "~(" + " | ".join(["E"] * n) + ")",
    ],
)
def test_nesting_limit(template):
    parse(template(MAX_NESTING))
    with pytest.raises(FormulaSyntaxError, match=f"deeper than {MAX_NESTING} levels"):
        parse(template(MAX_NESTING + 1))


def test_hash_is_cached_and_copies_recompute_it():
    """Each node hashes once; equality ignores the cached value, connectives
    over the same children hash apart, and copy and pickle rebuild the
    node, so a stale value never travels with it."""
    f = QImp(And(Pred("E"), Not(Pred("F"))), QOr(Pred("G"), QNot(Pred("E"))))
    fresh = parse(render(f))
    assert fresh == f and fresh is not f and hash(fresh) == hash(f)
    assert len({hash(op(f, fresh)) for op in (And, Or, QAnd, QOr, QImp)}) == 5
    assert hash(Not(f)) != hash(QNot(f))
    with pytest.raises(FrozenInstanceError):
        f.left = Pred("E")
    object.__setattr__(f, "_hash", hash(f) + 1)  # as if hashed under another seed
    assert f == fresh
    for twin in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert twin == f and hash(twin) == hash(fresh)


def test_quantum_flag_is_cached_and_copies_recompute_it():
    """Each node records at construction whether its subtree holds a quantum
    connective; copy and pickle rebuild the node, so the flag is recomputed,
    as the cached hash is."""
    classical = And(Pred("E"), Not(Pred("F")))
    f = QImp(classical, Or(Pred("G"), Pred("E")))
    assert (has_quantum(f), has_quantum(classical), has_quantum(f.right)) == (True, False, False)
    for node, flag in ((f, True), (classical, False)):
        object.__setattr__(node, "_quantum", not flag)  # a stale flag
        for twin in (copy.copy(node), copy.deepcopy(node), pickle.loads(pickle.dumps(node))):
            assert twin == node and has_quantum(twin) is flag


def _nodes(f):
    yield f
    for child in f._fields():
        if not isinstance(child, str):
            yield from _nodes(child)


@given(_formulas())
def test_quantum_flag_and_classify_match_tree_walks(f):
    for node in _nodes(f):
        assert has_quantum(node) is reference.has_quantum(node)
    for props in ({"E", "F"}, {"E", "F", "Gx", "q2"}, set()):
        assert classify(f, props) is reference.classify(f, props)


def _constructor_faults(f) -> list[str]:
    """Where the nodes of ``f`` differ from the reference's two-step nodes:
    hash, quantum flag, equality, repr, copies, or a field, a slot or any
    other name that can be set or deleted without FrozenInstanceError."""
    faults = []
    for node in _nodes(f):
        fields = node._fields()
        if hash(node) != hash((type(node).__name__, *fields)):
            faults.append(f"hash of {node!r}")
        if node._quantum is not reference.has_quantum(node):
            faults.append(f"quantum flag of {node!r}")
        twins = (reference.rebuild(node), copy.copy(node), copy.deepcopy(node),
                 pickle.loads(pickle.dumps(node)))
        for twin in twins:
            if (twin, hash(twin), twin._quantum, repr(twin)) != (
                node, hash(node), node._quantum, repr(node)
            ):
                faults.append(f"twin of {node!r}")
        for name in (*node.__match_args__, "_hash", "_quantum", "colour"):
            for change in (lambda: setattr(node, name, fields[0]), lambda: delattr(node, name)):
                try:
                    change()
                    faults.append(f"{name} of {node!r} changed")
                except FrozenInstanceError:
                    pass
    return faults


@given(_formulas())
def test_nodes_built_in_one_step_match_the_two_step_reference(f):
    assert _constructor_faults(f) == []


def test_a_constructor_that_leaves_the_name_out_of_the_hash_is_caught(monkeypatch):
    """Negative control: a constructor hashing the children alone, which
    would let connectives over the same children collide, is caught."""

    def nameless(self, left, right):
        for name, value in (("left", left), ("right", right), ("_hash", hash((left, right))),
                            ("_quantum", left._quantum or right._quantum)):
            object.__setattr__(self, name, value)

    monkeypatch.setattr(And, "__init__", nameless)
    f = Or(And(Pred("E"), Pred("F")), Not(Pred("E")))
    assert f"hash of {f.left!r}" in _constructor_faults(f)


# Text pieces the tokenizer treats differently: every operator and its
# prefixes, identifier and digit runs, ASCII and Unicode whitespace
# (no-break space, information separator, em space, ideographic space),
# and characters that are no token (a zero-width space is not whitespace).
_PIECES = (
    "->q", "~q", "&q", "|q", "~", "&", "|", "(", ")", "-", "->", ">", "q",
    "E", "Fx", "g_1", "Q2q", "7", "_", "08",
    " ", "\t", "\n", "\r", "\u00a0", "\x1c", "\u2003", "\u3000", "\u0085",
    "+", "\u00e9", "\u200b", "\u2167", "!", "\x00",
)


def _texts():
    piece = st.one_of(st.sampled_from(_PIECES), st.characters())
    return st.lists(piece, max_size=30).map("".join)


def _outcome(scan, text):
    try:
        return scan(text)
    except FormulaSyntaxError as err:
        return "error", str(err), err.position


@given(_texts())
@example(" ")  # trailing whitespace is no token
@example("E &\u00a0F\x1c")
def test_tokenizer_matches_the_character_loop(text):
    expected = _outcome(
        lambda t: [(tok.kind, tok.pos, tok.text) for tok in reference.tokenize(t)], text
    )
    assert _outcome(_tokenize, text) == expected


@given(_texts())
@example(" ")
@example("(E |q ~F) ")
@example("E & ) \u00e9")  # a syntax error before a stray character: the stray one wins
@example("(E |q")  # the end inside parentheses
@example("E1\u00e9")  # a stray character glued to an identifier
@example("~qE")
@example("~ qE")
@example("E ->q")  # an operator at the end
def test_parser_matches_recursive_descent(text):
    assert _outcome(parse, text) == _outcome(reference.parse, text)


@pytest.mark.parametrize("n", [MAX_NESTING - 1, MAX_NESTING, MAX_NESTING + 1])
@pytest.mark.parametrize(
    "template",
    [
        lambda n: "(" * n + "E" + ")" * n,
        lambda n: "~(" * (n // 2) + "E" + ")" * (n // 2),
        lambda n: "~q" * n + "(E",
        lambda n: "E ->q " * n + "F &q ~G",
        lambda n: "(E | " * n + "F" + ")" * (n - 1),
        lambda n: " &q ".join(["E"] * n) + " | ~" + "~q" * n + "F",
    ],
)
def test_parser_matches_recursive_descent_at_the_nesting_limit(template, n):
    text = template(n)
    assert _outcome(parse, text) == _outcome(reference.parse, text)


def test_regex_whitespace_is_str_isspace():
    """The tokenizer skips what ``\\s`` matches; the character loop skipped
    what ``str.isspace`` accepts.  They agree on every code point."""
    space = re.compile(r"\s")
    code_points = map(chr, range(sys.maxunicode + 1))
    assert [c for c in code_points if c.isspace() != bool(space.match(c))] == []
