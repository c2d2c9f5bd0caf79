"""Malformed inputs end in a QLogicError, never in another exception.

The model and spec files are mutated copies of ``specs/cm_demo.json`` and
``specs/worked_qm.json``: keys dropped, values swapped for another JSON
type, arrays truncated. Integers stay small, because this covers malformed
input, not resource limits.
"""

from __future__ import annotations

import copy
import json
import os
import tempfile

from hypothesis import given, settings, strategies as st

from qlogic.bridge import load_spec
from qlogic.errors import QLogicError
from qlogic.formulas import parse
from qlogic.models import load_model

from conftest import SPEC_DIR

SOURCES = {
    name: json.loads((SPEC_DIR / name).read_text(encoding="utf-8"))
    for name in ("cm_demo.json", "worked_qm.json")
}

_values = st.one_of(
    st.lists(st.one_of(st.integers(-2, 5), st.text(max_size=3)), max_size=3),
    st.dictionaries(st.text(max_size=4), st.integers(-2, 5), max_size=2),
    st.text(max_size=6),
    st.sampled_from(["1", "0", "1/2", "0+1i", "Hot", "S1"]),
    st.integers(-2, 5),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([None, True, False, float("inf"), float("nan")]),
)


def _paths(node, path=()):
    """Every key path in the JSON tree, the root's () first."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _paths(child, (*path, key))


@st.composite
def _mutated(draw):
    data = copy.deepcopy(SOURCES[draw(st.sampled_from(sorted(SOURCES)))])
    for _ in range(draw(st.integers(1, 4))):
        path = draw(st.sampled_from(list(_paths(data))))
        kind = draw(st.sampled_from(["drop", "swap", "truncate"]))
        if not path:  # the whole file
            if kind == "swap":
                data = draw(_values)
            continue
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        node = parent[path[-1]]
        if kind == "drop":
            del parent[path[-1]]
        elif kind == "swap":
            parent[path[-1]] = draw(_values)
        elif isinstance(node, list):
            parent[path[-1]] = node[: draw(st.integers(0, len(node)))]
    return data


def _returns_or_raises_qlogic_error(call, *args):
    try:
        call(*args)
    except QLogicError:
        pass


@settings(max_examples=400, deadline=None)
@given(_mutated())
def test_mutated_files_load_or_raise_qlogic_error(data):
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        for loader in (load_model, load_spec):
            _returns_or_raises_qlogic_error(loader, path)
    finally:
        os.unlink(path)


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.text(max_size=40), st.text(alphabet="EF ()~&|q->_1", max_size=40)))
def test_random_text_parses_or_raises_qlogic_error(text):
    _returns_or_raises_qlogic_error(parse, text)
