from __future__ import annotations

import copy
import dataclasses
from pathlib import Path
from types import MappingProxyType

import pytest

from qlogic.bridge import QuantumModel, build_model, load_spec
from qlogic.models import Model, build_cm_model

REPO = Path(__file__).resolve().parent.parent
SPEC_DIR = REPO / "specs"
DATA_DIR = Path(__file__).resolve().parent / "data"


@pytest.fixture(scope="session")
def worked_spec():
    return load_spec(SPEC_DIR / "worked_qm.json")


@pytest.fixture(scope="session")
def worked_qm(worked_spec) -> QuantumModel:
    return build_model(worked_spec)


def with_extension(qm: QuantumModel, state: str, pred: str, ext) -> QuantumModel:
    """A copy of ``qm`` whose model has the extension of ``pred`` in
    ``state`` replaced and an index laid out from the edited extensions;
    ``qm`` itself is untouched.  Such an edit usually breaks the pairing
    invariant that constructing a Model enforces, and the conformance
    checks are tested on exactly that, so the copy skips validation."""
    return with_extensions(qm, {(state, pred): ext})


def with_extensions(qm: QuantumModel, edits: dict) -> QuantumModel:
    """``with_extension`` for several (state, predicate) keys at once: a
    copy of an edited model cannot be edited again, since copying
    validates."""
    model = copy.copy(qm.model)
    extensions = dict(model.extensions)
    extensions.update((key, frozenset(ext)) for key, ext in edits.items())
    object.__setattr__(model, "extensions", MappingProxyType(extensions))
    model._index()
    return dataclasses.replace(qm, model=model)


def closed_cm_model(states: tuple[str, ...], universe: int = 3) -> Model:
    """CM model whose predicate table realizes every subset of states, so
    the table is closed under all the connectives."""
    columns = []
    for bits in range(2 ** len(states)):
        column = {s: bool(bits >> i & 1) for i, s in enumerate(states)}
        columns.append(column)
    names = [f"P{i}" for i in range(len(columns))]
    truth = {
        (s, name): columns[i][s] for i, name in enumerate(names) for s in states
    }
    return build_cm_model(states, names, truth, universe)


def mo_squared_spec(k: int) -> dict:
    """Spec whose properties close to MO_k x MO_k (Kalmbach 1983): in each
    C^2 block of C^4 the lines (1, t) and (-t, 1), t = 0..k-1, each a named
    property with one state on it, universe 4."""
    states, properties = [], []
    for t in range(k):
        for i, (u, v) in enumerate(((1, t), (-t, 1))):
            for block, vector in (("a", (u, v, 0, 0)), ("b", (0, 0, u, v))):
                strings = [str(x) for x in vector]
                properties.append({"name": f"P{block}{t}_{i}", "basis": [strings]})
                states.append({"name": f"S{block}{t}_{i}", "vector": strings})
    return {"dim": 4, "universe": 4, "states": states, "properties": properties}


@pytest.fixture()
def cm_two_states() -> Model:
    return closed_cm_model(("S1", "S2"), universe=3)
