from __future__ import annotations

import copy
import dataclasses
import importlib.util
import random
from fractions import Fraction
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping

import pytest

from qlogic.bridge import QMModelSpec, QuantumModel, build_model, load_spec, reduce_qwff
from qlogic.formulas import Formula, Pred
from qlogic.gaussian import GaussianRational
from qlogic.models import Model, PredicateInfo, SignatureSpace, SuiteResult, eval_open

REPO = Path(__file__).resolve().parent.parent
SPEC_DIR = REPO / "specs"
DATA_DIR = Path(__file__).resolve().parent / "data"


def load_tracer():
    """``perfbench/tracer.py`` as a module, for its tables of the names it
    wraps; the file is loaded, not changed."""
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", REPO / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


GR_ZERO, GR_ONE = GaussianRational(), GaussianRational(Fraction(1))


def gr(real: int | Fraction = 0, imag: int | Fraction = 0) -> GaussianRational:
    """Shorthand constructor accepting ints and Fractions."""
    return GaussianRational(Fraction(real), Fraction(imag))


def eval_universal(m: Model, f: Formula, state: str) -> bool:
    """Truth of the universally closed sentence, object by object: every
    object of the state satisfies f."""
    return all(eval_open(m, f, state, u) for u in range(m.universe_sizes[state]))


def to_signature(space: SignatureSpace, mask: int) -> frozenset:
    """The (state, object) pairs whose bits the mask sets."""
    digits = format(mask & space.omega, "b")[::-1]  # read once: a shift per bit is quadratic
    return frozenset(
        (s, u)
        for s, (offset, n, _) in space.model.blocks.items()
        for u, digit in enumerate(digits[offset : offset + n])
        if digit == "1"
    )


def signature(m: Model, f: Formula) -> frozenset:
    """The set of (state, object) pairs satisfying the classical formula."""
    space = SignatureSpace(m)
    return to_signature(space, space.mask_of(f))


def physical_proposition(m: Model, f: Formula) -> frozenset[str]:
    """The states where the universal closure of f holds."""
    space = SignatureSpace(m)
    return space.proposition(space.mask_of(f))


def tau_eval(qm: QuantumModel, f: Formula, state: str, obj: int) -> bool:
    """Truth at one (state, object) pair of the predicate f reduces to."""
    return eval_open(qm.model, Pred(reduce_qwff(qm, f)), state, obj)


def build_cm_model(
    states: Iterable[str], predicates: Iterable[str], truth: Mapping[tuple[str, str], bool],
    universe: int = 4,
) -> Model:
    """Model in which every extension is full or empty per the truth table.

    Each predicate is flagged as a property and paired with a generated
    ``<name>_perp`` partner carrying the complemented table.
    """
    states = tuple(states)
    full = frozenset(range(universe))
    preds: list[PredicateInfo] = []
    extensions: dict[tuple[str, str], frozenset[int]] = {}
    for name in predicates:
        partner = f"{name}_perp"
        preds += [PredicateInfo(name, True, partner), PredicateInfo(partner, True, name)]
        for s in states:
            holds = truth.get((s, name), False)
            extensions[(s, name)] = full if holds else frozenset()
            extensions[(s, partner)] = frozenset() if holds else full
    return Model(tuple(preds), states, dict.fromkeys(states, universe), extensions)


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


def without_state(spec: QMModelSpec, state: str) -> QMModelSpec:
    """The spec with one of its states left out."""
    return dataclasses.replace(spec, states=tuple(s for s in spec.states if s[0] != state))


def suite_line(results: list[SuiteResult], suite: str) -> SuiteResult:
    """The record of the named suite among a suite function's lines."""
    return next(r for r in results if r.suite == suite)


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


def qm_corpus_draws(seed: int, blocks: int) -> list[tuple[int, int, int]]:
    """(dimension, properties, gen seed) of the first ``blocks`` blocks of
    the benchmark's qm_corpus workload at ``seed``, drawn as
    perfbench/workloads.py draws them: a block is one spec of each shape
    (3, 2), (3, 3) and (4, 2)."""
    draws = []
    for b in range(blocks):
        rng = random.Random(f"qm_corpus:{seed}:{b}")
        draws += [(dim, props, rng.randrange(2**32)) for dim, props in ((3, 2), (3, 3), (4, 2))]
    return draws


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
