"""The exact read path against the float reference: the subspace
``reduce_qwff`` names and every ``q_truth`` verdict, on the worked spec, a
stored generated spec and freshly generated dim-3 and dim-4 specs, with
negative controls the comparison must catch."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from qlogic.bridge import QuantumModel, build_model, load_spec, q_truth, reduce_qwff
from qlogic.formulas import Formula, Pred, QAnd, QImp, QNot, QOr, render
from qlogic.generate import random_qm_spec

import float_reference as fr
from conftest import DATA_DIR, SPEC_DIR
from formula_reference import enumerate_formulas

_BINARY = (QAnd, QOr, QImp)


def _random_qwff(rng: random.Random, names, n_binary: int) -> Formula:
    if n_binary == 0:
        f = Pred(rng.choice(names))
    else:
        left = rng.randint(0, n_binary - 1)
        f = rng.choice(_BINARY)(
            _random_qwff(rng, names, left), _random_qwff(rng, names, n_binary - 1 - left)
        )
    return QNot(f) if rng.random() < 0.25 else f


def _queries(qm: QuantumModel, seed: str) -> list[Formula]:
    """Every pure qwff of depth at most 1, then random ones with up to
    four binary connectives."""
    names = [name for name, _ in qm.spec.properties]
    rng = random.Random(seed)
    return [
        *enumerate_formulas(names, 1, "quantum"),
        *(_random_qwff(rng, names, rng.randint(2, 4)) for _ in range(60)),
    ]


def mismatches(qm: QuantumModel, queries) -> list[str]:
    """Where the exact reduction or a verdict disagrees with the floats."""
    dim = qm.spec.dim
    properties = {name: fr.span(fr.to_complex(sub.basis), dim) for name, sub in qm.spec.properties}
    vectors = {name: fr.to_complex([vec])[0] for name, vec in qm.spec.states}
    memo: dict = {}
    found = []
    for f in queries:
        expected = fr.subspace_of(f, properties, dim, memo)
        name = reduce_qwff(qm, f)
        element = qm.lattice.elements[qm.element_index[name]]
        if not fr.same_subspace(fr.span(fr.to_complex(element.basis), dim), expected, dim):
            found.append(f"{render(f)}: reduced to {name}, not the subspace it denotes")
        for state, psi in vectors.items():
            verdict = q_truth(qm, f, state)
            if verdict != fr.verdict(expected, psi):
                found.append(f"{render(f)} in {state}: {verdict}")
    return found


def _generated(dim: int, seed: int) -> QuantumModel:
    return build_model(random_qm_spec(seed, dim=dim, n_properties=2 if dim == 4 else 3)[0])


MODELS = {
    "worked": lambda: build_model(load_spec(SPEC_DIR / "worked_qm.json")),
    "gen_qm_seed11": lambda: build_model(load_spec(DATA_DIR / "gen_qm_seed11.json")),
    **{f"dim{dim}_seed{seed}": (lambda d=dim, s=seed: _generated(d, s))
       for dim in (3, 4) for seed in (2, 5)},
}


@pytest.mark.parametrize("which", MODELS)
def test_read_path_agrees_with_the_float_reference(which):
    qm = MODELS[which]()
    assert mismatches(qm, _queries(qm, which)) == []


def test_float_reference_catches_a_corrupted_meet_entry():
    qm = build_model(load_spec(DATA_DIR / "gen_qm_seed11.json"))
    lat = qm.lattice
    e1, e2 = qm.element_index["E1"], qm.element_index["E2"]
    rows = [list(row) for row in lat.meet]
    rows[e1][e2] = next(k for k in range(len(lat)) if k != lat.meet[e1][e2])
    corrupted = replace(qm, lattice=replace(lat, meet=tuple(map(tuple, rows))))
    found = mismatches(corrupted, _queries(qm, "meet-control"))
    assert any(line.startswith("E1 &q E2: reduced to") for line in found)


def test_float_reference_catches_swapped_theta():
    qm = build_model(load_spec(SPEC_DIR / "worked_qm.json"))
    theta = dict(qm.theta)
    theta["Ez"], theta["Ex"] = theta["Ex"], theta["Ez"]
    found = mismatches(replace(qm, theta=theta), _queries(qm, "theta-control"))
    assert "Ez in Sz+: Q-indeterminate" in found
