from __future__ import annotations

import json

import pytest

import qlogic.bridge
import qlogic.generate
from qlogic.bridge import build_model, check_qmt, spec_from_dict, states_separate
from qlogic.generate import (
    classical_model_bytes,
    qm_spec_bytes,
    random_classical_model,
    random_qm_spec,
)
from qlogic.models import model_from_dict

from conftest import DATA_DIR


def test_classical_generator_matches_golden_file():
    assert classical_model_bytes(0, 2, 2, 3) == (
        DATA_DIR / "gen_classical_seed0.json"
    ).read_bytes()


def test_classical_generator_deterministic():
    assert classical_model_bytes(7) == classical_model_bytes(7)
    assert classical_model_bytes(7) != classical_model_bytes(8)


def test_classical_generator_output_loads():
    data = json.loads(classical_model_bytes(3, 3, 3, 4))
    m = model_from_dict(data)  # the generator header key is ignored
    assert len(m.states) == 3
    assert len(m.predicates) == 6  # three predicates plus partners


def test_classical_models_vary_with_seed():
    a = random_classical_model(0)
    b = random_classical_model(1)
    assert a.extensions != b.extensions


def test_qm_generator_bytes_deterministic_and_loadable():
    blob = qm_spec_bytes(0, dim=2, n_properties=2)
    assert blob == qm_spec_bytes(0, dim=2, n_properties=2)
    data = json.loads(blob)
    assert data["generator"]["kind"] == "qm"
    assert data["generator"]["attempts"] >= 1
    spec = spec_from_dict(data)
    qm = build_model(spec)
    assert check_qmt(qm).ok


def test_qm_generator_dim3_within_cap():
    spec, attempts = random_qm_spec(1, dim=3, n_properties=3, closure_cap=64)
    qm = build_model(spec)
    assert len(qm.lattice) <= 64
    assert states_separate(qm)
    assert attempts >= 1


@pytest.mark.parametrize(
    "args,golden",
    [((11, 3, 3, 3, 64), "gen_qm_seed11.json"), ((0, 3, 3, 3, 12), "gen_qm_seed0_cap12.json")],
    ids=["seed11", "seed0-cap12"],
)
def test_qm_generator_matches_golden_file(args, golden):
    # seed 0 at cap 12 needs 29 attempts, so it runs the overflow-retry path
    assert qm_spec_bytes(*args) == (DATA_DIR / golden).read_bytes()


def test_qm_generator_closes_the_lattice_once_per_attempt(monkeypatch):
    closes = []
    close = qlogic.generate.close

    def counting_close(*args, **kwargs):
        closes.append(close(*args, **kwargs))
        return closes[-1]

    for module in (qlogic.generate, qlogic.bridge):
        monkeypatch.setattr(module, "close", counting_close)
    spec, attempts = random_qm_spec(11, dim=3, n_properties=3, universe=3, closure_cap=64)
    assert attempts == 1
    assert len(closes) == 1
    assert build_model(spec).lattice.elements == closes[0].elements
