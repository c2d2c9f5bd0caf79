from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import qlogic.bridge
import qlogic.generate
from qlogic.bridge import build_model, check_qmt, spec_from_dict, states_separate
from qlogic.errors import ModelValidationError, QLogicError
from qlogic.generate import (
    classical_model_bytes,
    qm_spec_bytes,
    random_classical_model,
    random_qm_spec,
)
from qlogic.hilbert import leq
from qlogic.models import MAX_PAIRS, SignatureSpace, model_from_dict

from conftest import DATA_DIR, REPO


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
    assert not check_qmt(qm, SignatureSpace(qm.model)).violations


def test_qm_generator_dim3_within_cap():
    spec, attempts = random_qm_spec(1, dim=3, n_properties=3, closure_cap=64)
    qm = build_model(spec)
    assert len(qm.lattice) <= 64
    assert states_separate(qm, SignatureSpace(qm.model))
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


def test_qm_generator_reports_the_pair_cap_after_one_close(monkeypatch):
    """States times universe over the pair cap is an input error, raised
    once the first attempt's states are placed, not a draw to retry."""
    closes = []
    close = qlogic.generate.close

    def counting_close(*args, **kwargs):
        closes.append(close(*args, **kwargs))
        return closes[-1]

    monkeypatch.setattr(qlogic.generate, "close", counting_close)
    with pytest.raises(ModelValidationError, match=f"^5000000 .* over the cap {MAX_PAIRS}$"):
        random_qm_spec(0, dim=2, n_properties=2, universe=10**6)
    assert len(closes) == 1


# sha256 over qm_spec_bytes on the grid below, recorded when gen still built
# each spec's model to confirm that its states separate the closure
QM_GRID_SHA256 = "05a33e7e0d7d001d3c77ad77f8e08a9e9d56d2da8a8a4f449867f47588c25619"


def test_qm_generator_grid_matches_recorded_digest():
    """dim 2-4, 1-3 properties, universe 1-4, seeds 0-11 (0-3 for dim 4
    with 3 properties); a cell that raises feeds its error line instead,
    so universe 1 pins the UniverseTooSmall message too."""
    digest = hashlib.sha256()
    for dim in (2, 3, 4):
        for props in (1, 2, 3):
            for universe in (1, 2, 3, 4):
                for seed in range(4 if (dim, props) == (4, 3) else 12):
                    try:
                        digest.update(qm_spec_bytes(seed, dim, props, universe))
                    except QLogicError as exc:
                        digest.update(f"{type(exc).__name__}: {exc}\n".encode())
    assert digest.hexdigest() == QM_GRID_SHA256


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from([(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2)]),
    universe=st.integers(2, 4),
)
def test_qm_generator_states_separate_by_construction(seed, shape, universe):
    """State W_i lies in closure element e_k exactly when e_i <= e_k, so
    theta and the signatures separate the elements without a check."""
    dim, props = shape
    spec, _ = random_qm_spec(seed, dim, props, universe)
    qm = build_model(spec)
    elements = qm.lattice.elements
    holders = [i for i, e in enumerate(elements) if e.dim > 0]  # W1, W2, ... in order
    assert len(holders) == len(spec.states)
    for k, e_k in enumerate(elements):
        expected = {
            name for (name, _), i in zip(spec.states, holders) if leq(elements[i], e_k)
        }
        assert qm.theta[qm.predicate_names[k]] == expected
    assert states_separate(qm, SignatureSpace(qm.model))


# sha256 over qm_spec_bytes(seed, dim, props, 3, 64) on the shapes below,
# recorded before state placement stopped building a Subspace per candidate
QM_PLACEMENT_SHA256 = "00f0a9add2cd9da0273e24fc716476fc83bdd2b66f32f41cd252a6cd4e07a4fa"


def test_qm_generator_placement_matches_recorded_digest():
    """Seeds 0-19 of the acceptance-corpus shapes, whose 2-dim closure
    elements send each state through the random-combination path."""
    digest = hashlib.sha256()
    for dim, props in ((3, 2), (3, 3), (4, 2)):
        for seed in range(20):
            digest.update(qm_spec_bytes(seed, dim, props, 3, 64))
    assert digest.hexdigest() == QM_PLACEMENT_SHA256


@pytest.mark.parametrize(
    "call",
    [
        "random_qm_spec(0, dim=0)", "random_qm_spec(0, dim=-3)", "random_qm_spec(0, dim=1)",
        "random_qm_spec(0, closure_cap=1)",
    ],
)
def test_qm_generator_rejects_a_shape_no_draw_fills(call):
    # a subprocess with a timeout: no nonzero vector exists in C^0, C^1 has
    # one line, so the default two distinct property lines never come, and
    # every closure holds 0 and C^dim, so none fits a cap below 2
    proc = subprocess.run(
        [sys.executable, "-c", f"from qlogic.generate import random_qm_spec; {call}"],
        capture_output=True,
        text=True,
        timeout=30,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
    )
    assert proc.returncode == 1
    assert proc.stderr.splitlines()[-1].startswith("ValueError: ")
