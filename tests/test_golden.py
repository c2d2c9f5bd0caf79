"""Byte-identical CLI reports on fixed inputs.

The goldens under ``tests/data/golden`` are ``qlogic check`` and ``qlogic
lattice`` outputs, text and JSON, recorded before the closures shared one
engine.  Inputs are the two shipped specs, a seeded ``gen --kind qm``
spec (seed 11, dim 3, 3 properties, cap 64) and a seeded classical model
(seed 7, 3 states, 3 predicates, universe 3).
"""

from __future__ import annotations

import pytest

from conftest import DATA_DIR, REPO
from qlogic.cli import main

INPUTS = (
    ("--qm-spec", "specs/worked_qm.json"),
    ("--model", "specs/cm_demo.json"),
    ("--qm-spec", "tests/data/gen_qm_seed11.json"),
    ("--model", "tests/data/gen_classical_seed7.json"),
)
CASES = [
    (flag, path, command, fmt)
    for flag, path in INPUTS
    for command in ("check", "lattice")
    for fmt in ("text", "json")
]


@pytest.mark.parametrize(
    "flag,path,command,fmt",
    CASES,
    ids=[f"{path.rsplit('/', 1)[1][:-5]}-{command}-{fmt}" for _, path, command, fmt in CASES],
)
def test_cli_output_matches_golden(flag, path, command, fmt, capsys, monkeypatch):
    monkeypatch.chdir(REPO)  # the check report echoes the input path as given
    assert main([command, flag, path, "--format", fmt]) == 0
    stem = path.rsplit("/", 1)[1][: -len(".json")]
    golden = DATA_DIR / "golden" / f"{stem}.{command}.{fmt}"
    assert capsys.readouterr().out.encode() == golden.read_bytes()
