"""Byte-identical CLI reports on fixed inputs.

The goldens under ``tests/data/golden`` are ``qlogic check`` and ``qlogic
lattice`` outputs, text and JSON, recorded before the closures shared one
engine.  Inputs are the two shipped specs, a seeded ``gen --kind qm``
spec (seed 11, dim 3, 3 properties, cap 64) and a seeded classical model
(seed 7, 3 states, 3 predicates, universe 3).  Two more seeded classical
models (3 states, 4 predicates, universe 4) pin ``boolean-quotient``, which
counts 2**atoms with no cap: seed 0 has 10 atoms, 1024 elements, seed 1 has
9 atoms, 512 elements, and both pass.  Seed 0's check golden is the report
of the code that capped this suite at 512 elements, run with the cap
lifted; its lattice goldens were recorded before the propositions were
computed from atoms.  The only cap left, the subspace closure's, is the
spec's ``closure_cap``: ``test_the_spec_closure_cap_is_the_cap`` and
``test_closure_overflow_exit_two`` in ``tests/test_cli.py`` pin it.

``check --depth`` changes no suite: the classical suites count the whole
generated algebra and the quantum suites sweep every lattice element, so
at each depth 0 to 4 the text report is the default golden and the JSON
report differs from it only in its ``depth`` field.

The ``qlogic eval`` goldens were recorded while eval still reduced the
formula once per state.  They cover a quantum formula with a verdict per
state, a classical conjunction that is not testable and falls back to
classical evaluation with no verdict, and a plain classical model.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import pytest

import suite_reference as reference
from conftest import DATA_DIR, REPO, mo_squared_spec, with_extension
from qlogic import cli
from qlogic.bridge import build_model, check_qmt
from qlogic.cli import main
from qlogic.models import SignatureSpace

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


def test_check_past_the_old_cap_matches_golden(capsys, monkeypatch):
    monkeypatch.chdir(REPO)
    assert main(["check", "--model", "tests/data/gen_classical_p4_seed0.json"]) == 0
    golden = DATA_DIR / "golden" / "gen_classical_p4_seed0.check.text"
    assert capsys.readouterr().out.encode() == golden.read_bytes()


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_lattice_of_ten_atoms_matches_golden(fmt, capsys, monkeypatch):
    monkeypatch.chdir(REPO)
    path = "tests/data/gen_classical_p4_seed0.json"
    assert main(["lattice", "--model", path, "--format", fmt]) == 0
    golden = DATA_DIR / "golden" / f"gen_classical_p4_seed0.lattice.{fmt}"
    assert capsys.readouterr().out.encode() == golden.read_bytes()


def test_check_at_the_cap_matches_golden(capsys, monkeypatch):
    monkeypatch.chdir(REPO)
    assert main(["check", "--model", "tests/data/gen_classical_p4_seed1.json"]) == 0
    golden = DATA_DIR / "golden" / "gen_classical_p4_seed1.check.text"
    assert capsys.readouterr().out.encode() == golden.read_bytes()


DEPTH_CASES = [
    (flag, path, depth)
    for flag, path in (*INPUTS[2:], INPUTS[0])
    for depth in range(5)
]


@pytest.mark.parametrize(
    "flag,path,depth",
    DEPTH_CASES,
    ids=[f"{path.rsplit('/', 1)[1][:-5]}-depth{depth}" for _, path, depth in DEPTH_CASES],
)
def test_check_at_other_depths_matches_golden(flag, path, depth, capsys, monkeypatch):
    """At every depth the text report is the default golden byte for byte,
    and the JSON report differs from it only in its ``depth`` field."""
    monkeypatch.chdir(REPO)
    stem = path.rsplit("/", 1)[1][: -len(".json")]
    text = (DATA_DIR / "golden" / f"{stem}.check.text").read_bytes()
    report = json.loads((DATA_DIR / "golden" / f"{stem}.check.json").read_bytes())
    assert main(["check", flag, path, "--depth", str(depth)]) == 0
    assert capsys.readouterr().out.encode() == text
    assert main(["check", flag, path, "--depth", str(depth), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {**report, "depth": depth}


def test_model_report_does_not_depend_on_depth(capsys, monkeypatch):
    """Every suite of a ``--model`` input is classical: at each depth the
    text report is the default one, and the JSON report differs only in its
    ``depth`` field."""
    monkeypatch.chdir(REPO)
    path = "tests/data/gen_classical_seed7.json"
    text = (DATA_DIR / "golden" / "gen_classical_seed7.check.text").read_bytes()
    report = json.loads((DATA_DIR / "golden" / "gen_classical_seed7.check.json").read_bytes())
    for depth in range(5):
        assert main(["check", "--model", path, "--depth", str(depth)]) == 0
        assert capsys.readouterr().out.encode() == text
        assert main(["check", "--model", path, "--depth", str(depth), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == {**report, "depth": depth}


EVAL_CASES = [
    ("--qm-spec", "specs/worked_qm.json", "Ez &q Ex", "worked_qm.eval_qand"),
    ("--qm-spec", "specs/worked_qm.json", "Ez & Ex", "worked_qm.eval_and"),
    ("--model", "specs/cm_demo.json", "Hot | Heavy", "cm_demo.eval"),
]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "flag,path,formula,stem", EVAL_CASES, ids=[stem for *_, stem in EVAL_CASES]
)
def test_eval_matches_golden(flag, path, formula, stem, fmt, capsys, monkeypatch):
    monkeypatch.chdir(REPO)
    assert main(["eval", flag, path, "--formula", formula, "--format", fmt]) == 0
    assert capsys.readouterr().out.encode() == (DATA_DIR / "golden" / f"{stem}.{fmt}").read_bytes()


# sha256 over the exit statuses and outputs below, recorded before the
# suites shared one outcome record, and re-recorded twice since: when
# conjunction-signature-gap began to count every gap rather than stop at 5
# (only its witnesses_found= figures changed), and when the classical census
# and cm-testability began to count the whole generated algebra (only their
# checked and strict= figures changed)
QM_CORPUS_SHA256 = "cd7f9103b8c1db7a207c72b13ad52ec43e7a5c76ff6302d46fd15c20259006af"


def test_seeded_qm_corpus_matches_recorded_digest(tmp_path, capsys, monkeypatch):
    """``gen --kind qm`` then ``check`` in text and JSON, on seeds 0-3 of
    the acceptance-corpus shapes; every step feeds its exit status and
    standard output, so one changed byte of any report changes the digest."""
    monkeypatch.chdir(tmp_path)  # the JSON report echoes the input path as given
    digest = hashlib.sha256()
    for dim, props in ((3, 2), (3, 3), (4, 2)):
        for seed in range(4):
            gen = ["gen", "--kind", "qm", "--seed", str(seed), "--dim", str(dim),
                   "--properties", str(props), "--cap", "64", "--out", "spec.json"]
            digest.update(f"{main(gen)}\n".encode() + (tmp_path / "spec.json").read_bytes())
            for fmt in ("text", "json"):
                code = main(["check", "--qm-spec", "spec.json", "--format", fmt])
                digest.update(f"{code}\n{capsys.readouterr().out}".encode())
    assert digest.hexdigest() == QM_CORPUS_SHA256


# -- reports with violations --------------------------------------------------------
# Recorded before the suites shared one record and one table.  The corrupted
# models come from a ``build_model`` patched where ``check`` calls it, so
# every suite reads the same edited model.


def _table_edit(table: str, row: str, column: str, value: str):
    """A build that sets one entry of the ``meet`` or ``join`` table, with
    elements named by predicate."""

    def build(spec):
        qm = build_model(spec)
        index = qm.element_index
        rows = [list(r) for r in getattr(qm.lattice, table)]
        rows[index[row]][index[column]] = index[value]
        edited = replace(qm.lattice, **{table: tuple(map(tuple, rows))})
        return replace(qm, lattice=edited)

    return build


def _full_zero_extension(spec):
    """A build whose zero subspace's predicate is full in state Sz+: one
    extension edit, which proposition-theta-agreement flags 3 times (its
    proposition, its pairing, its rule; no single edit gives more) and
    join-image 7 times, past both witness caps (3 in text, 5 in JSON)."""
    qm = build_model(spec)
    return with_extension(qm, "Sz+", qm.predicate_names[0], range(4))


ZERO = "Q_e9e6c354c1"  # worked_qm's generated name for the zero subspace
CORRUPTIONS = {
    # Ez ^ Ez read as zero: table-demorgan's count with no witnesses, and the
    # quantum-demorgan, conjunction-footnote and meet-image lines
    "meet": _table_edit("meet", "Ez", "Ez", ZERO),
    # 0 v 0 read as Ez_perp: orthomodularity's one violation with two witnesses
    "join": _table_edit("join", ZERO, ZERO, "Ez_perp"),
    "extension": _full_zero_extension,
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_check_on_a_corrupted_model_matches_golden(corruption, fmt, capsys, monkeypatch):
    monkeypatch.chdir(REPO)
    monkeypatch.setattr(cli, "build_model", CORRUPTIONS[corruption])
    assert main(["check", "--qm-spec", "specs/worked_qm.json", "--format", fmt]) == 1
    golden = DATA_DIR / "golden" / f"worked_qm.check_corrupt_{corruption}.{fmt}"
    assert capsys.readouterr().out.encode() == golden.read_bytes()


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_qmt_on_a_corrupted_model_matches_the_frozenset_reference(corruption, worked_spec):
    """check_qmt, which reads each state's slice of the predicate masks,
    gives the same result as the comparison of extension frozensets."""
    qm = CORRUPTIONS[corruption](worked_spec)
    assert check_qmt(qm, SignatureSpace(qm.model)) == reference.qmt(qm)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_check_on_mo_2_squared_matches_golden(fmt, tmp_path, capsys, monkeypatch):
    """MO_2 x MO_2 at the default depth: (2k+2)^2 = 36 elements, the
    product of two orthomodular blocks (Kalmbach, *Orthomodular Lattices*,
    1983), which every lattice suite reports as such."""
    monkeypatch.chdir(tmp_path)  # the JSON report echoes the input path as given
    (tmp_path / "mo2_squared.json").write_text(json.dumps(mo_squared_spec(2)))
    assert main(["check", "--qm-spec", "mo2_squared.json", "--format", fmt]) == 0
    out = capsys.readouterr().out
    assert out.encode() == (DATA_DIR / "golden" / f"mo2_squared.check.{fmt}").read_bytes()
    if fmt == "text":
        assert "suite ortho-involution: ok (checked 36)\n" in out
