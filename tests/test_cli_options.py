"""Every option of every ``qlogic`` command can change an outcome.

The guard walks each subcommand's options in ``cli._PARSER`` (``-h``
aside).  Each (command, option) pair needs one row in ``ROWS``: an argv
and two values of the option, ``None`` standing for the option left out.
Run through ``cli.main``, both runs must exit 0, and they must print
different stdout bytes or write different ``--out`` files.  A row's argv
never sets ``--format``, so its runs print text unless the option is
``--format`` itself: a flag that only echoes itself into the JSON report
does not pass.  ``gen`` prints JSON alone, so its ``"generator"`` block,
which echoes the flags, is left out of the comparison.

``check --depth`` is the one exemption: it changes no suite (see
``tests/test_golden.py``), but the benchmark's workloads pass
``--depth 3``, so it stays until they stop (ROADMAP item 1).
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import pytest

from qlogic import cli

from conftest import DATA_DIR, SPEC_DIR

WORKED = str(SPEC_DIR / "worked_qm.json")
GEN_QM = str(DATA_DIR / "gen_qm_seed11.json")
CM = str(SPEC_DIR / "cm_demo.json")
GEN_CM = str(DATA_DIR / "gen_classical_seed7.json")
GEN_QM_0 = str(DATA_DIR / "gen_qm_seed0_cap12.json")
GEN_CM_0 = str(DATA_DIR / "gen_classical_seed0.json")

EXEMPT = {
    ("check", "--depth"): "changes no suite; the benchmark's workloads pass it (ROADMAP item 1)",
}

# (command, option): (argv, (value, value)); "{tmp}" stands for the test's directory
ROWS = {
    ("parse", "--formula"): (["parse"], ("E", "F")),
    ("parse", "--model"): (["parse", "--formula", "Hot &q Heavy"], (None, CM)),
    ("parse", "--qm-spec"): (["parse", "--formula", "Ez"], (None, WORKED)),
    ("parse", "--format"): (["parse", "--formula", "E"], (None, "json")),
    ("eval", "--formula"): (["eval", "--qm-spec", WORKED], ("Ez", "Ex")),
    ("eval", "--model"): (["eval", "--formula", "E1"], (GEN_CM, GEN_CM_0)),
    ("eval", "--qm-spec"): (["eval", "--formula", "E1"], (GEN_QM, GEN_QM_0)),
    ("eval", "--format"): (["eval", "--qm-spec", WORKED, "--formula", "Ez"], (None, "json")),
    ("check", "--model"): (["check"], (CM, GEN_CM)),
    ("check", "--qm-spec"): (["check"], (WORKED, GEN_QM)),
    ("check", "--format"): (["check", "--qm-spec", WORKED], (None, "json")),
    ("lattice", "--model"): (["lattice"], (CM, GEN_CM)),
    ("lattice", "--qm-spec"): (["lattice"], (WORKED, GEN_QM)),
    ("lattice", "--format"): (["lattice", "--qm-spec", WORKED], (None, "dot")),
    ("lattice", "--out"): (["lattice", "--qm-spec", WORKED], (None, "{tmp}/lattice.txt")),
    ("gen", "--seed"): (["gen"], (None, "1")),
    ("gen", "--kind"): (["gen"], (None, "qm")),
    ("gen", "--universe"): (["gen"], (None, "4")),
    ("gen", "--states"): (["gen"], (None, "3")),
    ("gen", "--predicates"): (["gen"], (None, "3")),
    ("gen", "--dim"): (["gen", "--kind", "qm"], (None, "3")),
    ("gen", "--properties"): (["gen", "--kind", "qm"], (None, "1")),
    ("gen", "--cap"): (["gen", "--kind", "qm"], (None, "64")),
    ("gen", "--out"): (["gen"], (None, "{tmp}/model.json")),
}


def options(parser: argparse.ArgumentParser) -> set[tuple[str, str]]:
    """(command, option) of each option a subcommand declares, ``-h`` aside."""
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        (name, action.option_strings[-1])
        for name, sub in commands.choices.items()
        for action in sub._actions
        if action.option_strings and not isinstance(action, argparse._HelpAction)
    }


def _outcome(capsys, argv: list[str]) -> tuple[int, str, str | None]:
    """The exit status, stdout and ``--out`` file of one run.  ``gen``'s
    ``"generator"`` block, which echoes its flags, is left out."""
    status = cli.main(argv)
    outputs = [capsys.readouterr().out, None]
    if "--out" in argv:
        path = Path(argv[argv.index("--out") + 1])
        outputs[1] = path.read_text(encoding="utf-8")
        path.unlink()
    if argv[0] == "gen" and status == 0:
        for i, text in enumerate(outputs):
            if text:
                data = json.loads(text)
                del data["generator"]
                outputs[i] = json.dumps(data, sort_keys=True)
    return status, *outputs


def _changes_outcome(capsys, tmp_path, option: str, argv: list[str], values) -> bool:
    """Whether the row's argv prints text and its two runs both exit 0 with
    different stdout or ``--out`` text."""
    if "--format" in argv:
        return False
    runs = []
    for value in values:
        given = argv + ([] if value is None else [option, value])
        runs.append(_outcome(capsys, [arg.replace("{tmp}", str(tmp_path)) for arg in given]))
    return not any(status for status, *_ in runs) and runs[0] != runs[1]


def inert_options(capsys, tmp_path, rows, exempt) -> list[tuple[str, str]]:
    """Each (command, option) of ``cli._PARSER``, bar the exempt, with no
    row or with a row whose runs do not show it changing an outcome."""
    return [
        (command, option)
        for command, option in sorted(options(cli._PARSER) - exempt.keys())
        if (command, option) not in rows
        or not _changes_outcome(capsys, tmp_path, option, *rows[command, option])
    ]


def test_every_option_can_change_an_outcome(capsys, tmp_path):
    assert len(options(cli._PARSER)) == 25
    assert options(cli._PARSER) == ROWS.keys() | EXEMPT.keys()
    assert inert_options(capsys, tmp_path, ROWS, EXEMPT) == []


def test_the_guard_sees_an_option_nothing_reads(capsys, tmp_path, monkeypatch):
    """Negative control: a copy of the parser with one more ``lattice``
    option, which no command reads, fails the guard on that option alone."""
    parser = cli._build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    commands.choices["lattice"].add_argument("--width", type=int, default=80)
    monkeypatch.setattr(cli, "_PARSER", parser)
    rows = {**ROWS, ("lattice", "--width"): (["lattice", "--qm-spec", WORKED], (None, "40"))}
    assert inert_options(capsys, tmp_path, rows, EXEMPT) == [("lattice", "--width")]


@pytest.mark.parametrize("fmt", [[], ["--format", "json"]], ids=["text", "json"])
def test_the_guard_sees_a_row_whose_values_print_the_same(capsys, tmp_path, fmt):
    """Negative control: ``check --depth`` at 0 and at its default prints
    the same text report, so with a row and no exemption it fails the guard
    alone.  Its JSON reports differ by the echoed ``depth`` key alone, and a
    row that sets ``--format`` fails too."""
    rows = {**ROWS, ("check", "--depth"): (["check", "--qm-spec", WORKED, *fmt], (None, "0"))}
    assert inert_options(capsys, tmp_path, rows, {}) == [("check", "--depth")]
