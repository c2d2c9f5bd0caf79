"""Every ``check`` suite can fail, or says that it cannot.

``CONTROLS`` maps each suite name that a ``check`` golden prints to the
seeded negative control that makes that suite report a violation, named as
``module::test``, or to ``COUNT`` for a line with no violation path: a
census, a profile, or an identity the tables satisfy by construction.  A
suite added to ``check`` shows in the goldens and fails the first test
below until it gets an entry.
"""

from __future__ import annotations

import importlib
import json
import re

import pytest

from conftest import DATA_DIR

COUNT = "count"
CORRUPTED_GOLDENS = "test_golden::test_check_on_a_corrupted_model_matches_golden"

CONTROLS = {
    "connective-relation-negation": COUNT,
    "connective-relation-meet": COUNT,
    "connective-relation-join": COUNT,
    "boolean-quotient": COUNT,
    "cm-full-or-empty": COUNT,
    "cm-testability": COUNT,
    "truth-certainty-collapse": COUNT,
    "ortho-involution": "test_lattice::test_ortho_involution_detects_corruption",
    "table-demorgan": "test_lattice::test_demorgan_detects_corruption",
    "orthomodularity": "test_lattice::test_corrupted_join_table_yields_witness",
    "distributivity-witness": COUNT,
    "proposition-theta-agreement": "test_bridge::test_check_qmt_detects_full_extension_where_half",
    "equivalence-coincidence": "test_bridge::test_equiv_coincidence_fails_without_separating_states",
    "quantum-demorgan": "test_suites::test_quantum_demorgan_flags_a_corrupted_join_entry",
    "quantum-implication": COUNT,  # both sides are one table expression
    "conjunction-footnote": CORRUPTED_GOLDENS,
    "ortho-image": CORRUPTED_GOLDENS,
    "meet-image": "test_bridge::test_quantum_equivalences_flag_a_corrupted_meet_entry",
    "join-image": CORRUPTED_GOLDENS,
    "conjunction-signature-gap": COUNT,
    "q-truth-trichotomy": "test_bridge::test_trichotomy_flags_a_state_certain_both_ways",
    "qwff-quotient-isomorphism": "test_bridge::test_lt_quotient_reports_an_edited_extension",
    "state-separation": COUNT,
}


def _golden_suite_names() -> set[str]:
    names = set()
    for path in sorted((DATA_DIR / "golden").glob("*.check*")):
        if path.suffix == ".json":
            names |= {s["suite"] for s in json.loads(path.read_text())["suites"]}
        else:
            names |= set(re.findall(r"^suite (\S+):", path.read_text(), re.MULTILINE))
    return names


def test_every_suite_in_the_goldens_has_a_control_or_a_count_mark():
    names = _golden_suite_names()
    assert len(names) == 23
    assert sorted(names - CONTROLS.keys()) == []
    assert sorted(CONTROLS.keys() - names) == []  # no entry outlives its suite


@pytest.mark.parametrize("suite", sorted(s for s, c in CONTROLS.items() if c != COUNT))
def test_control_exists(suite):
    module, test = CONTROLS[suite].split("::")
    assert callable(getattr(importlib.import_module(module), test))


@pytest.mark.parametrize("suite", sorted(s for s, c in CONTROLS.items() if c == CORRUPTED_GOLDENS))
def test_corrupted_goldens_flag_the_suite(suite):
    flagged = [
        path.name
        for path in sorted((DATA_DIR / "golden").glob("worked_qm.check_corrupt_*.text"))
        if re.search(rf"^suite {suite}: [1-9]\d* violation\(s\)", path.read_text(), re.MULTILINE)
    ]
    assert flagged
