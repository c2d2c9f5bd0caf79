"""``check`` and ``lattice`` on MO_k x MO_k specs in C^4, against the
closed form of the product of two k-block orthomodular lattices
(Kalmbach, *Orthomodular Lattices*, 1983): (2k+2)^2 elements, 4k atoms,
orthomodular, distributive exactly when k = 1.  The order facts are read
off the ``lattice`` report by loops of the test's own.  And ``check`` on
generated classical models whose atoms all lie in one component of the
split blocks' groups, against the inclusion-exclusion count."""

from __future__ import annotations

import json
import time

import pytest

from qlogic.cli import main
from qlogic.models import SignatureSpace, load_model

import suite_reference as reference
from conftest import mo_squared_spec


def _run_json(capsys, *argv) -> dict:
    assert main([*argv, "--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)


def _first_distributivity_failure(n: int, edges: list) -> tuple | None:
    """First triple, in lexicographic order, where a & (b | c) differs
    from (a & b) | (a & c), with bounds read from the cover order."""
    ups = [1 << i for i in range(n)]
    changed = True
    while changed:  # up-sets as the transitive closure of the covers
        changed = False
        for i, j in edges:
            if ups[i] | ups[j] != ups[i]:
                ups[i] |= ups[j]
                changed = True
    downs = [sum(1 << i for i in range(n) if ups[i] >> j & 1) for j in range(n)]
    by_up = {up: i for i, up in enumerate(ups)}
    by_down = {down: i for i, down in enumerate(downs)}
    join = [[by_up[ups[a] & ups[b]] for b in range(n)] for a in range(n)]
    meet = [[by_down[downs[a] & downs[b]] for b in range(n)] for a in range(n)]
    return next(
        (
            (a, b, c)
            for a in range(n)
            for b in range(n)
            for c in range(n)
            if meet[a][join[b][c]] != join[meet[a][b]][meet[a][c]]
        ),
        None,
    )


# k: the classes of the connective census, 2**atoms at every depth, and its
# strict negations and joins; the groups of atoms that meet a split state
# block form 12 components, none left out, so 2**12 negations are not strict
CENSUS = {
    3: (2**44, 2**44 - 2**12, 285773940649133878763520000),
    7: (2**76, 2**76 - 2**12, 5665967022880007375516677506234915252574679040),
}

# (k, depth): the most seconds ``check`` may take
BUDGET = {(3, 3): 1.0, (7, 3): 1.5}


@pytest.mark.parametrize(
    "k,depth", [(1, 1), (2, 1), (3, 1), (5, 1), (7, 1), (2, 3), (3, 2), (7, 2), (3, 3), (7, 3)]
)
def test_mo_k_squared_spec_reports_its_closed_form(tmp_path, capsys, k, depth):
    spec = mo_squared_spec(k)
    path = tmp_path / f"mo{k}_squared.json"
    path.write_text(json.dumps(spec))

    lattice = _run_json(capsys, "lattice", "--qm-spec", str(path))
    nodes, edges = lattice["nodes"], lattice["edges"]
    n = len(nodes)
    assert n == (2 * k + 2) ** 2
    covering = {j for _, j in edges}
    (bottom,) = [i for i in range(n) if i not in covering]
    atoms = [j for i, j in edges if i == bottom]
    assert len(atoms) == 4 * k
    assert all(len(nodes[j]["states"]) == 1 for j in atoms)  # one state on each line
    assert sorted(s for j in atoms for s in nodes[j]["states"]) == sorted(
        state["name"] for state in spec["states"]
    )
    assert (_first_distributivity_failure(n, edges) is None) == (k == 1)

    started = time.perf_counter()
    report = _run_json(capsys, "check", "--qm-spec", str(path), "--depth", str(depth))
    elapsed = time.perf_counter() - started
    assert elapsed < BUDGET.get((k, depth), float("inf")), f"check took {elapsed:.2f}s"
    suites = {suite["suite"]: suite for suite in report["suites"]}
    assert report["violations"] == 0
    assert suites["orthomodularity"]["violations"] == 0
    assert suites["distributivity-witness"]["info"]["expected-nondistributive"] == (k >= 2)
    assert suites["qwff-quotient-isomorphism"]["info"]["status"] == "isomorphic"
    assert suites["state-separation"]["info"]["separating"]
    if k in CENSUS:
        classes, negations, joins = CENSUS[k]
        census = [suites[f"connective-relation-{name}"] for name in ("negation", "meet", "join")]
        assert [(s["checked"], s["violations"], s["info"]) for s in census] == [
            (classes, 0, {"strict": negations}),
            (classes**2, 0, {"strict": 0}),
            (classes**2, 0, {"strict": joins}),
        ]
        assert suites["cm-testability"]["checked"] == classes
        assert suites["cm-testability"]["info"] == {"holds": False, "witness": "Pa0_0 | Pb0_0"}


# (states, predicates, universe) of a ``gen --kind classical --seed 1``
# model: its atoms, all in one component, and the most seconds ``check`` may
# take on it at any depth
WIDE = {(5, 5, 5): (18, 0.5), (6, 5, 6): (24, 0.5)}


@pytest.mark.parametrize("states,predicates,universe", sorted(WIDE))
def test_census_on_one_wide_component_meets_its_budget(
    tmp_path, capsys, states, predicates, universe
):
    """The census's work follows the groups open at once, not the 4**atoms
    pairs of a component's atoms."""
    path = tmp_path / "model.json"
    sizes = {"--states": states, "--predicates": predicates, "--universe": universe}
    argv = [arg for flag, n in sizes.items() for arg in (flag, str(n))]
    assert main(["gen", "--kind", "classical", "--seed", "1", *argv, "--out", str(path)]) == 0
    model = load_model(path)
    m, budget = WIDE[(states, predicates, universe)]
    assert len(SignatureSpace(model).atoms(model.predicate_names())) == m
    negations, joins = reference.strict_by_inclusion_exclusion(model)
    assert negations == 2**m - 2  # one component and no free atom: X empty or full there
    for depth in (0, 3):
        started = time.perf_counter()
        report = _run_json(capsys, "check", "--model", str(path), "--depth", str(depth))
        elapsed = time.perf_counter() - started
        assert elapsed < budget, f"check took {elapsed:.2f}s"
        suites = {suite["suite"]: suite for suite in report["suites"]}
        census = [suites[f"connective-relation-{name}"] for name in ("negation", "meet", "join")]
        assert [(s["checked"], s["violations"], s["info"]) for s in census] == [
            (2**m, 0, {"strict": negations}),
            (4**m, 0, {"strict": 0}),
            (4**m, 0, {"strict": joins}),
        ]
