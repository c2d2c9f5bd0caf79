"""Bitset order routines against the plain scans of ``order_reference``.

``proposition_poset`` takes bounds from down-set/up-set bitmasks and
``cover_edges`` takes covers from up-set bitmasks; both are compared with
the reference on seeded random state-set families (non-lattices included),
on generated quantum lattices, and on the four-element lattice of a line
in C^3, whose covers do not follow dimension layers.  The classical
``lattice`` command is compared with an enumeration of every union of
atoms, on a model with more atoms than the signature-algebra cap once
allowed.
"""

from __future__ import annotations

import json
import random

import pytest

from qlogic.bridge import build_model
from qlogic.bridge import testable_proposition_poset as induced_poset
from qlogic.cli import _lattice_nodes_edges, main
from qlogic.formulas import Pred
from qlogic.generate import random_qm_spec
from qlogic.hilbert import Subspace
from qlogic.lattice import close
from qlogic.propositions import cover_edges, proposition_poset

import order_reference as reference
from conftest import DATA_DIR, build_cm_model, gr


def _check_poset(poset):
    elements = poset.elements
    n = len(elements)
    for i in range(n):
        for j in range(n):
            assert poset.meets[(i, j)] == reference.bound_index(elements, i, j, lower=True)
            assert poset.joins[(i, j)] == reference.bound_index(elements, i, j, lower=False)
    bounds = list(poset.meets.values()) + list(poset.joins.values())
    assert poset.is_lattice == (None not in bounds)
    ups = [sum(1 << j for j in range(n) if poset.meets[(i, j)] == i) for i in range(n)]
    assert cover_edges(ups) == reference.cover_edges(n, lambda i, j: elements[i] < elements[j])


def _random_family(seed: int):
    """A CM model whose base predicates carry random state sets."""
    rng = random.Random(f"order:{seed}")
    states = [f"S{k}" for k in range(rng.randint(1, 5))]
    names = [f"P{k}" for k in range(rng.randint(1, 9))]
    truth = {(s, name): rng.random() < 0.5 for s in states for name in names}
    return build_cm_model(states, names, truth, 2), names


def test_poset_matches_reference_on_random_state_set_families():
    lattices = 0
    for seed in range(120):
        model, names = _random_family(seed)
        poset = proposition_poset(model, [Pred(name) for name in names])
        _check_poset(poset)
        lattices += poset.is_lattice
    assert 0 < lattices < 120  # both lattices and non-lattices were drawn


@pytest.mark.parametrize("dim,properties", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)])
def test_order_matches_reference_on_generated_lattices(dim, properties):
    for seed in range(4):
        qm = build_model(random_qm_spec(seed, dim, properties)[0])
        lat = qm.lattice
        want = reference.cover_edges(len(lat), lambda i, j: i != j and lat.meet[i][j] == i)
        assert _lattice_nodes_edges(qm.model, qm)[1] == want
        _check_poset(induced_poset(qm))


def test_line_in_three_dimensions_is_covered_by_the_whole_space():
    line = Subspace.span([(gr(1), gr(2), gr(0))])
    lat = close([line], dim=3)
    dims = [s.dim for s in lat.elements]
    assert sorted(dims) == [0, 1, 2, 3]
    zero, one, two, three = (dims.index(d) for d in range(4))
    ups = [sum(1 << j for j, m in enumerate(row) if m == i) for i, row in enumerate(lat.meet)]
    got = cover_edges(ups)
    assert got == reference.cover_edges(len(lat), lambda i, j: i != j and lat.meet[i][j] == i)
    assert sorted(got) == sorted([(zero, one), (zero, two), (one, three), (two, three)])


def _atoms(data: dict) -> list[set[tuple[str, int]]]:
    """Cells of (state, object) pairs lying in exactly the same predicates."""
    cells: dict[tuple[bool, ...], set[tuple[str, int]]] = {}
    for state in data["states"]:
        for u in range(state["universe"]):
            key = tuple(u in state["extensions"][p["name"]] for p in data["predicates"])
            cells.setdefault(key, set()).add((state["name"], u))
    return list(cells.values())


def test_lattice_of_thirteen_atoms_equals_every_union_of_atoms(capsys):
    path = DATA_DIR / "gen_classical_s5_p4_u5_seed1.json"
    data = json.loads(path.read_text())
    atoms = _atoms(data)
    assert len(atoms) == 13
    blocks = {s["name"]: {(s["name"], u) for u in range(s["universe"])} for s in data["states"]}
    props = set()
    for chosen in range(2 ** len(atoms)):
        union = set().union(*(a for k, a in enumerate(atoms) if chosen >> k & 1))
        props.add(frozenset(s for s, block in blocks.items() if block <= union))
    props = sorted(props, key=lambda p: (len(p), sorted(p)))
    assert len(props) == 32

    assert main(["lattice", "--model", str(path), "--format", "json"]) == 0
    graph = json.loads(capsys.readouterr().out)
    assert [frozenset(node["states"]) for node in graph["nodes"]] == props
    holds = {
        p["name"]: frozenset(
            s["name"]
            for s in data["states"]
            if set(s["extensions"][p["name"]]) == set(range(s["universe"]))
        )
        for p in data["predicates"]
    }
    for node, prop in zip(graph["nodes"], props):
        assert node["predicates"] == [name for name, held in holds.items() if held == prop]
    edges = reference.cover_edges(len(props), lambda i, j: props[i] < props[j])
    assert [tuple(e) for e in graph["edges"]] == edges


def test_empty_alphabet_has_no_propositions(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({
        "predicates": [],
        "states": [{"name": "S1", "universe": 2}, {"name": "S2", "universe": 1}],
    }))
    assert main(["lattice", "--model", str(path)]) == 0
    assert capsys.readouterr().out == "nodes: 0\ncover edges: 0\n"
    assert main(["check", "--model", str(path)]) == 0
    assert "suite boolean-quotient: ok (checked 0) [elements=0]\n" in capsys.readouterr().out
