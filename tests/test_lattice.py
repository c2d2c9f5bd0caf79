from __future__ import annotations

import dataclasses
import random

import pytest

import qlogic.hilbert
import qlogic.lattice
from qlogic.bridge import load_spec, spec_from_dict
from qlogic.errors import ClosureOverflow
from qlogic.generate import random_qm_spec
from qlogic.hilbert import Subspace, join, leq, meet, ortho
from qlogic.hilbert import _nullspace as nullspace
from qlogic.lattice import (
    close,
    demorgan_violations,
    find_distributivity_failure,
    is_orthomodular,
    ortho_involution_violations,
    orthomodularity_witness,
)

import closure_reference as reference
from conftest import DATA_DIR, SPEC_DIR, gr, mo_squared_spec

E1 = Subspace.span([(gr(1), gr(0))])
E2 = Subspace.span([(gr(0), gr(1))])
EX = Subspace.span([(gr(1), gr(1))])


def test_single_generator_gives_four_elements():
    lat = close([E1])
    assert len(lat) == 4
    assert {s.dim for s in lat.elements} == {0, 1, 2}


def test_two_skew_lines_give_six_elements():
    lat = close([E1, EX])
    assert len(lat) == 6
    one_dim = {s for s in lat.elements if s.dim == 1}
    assert one_dim == {E1, EX, ortho(E1), ortho(EX)}


def test_tables_match_direct_operations():
    """The meet table is read through De Morgan from the join and ortho
    tables; every entry must still equal the kernel's own meet, on two
    lines in C^2, the worked spec, and closures in C^3 and C^4."""
    specs = [
        load_spec(SPEC_DIR / "worked_qm.json"),
        load_spec(DATA_DIR / "gen_qm_seed11.json"),
        random_qm_spec(0, dim=4, n_properties=2, universe=3)[0],
    ]
    closures = [close([E1, EX])] + [
        close([sub for _, sub in spec.properties], cap=spec.closure_cap, dim=spec.dim)
        for spec in specs
    ]
    assert [len(lat) for lat in closures] == [6, 6, 16, 12]
    for lat in closures:
        for i, a in enumerate(lat.elements):
            assert lat.elements[lat.ortho[i]] == ortho(a)
            for j, b in enumerate(lat.elements):
                assert lat.elements[lat.meet[i][j]] == meet(a, b)
                assert lat.elements[lat.join[i][j]] == join(a, b)


def test_closure_overflow_on_generic_triple():
    generic = [
        Subspace.span([(gr(1), gr(0), gr(0))]),
        Subspace.span([(gr(1), gr(1), gr(1))]),
        Subspace.span([(gr(1), gr(2), gr(4))]),
    ]
    with pytest.raises(ClosureOverflow) as err:
        close(generic, cap=16, dim=3)
    assert len(err.value.generators) == 3


def test_close_sends_few_joins_to_the_kernel(monkeypatch):
    """Joins of nested operands, of a hyperplane with anything outside it,
    of an element with its complement, and joins whose dimension and a
    known element above both operands settle them need no elimination.  On
    this 16-element closure, close asked the kernel for 91 joins when only
    equal, zero and full operands were settled without it, and for 21 with
    the nesting and hyperplane rules alone; 17 of those 21 returned an
    element close had already found.  Meets come from De Morgan, so close
    computes no meet.  It computes one complement per complement pair, of
    the element it meets first.  ortho writes the complements of 0, C^3 and
    lines in closed form, so only the 4 pairs met from their plane take a
    null space (one per pair, 8, before the closed forms; 29 before
    that)."""
    spec = load_spec(DATA_DIR / "gen_qm_seed11.json")
    calls = []
    meets = []
    nullspaces = []

    def counting_join(a, b):
        calls.append((a, b))
        return join(a, b)

    def counting_meet(a, b):
        meets.append((a, b))
        return meet(a, b)

    def counting_nullspace(*args):
        nullspaces.append(args)
        return nullspace(*args)

    monkeypatch.setattr(qlogic.lattice, "join", counting_join)
    for module in (qlogic.hilbert, qlogic.lattice):
        if hasattr(module, "meet"):
            monkeypatch.setattr(module, "meet", counting_meet)
    monkeypatch.setattr(qlogic.hilbert, "_nullspace", counting_nullspace)
    lat = close([sub for _, sub in spec.properties], cap=spec.closure_cap, dim=spec.dim)
    assert len(lat) == 16
    assert len(calls) == 5
    assert len(meets) == 0
    assert len(nullspaces) == 4
    for a, b in calls:  # what reaches the kernel is incomparable, hyperplane-free
        assert not leq(a, b) and not leq(b, a)
        assert spec.dim - 1 not in (a.dim, b.dim)


def test_exact_kernel_work_of_close_on_mo3_squared(monkeypatch):
    """MO_3 x MO_3 in C^4 (64 elements, 12 lines as generators), where most
    joins are of two planes.  close makes 332 kernel joins and 430 inclusion
    tests; it made 1 141 joins and 1 181 tests when only nesting and
    hyperplanes settled a join.  Of the 32 complement pairs only the 19 of
    planes reach a null space: close meets each of the other 13 from 0,
    C^4 or a line, whose complements ortho writes in closed form (all 32
    took one before).  So elimination runs 332 + 19 = 351 times: the zero
    subspace it starts from has no rows to reduce, and the full one is
    built from identity rows, which are already reduced (365 before, and
    352 while the zero subspace still ran elimination)."""
    spec = spec_from_dict(mo_squared_spec(3))
    counts = {"join": 0, "leq": 0, "_nullspace": 0, "_reduce": 0}
    targets = (
        (qlogic.lattice, "join"), (qlogic.lattice, "leq"),
        (qlogic.hilbert, "_nullspace"), (qlogic.hilbert, "_reduce"),
    )
    for module, name in targets:

        def counting(*args, original=getattr(module, name), name=name):
            counts[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, counting)
    lat = close([sub for _, sub in spec.properties], cap=spec.closure_cap, dim=spec.dim)
    assert (len(spec.properties), len(lat)) == (12, 64)
    assert counts == {"join": 332, "leq": 430, "_nullspace": 19, "_reduce": 351}


def test_orthomodularity_of_closures():
    assert is_orthomodular(close([E1, EX]))
    assert is_orthomodular(close([E1]))


def test_orthomodular_law_instance_in_three_dims():
    a = Subspace.span([(gr(1), gr(0), gr(0))])
    b = Subspace.span([(gr(1), gr(0), gr(0)), (gr(0), gr(1), gr(0))])
    rebuilt = join(a, meet(b, ortho(a)))
    assert rebuilt == b


def test_corrupted_join_table_yields_witness():
    lat = close([E1, EX])
    rows = [list(r) for r in lat.join]
    rows[0][1] = 0  # join(0, x) must be x
    corrupted = dataclasses.replace(lat, join=tuple(tuple(r) for r in rows))
    witness = orthomodularity_witness(corrupted)
    assert witness is not None
    assert not is_orthomodular(corrupted)


def test_distributivity_witness_in_two_dims():
    # a meet (b join c) = a, but (a meet b) join (a meet c) = 0
    lat = close([E1, E2, EX])
    witness = find_distributivity_failure(lat)
    assert witness is not None
    a, b, c = witness
    assert meet(a, join(b, c)) != join(meet(a, b), meet(a, c))


def test_boolean_fragment_has_no_distributivity_failure():
    assert find_distributivity_failure(close([E1])) is None


def test_commuting_lines_are_distributive():
    lines = [
        Subspace.span([(gr(1), gr(0), gr(0))]),
        Subspace.span([(gr(0), gr(1), gr(0))]),
    ]
    lat = close(lines, dim=3)
    assert len(lat) == 8
    assert find_distributivity_failure(lat) is None
    assert is_orthomodular(lat)


def test_table_laws_hold_exactly():
    lat = close([E1, EX])
    assert not ortho_involution_violations(lat)
    assert not demorgan_violations(lat)


def test_demorgan_detects_corruption():
    lat = close([E1, EX])
    rows = [list(r) for r in lat.meet]
    top = len(lat) - 1
    rows[top][0] = top  # meet(1, 0) must be 0
    corrupted = dataclasses.replace(lat, meet=tuple(tuple(r) for r in rows))
    assert demorgan_violations(corrupted)


def test_ortho_involution_detects_corruption():
    lat = close([E1, EX])
    ortho_table = list(lat.ortho)
    ortho_table[0] = 1  # 0-perp must be 1, the last element
    corrupted = dataclasses.replace(lat, ortho=tuple(ortho_table))
    assert 0 in ortho_involution_violations(corrupted)


def test_absorption_laws_in_tables():
    lat = close([E1, E2, EX])
    n = len(lat)
    for i in range(n):
        for j in range(n):
            assert lat.meet[i][lat.join[i][j]] == i
            assert lat.join[i][lat.meet[i][j]] == i


def test_close_rejects_mixed_dimensions():
    import pytest as _pytest
    from qlogic.errors import DimensionMismatch

    with _pytest.raises(DimensionMismatch):
        close([E1, Subspace.span([(gr(1), gr(0), gr(0))])])


# -- MO_k x MO_k: a closed-form scale corpus ------------------------------------------


def _mo_squared(k: int) -> list[Subspace]:
    """k orthonormal bases of lines (1, t), (-t, 1), t = 0..k-1, in each C^2
    block of C^4 = C^2 + C^2; they close to MO_k x MO_k (Kalmbach 1983)."""
    zero = gr(0)
    lines = []
    for t in map(gr, range(k)):
        for u, v in ((gr(1), t), (-t, gr(1))):
            lines.append(Subspace.span([(u, v, zero, zero)]))
            lines.append(Subspace.span([(zero, zero, u, v)]))
    return lines


def _first_distributivity_failure(lat):
    n = range(len(lat))
    return next(
        (
            (a, b, c)
            for a in n
            for b in n
            for c in n
            if lat.meet[a][lat.join[b][c]] != lat.join[lat.meet[a][b]][lat.meet[a][c]]
        ),
        None,
    )


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_mo_k_squared_has_its_closed_form_shape(k):
    """(2k+2)^2 elements, 4k atoms, orthomodular, distributive iff k = 1:
    facts of MO_k x MO_k, read off the tables by loops of their own."""
    lat = close(_mo_squared(k), dim=4)
    n = len(lat)
    assert n == (2 * k + 2) ** 2
    below = [[j for j in range(n) if lat.meet[j][i] == j] for i in range(n)]
    atoms = [i for i in range(n) if len(below[i]) == 2]  # only zero and itself
    assert len(atoms) == 4 * k
    assert all(lat.elements[i].dim == 1 for i in atoms)
    assert all(
        lat.join[i][lat.meet[j][lat.ortho[i]]] == j for j in range(n) for i in below[j]
    )
    assert (_first_distributivity_failure(lat) is None) == (k == 1)
    assert is_orthomodular(lat)
    assert (find_distributivity_failure(lat) is None) == (k == 1)


def test_mo_2_squared_tables_match_reference():
    generators = _mo_squared(2)
    got, want = close(generators, dim=4), reference.close(generators, dim=4)
    assert len(got) == 36
    assert got.elements == want.elements
    assert (got.ortho, got.meet, got.join) == (want.ortho, want.meet, want.join)
    assert (got.elements[0], got.elements[-1]) == (Subspace.zero(4), Subspace.full(4))


def test_mo_3_squared_tables_match_reference():
    """Most joins here are of two planes, which close settles from the
    dimension of the complements' join or a known hyperplane above both."""
    generators = _mo_squared(3)
    got, want = close(generators, dim=4), reference.close(generators, dim=4)
    assert len(got) == 64
    assert got.elements == want.elements
    assert (got.ortho, got.meet, got.join) == (want.ortho, want.meet, want.join)


# -- distributivity scan against the numpy sweep ---------------------------------------


@pytest.fixture(scope="module")
def differential_lattices():
    """Closures of generated specs (five (dim, properties) shapes, seeds 0-3) and
    MO_k x MO_k for k = 1, 2, 3."""
    lattices = []
    for dim, properties in ((2, 2), (2, 3), (3, 2), (3, 3), (4, 2)):
        for seed in range(4):
            spec, _ = random_qm_spec(seed, dim, properties, closure_cap=128)
            lattices.append(close([sub for _, sub in spec.properties], dim=dim))
    lattices.extend(close(_mo_squared(k), dim=4) for k in (1, 2, 3))
    return lattices


def _corrupted(lat, rng):
    """A copy with one to three random meet, join or ortho entries rewritten."""
    n = len(lat)
    tables = {name: [list(row) for row in getattr(lat, name)] for name in ("meet", "join")}
    ortho = list(lat.ortho)
    for _ in range(rng.randint(1, 3)):
        name = rng.choice(["meet", "join", "ortho"])
        if name == "ortho":
            ortho[rng.randrange(n)] = rng.randrange(n)
        else:
            tables[name][rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
    return dataclasses.replace(
        lat,
        ortho=tuple(ortho),
        **{name: tuple(map(tuple, rows)) for name, rows in tables.items()},
    )


def test_distributivity_scan_matches_numpy_reference(differential_lattices):
    witnesses = []
    for lat in differential_lattices:
        witnesses.append(find_distributivity_failure(lat))
        assert witnesses[-1] == reference.find_distributivity_failure(lat)
    assert None in witnesses and any(witnesses)  # both outcomes occur
    rng = random.Random(8)
    for _ in range(300):
        lat = _corrupted(rng.choice(differential_lattices), rng)
        assert find_distributivity_failure(lat) == reference.find_distributivity_failure(lat)
