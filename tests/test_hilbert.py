from __future__ import annotations

import copy
import gc
import hashlib
import pickle
import weakref
from dataclasses import FrozenInstanceError
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import Phase, given, settings, strategies as st

from qlogic import hilbert
from qlogic.bridge import _generated_name
from qlogic.errors import DimensionMismatch, ModelValidationError, ZeroVector
from qlogic.gaussian import GaussianRational, format_scalar
from qlogic.hilbert import (
    Subspace,
    _state_row,
    born,
    join,
    leq,
    meet,
    ortho,
    subspace_from_strings,
    subspace_to_strings,
)

import hilbert_reference as reference
from conftest import GR_ONE, GR_ZERO, gr

E1 = Subspace.span([(gr(1), gr(0))])
E2 = Subspace.span([(gr(0), gr(1))])
EX = Subspace.span([(gr(1), gr(1))])


def test_ortho_standard_basis():
    assert ortho(E1) == E2


@pytest.mark.parametrize("dim", range(1, 7))
def test_full_space_equals_the_reduced_identity(dim):
    """``full`` builds its canonical rows directly; they are the rows the
    constructor reduces the identity basis to."""
    identity = [[gr(int(i == j)) for j in range(dim)] for i in range(dim)]
    full = Subspace.full(dim)
    assert full == Subspace(dim, identity) and hash(full) == hash(Subspace(dim, identity))
    assert full.basis == Subspace(dim, identity).basis and full.dim == dim


def test_full_space_refuses_a_nonpositive_dimension():
    for dim in (0, -1):
        with pytest.raises(ModelValidationError, match="ambient dimension must be positive"):
            Subspace.full(dim)


def test_ortho_involution():
    assert ortho(ortho(EX)) == EX


def test_ortho_complex_line():
    line = Subspace.span([(gr(1), gr(0, 1))])
    assert ortho(line) == Subspace.span([(gr(1), gr(0, -1))])


def test_meet_orthogonal_lines_is_zero():
    assert meet(E1, E2) == Subspace.zero(2)


def _rank(vectors, ambient):
    return Subspace.span(list(vectors), ambient).dim


def test_join_and_meet_of_skew_lines():
    # independent rank oracle: stacked bases of the two lines span rank 2
    assert _rank(E1.basis + EX.basis, 2) == 2
    assert join(E1, EX) == Subspace.full(2)
    assert meet(E1, EX) == Subspace.zero(2)


def test_absorption_when_nested():
    a = Subspace.span([(gr(1), gr(0), gr(0))])
    b = Subspace.span([(gr(1), gr(0), gr(0)), (gr(0), gr(1), gr(0))])
    assert meet(a, b) == a
    assert join(a, b) == b
    assert leq(a, b) and not leq(b, a)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        meet(E1, Subspace.full(3))


def test_canonical_form_is_basis_independent():
    a = Subspace.span([(gr(1), gr(2), gr(0)), (gr(0), gr(0), gr(1))])
    b = Subspace.span([(gr(2), gr(4), gr(3)), (gr(0), gr(0), gr(-1))])
    assert a == b
    assert hash(a) == hash(b)


def test_born_examples():
    assert born((gr(1), gr(0)), E1) == 1
    assert born((gr(1), gr(1)), E1) == Fraction(1, 2)
    assert born((gr(1), gr(0)), E2) == 0


def test_born_zero_vector():
    with pytest.raises(ZeroVector):
        born((gr(0), gr(0)), E1)


def test_born_zero_subspace():
    assert born((gr(1), gr(2)), Subspace.zero(2)) == 0


def test_subspace_literals():
    sub = subspace_from_strings([["1", "0+1i"], ["0", "0"]], 2)
    assert sub == Subspace.span([(gr(1), gr(0, 1))])


_fracs = st.fractions(min_value=-3, max_value=3, max_denominator=3)
_scalars = st.builds(GaussianRational, _fracs, _fracs)


def _vectors(dim):
    return st.tuples(*[_scalars] * dim).filter(lambda v: any(not z.is_zero for z in v))


@st.composite
def _spaces(draw, dim):
    nvecs = draw(st.integers(1, dim - 1))
    vecs = [draw(_vectors(dim)) for _ in range(nvecs)]
    return Subspace.span(vecs, dim)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_born_complement_sums_to_one(data):
    dim = data.draw(st.integers(2, 4))
    psi = data.draw(_vectors(dim))
    sub = data.draw(_spaces(dim))
    assert born(psi, sub) + born(psi, ortho(sub)) == 1


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_born_boundary_values_mean_membership(data):
    dim = data.draw(st.integers(2, 3))
    psi = data.draw(_vectors(dim))
    sub = data.draw(_spaces(dim))
    p = born(psi, sub)
    line = Subspace.span([psi])
    assert (p == 1) == leq(line, sub)
    assert (p == 0) == leq(line, ortho(sub))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_change_of_basis_preserves_canonical_form(data):
    dim = data.draw(st.integers(2, 3))
    sub = data.draw(_spaces(dim))
    # random invertible-ish recombination: scale and add rows
    rows = [list(r) for r in sub.basis]
    scale = data.draw(st.sampled_from([gr(2), gr(-1), gr(1, 1), gr(Fraction(1, 3))]))
    rows[0] = [scale * x for x in rows[0]]
    if len(rows) > 1:
        rows[1] = [a + b for a, b in zip(rows[1], rows[0])]
    assert Subspace.span([tuple(r) for r in rows], dim) == sub


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_order_reversal_and_modular_dimension_identity(data):
    dim = data.draw(st.integers(2, 3))
    a = data.draw(_spaces(dim))
    b = data.draw(_spaces(dim))
    assert leq(a, b) == leq(ortho(b), ortho(a))
    assert a.dim + b.dim == meet(a, b).dim + join(a, b).dim
    assert ortho(meet(a, b)) == join(ortho(a), ortho(b))


# -- differential tests against the slow Fraction-based reference ------------------

_diff_fracs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_diff_scalars = st.builds(
    GaussianRational, _diff_fracs, st.one_of(st.just(Fraction(0)), _diff_fracs)
)


@st.composite
def _diff_vectors(draw, dim, count):
    """Up to ``count`` vectors, zero and dependent ones included."""
    return [draw(st.tuples(*[_diff_scalars] * dim)) for _ in range(draw(st.integers(0, count)))]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_kernel_matches_reference_on_one_space(data):
    dim = data.draw(st.integers(2, 5))
    vecs = data.draw(_diff_vectors(dim, dim + 1))
    a = Subspace.span(vecs, dim)
    assert a.basis == reference.span(vecs)
    assert ortho(a).basis == reference.ortho(a.basis, dim)
    assert ortho(ortho(a)) == a
    psi = data.draw(st.tuples(*[_diff_scalars] * dim))
    if any(not z.is_zero for z in psi):
        assert born(psi, a) == reference.born(psi, a.basis)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_born_on_lines_matches_reference(data):
    """Every example is a line, so born takes its rank-one closed form."""
    dim = data.draw(st.integers(2, 5))
    vector = st.tuples(*[_diff_scalars] * dim).filter(lambda v: any(not z.is_zero for z in v))
    line = Subspace.span([data.draw(vector)], dim)
    psi = data.draw(vector)
    assert line.dim == 1
    assert born(psi, line) == reference.born(psi, line.basis)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_kernel_matches_reference_on_pairs(data):
    dim = data.draw(st.integers(2, 5))
    a = Subspace.span(data.draw(_diff_vectors(dim, dim)), dim)
    b = Subspace.span(data.draw(_diff_vectors(dim, dim)), dim)
    assert meet(a, b).basis == reference.meet(a.basis, b.basis, dim)
    assert join(a, b).basis == reference.join(a.basis, b.basis)
    assert leq(a, b) == reference.leq(a.basis, b.basis, dim)
    assert leq(b, a) == reference.leq(b.basis, a.basis, dim)


def test_ortho_is_cached_on_both_ends():
    a = Subspace.span([(gr(1), gr(2), gr(0, 1))])
    o = ortho(a)
    assert ortho(a) is o and ortho(o) is a
    # the cache is per instance and invisible to equality and hashing
    fresh = Subspace.span([(gr(1), gr(2), gr(0, 1))])
    assert fresh == a and hash(fresh) == hash(a)
    assert ortho(fresh) == o and ortho(fresh) is not o


def test_ortho_cache_leaves_no_reference_cycle():
    """Both ends of the cache are weak, so a subspace and its complement
    are freed by reference counting alone."""
    gc.disable()
    try:
        a = Subspace.span([(gr(1), gr(2), gr(0, 1))])
        refs = weakref.ref(a), weakref.ref(ortho(a))
        del a
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


# -- identity: equality and hashing compare the canonical integer rows --------------


def test_identity_ignores_scaling_and_spanning_set():
    assert Subspace.span([(gr(1), gr(0))]) == Subspace.span([(gr(2), gr(0))])
    assert hash(Subspace.span([(gr(1), gr(0))])) == hash(Subspace.span([(gr(2), gr(0))]))
    assert Subspace.span([(gr(1), gr(0))]) != Subspace.span([(gr(0), gr(1))])
    assert Subspace.span([(gr(2), gr(4))]) == Subspace.span([(gr(Fraction(1, 3)), gr(Fraction(2, 3)))])
    assert Subspace.span([(gr(1, 1), gr(0, 2))]) == Subspace.span([(gr(1), gr(1, 1))])
    assert Subspace.span([(gr(-3), gr(0)), (gr(0), gr(2))]) == Subspace.full(2)
    assert Subspace.span([(gr(0), gr(0))], 2) == Subspace.zero(2)
    assert Subspace.zero(2) != Subspace.zero(3)


def test_subspace_is_immutable():
    a = Subspace.span([(gr(1), gr(2))])
    for name, value in (("ambient", 3), ("basis", ()), ("colour", "red")):
        with pytest.raises(FrozenInstanceError):
            setattr(a, name, value)
    with pytest.raises(FrozenInstanceError):
        del a.ambient
    assert a == Subspace.span([(gr(1), gr(2))])
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert twin == a and hash(twin) == hash(a) and twin.basis == a.basis


@st.composite
def _built_spaces(draw, dim):
    """Subspaces built every way, each with its reference basis computed
    from the same inputs by the Fraction reference."""
    vecs = draw(_diff_vectors(dim, dim))
    scales = [draw(_diff_scalars.filter(lambda z: not z.is_zero)) for _ in vecs]
    rescaled = [tuple(k * x for x in v) for k, v in zip(scales, vecs)]
    dependent = [tuple(x + y for x, y in zip(vecs[0], vecs[-1]))] if vecs else []
    a = Subspace.span(vecs, dim)
    ref = reference.span(vecs)
    other = draw(_diff_vectors(dim, dim))
    b, ref_b = Subspace.span(other, dim), reference.span(other)
    return [
        (a, ref),
        (Subspace.span(rescaled + dependent, dim), ref),
        (subspace_from_strings(subspace_to_strings(a), dim), ref),
        (ortho(a), reference.ortho(ref, dim)),
        (meet(a, b), reference.meet(ref, ref_b, dim)),
        (join(a, b), reference.join(ref, ref_b)),
        (Subspace.zero(dim), ()),
        (Subspace.full(dim), reference.span([[gr(int(i == j)) for j in range(dim)] for i in range(dim)])),
    ]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_equality_and_hash_agree_with_reference_bases(data):
    dim = data.draw(st.integers(2, 3))
    pool = data.draw(_built_spaces(dim)) + data.draw(_built_spaces(dim))
    for a, ref_a in pool:
        for b, ref_b in pool:
            assert (a == b) == (ref_a == ref_b)
            if a == b:
                assert hash(a) == hash(b)


# -- integer-row readers against the Fraction path ----------------------------------


@st.composite
def _reader_spaces(draw, dim):
    """A subspace of C^dim: zero, full, a line, a hyperplane (the
    complement side of born from C^3 on), or a span of random vectors."""
    nonzero = st.tuples(*[_diff_scalars] * dim).filter(lambda v: any(not z.is_zero for z in v))
    kind = draw(st.sampled_from(["zero", "full", "line", "hyperplane", "span"]))
    if kind == "zero":
        return Subspace.zero(dim)
    if kind == "full":
        return Subspace.full(dim)
    if kind == "span":
        return Subspace.span(draw(_diff_vectors(dim, dim + 1)), dim)
    line = Subspace.span([draw(nonzero)], dim)
    return line if kind == "line" else ortho(line)


def _fraction_basis(a: Subspace) -> tuple:
    """The canonical basis through Fractions: each entry x + yi of a
    reduced row over its pivot d, as GaussianRational(x/d, y/d)."""
    basis = []
    for re, im in a._rows:
        d = re[hilbert._lead(re)]
        row = (GaussianRational(Fraction(x, d), Fraction(y, d)) for x, y in zip(re, im))
        basis.append(tuple(row))
    return tuple(basis)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_sort_key_matches_the_fraction_basis(data):
    dim = data.draw(st.integers(1, 5))
    a = data.draw(_reader_spaces(dim))
    basis = _fraction_basis(a)
    assert a.basis == basis
    assert a.sort_key() == (len(basis), tuple(z.sort_key() for row in basis for z in row))


def _parts_by_gcd_on_every_entry(a: Subspace) -> tuple:
    """The canonical basis parts by the formula with two gcds on every
    entry: (x + yi)/d is (x/g, d/g, y/h, d/h), g = gcd(x, d), h = gcd(y, d)."""
    parts = []
    for re, im in a._rows:
        d = next(x for x in re if x)
        parts.append(tuple(
            (x // gcd(x, d), d // gcd(x, d), y // gcd(y, d), d // gcd(y, d)) for x, y in zip(re, im)
        ))
    return tuple(parts)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_basis_parts_match_the_gcd_on_every_entry(data):
    """The parts skip the gcds of zero entries and of rows whose pivot is
    1; they must equal the formula that takes every gcd."""
    dim = data.draw(st.integers(1, 5))
    a = data.draw(_reader_spaces(dim))
    assert hilbert._basis_parts(a) == _parts_by_gcd_on_every_entry(a)


def test_basis_parts_cover_both_kinds_of_row():
    """A row whose pivot is 1 next to rows with pivot 3 and zero entries."""
    a = Subspace.span([(gr(1), gr(0), gr(0)), (gr(0), gr(1), gr(Fraction(1, 3), 2))])
    assert [re[hilbert._lead(re)] for re, _ in a._rows] == [1, 3]
    assert hilbert._basis_parts(a) == _parts_by_gcd_on_every_entry(a) == (
        ((1, 1, 0, 1), (0, 1, 0, 1), (0, 1, 0, 1)),
        ((0, 1, 0, 1), (1, 1, 0, 1), (1, 3, 2, 1)),
    )


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_subspace_literals_match_the_fraction_basis(data):
    dim = data.draw(st.integers(1, 5))
    a = data.draw(_reader_spaces(dim))
    assert subspace_to_strings(a) == [[format_scalar(z) for z in row] for row in _fraction_basis(a)]


def _literal(z: GaussianRational) -> str:
    """The scalar literal spelled from its Fraction parts, as str(z) was."""
    if z.imag == 0:
        return str(z.real)
    return f"{z.real}{'+' if z.imag > 0 else '-'}{abs(z.imag)}i"


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_generated_name_matches_the_fraction_basis_payload(data):
    dim = data.draw(st.integers(1, 5))
    a = data.draw(_reader_spaces(dim))
    payload = f"{dim};" + "|".join(",".join(_literal(z) for z in row) for row in a.basis)
    digest = hashlib.sha256(payload.encode("ascii")).hexdigest()
    assert _generated_name(a, set()) == f"Q_{digest[:10]}"
    assert _generated_name(a, {f"Q_{digest[:10]}"}) == f"Q_{digest[:11]}"


def _born_of_matches_reference(data):
    """The per-element Born reader, looked up on the module, against the
    reference Gram-system solve, on zero, full, line, hyperplane and span
    cases in C^1 to C^5."""
    dim = data.draw(st.integers(1, 5))
    a = data.draw(_reader_spaces(dim))
    psis = [data.draw(st.tuples(*[_diff_scalars] * dim).filter(lambda v: any(v))) for _ in range(3)]
    values = hilbert._born_of(a, ortho(a), [_state_row(psi, dim) for psi in psis])
    assert len(values) == len(psis)
    for psi, (num, den) in zip(psis, values):
        assert 0 <= num <= den and den > 0
        assert Fraction(num, den) == reference.born(psi, a.basis)


test_born_of_matches_reference = settings(max_examples=100, deadline=None)(
    given(st.data())(_born_of_matches_reference)
)


def test_born_of_differential_catches_a_flipped_complement_rule(monkeypatch):
    """Negative control: a reader that answers born(psi, a-perp) where the
    rule reads 1 - born(psi, a-perp) fails the differential above."""
    born_of = hilbert._born_of

    def flipped(a, perp, states):
        return born_of(perp, a, states) if perp.dim < a.dim else born_of(a, perp, states)

    monkeypatch.setattr(hilbert, "_born_of", flipped)
    with pytest.raises(AssertionError):
        settings(max_examples=200, deadline=None, database=None)(
            given(st.data())(_born_of_matches_reference)
        )()


# -- closed-form complements against elimination -----------------------------------


@st.composite
def _closed_form_spaces(draw):
    """0, C^d, a line or a hyperplane of C^1 to C^6.  A line's vector may
    be cut to its last entry, and is multiplied by 1, -1, i or -i, so its
    pivot and last entry take negative and purely imaginary values.  A
    hyperplane is spanned by the reference complement of such a line, so
    its rows come from elimination and not from ortho; its own complement
    takes elimination too, and is checked against the reference."""
    dim = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["zero", "full", "line", "hyperplane"]))
    if kind == "zero":
        return Subspace.zero(dim)
    if kind == "full":
        return Subspace.full(dim)
    v = draw(st.tuples(*[_diff_scalars] * dim).filter(any))
    if draw(st.booleans()):  # the pivot in the last column
        v = (GR_ZERO,) * (dim - 1) + (v[-1] or GR_ONE,)
    unit = draw(st.sampled_from([gr(1), gr(-1), gr(0, 1), gr(0, -1)]))
    line = Subspace.span([[unit * z for z in v]], dim)
    return line if kind == "line" else Subspace.span(reference.ortho(line.basis, dim), dim)


def _complement_matches_elimination(data):
    """ortho's rows against the null space of the conjugated rows, reduced,
    and its basis against the Fraction reference; the complement's own
    complement is the cached original."""
    a = data.draw(_closed_form_spaces())
    conjugated = [(re, [-y for y in im]) for re, im in a._rows]
    eliminated = hilbert._reduce(hilbert._nullspace(conjugated, a.ambient), a.ambient)
    o = ortho(a)
    assert o._rows == tuple((tuple(re), tuple(im)) for re, im in eliminated)
    assert o.basis == reference.ortho(a.basis, a.ambient)
    assert ortho(o) is a


test_complement_matches_elimination = settings(max_examples=200, deadline=None)(
    given(st.data())(_complement_matches_elimination)
)


def test_complement_differential_catches_a_dropped_conjugate(monkeypatch):
    """Negative control: a line complement whose rows pair v_f with v_k
    where the rule pairs it with conj(v_k) fails the differential above."""
    line_complement = hilbert._line_complement

    def unconjugated(v, ncols):
        re, im = v
        f = max(k for k in range(ncols) if re[k] or im[k])
        return line_complement((re, [y if k == f else -y for k, y in enumerate(im)]), ncols)

    monkeypatch.setattr(hilbert, "_line_complement", unconjugated)
    with pytest.raises(AssertionError):  # unshrunk: any failing example will do
        settings(max_examples=200, deadline=None, database=None, phases=[Phase.generate])(
            given(st.data())(_complement_matches_elimination)
        )()


def test_basis_parts_slot_starts_empty_on_copies():
    """The canonical parts are read once and kept in a slot; copy, deepcopy
    and pickle rebuild from the rows with the slot empty and read the same
    sort key and literals.  The slot cannot be assigned."""
    a = Subspace.span([(gr(2), gr(Fraction(2, 3), 1), gr(0, -1))])
    key, literals = a.sort_key(), subspace_to_strings(a)
    assert a._parts is not None
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert twin._parts is None
        assert twin.sort_key() == key and subspace_to_strings(twin) == literals
    with pytest.raises(FrozenInstanceError):
        a._parts = None
