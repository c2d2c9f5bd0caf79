from __future__ import annotations

import copy
import pickle
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qlogic.errors import DimensionMismatch, ZeroVector
from qlogic.gaussian import GaussianRational, gr
from qlogic.hilbert import (
    Subspace,
    born,
    join,
    leq,
    meet,
    ortho,
    subspace_from_strings,
    subspace_to_strings,
)

import hilbert_reference as reference

E1 = Subspace.span([(gr(1), gr(0))])
E2 = Subspace.span([(gr(0), gr(1))])
EX = Subspace.span([(gr(1), gr(1))])


def test_ortho_standard_basis():
    assert ortho(E1) == E2


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
    from qlogic.hilbert import contains_vector

    dim = data.draw(st.integers(2, 3))
    psi = data.draw(_vectors(dim))
    sub = data.draw(_spaces(dim))
    p = born(psi, sub)
    assert (p == 1) == contains_vector(sub, psi)
    assert (p == 0) == contains_vector(ortho(sub), psi)


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
