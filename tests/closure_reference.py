"""Reference closure loops that recombine every pair in every round.

These are the hand-written fixpoints the package used before its three
closures shared one semi-naive engine: the signature classes of a
``SignatureSpace``, the lattice elements reachable by qwffs, and the
subspace lattice of ``lattice.close``.  The differential tests require the
engine to give the same keys, representatives, order and overflow as
these loops.  Next come the engine as it was before it learned to visit
each unordered pair of a commutative operation once, and the vectorized
distributivity sweep the package ran on numpy before its plain scan.
"""

from __future__ import annotations

from itertools import count
from typing import Iterable

from qlogic.errors import ClosureOverflow, DimensionMismatch
from qlogic.formulas import And, Formula, Not, Or, Pred, QAnd, QImp, QNot, QOr
from qlogic.hilbert import Subspace, join, meet, ortho
from qlogic.lattice import DEFAULT_CLOSURE_CAP, QLattice

# -- signature classes ----------------------------------------------------------


def reachable_classes(space, generator_names: Iterable[str], max_depth: int) -> dict[int, Formula]:
    classes: dict[int, Formula] = {}
    for name in generator_names:
        classes.setdefault(space.mask_of(Pred(name)), Pred(name))
    for _ in range(max_depth):
        if not _grow(space, classes):
            break
    return classes


def closed_classes(
    space, generator_names: Iterable[str], max_elements: int | None = None
) -> dict[int, Formula]:
    classes: dict[int, Formula] = {}
    for name in generator_names:
        classes.setdefault(space.mask_of(Pred(name)), Pred(name))
    while True:
        if max_elements is not None and len(classes) > max_elements:
            raise ClosureOverflow(
                f"signature algebra exceeded {max_elements} elements",
                generators=tuple(generator_names),
            )
        if not _grow(space, classes):
            return classes


def _grow(space, classes: dict[int, Formula]) -> bool:
    current = list(classes.items())
    fresh: dict[int, Formula] = {}
    for mask, f in current:
        neg = space.omega & ~mask
        if neg not in classes and neg not in fresh:
            fresh[neg] = Not(f)
    for m1, f1 in current:
        for m2, f2 in current:
            both = m1 & m2
            if both not in classes and both not in fresh:
                fresh[both] = And(f1, f2)
            either = m1 | m2
            if either not in classes and either not in fresh:
                fresh[either] = Or(f1, f2)
    classes.update(fresh)
    return bool(fresh)


# -- lattice elements reachable by qwffs --------------------------------------------


def reachable_elements(qm) -> dict[int, Formula]:
    """Rounds over all pairs until one finds nothing fresh."""
    lat = qm.lattice
    reach: dict[int, Formula] = {}
    for name, _ in qm.spec.properties:
        reach.setdefault(qm.element_index[name], Pred(name))
    while True:
        current = list(reach.items())
        fresh: dict[int, Formula] = {}

        def see(idx: int, f: Formula) -> None:
            if idx not in reach and idx not in fresh:
                fresh[idx] = f

        for i, fi in current:
            see(lat.ortho[i], QNot(fi))
        for i, fi in current:
            for j, fj in current:
                see(lat.meet[i][j], QAnd(fi, fj))
                see(lat.join[i][j], QOr(fi, fj))
                see(lat.join[lat.ortho[i]][lat.meet[i][j]], QImp(fi, fj))
        if not fresh:
            break
        reach.update(fresh)
    return reach


# -- subspace lattice ---------------------------------------------------------------


def close(
    generators: list[Subspace],
    cap: int = DEFAULT_CLOSURE_CAP,
    dim: int | None = None,
) -> QLattice:
    if dim is None:
        if not generators:
            raise ValueError("dimension required when there are no generators")
        dim = generators[0].ambient
    for g in generators:
        if g.ambient != dim:
            raise DimensionMismatch(f"generator in C^{g.ambient}, lattice in C^{dim}")

    def overflow_check(elems: set) -> None:
        if len(elems) > cap:
            raise ClosureOverflow(
                f"closure exceeded cap {cap} in C^{dim}", generators=tuple(generators)
            )

    elems: set[Subspace] = {Subspace.zero(dim), Subspace.full(dim)}
    elems.update(generators)
    overflow_check(elems)

    meet_cache: dict[tuple[Subspace, Subspace], Subspace] = {}
    join_cache: dict[tuple[Subspace, Subspace], Subspace] = {}

    def pair_key(a: Subspace, b: Subspace) -> tuple[Subspace, Subspace]:
        return (a, b) if a.sort_key() <= b.sort_key() else (b, a)

    changed = True
    while changed:
        changed = False
        current = sorted(elems, key=Subspace.sort_key)
        for a in current:
            o = ortho(a)
            if o not in elems:
                elems.add(o)
                overflow_check(elems)
                changed = True
        current = sorted(elems, key=Subspace.sort_key)
        for i, a in enumerate(current):
            for b in current[i:]:
                key = pair_key(a, b)
                m = meet_cache.get(key)
                if m is None:
                    m = meet_cache[key] = meet(a, b)
                if m not in elems:
                    elems.add(m)
                    overflow_check(elems)
                    changed = True
                j = join_cache.get(key)
                if j is None:
                    j = join_cache[key] = join(a, b)
                if j not in elems:
                    elems.add(j)
                    overflow_check(elems)
                    changed = True

    ordered = tuple(sorted(elems, key=Subspace.sort_key))
    index = {s: i for i, s in enumerate(ordered)}
    ortho_row = tuple(index[ortho(s)] for s in ordered)
    meet_rows = []
    join_rows = []
    for a in ordered:
        mrow = []
        jrow = []
        for b in ordered:
            key = pair_key(a, b)
            mrow.append(index[meet_cache.setdefault(key, meet(a, b))])
            jrow.append(index[join_cache.setdefault(key, join(a, b))])
        meet_rows.append(tuple(mrow))
        join_rows.append(tuple(jrow))
    return QLattice(
        dim=dim,
        elements=ordered,
        ortho=ortho_row,
        meet=tuple(meet_rows),
        join=tuple(join_rows),
    )


# -- the semi-naive engine over ordered pairs -----------------------------------------


def ordered_fixpoint(
    seeds: dict,
    unary=(),
    binary=(),
    rounds: int | None = None,
    limit: int | None = None,
    symmetric: bool = False,
) -> dict:
    """``_fixpoint.fixpoint`` visiting every ordered pair whatever
    ``symmetric`` says: a round combines the elements the previous round
    added with every known element, on both sides, and the loop returns
    as soon as the set holds ``limit`` elements."""
    found = dict(seeds)
    if limit is not None and len(found) >= limit:
        return found
    lo = 0

    for _ in count() if rounds is None else range(rounds):
        current = list(found.items())
        added = current[lo:]
        for key, rep in added:
            for op, make in unary:
                out = op(key)
                if out not in found:
                    found[out] = make(rep)
                    if len(found) == limit:
                        return found
        for i, (k1, r1) in enumerate(current):
            for k2, r2 in added if i < lo else current:
                for op, make in binary:
                    out = op(k1, k2)
                    if out not in found:
                        found[out] = make(r1, r2)
                        if len(found) == limit:
                            return found
        if len(found) == len(current):
            break
        lo = len(current)
    return found


# -- distributivity ---------------------------------------------------------------


def find_distributivity_failure(
    lat: QLattice,
) -> tuple[Subspace, Subspace, Subspace] | None:
    """First triple with A ^ (B v C) != (A ^ B) v (A ^ C), or None."""
    import numpy as np  # the tests' dependency, not the package's

    n = len(lat)
    meet_arr = np.array(lat.meet, dtype=np.intp)
    join_arr = np.array(lat.join, dtype=np.intp)
    for a in range(n):
        lhs = meet_arr[a][join_arr]  # lhs[b, c] = a ^ (b v c)
        ma = meet_arr[a]
        rhs = join_arr[ma[:, None], ma[None, :]]  # rhs[b, c] = (a^b) v (a^c)
        bad = np.argwhere(lhs != rhs)
        if bad.size:
            b, c = map(int, bad[0])
            return (lat.elements[a], lat.elements[b], lat.elements[c])
    return None
