"""Semi-naive closure of a finite set under unary and binary operations,
the one fixpoint behind both lattices of the package (Bancilhon &
Ramakrishnan 1986): a round combines only what the previous round added
with what is known, since every other combination was tried before."""

from __future__ import annotations

from itertools import count
from typing import Callable, Sequence


def fixpoint(
    seeds: dict,
    unary: Sequence[tuple[Callable, Callable]] = (),
    binary: Sequence[tuple[Callable, Callable]] = (),
    rounds: int | None = None,
    limit: int | None = None,
    symmetric: bool = False,
) -> dict:
    """The seeds closed under ``unary`` and ``binary``, lists of (operation,
    make) pairs; each element maps to the representative ``make`` built from
    its operands' representatives when the element first appeared.  Unary
    operations run first, then binary ones over ordered pairs, left-major,
    so elements get the representatives and order of rounds over all pairs.
    ``rounds`` bounds the rounds (None: to the fixpoint).  The closure
    returns as soon as it holds ``limit`` elements, seeds included, even
    mid-round, with the items the unlimited run holds at that point: a
    caller that knows the size of the whole closure passes it, since no
    later pair can add an element, and a caller with a cap passes one more
    than the cap and reads an overflow off the size of the result.

    ``symmetric`` declares every binary operation commutative, and a round
    then visits pair (i, j) only for j >= i.  The skipped mirror (j, i) of a
    visited pair comes later in the same round, where the operation yields
    the element the visit already found, so the keys, representatives,
    insertion order and stopping point are those of the ordered loop."""
    found = dict(seeds)
    if limit is not None and len(found) >= limit:
        return found
    lo = 0  # found's items from lo on were added by the previous round

    def add(element, rep) -> bool:
        """Record a new element; whether the set has reached the limit."""
        found[element] = rep
        return len(found) == limit

    for _ in count() if rounds is None else range(rounds):
        current = list(found.items())
        n = len(current)
        for j in range(lo, n):
            key, rep = current[j]
            for op, make in unary:
                out = op(key)
                if out not in found and add(out, make(rep)):
                    return found
        for i, (k1, r1) in enumerate(current):
            for j in range(lo if i < lo else i if symmetric else 0, n):
                k2, r2 = current[j]
                for op, make in binary:
                    out = op(k1, k2)
                    if out not in found and add(out, make(r1, r2)):
                        return found
        if n == len(found):
            break
        lo = n
    return found
