"""Order-theoretic references for the proposition poset and Hasse edges.

Plain scans that share no code with ``qlogic.propositions``: bounds by
listing every common bound and keeping the one above (below) all the
others, covers by trying every middle element.  Tests compare the package's
bitset routines against them.
"""

from __future__ import annotations

from typing import Callable


def bound_index(
    elements: tuple[frozenset[str], ...], i: int, j: int, lower: bool
) -> int | None:
    """Index of the glb (lower) or lub of elements i and j under inclusion,
    or None when the common bounds have no greatest (least) member."""
    if lower:
        candidates = [
            k for k, e in enumerate(elements) if e <= elements[i] and e <= elements[j]
        ]
        best = [k for k in candidates if all(elements[c] <= elements[k] for c in candidates)]
    else:
        candidates = [
            k for k, e in enumerate(elements) if e >= elements[i] and e >= elements[j]
        ]
        best = [k for k in candidates if all(elements[c] >= elements[k] for c in candidates)]
    return best[0] if best else None


def cover_edges(n: int, less: Callable[[int, int], bool]) -> list[tuple[int, int]]:
    """Hasse edges (i, j) of the strict order ``less`` on range(n): i < j
    with no k strictly between, in (i, j) lexicographic order."""
    return [
        (i, j)
        for i in range(n)
        for j in range(n)
        if less(i, j) and not any(less(i, k) and less(k, j) for k in range(n))
    ]
