"""Hilbert spec generation with the state placement spelled out in full.

``qm_spec_bytes`` redraws what ``qlogic.generate.qm_spec_bytes`` draws,
attempt by attempt, but places each state against ``not_above``: every
closure element that does not contain the state's element, found with
``hilbert.leq`` rather than from the lattice tables.  The package passes
only the maximal ones among them; the differential tests require the
same bytes.  Universes below 2, where the package builds the model to
raise its error, are not covered.
"""

from __future__ import annotations

import json
import random

from qlogic.bridge import QMModelSpec, spec_to_dict
from qlogic.errors import ClosureOverflow
from qlogic.generate import MAX_GENERATION_ATTEMPTS, _random_vector, _vector_inside
from qlogic.hilbert import Subspace, join, leq
from qlogic.lattice import QLattice, close


def not_above(lat: QLattice, i: int) -> list[Subspace]:
    """Every element of ``lat`` that does not contain element i."""
    return [a for a in lat.elements if not leq(lat.elements[i], a)]


def qm_spec_bytes(seed: int, dim: int, n_properties: int, universe: int, closure_cap: int) -> bytes:
    for attempt in range(1, MAX_GENERATION_ATTEMPTS + 1):
        rng = random.Random(f"qm:{seed}:{attempt}")
        lines: list[Subspace] = []
        tries = 0
        while len(lines) < n_properties and tries < 50:
            tries += 1
            if len(lines) < 2 or dim == 2:
                sub = Subspace.span([_random_vector(rng, dim, allow_imag=True)])
            else:
                vec = _vector_inside(rng, join(lines[0], lines[1]), lines)
                if vec is None:
                    break
                sub = Subspace.span([vec])
            if sub not in lines:
                lines.append(sub)
        if len(lines) < n_properties:
            continue
        try:
            lat = close(list(lines), cap=closure_cap, dim=dim)
        except ClosureOverflow:
            continue
        states = []
        for i, element in enumerate(lat.elements):
            if element.dim == 0:
                continue
            vec = _vector_inside(rng, element, not_above(lat, i))
            if vec is None:
                break
            states.append((f"W{len(states) + 1}", vec))
        else:
            spec = QMModelSpec(
                dim=dim,
                states=tuple(states),
                properties=tuple((f"E{i + 1}", sub) for i, sub in enumerate(lines)),
                universe_size=universe,
                closure_cap=closure_cap,
            )
            payload = {
                "generator": {
                    "kind": "qm", "seed": seed, "attempts": attempt, "properties": n_properties,
                },
                **spec_to_dict(spec),
            }
            return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")
    raise ClosureOverflow(f"no adequate spec found for seed {seed}")
