"""Seeded random model and spec generation.

Everything is driven by Python's Mersenne generator on a string-derived
seed, so a given seed always produces the same bytes.  Hilbert specs are
rebuilt with a derived sub-seed whenever the closure overflows its cap or
a draw is degenerate (too few distinct lines, or no state vector found
inside an element and outside those not above it); the states separate
the closure elements by construction, so the spec's model is never
built.  The number of attempts is recorded in the emitted file header.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import lcm

from .bridge import QMModelSpec, _model_from_lattice
from .errors import ClosureOverflow, ModelValidationError
from .gaussian import GaussianRational
from .hilbert import Subspace, _lead, _orthogonal, join, ortho
from .lattice import close
from .models import MAX_DIM, Model, PredicateInfo, model_to_dict

MAX_GENERATION_ATTEMPTS = 32


def random_classical_model(
    seed: int, n_states: int = 2, n_predicates: int = 2, universe: int = 3
) -> Model:
    """Random extensions over S1..Sk and E1..Em, with paired complements."""
    rng = random.Random(f"classical:{seed}")
    states = tuple(f"S{i + 1}" for i in range(n_states))
    base = tuple(f"E{i + 1}" for i in range(n_predicates))
    preds: list[PredicateInfo] = []
    extensions: dict[tuple[str, str], frozenset[int]] = {}
    for name in base:
        partner = f"{name}_perp"
        preds.append(PredicateInfo(name, True, partner))
        preds.append(PredicateInfo(partner, True, name))
        for s in states:
            ext = frozenset(u for u in range(universe) if rng.random() < 0.5)
            extensions[(s, name)] = ext
            extensions[(s, partner)] = frozenset(range(universe)) - ext
    return Model(tuple(preds), states, {s: universe for s in states}, extensions)


def _random_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3))


def _random_vector(rng: random.Random, dim: int, allow_imag: bool) -> tuple[GaussianRational, ...]:
    while True:
        vec = tuple(
            GaussianRational(
                _random_fraction(rng),
                _random_fraction(rng) if allow_imag and rng.random() < 0.5 else Fraction(0),
            )
            for _ in range(dim)
        )
        if any(not z.is_zero for z in vec):
            return vec


def _vector_inside(
    rng: random.Random, element: Subspace, avoid: list[Subspace]
) -> tuple[GaussianRational, ...] | None:
    """A rational vector spanning a line inside ``element`` that lies in
    none of the ``avoid`` subspaces; None after bounded retries."""
    if element.dim == 1:
        return element.basis[0]
    perps = [ortho(a)._rows for a in avoid]
    den = 6 * lcm(*(re[_lead(re)] for re, _ in element._rows))
    for _ in range(40):
        vre, vim = [0] * element.ambient, [0] * element.ambient
        for re, im in element._rows:  # basis row re/pivot times a _random_fraction pair, in 1/den
            k = den // (6 * re[_lead(re)])  # each draw times 6 is an integer
            cr = rng.randint(-3, 3) * (6 // rng.randint(1, 3)) * k
            ci = rng.randint(-3, 3) * (6 // rng.randint(1, 3)) * k
            for c, (x, y) in enumerate(zip(re, im)):
                vre[c] += cr * x - ci * y
                vim[c] += cr * y + ci * x
        if (any(vre) or any(vim)) and not any(_orthogonal(p, (vre, vim)) for p in perps):
            return tuple(GaussianRational(Fraction(x, den), Fraction(y, den)) for x, y in zip(vre, vim))
    return None


def random_qm_spec(
    seed: int,
    dim: int = 2,
    n_properties: int = 2,
    universe: int = 4,
    closure_cap: int = 64,
    max_attempts: int = MAX_GENERATION_ATTEMPTS,
) -> tuple[QMModelSpec, int]:
    """A spec of random rational lines whose built model is adequate.

    Adequate means the closure fits the cap and the states separate the
    closure elements.  Separation is arranged the way the intended
    semantics expects atoms to be represented: a state W_i is placed
    inside every nonzero closure element e_i and outside every element
    not above it, so W_i lies in e_k exactly when e_i <= e_k.  Distinct
    elements then get distinct theta sets, and distinct signatures, since
    an extension is full exactly at probability 1.  Each failed attempt
    (overflow, degenerate draw) moves to a derived sub-seed; the attempt
    count is returned for the file header.  A dimension below 1 or above
    ``models.MAX_DIM``, or more than one property line in C^1, raises
    ValueError before any draw.
    """
    if dim < 1:
        raise ValueError(f"dimension must be at least 1, not {dim}")
    if dim > MAX_DIM:
        raise ValueError(f"dimension {dim}, over the cap {MAX_DIM}")
    if dim == 1 and n_properties > 1:
        raise ValueError(f"C^1 has one line, so {n_properties} property lines cannot be distinct")
    for attempt in range(1, max_attempts + 1):
        rng = random.Random(f"qm:{seed}:{attempt}")
        lines: list[Subspace] = []
        tries = 0
        while len(lines) < min(n_properties, 2) and tries < 50:
            tries += 1
            sub = Subspace.span([_random_vector(rng, dim, allow_imag=True)])
            if sub not in lines:
                lines.append(sub)
        while len(lines) < n_properties and tries < 50:
            # beyond two generators, generic lines blow the closure cap in
            # dim >= 3; keep further lines inside the join of the first two
            tries += 1
            if dim == 2:
                sub = Subspace.span([_random_vector(rng, dim, allow_imag=True)])
            else:
                plane = join(lines[0], lines[1])
                vec = _vector_inside(rng, plane, [a for a in lines])
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
            avoid = [a for k, a in enumerate(lat.elements) if not lat.leq(i, k)]
            vec = _vector_inside(rng, element, avoid)
            if vec is None:
                break
            states.append((f"W{len(states) + 1}", vec))
        else:
            try:
                spec = QMModelSpec(
                    dim=dim,
                    states=tuple(states),
                    properties=tuple((f"E{i + 1}", sub) for i, sub in enumerate(lines)),
                    universe_size=universe,
                    closure_cap=closure_cap,
                )
            except ModelValidationError:
                continue
            if universe < 2:  # raises UniverseTooSmall where some 0 < p < 1, as build would
                _model_from_lattice(spec, lat)
            return spec, attempt
    raise ClosureOverflow(
        f"no adequate spec found for seed {seed} within {max_attempts} attempts"
    )


def classical_model_bytes(
    seed: int, n_states: int = 2, n_predicates: int = 2, universe: int = 3
) -> bytes:
    m = random_classical_model(seed, n_states, n_predicates, universe)
    payload = {
        "generator": {
            "kind": "classical",
            "seed": seed,
            "attempts": 1,
            "states": n_states,
            "predicates": n_predicates,
            "universe": universe,
        },
        **model_to_dict(m),
    }
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")


def qm_spec_bytes(
    seed: int,
    dim: int = 2,
    n_properties: int = 2,
    universe: int = 4,
    closure_cap: int = 64,
) -> bytes:
    from .bridge import spec_to_dict

    spec, attempts = random_qm_spec(seed, dim, n_properties, universe, closure_cap)
    payload = {
        "generator": {
            "kind": "qm",
            "seed": seed,
            "attempts": attempts,
            "properties": n_properties,
        },
        **spec_to_dict(spec),
    }
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")
