"""Differential tests: the semi-naive closures against the all-pairs loops
of ``closure_reference``."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from qlogic import bridge, lattice, models
from qlogic._fixpoint import fixpoint
from qlogic.bridge import _reachable_elements, build_model, load_spec, spec_from_dict
from qlogic.errors import ClosureOverflow
from qlogic.formulas import render
from qlogic.gaussian import GaussianRational
from qlogic.generate import random_qm_spec
from qlogic.hilbert import Subspace, ortho
from qlogic.lattice import close
from qlogic.models import Model, PredicateInfo, SignatureSpace

import closure_reference as reference
from conftest import DATA_DIR, SPEC_DIR, mo_squared_spec, qm_corpus_draws


def _outcome(fn, *args):
    """The result of fn, or the message and generators of its overflow."""
    try:
        return fn(*args)
    except ClosureOverflow as exc:
        return ("overflow", str(exc), exc.generators)


def _all_pairs(seeds, unary, binary, rounds):
    """Rounds that apply every operation to every element and ordered pair."""
    found = dict(seeds)
    for _ in range(rounds):
        current = list(found.items())
        fresh = {}
        for key, rep in current:
            for op, make in unary:
                fresh.setdefault(op(key), make(rep))
        for k1, r1 in current:
            for k2, r2 in current:
                for op, make in binary:
                    fresh.setdefault(op(k1, k2), make(r1, r2))
        fresh = {k: v for k, v in fresh.items() if k not in found}
        if not fresh:
            break
        found.update(fresh)
    return found


def _random_tables(data):
    """Random operation tables on range(n), neither commutative nor
    idempotent, with seeds; representatives record how each element was
    first made."""
    n = data.draw(st.integers(1, 12))
    element = st.integers(0, n - 1)
    negate = data.draw(st.lists(element, min_size=n, max_size=n))
    row = st.lists(element, min_size=n, max_size=n)
    tables = data.draw(st.lists(st.lists(row, min_size=n, max_size=n), min_size=1, max_size=2))
    seeds = {k: str(k) for k in data.draw(st.lists(element, min_size=1, max_size=3))}
    unary = [(negate.__getitem__, lambda r: f"~{r}")]
    binary = [
        (lambda a, b, t=t: t[a][b], lambda r1, r2, i=i: f"({r1} {i} {r2})")
        for i, t in enumerate(tables)
    ]
    return n, seeds, unary, binary


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_fixpoint_matches_all_pairs_rounds_on_random_tables(data):
    """Also under a limit (None, or 0 to n + 1, so that the seeds may be
    at or past it): the engine and its ordered twin return the first
    ``limit`` items of the unlimited run, or the seeds when they reach it."""
    n, seeds, unary, binary = _random_tables(data)
    rounds = data.draw(st.integers(0, 5))
    got = fixpoint(seeds, unary, binary, rounds=rounds)
    assert list(got.items()) == list(_all_pairs(seeds, unary, binary, rounds).items())
    assert list(fixpoint(seeds, unary, binary).items()) == list(
        _all_pairs(seeds, unary, binary, n).items()
    )
    rounds = data.draw(st.none() | st.just(rounds))
    limit = data.draw(st.none() | st.integers(0, n + 1))
    full = list(_all_pairs(seeds, unary, binary, n if rounds is None else rounds).items())
    stopped = list(fixpoint(seeds, unary, binary, rounds, limit).items())
    assert stopped == list(reference.ordered_fixpoint(seeds, unary, binary, rounds, limit).items())
    assert stopped == (full if limit is None else full[: max(limit, len(seeds))])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_fixpoint_stopped_at_the_whole_set_matches_all_pairs_rounds(data):
    """Told that the operations act on n elements, the closure returns
    once it holds n of them, with the items and order of the full run."""
    n, seeds, unary, binary = _random_tables(data)
    got = fixpoint(seeds, unary, binary, limit=n)
    assert list(got.items()) == list(_all_pairs(seeds, unary, binary, n).items())


@st.composite
def _models(draw):
    states = tuple(f"S{i}" for i in range(draw(st.integers(1, 2))))
    names = tuple(f"P{i}" for i in range(draw(st.integers(1, 3))))
    sizes = {s: draw(st.integers(1, 3)) for s in states}
    extensions = {
        (s, name): frozenset(draw(st.sets(st.integers(0, sizes[s] - 1))))
        for s in states
        for name in names
    }
    return Model(tuple(PredicateInfo(n) for n in names), states, sizes, extensions)


@settings(max_examples=80, deadline=None)
@given(_models(), st.integers(0, 4), st.data())
def test_signature_classes_match_reference(model, depth, data):
    space = SignatureSpace(model)
    names = data.draw(st.permutations(model.predicate_names()))
    got = space.reachable_classes(names, depth)
    assert list(got.items()) == list(reference.reachable_classes(space, names, depth).items())
    cap = data.draw(st.none() | st.integers(0, 70))
    got = _outcome(space.closed_classes, names, cap)
    want = _outcome(reference.closed_classes, space, names, cap)
    assert got == want
    if isinstance(got, dict):
        assert list(got.items()) == list(want.items())


def test_closed_classes_count_seeds_against_the_cap():
    """Generators that already form the whole algebra still overflow a cap
    below their number: one state, one object, P empty and Q full."""
    model = Model(
        (PredicateInfo("P"), PredicateInfo("Q")),
        ("S0",),
        {"S0": 1},
        {("S0", "P"): frozenset(), ("S0", "Q"): frozenset({0})},
    )
    space = SignatureSpace(model)
    overflow = ("overflow", "signature algebra exceeded 1 elements", ("P", "Q"))
    assert _outcome(space.closed_classes, ("P", "Q"), 1) == overflow
    assert _outcome(reference.closed_classes, space, ("P", "Q"), 1) == overflow
    assert len(space.closed_classes(("P", "Q"), 2)) == 2


def test_closed_classes_over_the_cap_raise_before_any_sweep(monkeypatch):
    """The algebra's size is known before the sweep (2**atoms), so a cap
    below it raises the reference's overflow before any operation call;
    under a cap it fits, the sweep returns all the classes."""
    spec = load_spec(DATA_DIR / "gen_qm_seed11.json")
    space = SignatureSpace(build_model(spec).model)
    names = tuple(name for name, _ in spec.properties)
    size = 2 ** len(space.atoms(names))
    calls = [0]
    monkeypatch.setattr(models, "fixpoint", _counted(fixpoint, calls))
    for cap in (1, size - 1):
        got = _outcome(space.closed_classes, names, cap)
        assert got == _outcome(reference.closed_classes, space, names, cap)
        assert got == ("overflow", f"signature algebra exceeded {cap} elements", names)
    assert calls == [0]
    got = list(space.closed_classes(names, size).items())
    assert got == list(reference.closed_classes(space, names).items()) and len(got) == size
    assert calls[0] > 0


def test_close_within_its_cap_constructs_no_overflow(monkeypatch):
    """close builds its ClosureOverflow only when the closure passes the
    cap: none for worked_qm under its own cap, one, with the reference's
    message and generators, under a cap one below its size."""
    built: list[ClosureOverflow] = []

    class Counted(ClosureOverflow):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(lattice, "ClosureOverflow", Counted)
    spec = load_spec(SPEC_DIR / "worked_qm.json")
    generators = [sub for _, sub in spec.properties]
    n = len(close(generators, spec.closure_cap, spec.dim))
    assert built == []
    got = _outcome(close, generators, n - 1, spec.dim)
    assert got == _outcome(reference.close, generators, n - 1, spec.dim)
    assert got[:2] == ("overflow", f"closure exceeded cap {n - 1} in C^{spec.dim}")
    assert len(built) == 1


@pytest.mark.parametrize("dim,properties", [(2, 2), (2, 3), (3, 2), (3, 3)])
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_reachable_elements_match_reference(dim, properties, seed):
    spec, _ = random_qm_spec(seed, dim, properties)
    qm = build_model(spec)
    got = _reachable_elements(qm)
    assert list(got.items()) == list(reference.reachable_elements(qm).items())
    assert sorted(got) == list(range(len(qm.lattice)))


@pytest.mark.parametrize(
    "source", ["worked_qm.json", "gen_qm_seed11.json", "gen_qm_seed0_cap12.json", 2]
)
def test_the_qwff_sweep_reaches_every_element(source):
    """Run to its fixpoint, the sweep is the whole lattice (k = 2 is
    MO_2 x MO_2), in the order and with the representatives of the
    all-pairs loop."""
    if isinstance(source, int):
        spec = spec_from_dict(mo_squared_spec(source))
    else:
        spec = load_spec((SPEC_DIR if source == "worked_qm.json" else DATA_DIR) / source)
    qm = build_model(spec)
    got = _reachable_elements(qm)
    assert sorted(got) == list(range(len(qm.lattice)))
    assert list(got.items()) == list(reference.reachable_elements(qm).items())


def _logging(ops, log: list) -> list:
    """The (operation, make) pairs, each operation appending what it
    returns to ``log``."""

    def logged(op):
        def call(*args):
            out = op(*args)
            log.append(out)
            return out

        return call

    return [(logged(op), make) for op, make in ops]


def _sweep(qm, monkeypatch, stop: bool) -> tuple[dict, list]:
    """``_reachable_elements(qm)`` and what its operation calls returned,
    in call order: stopped at the whole lattice, or run to its fixpoint."""
    log: list = []

    def engine(seeds, unary, binary, limit):
        limit = limit if stop else None
        return fixpoint(seeds, _logging(unary, log), _logging(binary, log), limit=limit)

    monkeypatch.setattr(bridge, "fixpoint", engine)
    return _reachable_elements(qm), log


@pytest.mark.parametrize(
    "source", ["worked_qm.json", 2, *qm_corpus_draws(1, 4)], ids=lambda source: str(source)
)
def test_the_qwff_sweep_stops_once_it_holds_every_element(source, monkeypatch):
    """The sweep returns at the call that finds the last lattice element,
    with the items, order and rendered representatives of the same sweep
    run to its fixpoint (worked_qm, MO_2 x MO_2 and the seed-1 benchmark
    corpus); its calls are a strict prefix of the full run's."""
    if source == "worked_qm.json":
        spec = load_spec(SPEC_DIR / source)
    elif isinstance(source, int):
        spec = spec_from_dict(mo_squared_spec(source))
    else:
        dim, props, seed = source
        spec, _ = random_qm_spec(seed, dim, props, closure_cap=64)
    qm = build_model(spec)
    stopped, calls = _sweep(qm, monkeypatch, stop=True)
    full, all_calls = _sweep(qm, monkeypatch, stop=False)
    assert [(k, render(f)) for k, f in stopped.items()] == [(k, render(f)) for k, f in full.items()]
    assert sorted(stopped) == list(range(len(qm.lattice)))
    assert len(calls) < len(all_calls) and calls == all_calls[: len(calls)]
    assert calls[-1] == list(stopped)[-1]


_fracs = st.fractions(min_value=-2, max_value=2, max_denominator=2)
_scalars = st.builds(GaussianRational, _fracs, _fracs)


@st.composite
def _generators(draw):
    """Generators in C^2..C^4: random spans, spans nested inside an earlier
    generator, and hyperplanes, so that close meets the inclusion and the
    hyperplane shortcuts as well as joins that need the kernel."""
    dim = draw(st.integers(2, 4))
    vector = st.tuples(*[_scalars] * dim).filter(lambda v: any(not z.is_zero for z in v))
    spaces = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("span", "nested", "hyperplane")))
        if kind == "hyperplane":
            spaces.append(ortho(Subspace.span([draw(vector)], dim)))
        elif kind == "nested" and any(s.dim for s in spaces):
            # all-zero coefficients can make a zero space, which holds no vector to nest
            outer = draw(st.sampled_from([s for s in spaces if s.dim]))
            combos = st.lists(_scalars, min_size=outer.dim, max_size=outer.dim)
            vectors = [
                [sum((c * x for c, x in zip(coeffs, column)), GaussianRational())
                 for column in zip(*outer.basis)]
                for coeffs in draw(st.lists(combos, min_size=1, max_size=max(outer.dim - 1, 1)))
            ]
            spaces.append(Subspace.span(vectors, dim))
        else:
            spaces.append(Subspace.span(draw(st.lists(vector, min_size=1, max_size=dim - 1)), dim))
    return dim, spaces


@settings(max_examples=100, deadline=None)
@given(_generators(), st.integers(1, 40))
def test_close_matches_reference(generated, cap):
    dim, generators = generated
    got = _outcome(close, generators, cap, dim)
    want = _outcome(reference.close, generators, cap, dim)
    if isinstance(want, tuple):
        assert got == want
        return
    assert got.elements == want.elements
    assert (got.ortho, got.meet, got.join) == (want.ortho, want.meet, want.join)
    assert (got.elements[0], got.elements[-1]) == (Subspace.zero(dim), Subspace.full(dim))


# -- each unordered pair once, against the ordered-pair engine -----------------------


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_symmetric_fixpoint_matches_ordered_pairs_on_commutative_tables(data):
    """Random commutative operation tables on range(n), not idempotent;
    the outcome includes the stopping point under a random limit."""
    n = data.draw(st.integers(1, 12))
    element = st.integers(0, n - 1)
    negate = data.draw(st.lists(element, min_size=n, max_size=n))
    tables = []
    for _ in range(data.draw(st.integers(1, 2))):
        upper = data.draw(st.lists(element, min_size=n * n, max_size=n * n))
        tables.append([[upper[min(a, b) * n + max(a, b)] for b in range(n)] for a in range(n)])
    seeds = {k: str(k) for k in data.draw(st.lists(element, min_size=1, max_size=3))}
    unary = [(negate.__getitem__, lambda r: f"~{r}")]
    binary = [
        (lambda a, b, t=t: t[a][b], lambda r1, r2, i=i: f"({r1} {i} {r2})")
        for i, t in enumerate(tables)
    ]
    rounds = data.draw(st.none() | st.integers(0, 5))
    limit = data.draw(st.none() | st.integers(0, n + 1))

    def outcome(engine, **symmetric):
        return list(engine(seeds, unary, binary, rounds, limit, **symmetric).items())

    assert outcome(fixpoint, symmetric=True) == outcome(reference.ordered_fixpoint)


@pytest.fixture(scope="module")
def corpus_specs():
    """tests/data/gen_qm_seed11.json and the acceptance-corpus specs."""
    specs = [load_spec(DATA_DIR / "gen_qm_seed11.json")]
    for seed in range(20):
        spec, _ = random_qm_spec(seed, dim=2 + seed % 2, n_properties=2 + seed % 2, closure_cap=64)
        specs.append(spec)
    return specs


def _route(monkeypatch, module, engine) -> list[dict]:
    """Send ``module``'s fixpoint calls to ``engine``; the list collects
    what they return."""
    results: list[dict] = []

    def recording(*args, **kwargs):
        results.append(engine(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(module, "fixpoint", recording)
    return results


def test_symmetric_close_matches_the_ordered_loop(corpus_specs, monkeypatch):
    for spec in corpus_specs:
        generators = [sub for _, sub in spec.properties]
        outcomes = []
        for engine in (fixpoint, reference.ordered_fixpoint):
            found = _route(monkeypatch, lattice, engine)
            lat = close(generators, spec.closure_cap, spec.dim)
            outcomes.append(
                ([list(d.items()) for d in found], lat.elements, lat.ortho, lat.meet, lat.join)
            )
        assert outcomes[0] == outcomes[1]


def test_symmetric_class_sweeps_match_the_ordered_loop(corpus_specs, monkeypatch):
    for spec in corpus_specs:
        model = build_model(spec).model
        names = tuple(name for name, _ in spec.properties)
        for depth in range(1, 5):
            sweeps = []
            for engine in (fixpoint, reference.ordered_fixpoint):
                _route(monkeypatch, models, engine)
                sweeps.append(list(SignatureSpace(model).reachable_classes(names, depth).items()))
            assert sweeps[0] == sweeps[1]


def _counted(engine, calls: list[int]):
    """``engine`` with every binary operation counting its calls."""

    def run(seeds, unary=(), binary=(), **kwargs):
        def counting(op):
            def call(*args):
                calls[0] += 1
                return op(*args)

            return call

        return engine(seeds, unary, [(counting(op), make) for op, make in binary], **kwargs)

    return run


@pytest.mark.parametrize("depth,ordered,symmetric", [(3, 5408, 2756), (4, 55112, 27722)])
def test_symmetric_class_sweep_halves_the_operation_calls(monkeypatch, depth, ordered, symmetric):
    """``&`` and ``|`` calls of the class sweep over the three properties of
    gen_qm_seed11: about half of the ordered loop's, since only the diagonal
    pairs are visited by both."""
    spec = load_spec(DATA_DIR / "gen_qm_seed11.json")
    model = build_model(spec).model
    names = tuple(name for name, _ in spec.properties)
    counts = []
    for engine in (reference.ordered_fixpoint, fixpoint):
        calls = [0]
        monkeypatch.setattr(models, "fixpoint", _counted(engine, calls))
        SignatureSpace(model).reachable_classes(names, depth)
        counts.append(calls[0])
    assert counts == [ordered, symmetric]


def test_symmetric_flag_on_the_quantum_sweep_fails_the_differential(monkeypatch):
    """Negative control: ``->q`` is not commutative, so marking the qwff
    sweep symmetric skips pairs; on gen_qm_seed11 it still reaches all 16
    elements at its fixpoint, but not with the all-pairs representatives."""
    qm = build_model(load_spec(DATA_DIR / "gen_qm_seed11.json"))
    want = _reachable_elements(qm)
    monkeypatch.setattr(
        bridge, "fixpoint", lambda *args, **kwargs: fixpoint(*args, **kwargs, symmetric=True)
    )
    got = _reachable_elements(qm)
    assert (len(want), len(got)) == (16, 16)
    assert list(got.items()) != list(reference.reachable_elements(qm).items())
