"""The benchmark's workloads: inputs drawn from the workload seed, the op
that is timed, and the check each op's output must pass.

Ops come in blocks.  Every block holds the same mix of input strata
(Hilbert spec shapes, formula sizes, Boolean algebra sizes) with fresh
draws from the seed, because op cost depends on the stratum far more than
on the draw: a run of whole blocks then costs about the same on every
seed.  Program calls go through module attributes, so a traced run sees
the wrappers the tracer installs.
"""

from __future__ import annotations

import contextlib
import io
import json
import random

import oracle
from qlogic import bridge, cli, formulas, generate, models
from qlogic.errors import NotTestable


def _cli(argv: list[str]) -> tuple[int, str]:
    """``qlogic <argv>`` in this process: exit status and standard output."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = cli.main(argv)
    return status, buf.getvalue()


def _report_ok(status: int, report: str) -> bool:
    return status == 0 and report.rstrip().endswith("total violations: 0")


class QmCorpus:
    """``qlogic gen --kind qm --cap 64`` then ``qlogic check --depth 3`` on
    the spec; a block holds one spec of each shape (dim, properties).
    (4, 3) is left out: at 7-8 s an op it would leave too few ops in a run
    for a stable median and 90th percentile."""

    name = "qm_corpus"
    SHAPES = ((3, 2), (3, 3), (4, 2))
    trace_blocks = 1

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> bytes:
        return b""

    def block(self, b: int) -> list:
        rng = random.Random(f"{self.name}:{self.seed}:{b}")
        return [(dim, props, rng.randrange(2**32)) for dim, props in self.SHAPES]

    def op(self, inp):
        dim, props, gen_seed = inp
        path = self.workdir / "spec.json"
        path.unlink(missing_ok=True)
        gen_status, _ = _cli(["gen", "--kind", "qm", "--seed", str(gen_seed), "--dim", str(dim),
                              "--properties", str(props), "--cap", "64", "--out", str(path)])
        if gen_status != 0:
            return gen_status, b"", None, ""
        spec = path.read_bytes()
        check_status, report = _cli(["check", "--qm-spec", str(path), "--depth", "3"])
        return gen_status, spec, check_status, report

    @staticmethod
    def output_bytes(out) -> bytes:
        return out[1] + out[3].encode()

    def check(self, inp, out) -> str | None:
        gen_status, spec, check_status, report = out
        if gen_status != 0:
            return f"gen exited {gen_status} on {inp}"
        if json.loads(spec)["dim"] != inp[0]:
            return f"gen wrote a spec of the wrong dimension for {inp}"
        if not _report_ok(check_status, report):
            return f"check exited {check_status} or reported violations on {inp}"
        return None

    @staticmethod
    def spec_attempts(out) -> int:
        """Generation attempts, read from the header gen wrote."""
        return json.loads(out[1])["generator"]["attempts"]


class QmQuery:
    """Formula queries answered as ``qlogic eval`` answers them, on one
    built dim-3, 3-property model; half quantum, half classical, with one
    to three binary connectives."""

    name = "qm_query"
    SIZES = (1, 2, 3)
    trace_blocks = 100

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> bytes:
        rng = random.Random(f"{self.name}:{self.seed}")
        while True:  # a few draws close to 12 elements instead of 16; skip them
            spec_bytes = generate.qm_spec_bytes(rng.randrange(2**32), 3, 3, 3, 64)
            if len(json.loads(spec_bytes)["states"]) == 15:
                break
        self.qm = bridge.build_model(bridge.spec_from_dict(json.loads(spec_bytes)))
        self.bases = None  # float bases for the oracle, made at the first check
        return spec_bytes

    def block(self, b: int) -> list:
        rng = random.Random(f"{self.name}:{self.seed}:{b}")
        names = self.qm.predicate_names
        trees = [_random_tree(rng, names, k, quantum)
                 for quantum in (True, False) for k in self.SIZES]
        return [(tree, oracle.render(tree)) for tree in trees]

    def op(self, inp):
        qm, model = self.qm, self.qm.model
        f = formulas.parse(inp[1])
        reduced = None
        try:
            reduced = bridge.reduce_qwff(qm, f)
        except NotTestable:
            if formulas.has_quantum(f):
                raise
        target = f if reduced is None else formulas.Pred(reduced)
        rows = []
        for state in model.states:
            values = [models.eval_open(model, target, state, u)
                      for u in range(model.universe_sizes[state])]
            verdict = None if reduced is None else bridge.q_truth(qm, f, state)
            rows.append((state, values, verdict))
        return reduced, rows

    @staticmethod
    def output_bytes(out) -> bytes:
        return json.dumps(out).encode()

    def check(self, inp, out) -> str | None:
        tree, text = inp
        reduced, rows = out
        model, dim = self.qm.model, self.qm.spec.dim
        if self.bases is None:
            lat = self.qm.lattice
            self.bases = {name: oracle.span(oracle.to_complex(lat.elements[i].basis), dim)
                          for name, i in self.qm.element_index.items()}
            self.vectors = {name: oracle.to_complex([vec])[0] for name, vec in self.qm.spec.states}
        ext = model.extensions
        if oracle.has_quantum(tree):
            if reduced is None:
                return f"{text}: quantum formula not reduced"
            if not oracle.same_subspace(oracle.subspace_of(tree, self.bases, dim),
                                        self.bases[reduced], dim):
                return f"{text}: reduced to {reduced}, not the subspace the formula denotes"
            expected = [[u in ext[(s, reduced)] for u in range(model.universe_sizes[s])]
                        for s in model.states]
        else:
            expected = [[oracle.truth(tree, ext, s, u) for u in range(model.universe_sizes[s])]
                        for s in model.states]
            if reduced is None and any(
                p.is_property
                and all(ext[(s, p.name)] == {u for u, v in enumerate(row) if v}
                        for s, row in zip(model.states, expected))
                for p in model.predicates
            ):
                return f"{text}: reported untestable, but a property predicate has its signature"
        if [row[1] for row in rows] != expected:
            return f"{text}: truth values differ from the extensions"
        if reduced is not None:
            for state, _, verdict in rows:
                if verdict != oracle.verdict(self.bases[reduced], self.vectors[state]):
                    return f"{text}: verdict {verdict} in {state} disagrees with the float oracle"
        return None


def _random_tree(rng: random.Random, names, n_binary: int, quantum: bool):
    """A formula with ``n_binary`` binary connectives over predicate or
    negated-predicate leaves; a quarter of inner nodes are negated."""
    if n_binary == 0:
        leaf = ("pred", rng.choice(names))
        return ("~", leaf) if rng.random() < 0.5 else leaf
    left = rng.randint(0, n_binary - 1)
    op = rng.choice(("&q", "|q", "->q") if quantum else ("&", "|"))
    node = (op, _random_tree(rng, names, left, quantum),
            _random_tree(rng, names, n_binary - 1 - left, quantum))
    if rng.random() < 0.25:
        node = ("~q" if quantum else "~", node)
    return node


class ClassicalCheck:
    """``qlogic check --depth 3`` and ``qlogic lattice --format json`` on
    random classical models of 2-5 states, 2-3 base predicates and
    universe 3-5.  Cost follows the number of atoms a (the Boolean
    quotient has 2**a elements), so a block holds a fixed mix of atom
    counts, close to their frequency among uniform draws."""

    name = "classical_check"
    ATOM_STRATA = ((1, 2, 3, 4),) * 5 + ((5,), (6,), (7,), (7,), (8,))
    trace_blocks = 10

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> bytes:
        return b""

    def block(self, b: int) -> list:
        rng = random.Random(f"{self.name}:{self.seed}:{b}")
        inputs = []
        for k, wanted in enumerate(self.ATOM_STRATA):
            while True:
                shape = (rng.randint(2, 5), rng.randint(2, 3), rng.randint(3, 5))
                data = generate.classical_model_bytes(rng.randrange(2**32), *shape)
                if len(oracle.atoms(json.loads(data))) in wanted:
                    break
            path = self.workdir / f"model_{b}_{k}.json"
            path.write_bytes(data)
            inputs.append((path, data))
        return inputs

    def op(self, inp):
        path = str(inp[0])
        check_status, report = _cli(["check", "--model", path, "--depth", "3"])
        lattice_status, lattice = _cli(["lattice", "--model", path, "--format", "json"])
        return check_status, report, lattice_status, lattice

    @staticmethod
    def output_bytes(out) -> bytes:
        return (out[1] + out[3]).encode()

    def check(self, inp, out) -> str | None:
        check_status, report, lattice_status, lattice = out
        if not _report_ok(check_status, report):
            return f"check exited {check_status} or reported violations on {inp[0].name}"
        if lattice_status != 0:
            return f"lattice exited {lattice_status} on {inp[0].name}"
        graph = json.loads(lattice)
        states = [tuple(node["states"]) for node in graph["nodes"]]
        edges = {(states[i], states[j]) for i, j in graph["edges"]}
        if (set(states), edges) != oracle.proposition_lattice(json.loads(inp[1])):
            return f"lattice of {inp[0].name} differs from the proposition lattice of its atoms"
        return None


WORKLOADS = {w.name: w for w in (QmCorpus, QmQuery, ClassicalCheck)}
