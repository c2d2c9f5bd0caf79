"""Command-line front door.

Subcommands: parse, eval, check, lattice, gen.  Exit status is 0 when all
requested checks pass, 1 on input or usage errors, 2 when a subspace
closure exceeds its cap.  Reports are deterministic for fixed inputs and
seed; machine-readable output carries no timestamps.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .bridge import (
    QuantumModel,
    _reachable_elements,
    build_model,
    check_q_trichotomy,
    check_qmt,
    check_quantum_equivalences,
    load_spec,
    lt_quotient_check,
    q_truth,
    reduce_qwff,
)
from .errors import (
    ClosureOverflow,
    MissingTheta,
    NotTestable,
    QLogicError,
)
from .formulas import (
    And,
    Formula,
    Not,
    Or,
    Pred,
    QAnd,
    QImp,
    QNot,
    QOr,
    classify,
    has_quantum,
    parse,
    render,
)
from .generate import classical_model_bytes, qm_spec_bytes
from .lattice import (
    DEFAULT_CLOSURE_CAP,
    demorgan_violations,
    find_distributivity_failure,
    ortho_involution_violations,
    orthomodularity_witness,
)
from .models import (
    Model,
    SignatureSpace,
    SuiteResult,
    check_cms,
    check_cmt,
    eval_open,
    load_model,
    quotient_size,
)
from .propositions import check_connective_relations, cover_edges

MAX_SEED = 2**64 - 1


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors; 2 is reserved for caps
        raise _UsageError(message)


def _at_least(least: int):
    """argparse type of an integer no smaller than ``least``."""
    def count(text: str) -> int:
        if int(text) < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}")
        return int(text)
    return count


# gen's generator by --kind, with the shape flags it reads (in its argument
# order) and their defaults; a kind reads no other shape flag
_GEN = {
    "classical": (classical_model_bytes, {"states": 2, "predicates": 2, "universe": 3}),
    "qm": (qm_spec_bytes, {"dim": 2, "properties": 2, "universe": 3, "cap": DEFAULT_CLOSURE_CAP}),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="qlogic", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, about, formula=False, formats=("text", "json")):
        p = sub.add_parser(name, help=about, allow_abbrev=False)
        p.add_argument("--model", help="finite model file (JSON)")
        p.add_argument("--qm-spec", dest="qm_spec", help="Hilbert spec file (JSON)")
        if formula:
            p.add_argument("--formula", help="formula text")
        p.add_argument("--format", dest="fmt", choices=formats, default="text")
        return p

    add_command("parse", "parse a formula and print its canonical form", formula=True)
    add_command("eval", "evaluate a formula over every state and object", formula=True)

    p = add_command("check", "run every applicable conformance suite")
    p.add_argument("--depth", type=int, choices=range(5), default=3, help="changes no suite")

    p = add_command(
        "lattice", "export the proposition poset or subspace lattice", formats=("text", "json", "dot")
    )
    p.add_argument("--out", help="write the artifact here instead of stdout")

    p = sub.add_parser("gen", help="emit a seeded random model or spec file", allow_abbrev=False)
    p.add_argument("--seed", type=int, default=0, help="generator seed (64-bit unsigned)")
    p.add_argument("--kind", choices=tuple(_GEN), default="classical")
    # a shape flag is in the namespace only when given, so cmd_gen sees one
    # its kind does not read; every closure holds 0 and C^d, so no cap is below 2
    least = {"states": 1, "predicates": 0, "universe": 1, "dim": 1, "properties": 0, "cap": 2}
    for name in least:
        p.add_argument(f"--{name}", type=_at_least(least[name]), default=argparse.SUPPRESS)
    p.add_argument("--out", help="write the file here instead of stdout")
    return parser


_PARSER = _build_parser()


# -- shared helpers ----------------------------------------------------------


def _load_input(args: argparse.Namespace) -> tuple[Model, QuantumModel | None]:
    if args.model and args.qm_spec:
        raise _UsageError("give either --model or --qm-spec, not both")
    if args.model:
        return load_model(args.model), None
    if args.qm_spec:
        qm = build_model(load_spec(args.qm_spec))
        return qm.model, qm
    raise _UsageError("an input file is required (--model or --qm-spec)")


def _ast_dict(f: Formula) -> dict:
    if isinstance(f, Pred):
        return {"node": "pred", "name": f.name}
    if isinstance(f, (Not, QNot)):
        kind = "not" if isinstance(f, Not) else "qnot"
        return {"node": kind, "child": _ast_dict(f.child)}
    kind = {And: "and", Or: "or", QAnd: "qand", QOr: "qor", QImp: "qimp"}[type(f)]
    return {"node": kind, "left": _ast_dict(f.left), "right": _ast_dict(f.right)}


def _emit(args: argparse.Namespace, data: bytes) -> int:
    """Write ``data`` to the ``--out`` file, or to stdout without one, and
    return the exit status: a file that cannot be written is one error
    line and status 1, not a traceback."""
    if not args.out:
        sys.stdout.write(data.decode("utf-8"))
        return 0
    try:
        with open(args.out, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        reason = exc.strerror or exc
        print(f"error: {type(exc).__name__}: cannot write {args.out}: {reason}", file=sys.stderr)
        return 1
    return 0


# -- commands -----------------------------------------------------------------


def cmd_parse(args: argparse.Namespace) -> int:
    if not args.formula:
        raise _UsageError("--formula is required")
    f = parse(args.formula)
    tag = None
    if args.model or args.qm_spec:
        model, _ = _load_input(args)
        tag = classify(f, model.property_names()).value
    if args.fmt == "json":
        payload = {"render": render(f), "ast": _ast_dict(f)}
        if tag:
            payload["classification"] = tag
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(render(f))
        if tag:
            print(f"classification: {tag}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    if not args.formula:
        raise _UsageError("--formula is required")
    model, qm = _load_input(args)
    f = parse(args.formula)
    quantum = has_quantum(f)
    if quantum and qm is None:
        raise MissingTheta("quantum connectives need a Hilbert-backed model (--qm-spec)")

    reduced = None
    if qm is not None:
        try:
            reduced = reduce_qwff(qm, f)
        except NotTestable:
            if quantum:
                raise
    target = f if reduced is None else Pred(reduced)
    rows = []
    for state in model.states:
        n = model.universe_sizes[state]
        values = [eval_open(model, target, state, u) for u in range(n)]
        verdict = None if reduced is None else q_truth(qm, f, state)
        rows.append((state, n, values, all(values), verdict))

    if args.fmt == "json":
        payload = {
            "formula": render(f),
            "reduced_predicate": reduced,
            "states": [
                {
                    "name": state,
                    "universe": n,
                    "objects": values,
                    "universal": universal,
                    "in_proposition": universal,
                    **({"q_truth": verdict} if verdict is not None else {}),
                }
                for state, n, values, universal, verdict in rows
            ],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"formula: {render(f)}")
        if reduced is not None:
            print(f"reduced predicate: {reduced}")
        for state, n, values, universal, verdict in rows:
            objs = ",".join("t" if v else "f" for v in values)
            line = (
                f"state {state} (n={n}): objects {objs} | "
                f"universally true: {'yes' if universal else 'no'} | "
                f"in proposition: {'yes' if universal else 'no'}"
            )
            if verdict is not None:
                line += f" | {verdict}"
            print(line)
    return 0


def _report(space: SignatureSpace, qm: QuantumModel | None) -> list[SuiteResult]:
    """Check's report lines in order, the Hilbert-only suites after the
    classical ones.  Suites are looked up on this module when they run, so
    a suite rebound here (as the benchmark tracer does) is the one called."""
    # The classical suites' formula alphabet: the user-named properties for
    # Hilbert-backed inputs, whose full closure table would make the sweeps
    # combinatorially infeasible; None, the whole table, for models.
    generators = None if qm is None else tuple(name for name, _ in qm.spec.properties)
    lines = check_connective_relations(space, generators)
    elements = quotient_size(space, predicates=generators)
    cms = check_cms(space.model)
    cmt = check_cmt(space, predicates=generators)
    lines += [
        SuiteResult("boolean-quotient", elements, info={"elements": elements}),
        SuiteResult("cm-full-or-empty", len(space.model.predicates), info={"holds": cms}),
        cmt,
        # The alphabet is property predicates, each full or empty in every
        # state, so every Boolean combination of them is too: truth and
        # certain truth coincide and no class can be object-dependent.
        SuiteResult("truth-certainty-collapse", cmt.checked if cms else 0, applicable=cms),
    ]
    if qm is None:
        return lines
    lat = qm.lattice
    n = len(lat)
    om = orthomodularity_witness(lat)
    dist = find_distributivity_failure(lat)
    shape = {"expected-nondistributive": dist is not None}
    if dist is not None:
        shape["witness"] = " / ".join(repr(s) for s in dist)
    lines += [
        SuiteResult("ortho-involution", n, len(ortho_involution_violations(lat))),
        # table-demorgan and quantum-demorgan hold by construction on close
        # output, whose meets are read through De Morgan; the meet table's
        # independent checks are the hilbert.meet differentials in
        # tests/test_lattice.py and test_close_matches_reference
        SuiteResult("table-demorgan", n * n, len(demorgan_violations(lat))),
        SuiteResult("orthomodularity", n * n, int(om is not None), [repr(s) for s in om or ()]),
        SuiteResult("distributivity-witness", n**3, info=shape),
        check_qmt(qm, space),
    ]
    # one sweep of every element a qwff reaches serves both qwff suites
    qwffs = _reachable_elements(qm)
    *relations, separation = check_quantum_equivalences(qm, space, qwffs)
    trichotomy = check_q_trichotomy(qm, space, qwffs)
    return [*lines, *relations, trichotomy, lt_quotient_check(qm, space), separation]


def cmd_check(args: argparse.Namespace) -> int:
    model, qm = _load_input(args)
    suites = _report(SignatureSpace(model), qm)
    total = sum(s.violations for s in suites)
    if args.fmt == "json":
        payload = {
            "input": args.model or args.qm_spec,
            "kind": "model" if qm is None else "qm-spec",
            "depth": args.depth,
            "suites": [s.as_dict() for s in suites],
            "violations": total,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for s in suites:
            print(s.text())
        print(f"total violations: {total}")
    return 0 if total == 0 else 1


def _lattice_nodes_edges(model: Model, qm: QuantumModel | None):
    if qm is not None:
        lat = qm.lattice
        nodes = []
        for i, name in enumerate(qm.predicate_names):
            theta = ",".join(sorted(qm.theta[name]))
            nodes.append(
                {
                    "id": i,
                    "label": f"{name} dim={lat.elements[i].dim} {{{theta}}}",
                    "predicates": [name],
                    "states": sorted(qm.theta[name]),
                }
            )
        ups = [sum(1 << j for j, m in enumerate(row) if m == i) for i, row in enumerate(lat.meet)]
        return nodes, cover_edges(ups)
    # A union of atoms holds in exactly the states whose block misses every
    # atom it leaves out, so the propositions are all states and every
    # intersection of the per-atom sets of such states.
    space = SignatureSpace(model)
    alphabet = model.predicate_names()
    found = {frozenset(model.states)} if alphabet else set()
    for atom in space.atoms(alphabet):
        missed = frozenset(s for s in model.states if not space.state_masks[s] & atom)
        found |= {prop & missed for prop in found}
    props = sorted(found, key=lambda s: (len(s), sorted(s)))
    held = {p.name: space.proposition(space.pred_masks[p.name]) for p in model.predicates}
    nodes = []
    for i, prop in enumerate(props):
        names = [name for name, states in held.items() if states == prop]
        literal = "{" + ",".join(sorted(prop)) + "}"
        label = literal if not names else f"{literal} {'/'.join(names)}"
        nodes.append({"id": i, "label": label, "predicates": names, "states": sorted(prop)})
    return nodes, cover_edges([sum(1 << j for j, q in enumerate(props) if p <= q) for p in props])


def cmd_lattice(args: argparse.Namespace) -> int:
    model, qm = _load_input(args)
    nodes, edges = _lattice_nodes_edges(model, qm)
    if args.fmt == "json":
        text = json.dumps({"nodes": nodes, "edges": edges}, indent=2, sort_keys=True)
    elif args.fmt == "dot":
        lines = ["digraph lattice {", "  rankdir=BT;"]
        for node in nodes:
            label = node["label"].replace('"', "'")
            lines.append(f'  n{node["id"]} [label="{label}"];')
        for i, j in edges:
            lines.append(f"  n{i} -> n{j};")
        lines.append("}")
        text = "\n".join(lines)
    else:
        lines = [f"nodes: {len(nodes)}"]
        lines += [f"  [{node['id']}] {node['label']}" for node in nodes]
        lines.append(f"cover edges: {len(edges)}")
        lines += [f"  {i} -> {j}" for i, j in edges]
        text = "\n".join(lines)
    return _emit(args, (text + "\n").encode("utf-8"))


def cmd_gen(args: argparse.Namespace) -> int:
    make, shape = _GEN[args.kind]
    unread = [name for _, flags in _GEN.values() for name in flags if name in args and name not in shape]
    if unread:
        raise _UsageError(f"--kind {args.kind} does not read --{unread[0]}")
    try:
        data = make(args.seed, *(getattr(args, name, default) for name, default in shape.items()))
    except ValueError as exc:  # a shape no draw can fill
        raise _UsageError(str(exc)) from None
    return _emit(args, data)


_COMMANDS = {
    "parse": cmd_parse,
    "eval": cmd_eval,
    "check": cmd_check,
    "lattice": cmd_lattice,
    "gen": cmd_gen,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        if "seed" in args and not 0 <= args.seed <= MAX_SEED:
            raise _UsageError("seed must fit in 64 unsigned bits")
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        status = _COMMANDS[args.command](args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:  # the reader closed stdout; silence the exit flush too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: BrokenPipeError: standard output was closed", file=sys.stderr)
        return 1
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ClosureOverflow as exc:
        print(f"closure overflow: {exc}", file=sys.stderr)
        for gen in exc.generators:
            print(f"  generator: {gen!r}", file=sys.stderr)
        return 2
    except QLogicError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
