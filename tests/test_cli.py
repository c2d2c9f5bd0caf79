from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from types import SimpleNamespace

import pytest

from qlogic import bridge, cli, generate
from qlogic.bridge import build_model, load_spec
from qlogic.cli import main
from qlogic.errors import ModelValidationError
from qlogic.models import MAX_DIM, MAX_PAIRS, Model, PredicateInfo, SignatureSpace

from conftest import DATA_DIR, REPO, SPEC_DIR, mo_squared_spec

WORKED = str(SPEC_DIR / "worked_qm.json")
CM = str(SPEC_DIR / "cm_demo.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_renders_canonical_form(capsys):
    code, out, _ = run(capsys, "parse", "--formula", "E |q (F &q G)")
    assert code == 0
    assert out.strip() == "E |q F &q G"


def test_parse_json_ast(capsys):
    code, out, _ = run(capsys, "parse", "--formula", "E & ~F", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["ast"]["node"] == "and"
    assert data["ast"]["right"] == {"node": "not", "child": {"node": "pred", "name": "F"}}


def test_parse_syntax_error_exit_code(capsys):
    code, _, err = run(capsys, "eval", "--model", CM, "--formula", "E & (F")
    assert code == 1
    assert "position 7" in err


def test_eval_worked_spec_table(capsys):
    code, out, _ = run(capsys, "eval", "--qm-spec", WORKED, "--formula", "Ez")
    assert code == 0
    assert "state Sz+ (n=4): objects t,t,t,t | universally true: yes" in out
    assert "state Sx+ (n=4): objects t,t,f,f | universally true: no" in out
    assert "Q-indeterminate" in out


def test_eval_classical_model(capsys):
    code, out, _ = run(capsys, "eval", "--model", CM, "--formula", "Hot | Heavy")
    assert code == 0
    assert "state S1 (n=3): objects t,t,t | universally true: yes" in out
    assert "Q-" not in out  # no three-valued column without Hilbert provenance


def test_eval_quantum_formula_on_plain_model_fails(capsys):
    code, _, err = run(capsys, "eval", "--model", CM, "--formula", "Hot &q Heavy")
    assert code == 1
    assert "MissingTheta" in err


@pytest.mark.parametrize(
    "flag, source, formula", [("--model", CM, "(Hot | ~Hot) | Nope"),
                              ("--qm-spec", WORKED, "(Ez | ~Ez) | Nope")],
    ids=["model", "qm-spec"],
)
def test_eval_unknown_predicate_is_one_error_line_on_either_input(capsys, flag, source, formula):
    """A formula with an unknown leaf is not a sentence of the model's
    language, even where the rest of it is a tautology."""
    code, out, err = run(capsys, "eval", flag, source, "--formula", formula)
    assert (code, out, err) == (1, "", "error: UnknownPredicate: Nope\n")


@pytest.mark.parametrize(
    "formula, message",
    [("~q(Ez & Ex)", "no property predicate has the signature of Ez & Ex"),
     ("(Ez &q Ex) & Ez", "classical connective above a quantum subformula in Ez &q Ex & Ez")],
    ids=["no-witness", "classical-above-quantum"],
)
def test_eval_untestable_quantum_formula_is_one_error_line(capsys, formula, message):
    """The message names the formula as rendered, though it is rendered
    only when the error is printed."""
    code, out, err = run(capsys, "eval", "--qm-spec", WORKED, "--formula", formula)
    assert (code, out, err) == (1, "", f"error: NotTestable: {message}\n")


def test_eval_json_output(capsys):
    code, out, _ = run(
        capsys, "eval", "--qm-spec", WORKED, "--formula", "Ez &q Ex", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["reduced_predicate"].startswith("Q_")
    assert all(not any(s["objects"]) for s in data["states"])


def test_check_worked_spec_passes(capsys):
    code, out, _ = run(capsys, "check", "--qm-spec", WORKED, "--depth", "2")
    assert code == 0
    assert "total violations: 0" in out
    assert "expected-nondistributive=True" in out


def test_check_json_report(capsys):
    code, out, _ = run(capsys, "check", "--qm-spec", WORKED, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["violations"] == 0
    suites = {s["suite"] for s in data["suites"]}
    assert "orthomodularity" in suites and "boolean-quotient" in suites


@pytest.mark.parametrize("k", [None, 2], ids=["worked_qm", "mo2_squared"])
def test_state_separation_says_whether_the_preorders_coincide(tmp_path, capsys, monkeypatch, k):
    """The signature preorder and the proposition preorder agree on the
    testable classes exactly when they agree on every pair of predicates,
    whose propositions are their theta sets: true on the worked spec, false
    on MO_2 x MO_2."""
    path = WORKED
    if k is not None:
        path = tmp_path / "mo_squared.json"
        path.write_text(json.dumps(mo_squared_spec(k)))
    built = []

    def build(spec):
        built.append(build_model(spec))
        return built[-1]

    monkeypatch.setattr(cli, "build_model", build)
    code, out, _ = run(capsys, "check", "--qm-spec", str(path), "--format", "json")
    assert code == 0
    line = next(s for s in json.loads(out)["suites"] if s["suite"] == "state-separation")
    qm = built[0]
    space = SignatureSpace(qm.model)
    sigs = {name: space.pred_masks[name] for name in qm.predicate_names}
    coincide = all(
        (sigs[p] | sigs[q] == sigs[q]) == (qm.theta[p] <= qm.theta[q])
        for p in qm.predicate_names
        for q in qm.predicate_names
    )
    assert coincide == (k is None)
    assert line["info"] == {"separating": True, "preorder-coincides": coincide}


def test_check_cm_model(capsys):
    code, out, _ = run(capsys, "check", "--model", CM)
    assert code == 0
    assert "total violations: 0" in out


def test_check_corrupted_model_file(tmp_path, capsys):
    bad = {
        "predicates": [{"name": "E", "property": True, "ortho": None}],
        "states": [{"name": "S1", "universe": 2, "extensions": {"E": [0, 7]}}],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, _, err = run(capsys, "check", "--model", str(path))
    assert code == 1
    assert "S1" in err and "E" in err


def test_lattice_worked_spec_six_nodes(capsys):
    code, out, _ = run(capsys, "lattice", "--qm-spec", WORKED)
    assert code == 0
    assert "nodes: 6" in out


def test_lattice_cm_single_predicate_diamond(tmp_path, capsys):
    model = {
        "predicates": [
            {"name": "E", "property": True, "ortho": "E_perp"},
            {"name": "E_perp", "property": True, "ortho": "E"},
        ],
        "states": [
            {"name": "S1", "universe": 2, "extensions": {"E": [0, 1], "E_perp": []}},
            {"name": "S2", "universe": 2, "extensions": {"E": [], "E_perp": [0, 1]}},
        ],
    }
    path = tmp_path / "cm.json"
    path.write_text(json.dumps(model))
    code, out, _ = run(capsys, "lattice", "--model", str(path))
    assert code == 0
    assert "nodes: 4" in out
    assert "cover edges: 4" in out


def test_lattice_depth_guard(capsys):
    code, out, err = run(capsys, "lattice", "--qm-spec", WORKED, "--depth", "9")
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("usage error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["parse", "--formula", "E"],
        ["eval", "--qm-spec", WORKED, "--formula", "Ez"],
        ["lattice", "--qm-spec", WORKED],
        ["gen", "--seed", "0"],
    ],
    ids=["parse", "eval", "lattice", "gen"],
)
def test_only_check_takes_depth(capsys, argv):
    code, out, err = run(capsys, *argv, "--depth", "1")
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("usage error:")


@pytest.mark.parametrize("depth,message", [("-1", "usage error:"), ("9", "usage error:")])
def test_check_depth_range(capsys, depth, message):
    code, out, err = run(capsys, "check", "--qm-spec", WORKED, "--depth", depth)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and message in err


@pytest.mark.parametrize("formula", ["(" * 3000 + "E" + ")" * 3000, "~" * 5000 + "E"])
def test_parse_nesting_limit_is_one_error_line(formula):
    proc = subprocess.run(
        [sys.executable, "-m", "qlogic.cli", "parse", "--formula", formula],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "error: FormulaSyntaxError: formula nested deeper than 100 levels (position 101)"
    ]


def test_lattice_dot_format(capsys):
    code, out, _ = run(capsys, "lattice", "--qm-spec", WORKED, "--format", "dot")
    assert code == 0
    assert out.startswith("digraph lattice {")
    assert "->" in out


def test_lattice_writes_artifact_file(tmp_path, capsys):
    target = tmp_path / "lat.json"
    code, _, _ = run(
        capsys, "lattice", "--qm-spec", WORKED, "--format", "json", "--out", str(target)
    )
    assert code == 0
    data = json.loads(target.read_text())
    assert len(data["nodes"]) == 6
    # the file holds what stdout gets, the trailing newline included
    code, out, _ = run(capsys, "lattice", "--qm-spec", WORKED, "--format", "json")
    assert code == 0 and target.read_bytes() == out.encode()


def test_gen_matches_golden(capsys):
    code, out, _ = run(capsys, "gen", "--seed", "0")
    assert code == 0
    assert out.encode() == (DATA_DIR / "gen_classical_seed0.json").read_bytes()


def test_gen_qm_roundtrip(tmp_path, capsys):
    target = tmp_path / "spec.json"
    code, _, _ = run(
        capsys, "gen", "--seed", "4", "--kind", "qm", "--dim", "3",
        "--properties", "3", "--cap", "64", "--out", str(target),
    )
    assert code == 0
    code, out, _ = run(capsys, "check", "--qm-spec", str(target))
    assert code == 0
    assert "total violations: 0" in out


def test_gen_qm_universe_one_is_too_small(capsys):
    # the state placed in C^d lies in no proper element, so some probability
    # is strictly between 0 and 1 on the first attempt
    code, out, err = run(capsys, "gen", "--kind", "qm", "--universe", "1")
    assert (code, out) == (1, "")
    assert err == (
        "error: UniverseTooSmall: universe size 1 cannot host a proper extension "
        "for predicate 'E1' in state 'W1'\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["--kind", "qm", "--dim", "0"],
        ["--kind", "qm", "--dim", "-2"],
        ["--kind", "qm", "--dim", "1"],
        ["--kind", "qm", "--dim", "1", "--properties", "3"],
        ["--kind", "qm", "--universe", "0"],
        ["--kind", "qm", "--properties", "-1"],
        ["--states", "0"],
        ["--predicates", "-1"],
        ["--universe", "-1"],
    ],
)
def test_gen_rejects_an_impossible_shape(argv):
    # a subprocess with a timeout, since no nonzero vector exists in C^0;
    # C^1 has one line, so two distinct property lines are never drawn
    proc = subprocess.run(
        [sys.executable, "-m", "qlogic.cli", "gen", *argv],
        capture_output=True,
        text=True,
        timeout=30,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("usage error:")


@pytest.mark.parametrize(
    "argv,field",
    [(["--predicates", "0"], "predicates"), (["--kind", "qm", "--properties", "0"], "properties")],
)
def test_gen_accepts_an_empty_alphabet(capsys, argv, field):
    code, out, _ = run(capsys, "gen", *argv)
    assert code == 0
    assert json.loads(out)["generator"][field] == 0


@pytest.mark.parametrize("properties", ["0", "1"])
def test_gen_qm_in_one_dimension(tmp_path, capsys, properties):
    target = tmp_path / "spec.json"
    argv = ["--kind", "qm", "--dim", "1", "--properties", properties, "--out", str(target)]
    assert run(capsys, "gen", *argv)[0] == 0
    code, out, _ = run(capsys, "check", "--qm-spec", str(target))
    assert code == 0
    assert "total violations: 0" in out
    if properties == "0":  # the empty alphabet: one cell of bits, yet no class
        assert "suite cm-testability: ok (checked 0) [holds=True]" in out.splitlines()


def test_usage_error_exits_one(capsys):
    assert run(capsys, "eval", "--formula", "E")[0] == 1  # no input file
    assert run(capsys, "check")[0] == 1
    code, _, err = run(capsys, "gen", "--seed", "-3")
    assert code == 1
    assert "seed" in err


def test_unknown_command_exits_one(capsys):
    assert run(capsys, "frobnicate")[0] == 1


def test_closure_overflow_exit_two(tmp_path, capsys):
    spec = {
        "dim": 3,
        "universe": 4,
        "closure_cap": 16,
        "states": [{"name": "S", "vector": ["1", "0", "0"]}],
        "properties": [
            {"name": "A", "basis": [["1", "0", "0"]]},
            {"name": "B", "basis": [["1", "1", "1"]]},
            {"name": "C", "basis": [["1", "2", "4"]]},
        ],
    }
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(spec))
    code, _, err = run(capsys, "check", "--qm-spec", str(path))
    assert code == 2
    assert "closure overflow" in err
    assert "generator" in err


def test_check_json_is_deterministic(capsys):
    _, out1, _ = run(capsys, "check", "--qm-spec", WORKED, "--format", "json")
    _, out2, _ = run(capsys, "check", "--qm-spec", WORKED, "--format", "json")
    assert out1 == out2


def test_parse_with_model_reports_classification(capsys):
    code, out, _ = run(
        capsys, "parse", "--formula", "Hot &q Heavy", "--model", CM, "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["classification"] == "pure-qwff"


def test_the_spec_closure_cap_is_the_cap(tmp_path, capsys, monkeypatch):
    """A spec's ``closure_cap`` reaches ``close`` unchanged, also above the
    default: no second cap lowers it."""
    with open(WORKED, encoding="utf-8") as fh:
        data = json.load(fh)
    data["closure_cap"] = 4096
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    caps = []
    real_close = bridge.close

    def close(generators, cap, dim):
        caps.append(cap)
        return real_close(generators, cap=cap, dim=dim)

    monkeypatch.setattr(bridge, "close", close)
    assert run(capsys, "check", "--qm-spec", str(path))[0] == 0
    assert caps == [4096]


@pytest.mark.parametrize("flag", ["--model", "--qm-spec"])
@pytest.mark.parametrize(
    "content, message", [(None, "cannot read"), ('{"dim": 2,', "is not valid JSON")]
)
def test_unreadable_input_is_one_error_line(tmp_path, capsys, flag, content, message):
    path = tmp_path / "input.json"
    if content is not None:  # otherwise the file is missing
        path.write_text(content)
    code, out, err = run(capsys, "check", flag, str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: ModelValidationError:") and message in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("flag", ["--model", "--qm-spec"])
def test_non_integer_field_is_one_error_line(tmp_path, capsys, flag):
    source = CM if flag == "--model" else WORKED
    with open(source, encoding="utf-8") as fh:
        data = json.load(fh)
    if flag == "--model":
        data["states"][0]["universe"] = "three"
    else:
        data["universe"] = "four"
    path = tmp_path / "field.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "check", flag, str(path))
    assert code == 1
    assert err.startswith("error: ModelValidationError: malformed")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv, status, line",
    [
        (["check", "--qm-spec", (WORKED, lambda d: d.update(universe=0))], 1,
         "error: ModelValidationError: universe size must be positive"),
        (["check", "--qm-spec", (WORKED, lambda d: d["states"].append(d["states"][0]))], 1,
         "error: ModelValidationError: duplicate state names"),
        (["check", "--qm-spec",
          (WORKED, lambda d: d["properties"].append(d["properties"][0]))], 1,
         "error: ModelValidationError: duplicate property names"),
        (["check", "--qm-spec", (WORKED, lambda d: d["properties"][0].update(name="1bad"))],
         1, "error: ModelValidationError: property name '1bad' is not an identifier"),
        (["check", "--qm-spec", (WORKED, lambda d: d.update(closure_cap=1))], 1,
         "error: ModelValidationError: closure cap 1, below 2"),
        (["check", "--model", (CM, lambda d: d["predicates"].append(d["predicates"][0]))], 1,
         "error: ModelValidationError: duplicate predicate names"),
        (["check", "--model", (CM, lambda d: d["predicates"][0].update(name="9x"))], 1,
         "error: ModelValidationError: predicate name '9x' is not an identifier"),
        (["check", "--model", (CM, lambda d: d["states"].append(d["states"][0]))], 1,
         "error: ModelValidationError: duplicate state names"),
        (["check", "--model", (CM, lambda d: d["states"][0].update(universe=0))], 1,
         "error: ModelValidationError: state 'S1' needs a universe of size >= 1"),
        (["check", "--model", CM, "--qm-spec", WORKED], 1,
         "usage error: give either --model or --qm-spec, not both"),
        (["parse"], 1, "usage error: --formula is required"),
        (["eval", "--qm-spec", WORKED], 1, "usage error: --formula is required"),
        (["gen", "--states", "0"], 1, "usage error: argument --states: must be at least 1"),
        (["check", "--qm-spec", WORKED, "--cap", "1"], 1,
         "usage error: unrecognized arguments: --cap 1"),
        (["gen", "--kind", "qm", "--cap", "0"], 1, "usage error: argument --cap: must be at least 2"),
        (["gen", "--dim", "4", "--cap", "9"], 1, "usage error: --kind classical does not read --dim"),
        (["gen", "--kind", "qm", "--dim", "3", "--properties", "3", "--cap", "2"], 2,
         "closure overflow: no adequate spec found for seed 0 within 32 attempts"),
        (["gen", "--kind", "qm", "--universe", "1000000"], 1,
         "error: ModelValidationError: 5000000 (state, object) pairs, over the cap 1000000"),
        (["lattice", "--model", CM, "--out", "{tmp}"], 1,
         "error: IsADirectoryError: cannot write {tmp}: Is a directory"),
        (["lattice", "--model", CM, "--out", "{tmp}/missing/lattice.txt"], 1,
         "error: FileNotFoundError: cannot write {tmp}/missing/lattice.txt: No such file or directory"),
        (["gen", "--out", "{tmp}"], 1,
         "error: IsADirectoryError: cannot write {tmp}: Is a directory"),
        (["gen", "--out", "{tmp}/missing/model.json"], 1,
         "error: FileNotFoundError: cannot write {tmp}/missing/model.json: No such file or directory"),
    ],
    ids=[
        "spec-universe-0", "spec-duplicate-state", "spec-duplicate-property",
        "spec-property-name", "spec-cap-1", "model-duplicate-predicate", "model-predicate-name",
        "model-duplicate-state", "model-universe-0", "model-and-spec", "parse-no-formula",
        "eval-no-formula", "gen-no-states", "check-cap-1", "gen-qm-cap-0", "gen-classical-dim",
        "gen-no-adequate-spec",
        "gen-qm-over-pair-cap",
        "lattice-out-directory", "lattice-out-missing-parent", "gen-out-directory",
        "gen-out-missing-parent",
    ],
)
def test_invalid_input_or_arguments_is_one_error_line(tmp_path, capsys, argv, status, line):
    # "{tmp}" in an argument or the line stands for the test's own directory
    args = []
    for arg in argv:
        if isinstance(arg, tuple):  # (source, change): a copy of the source, changed
            source, change = arg
            with open(source, encoding="utf-8") as fh:
                data = json.load(fh)
            change(data)
            arg = tmp_path / "input.json"
            arg.write_text(json.dumps(data))
        args.append(str(arg).replace("{tmp}", str(tmp_path)))
    code, out, err = run(capsys, *args)
    assert (code, out, err.splitlines()) == (status, "", [line.replace("{tmp}", str(tmp_path))])


def test_property_flag_must_be_boolean(tmp_path, capsys):
    model = {
        "predicates": [{"name": "E", "property": "false", "ortho": None}],
        "states": [{"name": "S1", "universe": 2, "extensions": {"E": [0]}}],
    }
    path = tmp_path / "flag.json"
    path.write_text(json.dumps(model))
    code, _, err = run(capsys, "check", "--model", str(path))
    assert code == 1
    assert "property must be true or false" in err


def test_check_under_python_O_matches_plain_run():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    argv = ["-m", "qlogic.cli", "check", "--qm-spec", WORKED]
    plain, optimized = (
        subprocess.run([sys.executable, *flags, *argv], env=env, capture_output=True, timeout=300)
        for flags in ([], ["-O"])
    )
    assert plain.returncode == 0 and optimized.returncode == 0, optimized.stderr
    assert optimized.stdout == plain.stdout


@pytest.mark.parametrize(
    "argv", [["lattice", "--qm-spec", WORKED], ["parse", "--formula", "E"]], ids=["lattice", "parse"]
)
def test_closed_stdout_is_one_error_line(argv):
    proc = subprocess.Popen(
        [sys.executable, "-m", "qlogic.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
    )
    proc.stdout.close()  # before the command writes anything
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 1
    assert "Traceback" not in err and "Exception ignored" not in err
    assert err.splitlines() == ["error: BrokenPipeError: standard output was closed"]


@pytest.fixture
def built_spaces(monkeypatch):
    """The models of the SignatureSpaces built while the test runs."""
    built = []
    init = SignatureSpace.__init__

    def counting_init(self, m):
        built.append(m)
        init(self, m)

    monkeypatch.setattr(SignatureSpace, "__init__", counting_init)
    return built


@pytest.mark.parametrize("depth", [1, 3, 4])
@pytest.mark.parametrize(
    "flag,path",
    [
        ("--qm-spec", WORKED),
        ("--qm-spec", str(DATA_DIR / "gen_qm_seed11.json")),
        ("--model", CM),
        ("--model", str(DATA_DIR / "gen_classical_seed7.json")),
    ],
    ids=["worked", "seed11", "cm_demo", "classical_seed7"],
)
def test_check_builds_one_signature_space(capsys, monkeypatch, built_spaces, flag, path, depth):
    """Every suite reads one space, and at every depth the census sweeps
    no class and cm-testability makes one sweep, of depth 1, for its witness.
    Both quantum suites read one qwff sweep; a model has none."""
    sweeps = []
    closure = SignatureSpace._closure
    qwff_sweeps = []
    reachable = bridge._reachable_elements

    def counting_closure(self, *args, **limits):
        sweeps.append(limits)
        return closure(self, *args, **limits)

    def counting_reachable(qm):
        qwff_sweeps.append(qm)
        return reachable(qm)

    monkeypatch.setattr(SignatureSpace, "_closure", counting_closure)
    for module in (bridge, cli):
        monkeypatch.setattr(module, "_reachable_elements", counting_reachable)
    assert run(capsys, "check", flag, path, "--depth", str(depth))[0] == 0
    assert len(built_spaces) == 1
    assert sweeps == [{"rounds": 1}]
    assert len(qwff_sweeps) == (flag == "--qm-spec")


@pytest.mark.parametrize(
    "path,formula",
    [(WORKED, "Ez &q Ex"), (str(DATA_DIR / "gen_qm_seed11.json"), "E1 |q E2")],
    ids=["worked", "seed11"],
)
def test_eval_builds_one_signature_space(capsys, built_spaces, path, formula):
    assert run(capsys, "eval", "--qm-spec", path, "--formula", formula)[0] == 0
    assert len(built_spaces) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--qm-spec", WORKED, "--seed", "1"],
        ["check", "--qm-spec", WORKED, "--format", "dot"],
        ["eval", "--qm-spec", WORKED, "--formula", "Ez", "--format", "dot"],
        ["gen", "--format", "json"],
        ["parse", "--formula", "E", "--cap", "64"],
        ["eval", "--qm-spec", WORKED, "--formula", "Ez", "--cap", "64"],
        ["check", "--qm-spec", WORKED, "--cap", "64"],
        ["lattice", "--qm-spec", WORKED, "--cap", "64"],
        ["gen", "--cap", "9"],
        ["gen", "--dim", "4"],
        ["gen", "--properties", "3"],
        ["gen", "--kind", "qm", "--states", "5"],
        ["gen", "--kind", "qm", "--predicates", "4"],
        ["check", "--qm-spec", WORKED, "--form", "json"],
        ["check", "--qm", WORKED],
        ["gen", "--kin", "qm", "--se", "3"],
    ],
    ids=[
        "check-seed", "check-dot", "eval-dot", "gen-format", "parse-cap", "eval-cap", "check-cap",
        "lattice-cap", "gen-classical-cap", "gen-classical-dim", "gen-classical-properties",
        "gen-qm-states", "gen-qm-predicates", "check-form", "check-qm", "gen-kin-se",
    ],
)
def test_flag_a_command_does_not_read_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("usage error:")


def test_main_reuses_the_parser_built_at_import(capsys, monkeypatch):
    def rebuild():
        raise AssertionError("main rebuilt the parser")

    monkeypatch.setattr(cli, "_build_parser", rebuild)
    assert run(capsys, "parse", "--formula", "E")[0] == 0
    assert run(capsys, "gen", "--seed", "0")[0] == 0


def test_start_up_and_parse_leave_numpy_unimported():
    # nothing at run time needs numpy, and importing it would be most of
    # the start-up time
    code = (
        "import sys\n"
        "from qlogic.cli import main\n"
        "assert 'numpy' not in sys.modules, 'import qlogic.cli'\n"
        "assert main(['parse', '--formula', 'E']) == 0\n"
        "assert 'numpy' not in sys.modules, 'qlogic parse'\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "E\n"


@pytest.mark.parametrize(
    "flag, path, value, message",
    [
        ("--model", ["states", 0, "extensions"], [], "extensions of 'S1' must be an object"),
        ("--model", ["states", 0, "universe"], "1e400", "universe of 'S1' must be an integer"),
        ("--model", ["states", 0, "extensions", "Hot"], "012", "must be an array"),
        ("--model", ["states", 0, "name"], None, "state name must be a string"),
        ("--model", ["predicates", 0, "ortho"], ["Hot_perp"], "ortho of 'Hot'"),
        ("--qm-spec", ["properties", 0, "basis"], [[1, 0]], "scalar literal 1 is not"),
        ("--qm-spec", ["states", 0, "vector"], "10", "vector of 'Sz+' must be an array"),
        ("--qm-spec", ["properties", 0, "basis"], ["10"], "basis vector of 'Ez' must be"),
        ("--qm-spec", ["dim"], 2.5, "dim must be an integer"),
    ],
    ids=[
        "extensions-list", "universe-1e400", "extension-string", "state-name-null",
        "ortho-list", "basis-numbers", "vector-string", "basis-row-string", "dim-float",
    ],
)
def test_malformed_input_is_one_error_line(tmp_path, capsys, flag, path, value, message):
    with open(CM if flag == "--model" else WORKED, encoding="utf-8") as fh:
        data = json.load(fh)
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    target = tmp_path / "input.json"
    # a bare 1e400 is valid JSON that json.dumps cannot write
    target.write_text(json.dumps(data).replace('"1e400"', "1e400"))
    code, out, err = run(capsys, "check", flag, str(target))
    assert code == 1 and out == ""
    assert err.startswith("error: ModelValidationError:") and message in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("flag", ["--model", "--qm-spec"])
def test_an_oversized_universe_is_one_error_line(tmp_path, capsys, flag):
    """A universe of 10**12 objects is refused before any bit is laid out,
    on a --model file (one state's universe) and a --qm-spec file."""
    with open(CM if flag == "--model" else WORKED, encoding="utf-8") as fh:
        data = json.load(fh)
    if flag == "--model":
        data["states"][0]["universe"] = 10**12
    else:
        data["universe"] = 10**12
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "check", flag, str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: ModelValidationError:") and f"over the cap {MAX_PAIRS}" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("source", ["gen", "--qm-spec"])
def test_an_oversized_dimension_is_one_error_line(tmp_path, capsys, monkeypatch, source):
    """A dimension past the cap is refused before any draw (gen, a shape
    error) or any elimination (a --qm-spec file, padded with zeros so that
    it is valid but for its dimension)."""
    dim = MAX_DIM + 1
    if source == "gen":
        code, out, err = run(capsys, "gen", "--kind", "qm", "--dim", str(dim))
        expected = "usage error: "
    else:
        with open(WORKED, encoding="utf-8") as fh:
            data = json.load(fh)
        data["dim"] = dim
        for state in data["states"]:
            state["vector"] += ["0"] * (dim - len(state["vector"]))
        for prop in data["properties"]:
            prop["basis"] = [row + ["0"] * (dim - len(row)) for row in prop["basis"]]
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(data))
        monkeypatch.setattr(bridge, "subspace_from_strings", lambda *_: pytest.fail("eliminated"))
        code, out, err = run(capsys, "check", "--qm-spec", str(path))
        expected = "error: ModelValidationError: "
    assert (code, out, err) == (1, "", f"{expected}dimension {dim}, over the cap {MAX_DIM}\n")


def test_the_dimension_cap_admits_its_bound():
    spec = load_spec(WORKED)
    state = spec.states[0][0], spec.states[0][1] + spec.states[0][1][:1] * (MAX_DIM - 2)
    assert replace(spec, dim=MAX_DIM, states=(state,), properties=()).dim == MAX_DIM
    with pytest.raises(ModelValidationError, match=f"dimension {MAX_DIM + 1}, over the cap"):
        replace(spec, dim=MAX_DIM + 1, states=(state,), properties=())


def test_the_pair_cap_counts_every_state():
    """The cap bounds the sum over states, checked on the constructors; a
    spec exactly at the cap is accepted, since a spec lays nothing out."""
    spec = load_spec(WORKED)  # 4 states
    with pytest.raises(ModelValidationError, match="1000004 .* over the cap 1000000"):
        replace(spec, universe_size=MAX_PAIRS // 4 + 1)
    assert replace(spec, universe_size=MAX_PAIRS // 4).universe_size == 250_000
    sizes = {"S": MAX_PAIRS // 2, "T": MAX_PAIRS // 2 + 1}
    with pytest.raises(ModelValidationError, match="1000001 .* over the cap"):
        Model((PredicateInfo("E"),), ("S", "T"), sizes, {})


def test_gen_classical_checks_the_pair_cap_before_any_draw(capsys, monkeypatch):
    """States times universe over the cap is refused before the generator
    draws an extension: a universe of 10**8 would not fit in memory.  At
    the cap, the spy sees the first draw."""

    class Drew(Exception):
        pass

    class Spy(random.Random):
        def random(self):
            raise Drew

    monkeypatch.setattr(generate, "random", SimpleNamespace(Random=Spy))
    code, out, err = run(capsys, "gen", "--states", "2", "--universe", str(10**8))
    expected = f"error: ModelValidationError: {2 * 10**8} (state, object) pairs, over the cap {MAX_PAIRS}\n"
    assert (code, out, err) == (1, "", expected)
    with pytest.raises(Drew):
        generate.random_classical_model(0, 2, 1, MAX_PAIRS // 2)


def test_json_nested_past_the_recursion_limit_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, "check", "--model", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: ModelValidationError:") and "is not valid JSON" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("command", ["check", "lattice"])
@pytest.mark.parametrize("path", ["specs/worked_qm.json", "tests/data/gen_qm_seed11.json"])
def test_reports_need_no_numpy(command, path):
    # None in sys.modules makes every later `import numpy` raise ImportError
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from qlogic.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, command, "--qm-spec", path],
        capture_output=True,
        cwd=REPO,  # the check report echoes the input path as given
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
    )
    assert proc.returncode == 0, proc.stderr.decode()
    stem = path.rsplit("/", 1)[1][: -len(".json")]
    assert proc.stdout == (DATA_DIR / "golden" / f"{stem}.{command}.text").read_bytes()
