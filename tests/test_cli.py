from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from qlogic.cli import main
from qlogic.models import SignatureSpace

from conftest import DATA_DIR, REPO, SPEC_DIR

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
    code, _, err = run(capsys, "lattice", "--qm-spec", WORKED, "--depth", "9")
    assert code == 1
    assert "DepthLimitExceeded" in err


@pytest.mark.parametrize("depth,message", [("-1", "usage error:"), ("9", "DepthLimitExceeded")])
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


def test_cap_applies_to_qm_spec(capsys):
    code, _, err = run(capsys, "check", "--qm-spec", WORKED, "--cap", "2")
    assert code == 2
    assert "closure overflow" in err


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


def test_check_builds_as_many_signature_spaces_at_any_depth(capsys, monkeypatch):
    built = []
    init = SignatureSpace.__init__

    def counting_init(self, m):
        built.append(m)
        init(self, m)

    monkeypatch.setattr(SignatureSpace, "__init__", counting_init)
    counts = []
    for depth in ("1", "3"):
        built.clear()
        code, _, _ = run(capsys, "check", "--qm-spec", str(DATA_DIR / "gen_qm_seed11.json"),
                         "--depth", depth)
        assert code == 0
        counts.append(len(built))
    assert counts[0] == counts[1] > 0


def test_start_up_and_parse_leave_numpy_unimported():
    # only lattice.find_distributivity_failure needs numpy, and importing
    # it is most of the start-up time
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
