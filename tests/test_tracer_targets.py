"""Every function and method the benchmark tracer wraps still exists.

``perfbench/tracer.py`` wraps ``qlogic`` functions and methods by name and
looks each one up with ``getattr``, so renaming or deleting one fails the
traced benchmark run.  This test reads the tracer's target tables (the
file is loaded, not changed) and resolves every name, so such a rename
fails here too, in the Tier-1 suite.  The tracer rebinds a wrapped
function on every module that holds it, so ``check`` must also call each
one through its global name on ``cli``, read when it runs.
"""

from __future__ import annotations

import importlib

import pytest

from qlogic import cli
from qlogic.gaussian import GaussianRational

from conftest import DATA_DIR, REPO, load_tracer

tracer = load_tracer()


@pytest.mark.parametrize("module,attr", [(m, a) for m, a, _ in tracer.FUNCTIONS])
def test_traced_function_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"qlogic.{module}"), attr))


@pytest.mark.parametrize("module,cls,attr", [(m, c, a) for m, c, a, _ in tracer.METHODS])
def test_traced_method_resolves(module, cls, attr):
    # the tracer reads the method from the class's own namespace
    assert callable(vars(getattr(importlib.import_module(f"qlogic.{module}"), cls))[attr])


@pytest.mark.parametrize("attr", tracer.GAUSSIAN_METHODS)
def test_counted_gaussian_method_resolves(attr):
    # the tracer counts calls of these, read from the class's own namespace
    assert callable(vars(GaussianRational)[attr])


# The wrapped functions that check calls, each once on a Hilbert spec; on a
# plain model it calls only the first.
CHECK_CALLS = (
    "check_connective_relations", "build_model", "orthomodularity_witness",
    "find_distributivity_failure", "ortho_involution_violations", "demorgan_violations",
    "check_qmt", "check_quantum_equivalences", "check_q_trichotomy", "lt_quotient_check",
)


@pytest.mark.parametrize(
    "flag,path,called",
    [
        ("--qm-spec", "specs/worked_qm.json", CHECK_CALLS),
        ("--model", "specs/cm_demo.json", CHECK_CALLS[:1]),
    ],
    ids=["qm-spec", "model"],
)
def test_check_looks_up_each_wrapped_function_on_cli_when_it_runs(
    flag, path, called, capsys, monkeypatch
):
    """A counting pass-through set on ``cli`` in place of every wrapped
    function it binds (``main`` aside) sees each call check makes: a
    reference taken at import would bypass it, as it would the tracer."""
    bound = [
        attr
        for module, attr, _ in tracer.FUNCTIONS
        if attr != "main"
        and vars(cli).get(attr) is getattr(importlib.import_module(f"qlogic.{module}"), attr)
    ]
    assert set(CHECK_CALLS) <= set(bound)
    counts = dict.fromkeys(bound, 0)

    def counting(attr, fn):
        def counted(*args, **kwargs):
            counts[attr] += 1
            return fn(*args, **kwargs)

        return counted

    for attr in bound:
        monkeypatch.setattr(cli, attr, counting(attr, getattr(cli, attr)))
    monkeypatch.chdir(REPO)  # the report echoes the input path as given
    assert cli.main(["check", flag, path]) == 0
    golden = DATA_DIR / "golden" / f"{path.rsplit('/', 1)[1][:-5]}.check.text"
    assert capsys.readouterr().out.encode() == golden.read_bytes()
    assert {attr: n for attr, n in counts.items() if n} == dict.fromkeys(called, 1)
