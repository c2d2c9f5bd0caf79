"""Every function and method the benchmark tracer wraps still exists.

``perfbench/tracer.py`` wraps ``qlogic`` functions and methods by name and
looks each one up with ``getattr``, so renaming or deleting one fails the
traced benchmark run.  This test reads the tracer's target tables (the
file is loaded, not changed) and resolves every name, so such a rename
fails here too, in the Tier-1 suite.
"""

from __future__ import annotations

import importlib

import pytest

from qlogic.gaussian import GaussianRational

from conftest import load_tracer

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
