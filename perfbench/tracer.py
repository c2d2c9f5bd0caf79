"""Spans around the public functions of each qlogic module, recorded from
outside the program.

The modules import each other's functions by name (``lattice`` binds
``meet``/``join``/``ortho``, ``bridge`` and ``generate`` bind
``hilbert.leq`` as ``subspace_leq``, ``cli`` binds the suites), so a
wrapper is installed under every alias in every ``qlogic.*`` namespace,
and methods are patched on their class.  GaussianRational arithmetic runs
hundreds of thousands of times per op and gets a counter only.

A span is ``[name, start, end, parent, op]``; spans stay in memory and are
written out once, after the traced pass.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter

# (module, attribute, span name); a span name shared by several functions
# is a group whose total time counts only its outermost spans.
FUNCTIONS = (
    ("formulas", "parse", "formulas.parse"),
    ("hilbert", "ortho", "hilbert.ortho"),
    ("hilbert", "meet", "hilbert.meet"),
    ("hilbert", "join", "hilbert.join"),
    ("hilbert", "leq", "hilbert.leq"),
    ("hilbert", "born", "hilbert.born"),
    ("lattice", "close", "lattice.close"),
    ("lattice", "orthomodularity_witness", "lattice.sweeps"),
    ("lattice", "is_orthomodular", "lattice.sweeps"),
    ("lattice", "find_distributivity_failure", "lattice.sweeps"),
    ("lattice", "demorgan_violations", "lattice.sweeps"),
    ("lattice", "ortho_involution_violations", "lattice.sweeps"),
    ("models", "eval_open", "models.eval_open"),
    ("models", "boolean_law_violations", "models.boolean_law_violations"),
    ("propositions", "testable", "propositions.testable"),
    ("propositions", "check_connective_relations", "propositions.check_connective_relations"),
    ("bridge", "build_model", "bridge.build_model"),
    ("bridge", "check_qmt", "bridge.check_qmt"),
    ("bridge", "check_quantum_equivalences", "bridge.check_quantum_equivalences"),
    ("bridge", "check_q_trichotomy", "bridge.check_q_trichotomy"),
    ("bridge", "lt_quotient_check", "bridge.lt_quotient_check"),
    ("bridge", "reduce_qwff", "bridge.reduce_qwff"),
    ("bridge", "q_truth", "bridge.q_truth"),
    ("generate", "random_qm_spec", "generate.random_qm_spec"),
    ("cli", "main", "cli.main"),
)

# (module, class, method, span name); the dataclass constructor of
# Subspace canonicalises through __post_init__, which it looks up on the class.
METHODS = (
    ("hilbert", "Subspace", "__post_init__", "hilbert.Subspace"),
    ("models", "SignatureSpace", "__init__", "models.SignatureSpace"),
    ("models", "SignatureSpace", "reachable_classes", "models.classes"),
    ("models", "SignatureSpace", "closed_classes", "models.classes"),
)

GAUSSIAN_METHODS = (
    "__add__", "__sub__", "__mul__", "__truediv__", "__neg__", "inverse", "conjugate", "abs2",
)

CALLS = (
    "hilbert.Subspace", "hilbert.ortho", "hilbert.meet", "hilbert.join", "hilbert.leq",
    "hilbert.born", "lattice.close", "bridge.build_model", "propositions.testable",
    "models.SignatureSpace", "formulas.parse", "models.eval_open",
)
SELF_S = (
    "hilbert.Subspace", "hilbert.ortho", "hilbert.meet", "hilbert.join", "hilbert.leq",
    "hilbert.born", "lattice.close", "bridge.build_model", "models.SignatureSpace",
    "formulas.parse", "generate.random_qm_spec",
)
TOTAL_S = (
    "lattice.close", "lattice.sweeps", "bridge.build_model", "bridge.check_qmt",
    "bridge.check_quantum_equivalences", "bridge.check_q_trichotomy",
    "bridge.lt_quotient_check", "bridge.reduce_qwff", "bridge.q_truth",
    "propositions.testable", "models.eval_open", "models.classes",
    "models.boolean_law_violations", "propositions.check_connective_relations",
    "generate.random_qm_spec", "cli.main",
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {"gaussian.ops.calls": "calls/op"}
    units.update({f"{name}.calls": "calls/op" for name in CALLS})
    units.update({f"{name}.self_s": "s/op" for name in SELF_S})
    units.update({f"{name}.total_s": "s/op" for name in TOTAL_S})
    units["lattice.close.pairs_per_element"] = "pairs/element"
    units["generate.attempts_per_spec"] = "attempts/spec"
    units["trace.overhead"] = "ratio"
    return units


class Tracer:
    """Records spans for calls made while ``op`` is a non-negative op id."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self.gaussian_ops = 0
        self.close_pairs = 0  # hilbert.meet/join calls made under lattice.close
        self.close_elements = 0  # elements returned by lattice.close
        self._stack: list[int] = []
        self._open: Counter = Counter()  # span name -> spans of it now open
        self._outer: list[bool] = []  # per span: no span of its name encloses it

    def install(self) -> None:
        """Wrap every target under every alias it has in a qlogic module."""
        modules = [m for n, m in sys.modules.items() if n == "qlogic" or n.startswith("qlogic.")]
        for mod_name, attr, name in FUNCTIONS:
            original = getattr(sys.modules[f"qlogic.{mod_name}"], attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        for mod_name, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[f"qlogic.{mod_name}"], cls_name)
            setattr(cls, attr, self._wrap(name, vars(cls)[attr]))
        gaussian = sys.modules["qlogic.gaussian"].GaussianRational
        for attr in GAUSSIAN_METHODS:
            setattr(gaussian, attr, self._count(vars(gaussian)[attr]))

    def _count(self, fn):
        def counted(*args):
            self.gaussian_ops += 1
            return fn(*args)

        return counted

    def _wrap(self, name, fn):
        spans, stack, open_, outer = self.spans, self._stack, self._open, self._outer
        pair_op = name in ("hilbert.meet", "hilbert.join")
        is_close = name == "lattice.close"

        def traced(*args, **kwargs):
            if self.op < 0:
                return fn(*args, **kwargs)
            if pair_op and open_["lattice.close"]:
                self.close_pairs += 1
            idx = len(spans)
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            outer.append(not open_[name])
            stack.append(idx)
            open_[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                open_[name] -= 1
                stack.pop()
            if is_close:
                self.close_elements += len(result.elements)
            return result

        return traced

    def reduce(self, n_ops: int) -> dict[str, float]:
        """Per-op layer metrics over the spans recorded so far."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: Counter = Counter()
        self_s: Counter = Counter()
        total_s: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child_time[i]
            if self._outer[i]:
                total_s[name] += end - start
        out = {"gaussian.ops.calls": self.gaussian_ops / n_ops}
        out.update({f"{n}.calls": calls[n] / n_ops for n in CALLS})
        out.update({f"{n}.self_s": self_s[n] / n_ops for n in SELF_S})
        out.update({f"{n}.total_s": total_s[n] / n_ops for n in TOTAL_S})
        out["lattice.close.pairs_per_element"] = (
            self.close_pairs / self.close_elements if self.close_elements else 0.0
        )
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
