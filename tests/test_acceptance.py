"""End-to-end acceptance suite.

Each criterion prints one PASS/FAIL line (run pytest with -s or -rA to see
them) and enforces its stated time budget.  The corpora are seeded and
frozen: 20 classical models of up to 3 states, 3 predicates and universe
4, and 20 Hilbert specs alternating between dimension 2 and 3 whose
closures stay within 64 elements and whose states separate the closure.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

from qlogic.bridge import (
    QTruth,
    QuantumModel,
    _reachable_elements,
    build_model,
    check_q_trichotomy,
    check_qmt,
    check_quantum_equivalences,
    q_truth,
)
from qlogic.formulas import Pred
from qlogic.gaussian import GaussianRational
from qlogic.generate import random_classical_model, random_qm_spec
from qlogic.hilbert import Subspace, born, leq, ortho
from qlogic.lattice import (
    demorgan_violations,
    find_distributivity_failure,
    is_orthomodular,
    ortho_involution_violations,
)
from qlogic.models import SignatureSpace, boolean_law_violations, check_cms, check_cmt
from qlogic.propositions import check_connective_relations

import suite_reference as reference
from conftest import closed_cm_model, suite_line, with_extension

N_SEEDS = 20


def _report(number: int, title: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} [{title}]: {verdict}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {number} failed: {detail}"


@pytest.fixture(scope="module")
def classical_corpus():
    corpus = []
    for seed in range(N_SEEDS):
        corpus.append(
            random_classical_model(
                seed,
                n_states=1 + seed % 3,
                n_predicates=1 + seed % 3,
                universe=2 + seed % 3,
            )
        )
    return corpus


@pytest.fixture(scope="module")
def qm_corpus() -> list[QuantumModel]:
    corpus = []
    for seed in range(N_SEEDS):
        spec, _ = random_qm_spec(
            seed, dim=2 + seed % 2, n_properties=2 + seed % 2, closure_cap=64
        )
        corpus.append(build_model(spec))
    return corpus


def _pairs(model) -> frozenset:
    """The model's (state, object) pairs: the top of its signature algebra."""
    return frozenset((s, u) for s in model.states for u in range(model.universe_sizes[s]))


def test_criterion_1_boolean_classical_quotient(classical_corpus):
    started = time.perf_counter()
    violations = []
    carriers = [(_pairs(model), reference.quotient_elements(model)) for model in classical_corpus]
    for i, (omega, elements) in enumerate(carriers):
        violations += [f"model {i}: {v}" for v in boolean_law_violations(omega, elements)]
    # negative control: drop one proper element from the first carrier of at
    # least 4; its complement is left without one
    i, (omega, elements) = next((i, c) for i, c in enumerate(carriers) if len(c[1]) >= 4)
    dropped = min(elements - {frozenset(), omega}, key=sorted)
    position = {p: k for k, p in enumerate(sorted(omega))}
    kept = sum(1 << position[p] for p in omega - dropped)
    caught = f"complement of element {kept:#x} not in carrier" in boolean_law_violations(
        omega, elements - {dropped}
    )
    elapsed = time.perf_counter() - started
    _report(
        1,
        "Boolean classical quotient",
        not violations and caught and elapsed < 10.0,
        f"{len(classical_corpus)} models, {len(violations)} violations, "
        f"control on model {i} caught={caught}, {elapsed:.2f}s",
    )


def test_criterion_2_connective_relations(classical_corpus):
    started = time.perf_counter()
    violations = []
    both_strict = 0
    for i, model in enumerate(classical_corpus):
        negation, meet, join = check_connective_relations(SignatureSpace(model))
        for entry, want in zip((negation, meet, join), reference.connective_relations(model)):
            violations += [f"model {i}: {w}" for w in entry.witnesses + want.witnesses]
            if (entry.checked, entry.info["strict"]) != (want.checked, want.strict):
                violations.append(f"model {i}: {entry.suite} differs from the brute force")
        if negation.info["strict"] > 0 and join.info["strict"] > 0:
            both_strict += 1
    elapsed = time.perf_counter() - started
    _report(
        2,
        "connective/set-operation relations",
        not violations and both_strict >= 1 and elapsed < 30.0,
        f"{len(violations)} violations, {both_strict} models strict in both, {elapsed:.2f}s",
    )


def test_criterion_3_cm_collapse():
    started = time.perf_counter()
    problems = []
    models = [
        closed_cm_model(("S1",), universe=2),
        closed_cm_model(("S1", "S2"), universe=3),
        closed_cm_model(("S1", "S2", "S3"), universe=4),
    ]
    for i, model in enumerate(models):
        if not check_cms(model):
            problems.append(f"model {i}: full-or-empty profile fails")
        space = SignatureSpace(model)
        if not check_cmt(space).info["holds"]:
            problems.append(f"model {i}: testability fails")
        classes = space.closed_classes(model.predicate_names(), 4096)
        blocks = space.state_masks.values()
        if any(mask & block not in (0, block) for mask in classes for block in blocks):
            problems.append(f"model {i}: truth differs from certain truth")
        props = frozenset(space.proposition(mask) for mask in classes)
        laws = boolean_law_violations(frozenset(model.states), props)
        problems += [f"model {i}: {v}" for v in laws]
    elapsed = time.perf_counter() - started
    _report(
        3,
        "classical-mechanics collapse",
        not problems and elapsed < 10.0,
        f"{len(models)} models, {len(problems)} problems, {elapsed:.2f}s",
    )


def test_criterion_4_orthomodular_nondistributive(worked_qm, qm_corpus):
    started = time.perf_counter()
    problems = []
    dim3 = [qm for qm in qm_corpus if qm.spec.dim == 3]
    if len(dim3) < 5:
        problems.append(f"only {len(dim3)} three-dimensional specs")
    for qm in [worked_qm] + qm_corpus:
        lat = qm.lattice
        if len(lat) > 64 and qm is not worked_qm:
            problems.append("closure above 64 elements")
        if not is_orthomodular(lat):
            problems.append("orthomodularity fails")
        gens = [sub for _, sub in qm.spec.properties]
        awkward_pair = any(
            a != b and not leq(a, b) and not leq(b, a) and not leq(a, ortho(b))
            for a in gens
            for b in gens
        )
        witness = find_distributivity_failure(lat)
        if awkward_pair and witness is None:
            problems.append("non-orthogonal, non-nested generators without witness")
    elapsed = time.perf_counter() - started
    _report(
        4,
        "orthomodularity and nondistributivity",
        not problems and elapsed < 60.0,
        f"{1 + len(qm_corpus)} lattices ({len(dim3)} in dim 3), "
        f"{len(problems)} problems, {elapsed:.2f}s",
    )


def test_criterion_5_qmt_and_mutation_detection(qm_corpus):
    started = time.perf_counter()
    problems = []
    detected = 0
    injected = 0
    for i, qm in enumerate(qm_corpus):
        if not check_qmt(qm, SignatureSpace(qm.model)).ok:
            problems.append(f"model {i}: construction postconditions fail")
        rng = random.Random(f"mutate:{i}")
        for _ in range(3):
            state = rng.choice(qm.model.states)
            pred = rng.choice(qm.predicate_names)
            original = qm.model.extensions[(state, pred)]
            corrupted = frozenset({0}) if original != frozenset({0}) else frozenset({1})
            edited = with_extension(qm, state, pred, corrupted)
            injected += 1
            if not check_qmt(edited, SignatureSpace(edited.model)).ok:
                detected += 1
    elapsed = time.perf_counter() - started
    _report(
        5,
        "theta agreement and mutation detection",
        not problems and detected == injected,
        f"{len(qm_corpus)} models, {detected}/{injected} mutations detected, {elapsed:.2f}s",
    )


def test_criterion_6_equivalence_coincidence(qm_corpus):
    started = time.perf_counter()
    violations = []
    for i, qm in enumerate(qm_corpus):
        report = suite_line(
            check_quantum_equivalences(qm, SignatureSpace(qm.model), _reachable_elements(qm)),
            "equivalence-coincidence",
        )
        violations += [f"model {i}: {v}" for v in report.witnesses]
    elapsed = time.perf_counter() - started
    _report(
        6,
        "logical/physical equivalence coincidence",
        not violations,
        f"{len(qm_corpus)} models, {len(violations)} violations, {elapsed:.2f}s",
    )


def test_criterion_7_quantum_equivalences(worked_qm, qm_corpus):
    started = time.perf_counter()
    violations = []
    gap_witnesses = 0
    for i, qm in enumerate([worked_qm] + qm_corpus):
        report = check_quantum_equivalences(qm, SignatureSpace(qm.model), _reachable_elements(qm))
        for suite in ("quantum-demorgan", "quantum-implication", "conjunction-footnote"):
            entry = suite_line(report, suite)
            violations += [f"model {i}: {suite}: {w}" for w in entry.witnesses]
        gap_witnesses += suite_line(report, "conjunction-signature-gap").info["witnesses_found"]
    elapsed = time.perf_counter() - started
    detail = (
        f"{1 + len(qm_corpus)} models, {len(violations)} violations, "
        f"{gap_witnesses} signature-gap witnesses, {elapsed:.2f}s"
    )
    if gap_witnesses == 0:
        detail += " (no conjunction signature gap found in this corpus)"
    _report(7, "quantum connective equivalences", not violations and elapsed < 30.0, detail)


def test_criterion_8_q_truth_trichotomy(worked_qm, qm_corpus):
    started = time.perf_counter()
    violations = []
    for i, qm in enumerate([worked_qm] + qm_corpus):
        report = check_q_trichotomy(qm, SignatureSpace(qm.model), _reachable_elements(qm))
        violations += [f"model {i}: {v}" for v in report.witnesses]
    worked_ok = q_truth(worked_qm, Pred("Ez"), "Sx+") == QTruth.INDETERMINATE
    elapsed = time.perf_counter() - started
    _report(
        8,
        "three-valued verdicts and negation duality",
        not violations and worked_ok,
        f"{1 + len(qm_corpus)} models, {len(violations)} violations, {elapsed:.2f}s",
    )


def test_criterion_9_exact_arithmetic(worked_qm, qm_corpus):
    started = time.perf_counter()
    problems = []
    rng = random.Random("exactness")

    def fraction() -> Fraction:
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))

    def vector(dim: int):
        while True:
            vec = tuple(GaussianRational(fraction(), fraction()) for _ in range(dim))
            if any(not z.is_zero for z in vec):
                return vec

    checked = 0
    while checked < 1000:
        dim = rng.randint(2, 4)
        rank = rng.randint(1, dim - 1)
        sub = Subspace.span([vector(dim) for _ in range(rank)], dim)
        psi = vector(dim)
        total = born(psi, sub) + born(psi, ortho(sub))
        if total != 1:
            problems.append(f"complement probabilities sum to {total}")
        checked += 1
    for qm in [worked_qm] + qm_corpus:
        if ortho_involution_violations(qm.lattice):
            problems.append("orthocomplement is not an involution")
        if demorgan_violations(qm.lattice):
            problems.append("table duality fails")
    elapsed = time.perf_counter() - started
    _report(
        9,
        "exact rational arithmetic",
        not problems and elapsed < 30.0,
        f"{checked} projection pairs, {1 + len(qm_corpus)} lattices, {elapsed:.2f}s",
    )
