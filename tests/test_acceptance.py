"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` for one PASS/FAIL line per
criterion.  Tolerances are fixed here and match the stated contracts; the
instance seeds are frozen so the suite is deterministic.
"""

import math

import numpy as np
import pytest

import satsearch as ss
from satsearch.cli import _json_text, main

from conftest import enumeration_walkers, random_3sat, random_state
from oracles import FullKernel, all_violated, apply_clause_phases_factored, dense_eigencheck, fold_classes
from oracles import grover_closed_form, grover_step, profile_for, two_branch, two_branch_lambda1


def _verdict(number: int, name: str) -> None:
    print(f"[acceptance] criterion {number} ({name}): PASS")


def _random_formula(rng: np.random.Generator) -> ss.CnfFormula:
    n = int(rng.integers(2, 9))
    m = int(rng.integers(1, 21))
    clauses = []
    for _ in range(m):
        width = int(rng.integers(1, min(3, n) + 1))
        positions = rng.choice(n, size=width, replace=False)
        negations = rng.integers(0, 2, size=width)
        clauses.append(ss.Clause(-(p + 1) if g else p + 1 for p, g in zip(positions.tolist(), negations.tolist())))
    return ss.CnfFormula(n, tuple(clauses))


def test_criterion_1_lambda1_identity():
    """lambda1 is exact zero and the explicit two-branch sum cancels to 1e-10."""
    checked = 0
    for seed in range(100):
        n = 8 + seed % 9          # cycles 8..16
        m = 8 + (5 * seed) % 41   # cycles within 8..48
        formula = ss.generate_planted_3sat(n, m, seed)
        assert ss.spectral_summary(ss.build_unsat_table(formula)).lambda1 == 0.0
        assert abs(two_branch_lambda1(formula)) < 1e-10
        checked += 1
    assert checked == 100
    _verdict(1, "lambda1 identity")


def test_criterion_2_clause_phase_equivalence():
    """Factored per-clause path equals the single diagonal pass, any clause order.

    The diagonal pass is the two-branch kernel's ``state * phases``.  Its
    branch 0 is ``profile.phases``, the multiply that ``search_step`` makes
    before its reflection.
    """
    rng = np.random.default_rng(2024)
    for formula_index in range(20):
        formula = _random_formula(rng)
        profile = profile_for(formula)
        phases = FullKernel(profile).phases
        assert phases[: profile.size].tobytes() == profile.phases.tobytes()
        dim = 2 * formula.assignment_count
        for state_index in range(100):
            state = random_state(dim, seed=1000 * formula_index + state_index)
            fast = state * phases
            factored = apply_clause_phases_factored(state, formula)
            assert np.max(np.abs(fast - factored)) < 1e-10
        # clause order is irrelevant for the factored product
        state = random_state(dim, seed=formula_index)
        permuted = ss.CnfFormula(
            formula.n,
            tuple(formula.clauses[k] for k in rng.permutation(formula.m)),
        )
        a = apply_clause_phases_factored(state, formula)
        b = apply_clause_phases_factored(state, permuted)
        assert np.max(np.abs(a - b)) < 1e-12
    _verdict(2, "clause-phase equivalence oracle")


@pytest.mark.slow
def test_criterion_3_eigenphase_prediction():
    """Dense principal eigenphase matches 2/(B*sqrt(N)) to 5% at n=10."""
    for seed in range(20):
        formula = ss.generate_planted_chain(10, extras=seed % 5, seed=100 + seed)
        table = ss.build_unsat_table(formula)
        summary = ss.spectral_summary(table)
        assert summary.validity_ratio <= 0.05
        report = dense_eigencheck(profile_for(formula))
        assert abs(ss.spectrum(table).lambda_plus - report.lambda_plus) <= 1e-12
        assert abs(abs(report.lambda_plus) - summary.lambda_pm) <= 0.05 * summary.lambda_pm
        assert abs(report.lambda_plus + report.lambda_minus) < 1e-6
        assert report.span_weight >= 0.95
    _verdict(3, "eigenphase prediction")


# frozen instance set: all verified unique with validity_ratio <= 0.05
PEAK_INSTANCES = [
    ("random", 14, 0),
    ("random", 14, 1),
    ("random", 14, 2),
    ("block", 14, 3),
    ("random", 16, 0),
    ("random", 16, 1),
    ("random", 16, 2),
    ("random", 18, 0),
    ("random", 18, 1),
    ("random", 18, 2),
]


def test_criterion_4_peak_success():
    """Measured overlap peak matches 1/B**2 (25%) and q_m (max(2, 0.1*q_m))."""
    assert len(PEAK_INSTANCES) == 10
    for family, n, seed in PEAK_INSTANCES:
        if family == "random":
            formula = ss.generate_planted_3sat(n, 16, seed)
        else:
            formula = ss.generate_planted_block3sat(n, seed)
        table = ss.build_unsat_table(formula)
        table.unique_solution()
        summary = ss.spectral_summary(table)
        assert summary.validity_ratio <= 0.05, (family, n, seed)
        classes = ss.PhaseProfile.from_table(table)
        curve = ss.success_curve(classes, 2 * summary.q_m)
        p_at_qm = curve[summary.q_m, 2]
        assert abs(p_at_qm - summary.predicted_success) <= 0.25 * summary.predicted_success, (
            family, n, seed, p_at_qm, summary.predicted_success,
        )
        q_peak = int(np.argmax(curve[:, 2]))
        assert abs(q_peak - summary.q_m) <= max(2, 0.1 * summary.q_m), (family, n, seed)
    _verdict(4, "peak success height and position")


def test_criterion_5_exact_grover_limit():
    """All-violated profile reproduces the Grover baseline pointwise to 1e-6."""
    n, solution = 12, 1337
    total = 1 << n
    profile = fold_classes(all_violated(n, solution))

    # B = 1, lambda2 = 0 for this violation profile
    histogram = np.zeros(2, dtype=np.int64)
    histogram[0], histogram[1] = 1, total - 1
    assert ss.lambda2(ss.UnsatTable(n, 1, histogram, [solution])) < 1e-12

    q_m = round(math.pi * math.sqrt(total) / 4.0)
    curve = ss.success_curve(profile, 2 * q_m)
    assert curve[q_m, 2] >= 0.95
    assert int(np.argmax(curve[:, 2])) == q_m

    # pointwise match against the simulated baseline on the bare register
    state = np.full(total, 1.0 / math.sqrt(total), dtype=np.complex128)
    baseline = [abs(state[solution]) ** 2]
    for _ in range(2 * q_m):
        state = grover_step(state, solution)
        baseline.append(abs(state[solution]) ** 2)
    assert np.max(np.abs(curve[:, 2] - np.asarray(baseline))) < 1e-6

    # the only CNF realization is n=1: a single unit clause, B exactly 1
    table = ss.build_unsat_table(ss.parse_dimacs("p cnf 1 1\n1 0\n"))
    assert ss.spectral_summary(table).B == 1.0
    _verdict(5, "exact Grover-like limit")


def test_criterion_6_grover_baseline_closed_form():
    """Baseline simulation agrees with sin^2((2k+1) theta/2) to 1e-10 up to n=16."""
    for n in (2, 4, 8, 12, 16):
        total = 1 << n
        steps = ss.grover_optimal_steps(total)
        curve = ss.run_grover_baseline(total, steps=steps)
        closed = grover_closed_form(total, steps)
        assert np.max(np.abs(curve[:, 1] - closed)) < 1e-10
    # N=4: one step succeeds exactly
    single = ss.run_grover_baseline(4, 1)
    assert abs(single[1, 1] - 1.0) < 1e-12
    assert ss.grover_optimal_steps(1 << 16) == 201
    _verdict(6, "Grover baseline closed form")


def test_criterion_7_threesat_b_scale():
    """B for random 3SAT at n=18, m=40 sits at the cot(pi/16) ~ 5 scale, in [3, 8]."""
    for seed in (0, 1, 2, 3, 4):
        formula = random_3sat(18, 40, seed)
        table = ss.build_unsat_table(formula)
        lam2 = ss.lambda2(table)
        b = math.sqrt(1.0 + lam2)
        assert 3.0 <= b <= 8.0, (seed, b)
    _verdict(7, "3SAT B scale")


def test_criterion_8_unitarity_and_determinism(tmp_path):
    """Norm drift <= 1e-10 over 1e4 iterations; byte-identical reports across threads.

    The drift is checked on the two-branch kernel and on ``search_step``'s
    one-branch state lifted to (a, conj a), both per assignment.
    """
    formula = ss.generate_planted_3sat(8, 12, seed=1)
    profile = profile_for(formula)
    kernel = FullKernel(profile)
    full, state = kernel.uniform(), profile.uniform()
    for _ in range(10_000):
        full, state = kernel.step(full), ss.search_step(state, profile)
    assert abs(np.linalg.norm(full) - 1.0) <= 1e-10
    assert abs(np.linalg.norm(two_branch(state)) - 1.0) <= 1e-10

    # 4-assignment blocks, 256 of them at n = 10, so that four workers each count every fourth
    inst = tmp_path / "inst.cnf"
    assert main(["gen", "-n", "10", "-m", "12", "--seed", "3", "-o", str(inst)]) == 0
    formula, config = ss.read_dimacs(inst), ss.RunConfig(formula_path=str(inst), q_max=80)
    with enumeration_walkers(4) as shares:
        a = ss.run_sweep(ss.build_unsat_table(formula, threads=1), config)
        b = ss.run_sweep(ss.build_unsat_table(formula, threads=4), config)
    assert len(shares) == 1 + 4
    assert "".join(_json_text(a.to_json_dict())) == "".join(_json_text(b.to_json_dict()))

    # same through the CLI, comparing emitted bytes, with as many walkers as CPUs
    # where numpy's BLAS is OpenBLAS and one otherwise
    outputs = []
    for cpus in (1, 4):
        outputs.append(tmp_path / f"r{cpus}.json")
        with enumeration_walkers(cpus) as shares:
            assert main(["run", "-f", str(inst), "--qmax", "80", "-o", str(outputs[-1])]) == 0
        assert len(shares) == (cpus if ss.cnf._openblas() else 1)
    assert outputs[0].read_bytes() == outputs[1].read_bytes()
    _verdict(8, "unitarity and determinism")
