import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import satsearch as ss

from conftest import TOY_DIMACS, formulas
from oracles import all_violated, dense_eigencheck, iterate_matrix, profile_for, violation_counts


def direct_lambda2(formula):
    """Independent oracle: sum cot^2 over every non-solution assignment."""
    total = 0.0
    for u in violation_counts(formula).tolist():
        if u == 0:
            continue
        half = math.pi * u / (2 * formula.m)
        total += (math.cos(half) / math.sin(half)) ** 2
    return total / formula.assignment_count


class TestLambda2:
    def test_toy_hand_value(self, toy_table):
        # (1/4) * (2*cot^2(pi/4) + 1*cot^2(pi/2)) = 0.5
        assert ss.lambda2_from_histogram(toy_table.histogram, 2) == pytest.approx(0.5, abs=1e-12)

    def test_matches_direct_sum_oracle(self):
        formula = ss.generate_planted_3sat(14, 40, seed=6)
        table = ss.build_unsat_table(formula)
        histogram_value = ss.lambda2_from_histogram(table.histogram, table.m)
        assert histogram_value == pytest.approx(direct_lambda2(formula), abs=1e-10)

    def test_defined_for_multi_solution_histograms(self):
        table = ss.build_unsat_table(ss.parse_dimacs("p cnf 2 1\n1 2 0\n"))
        assert table.histogram[0] == 3
        assert ss.lambda2_from_histogram(table.histogram, table.m) == pytest.approx(0.0, abs=1e-30)

    def test_histogram_width_checked(self):
        with pytest.raises(ValueError, match="bins"):
            ss.lambda2_from_histogram([1, 2, 1], 3)

    @pytest.mark.parametrize(
        "histogram, message",
        [([0, 0, 0], "empty search domain"), ([1, -1, 0], "empty search domain"), ([2, -1, 0], ">= 0")],
        ids=["empty", "sums-to-zero", "negative"],
    )
    def test_histogram_bins_checked(self, histogram, message):
        with pytest.raises(ValueError, match=message):
            ss.lambda2_from_histogram(histogram, 2)

    def test_all_max_violations_vanish(self):
        # every non-solution violates all clauses -> cot^2(pi/2) terms only
        hist = np.zeros(5, dtype=np.int64)
        hist[0], hist[4] = 1, 63
        assert ss.lambda2_from_histogram(hist, 4) < 1e-30


class TestClassPhases:
    def test_values(self):
        phases = ss.spectral.class_phases(4, np.array([0, 1, 2, 4]))
        assert phases.dtype == np.float64
        assert phases.tolist() == [0.0, np.pi / 4, np.pi / 2, np.pi]


class TestCotangentSum:
    """The summary's p = 1 and p = 2 cotangent moments, lambda1 and lambda2."""

    def test_p1_exactly_zero(self, toy_table):
        assert ss.spectral_summary(toy_table).lambda1 == 0.0

    def test_p2_delegates_to_histogram(self, toy_table):
        lam2 = ss.lambda2_from_histogram(toy_table.histogram, 2)
        assert ss.spectral_summary(toy_table).lambda2 == lam2

    def test_requires_unique_solution(self):
        table = ss.build_unsat_table(ss.parse_dimacs("p cnf 2 1\n1 2 0\n"))
        with pytest.raises(ss.InstanceError):
            ss.spectral_summary(table)


class TestSpectralSummary:
    def test_toy_values(self, toy_table):
        s = ss.spectral_summary(toy_table)
        assert s.lambda1 == 0.0
        assert s.lambda2 == pytest.approx(0.5, abs=1e-12)
        assert s.B == pytest.approx(math.sqrt(1.5), abs=1e-12)
        assert s.lambda_pm == pytest.approx(2 / (math.sqrt(1.5) * 2), abs=1e-12)
        assert s.q_m == 2
        assert s.predicted_success == pytest.approx(2 / 3, abs=1e-12)
        assert s.alpha == pytest.approx(0.5)
        assert s.validity_ratio == pytest.approx(s.lambda_pm / (math.pi / 2), abs=1e-12)
        assert s.validity_warning  # N=4, m=2 is far outside N >> m**2

    def test_b_equals_one_for_single_unit_clause(self):
        table = ss.build_unsat_table(ss.parse_dimacs("p cnf 1 1\n1 0\n"))
        s = ss.spectral_summary(table)
        assert s.lambda2 < 1e-30
        assert s.B == 1.0

    def test_b_at_least_one(self):
        for seed in range(4):
            table = ss.build_unsat_table(ss.generate_planted_3sat(9, 14, seed=seed))
            assert ss.spectral_summary(table).B >= 1.0

    def test_no_warning_in_valid_regime(self):
        table = ss.build_unsat_table(ss.generate_planted_chain(12, seed=0))
        s = ss.spectral_summary(table)
        assert s.validity_ratio < 0.05
        assert not s.validity_warning

    def test_json_roundtrip_fields(self, toy_table):
        payload = ss.spectral_summary(toy_table).to_json_dict(histogram=toy_table.histogram)
        assert payload["histogram"] == [1, 2, 1]
        assert payload["q_m"] == 2
        assert set(payload) >= {"lambda1", "lambda2", "B", "lambda_pm", "predicted_success"}


class TestMonotonicity:
    def test_adding_solution_satisfied_clause(self):
        formula = ss.generate_planted_3sat(8, 10, seed=1)
        table = ss.build_unsat_table(formula)
        r = table.unique_solution()
        # append a clause the solution satisfies; no count may decrease
        extra = ss.Clause([(1 if (r >> 0) & 1 else -1), 2, 3])
        grown = ss.CnfFormula(formula.n, formula.clauses + (extra,))
        grown_counts = violation_counts(grown)
        assert grown_counts[r] == 0
        assert np.all(grown_counts >= violation_counts(formula))


def circle_points(report):
    """Every eigenvalue on the unit circle, repeated by multiplicity, in phase order.

    A phase within 1e-9 of -pi is moved to +pi first, so the eigenvalue -1
    sorts to one end whichever sign its phase came with.
    """
    phases = np.repeat(report.eigenphases, report.multiplicities)
    phases = np.sort(np.where(phases < -np.pi + 1e-9, phases + 2 * np.pi, phases))
    return np.exp(1j * phases)


@st.composite
def unique_solution_formulas(draw):
    """A satisfiable drawn formula, plus unit clauses toward its first solution until it is unique."""
    formula = draw(formulas(max_n=6))
    solutions = ss.build_unsat_table(formula).solutions
    assume(solutions)
    for var in range(1, formula.n + 1):
        if len(solutions) == 1:
            break
        pin = ss.Clause((var if (solutions[0] >> (var - 1)) & 1 else -var,))
        formula = ss.CnfFormula(formula.n, formula.clauses + (pin,))
        solutions = ss.build_unsat_table(formula).solutions
    return formula


class TestDenseEigencheck:
    """``spectrum``'s secular roots against the dense eigensolver of ``tests/oracles.py``, and that oracle."""

    def test_chain_instance_matches_prediction(self):
        formula = ss.generate_planted_chain(8, extras=2, seed=3)
        table = ss.build_unsat_table(formula)
        summary = ss.spectral_summary(table)
        report = dense_eigencheck(profile_for(formula))
        assert abs(report.lambda_plus) == pytest.approx(summary.lambda_pm, rel=0.05)
        assert report.lambda_plus + report.lambda_minus == pytest.approx(0.0, abs=1e-6)
        assert report.span_weight >= 0.95

    def test_eigenphase_count(self):
        formula = ss.generate_planted_chain(6, seed=2)
        for report in (dense_eigencheck(profile_for(formula)), ss.spectrum(ss.build_unsat_table(formula))):
            assert int(report.multiplicities.sum()) == 2 * formula.assignment_count
            assert np.all(report.multiplicities >= 1)
            assert np.all(np.diff(report.eigenphases) > 0)
            assert -np.pi < report.eigenphases[0] and report.eigenphases[-1] <= np.pi

    @given(unique_solution_formulas())
    @settings(max_examples=60, deadline=None)
    def test_class_profile_matches_oracle(self, formula):
        oracle = dense_eigencheck(profile_for(formula))
        classes = ss.spectrum(ss.build_unsat_table(formula))
        assert abs(classes.lambda_plus - oracle.lambda_plus) <= 1e-12
        assert abs(classes.lambda_minus - oracle.lambda_minus) <= 1e-12
        assert abs(classes.span_weight - oracle.span_weight) <= 1e-10
        for report in (oracle, classes):
            assert int(report.multiplicities.sum()) == 2 * formula.assignment_count
        assert np.max(np.abs(circle_points(classes) - circle_points(oracle))) <= 1e-12

    def test_minus_one_is_one_row_at_pi(self):
        # every non-solution violates the one clause: 2N - 3 = 13 eigenvalues
        # -1, 2N - 4 of them spectators of the class profile at +pi and -pi
        oracle = dense_eigencheck(all_violated(3, 5))
        classes = ss.spectrum(ss.UnsatTable(3, 1, np.array([1, 7]), [5]))
        assert (classes.eigenphases[-1], classes.multiplicities[-1]) == (np.pi, 13)
        assert np.all(np.abs(classes.eigenphases[:-1]) < 3.0)
        assert np.max(np.abs(circle_points(classes) - circle_points(oracle))) <= 1e-12

    @pytest.mark.parametrize(
        "formula",
        [
            ss.parse_dimacs(TOY_DIMACS),
            ss.generate_planted_3sat(8, 12, seed=1),  # the instance of test_cli.TestOutputBytes
            ss.generate_planted_chain(6, extras=2, seed=3),
        ],
        ids=["toy", "planted8", "chain6"],
    )
    def test_zero_phase_row_is_exact(self, formula):
        # the spectator (|0,r> - |1,r>)/sqrt(2) is the one row at 0, and it is +0.0
        report = ss.spectrum(ss.build_unsat_table(formula))
        near_zero = [row for row in report.to_json_dict()["eigenphases"] if abs(row[0]) < 1e-6]
        assert near_zero == [[0.0, 1]]
        assert math.copysign(1.0, near_zero[0][0]) == 1.0  # not -0.0

    def test_dimension_guard(self):
        formula = ss.generate_planted_chain(11, seed=0)
        with pytest.raises(ss.GuardError, match="4096"):
            dense_eigencheck(profile_for(formula))

    def test_requires_unique_solution(self):
        formula = ss.parse_dimacs("p cnf 2 1\n1 2 0\n")
        with pytest.raises(ss.InstanceError):
            ss.spectrum(ss.build_unsat_table(formula))
        with pytest.raises(ss.InstanceError):
            dense_eigencheck(profile_for(formula))

    def test_histogram_width_checked(self):
        # a class u = 3 > m would get the phase 3*pi/2; the summary rejects the same table
        table = ss.UnsatTable(2, 2, np.array([1, 1, 1, 1]), [0])
        for read in (ss.spectrum, ss.spectral_summary):
            with pytest.raises(ValueError, match="m\\+1 = 3 bins, got 4"):
                read(table)


def secular_root_50_digits(table):
    """lambda_+ = 2*asin(sqrt(t)) of the root t in (0, sigma_1), bisected 200 times at 50 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        u = np.flatnonzero(table.histogram[1:]) + 1
        sigma = [mpmath.sin(mpmath.pi * k / (2 * table.m)) ** 2 for k in u.tolist()]
        counts = table.histogram[u].tolist()
        lo, hi = mpmath.mpf(0), sigma[0]
        for _ in range(200):
            t = (lo + hi) / 2
            if sum(c * t / (s - t) for c, s in zip(counts, sigma)) < int(table.histogram[0]):
                lo = t
            else:
                hi = t
        return 2 * mpmath.asin(mpmath.sqrt((lo + hi) / 2))


class TestSpectrum:
    """The secular solve alone: its accuracy, and its memory where no dense matrix would fit."""

    @pytest.mark.parametrize(
        "formula",
        [ss.generate_planted_3sat(8, 12, seed=1), ss.generate_planted_3sat(14, 40, seed=6)],
        ids=["planted8", "planted14"],
    )
    def test_principal_root_against_50_digits(self, formula):
        table = ss.build_unsat_table(formula)
        exact = secular_root_50_digits(table)
        assert float(abs(ss.spectrum(table).lambda_plus - exact) / exact) <= 1e-15

    def test_2048_classes_in_bounded_memory(self):
        # counter_formula(11)'s table: every assignment its own class, K = 2048
        table = ss.UnsatTable(11, 2047, np.ones(2048, dtype=np.int64), [0])
        tracemalloc.start()
        try:
            ss.spectrum(table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 << 20


class TestIterateMatrix:
    def test_unitary(self, toy_formula):
        matrix = iterate_matrix(profile_for(toy_formula))
        identity = matrix.conj().T @ matrix
        assert np.max(np.abs(identity - np.eye(8))) < 1e-12
