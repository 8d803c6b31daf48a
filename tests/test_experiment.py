import math
import tracemalloc

import numpy as np
import pytest

import satsearch as ss
from satsearch.cli import _json_text
from satsearch.experiment import _read_solution, curve_csv

from oracles import all_violated, fold_classes, from_table, grover_closed_form, grover_step, lifted_marginal
from oracles import scalar_curve, scalar_read_out


def traced_peak(call):
    """Peak bytes that tracemalloc sees Python allocate while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def planted_table(n, m, seed, threads=1):
    """Violation table of the planted 3SAT instance (n, m, seed)."""
    return ss.build_unsat_table(ss.generate_planted_3sat(n, m, seed), threads=threads)


def dimacs_table(text):
    return ss.build_unsat_table(ss.parse_dimacs(text))


def config(**options):
    return ss.RunConfig(formula_path="inst.cnf", **options)


# Entry points that take a violation table and require exactly one solution.
UNIQUE_SOLUTION_RUNS = [
    pytest.param(lambda table: ss.run_sweep(table, config()), id="run_sweep"),
    pytest.param(
        lambda table: ss.repeat_until_success_stats(table, 10, 0),
        id="repeat_until_success_stats",
    ),
]


def sin_squared_fit(curve, omega_guess):
    """Least-squares fit of p(q) = a * sin^2(omega * (q + 1/2)) over an omega grid."""
    q = curve[:, 0]
    p = curve[:, 2]
    best = None
    for omega in np.linspace(0.8 * omega_guess, 1.2 * omega_guess, 401):
        basis = np.sin(omega * (q + 0.5)) ** 2
        denom = float(basis @ basis)
        if denom == 0.0:
            continue
        a = float(p @ basis) / denom
        residual = float(np.sum((p - a * basis) ** 2))
        if best is None or residual < best[0]:
            best = (residual, a, omega)
    return best[1], best[2]


class TestRunConfig:
    def test_qmax_validated(self):
        with pytest.raises(ValueError):
            ss.RunConfig(formula_path="x.cnf", q_max=0)

    @pytest.mark.parametrize("path", ["inst.cnf", "./inst.cnf", "/data/instances/inst.cnf"])
    def test_echo_names_the_file(self, path):
        assert ss.RunConfig(formula_path=path).echo()["formula_path"] == "inst.cnf"


class TestSuccessCurve:
    def test_matches_grover_closed_form_in_all_violated_limit(self):
        n, solution = 8, 77
        profile = fold_classes(all_violated(n, solution))
        q_m = round(math.pi * math.sqrt(1 << n) / 4)
        curve = ss.success_curve(profile, 2 * q_m)
        closed = grover_closed_form(1 << n, 2 * q_m)
        assert np.max(np.abs(curve[:, 2] - closed)) < 1e-6
        assert curve[q_m, 2] >= 0.95

    def test_row_zero_is_uniform(self):
        profile = fold_classes(all_violated(4, 3))
        curve = ss.success_curve(profile, 4)
        assert curve[0, 1] == pytest.approx(1 / 16)
        assert curve[0, 2] == pytest.approx(1 / 16)

    def test_marginal_dominates_overlap(self, planted14):
        formula, table, summary = planted14
        curve = ss.success_curve(ss.PhaseProfile.from_histogram(table.m, table.histogram), 50)
        assert np.all(curve[:, 1] >= curve[:, 2] - 1e-15)
        assert np.all((curve[:, 1:] >= -1e-15) & (curve[:, 1:] <= 1 + 1e-15))

    def test_bit_exact_against_scalar_read_out(self, class_profile):
        """Recording the pairs and reading them in one pass changes no bit of any row."""
        assert ss.success_curve(class_profile, 3000).tobytes() == scalar_curve(class_profile, 3000).tobytes()

    def test_read_out_rounds_as_numpy_scalars(self):
        """On random amplitudes, where array ``np.abs`` and ``** 2`` differ in the last bit."""
        classes = ss.PhaseProfile.from_histogram(2, [3, 4, 1])
        rng = np.random.default_rng(5)
        pairs = rng.normal(size=(20000, 2)) + 1j * rng.normal(size=(20000, 2))
        marginal, overlap = _read_solution(classes, pairs)
        states = np.zeros((len(pairs), 2 * classes.size), dtype=np.complex128)
        states[:, :: classes.size] = pairs
        expected = np.array([scalar_read_out(classes, state) for state in states])
        assert np.column_stack([marginal, overlap]).tobytes() == expected.tobytes()


class TestRunSweep:
    def test_toy_report_shape(self, toy_table):
        report = ss.run_sweep(toy_table, config())
        assert report.spectral.q_m == 2
        assert report.curve.shape == (2 * 2 + 1, 3)  # q = 0..2*q_m
        assert report.q_peak_measured <= 4
        assert report.solution == 3

    @pytest.mark.parametrize("run", UNIQUE_SOLUTION_RUNS)
    def test_rejects_multiple_solutions(self, run):
        with pytest.raises(ss.InstanceError, match="found 3"):
            run(dimacs_table("p cnf 2 1\n1 2 0\n"))

    @pytest.mark.parametrize("run", UNIQUE_SOLUTION_RUNS)
    def test_rejects_unsatisfiable(self, run):
        with pytest.raises(ss.InstanceError, match="found 0"):
            run(dimacs_table("p cnf 1 2\n1 0\n-1 0\n"))

    def test_peak_matches_prediction_in_valid_regime(self):
        report = ss.run_sweep(planted_table(12, 16, 5), config())
        s = report.spectral
        assert s.validity_ratio < 0.1
        p_at_qm = report.curve[s.q_m, 2]
        assert abs(p_at_qm - s.predicted_success) <= 0.25 * s.predicted_success
        assert abs(report.q_peak_measured - s.q_m) <= max(2, 0.1 * s.q_m)

    def test_deterministic_json(self):
        a = ss.run_sweep(planted_table(9, 12, 2), config(q_max=40))
        b = ss.run_sweep(planted_table(9, 12, 2, threads=2), config(q_max=40))
        assert _json_text(a.to_json_dict()) == _json_text(b.to_json_dict())

    def test_hand_built_table_runs_as_enumerated(self):
        """A table that no enumeration built gives the bytes of the enumerated one."""
        formula = ss.generate_planted_block3sat(12)
        # four blocks of three variables; an assignment violates one clause in
        # each block it gets wrong, and each block has 7 wrong patterns
        histogram = [math.comb(4, u) * 7**u for u in range(5)] + [0] * (formula.m - 4)
        (r,) = ss.cnf.satisfying_assignments(formula)
        outputs = []
        for table in (ss.UnsatTable(formula, histogram, [r]), ss.build_unsat_table(formula)):
            report = ss.run_sweep(table, config(include_grover=True), snapshot=True)
            report.repeat_stats = ss.repeat_until_success_stats(table, 1000, 3)
            outputs.append((_json_text(report.to_json_dict()), _json_text(report.snapshot)))
        assert outputs[0] == outputs[1]

    def test_timings_excluded_by_default(self):
        report = ss.run_sweep(planted_table(8, 10, 1), config(q_max=10))
        assert "timings" not in report.to_json_dict()
        assert "timings" in report.to_json_dict(include_timings=True)
        assert report.timings["sweep_s"] >= 0

    def test_csv_format(self):
        report = ss.run_sweep(planted_table(8, 10, 1), config(q_max=10))
        lines = curve_csv("q,p_marginal,p_overlap", report.curve).strip().split("\n")
        assert lines[0] == "q,p_marginal,p_overlap"
        assert len(lines) == 12
        q, pm, po = lines[1].split(",")
        assert q == "0"
        assert float(pm) == pytest.approx(1 / 256)
        assert float(po) == pytest.approx(1 / 256)

    def test_sinusoid_fit_invariant(self, planted14):
        formula, table, summary = planted14
        assert summary.validity_ratio <= 0.05
        classes = ss.PhaseProfile.from_histogram(table.m, table.histogram)
        curve = ss.success_curve(classes, 2 * summary.q_m)
        a, omega = sin_squared_fit(curve, summary.lambda_pm)
        assert omega == pytest.approx(summary.lambda_pm, rel=0.10)
        assert a == pytest.approx(summary.predicted_success, rel=0.25)


class TestGroverBaseline:
    def test_n4_exact_single_step(self):
        curve = ss.run_grover_baseline(4, 1)
        assert curve[0, 1] == pytest.approx(0.25, abs=1e-15)
        assert curve[1, 1] == pytest.approx(1.0, abs=1e-12)

    def test_matches_closed_form(self):
        steps = ss.grover_optimal_steps(1 << 12)
        curve = ss.run_grover_baseline(1 << 12, steps)
        closed = grover_closed_form(1 << 12, steps)
        assert np.max(np.abs(curve[:, 1] - closed)) < 1e-10

    def test_optimal_steps_value(self):
        assert ss.grover_optimal_steps(1 << 16) == 201

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError, match="steps"):
            ss.run_grover_baseline(4, -1)

    @pytest.mark.parametrize("n, solutions", [(3, (0, 5, 7)), (8, (0, 77, 255)), (12, (1337, 4095))])
    def test_matches_vector_oracle(self, n, solutions):
        total = 1 << n
        steps = 2 * ss.grover_optimal_steps(total) + 3
        curve = ss.run_grover_baseline(total, steps)
        assert np.array_equal(curve[:, 0], np.arange(steps + 1))
        for solution in solutions:
            state = np.full(total, 1.0 / math.sqrt(total), dtype=np.complex128)
            expected = [abs(state[solution]) ** 2]
            for _ in range(steps):
                state = grover_step(state, solution)
                expected.append(abs(state[solution]) ** 2)
            assert np.max(np.abs(curve[:, 1] - np.asarray(expected))) <= 1e-12

    @pytest.mark.parametrize("n", [20, 22])
    def test_matches_closed_form_large_n(self, n):
        total = 1 << n
        steps = ss.grover_optimal_steps(total)
        curve = ss.run_grover_baseline(total, steps)
        assert np.max(np.abs(curve[:, 1] - grover_closed_form(total, steps))) <= 1e-12

    def test_memory_independent_of_n(self):
        steps = ss.grover_optimal_steps(1 << 16)
        assert traced_peak(lambda: ss.run_grover_baseline(1 << 16, steps)) < 64 * 1024


class TestCurveGuard:
    def test_rows_against_physical_memory(self, monkeypatch):
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 256}  # 1 MiB of physical memory
        monkeypatch.setattr(ss.cnf.os, "sysconf", pages.__getitem__)
        rows = (1 << 20) // ss.experiment.CURVE_ROW_BYTES
        classes = ss.PhaseProfile.from_histogram(2, [1, 2, 1])
        assert ss.success_curve(classes, rows - 1).shape == (rows, 3)
        assert ss.run_grover_baseline(4, rows - 1).shape == (rows, 2)
        with pytest.raises(ss.GuardError, match="physical memory"):
            ss.success_curve(classes, rows)
        with pytest.raises(ss.GuardError, match="physical memory"):
            ss.run_grover_baseline(4, rows)


class TestSampling:
    def test_high_success_when_b_is_one(self):
        profile = fold_classes(all_violated(10, 123))
        q_m = round(math.pi * math.sqrt(1 << 10) / 4)
        rate = ss.measurement_success_rate(profile, q_m, trials=2000, rng_seed=7)
        assert rate >= 0.9

    def test_mean_repeats_tracks_peak(self):
        # needs the validity regime: off it, spectator interference makes the
        # curve wiggle several tens of percent between adjacent q values
        table = planted_table(14, 16, 1)
        report = ss.run_sweep(table, config())
        assert report.spectral.validity_ratio <= 0.05
        stats = ss.repeat_until_success_stats(table, trials=10_000, rng_seed=11)
        assert list(stats) == ["trials", "rng_seed", "empirical_success_rate", "mean_repeats"]
        assert stats["empirical_success_rate"] > 0
        assert stats["mean_repeats"] == pytest.approx(1 / report.p_peak_measured, rel=0.30)

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            ss.repeat_until_success_stats(planted_table(8, 10, 0), trials=0, rng_seed=0)

    def test_trials_beyond_c_long(self):
        classes = ss.PhaseProfile.from_histogram(2, [1, 2, 1])
        with pytest.raises(ValueError, match=r"2\*\*63"):
            ss.measurement_success_rate(classes, 1, 1 << 63, 0)
        with pytest.raises(ValueError, match=r"2\*\*63"):
            ss.repeat_until_success_stats(planted_table(8, 10, 0), 1 << 63, 0)

    def test_negative_iterations_rejected(self):
        profile = fold_classes(all_violated(4, 3))
        with pytest.raises(ValueError, match="iterations"):
            ss.measurement_success_rate(profile, -7, 100, 0)
        with pytest.raises(ValueError, match="iterations"):
            ss.state_after(profile, -1)
        assert ss.state_after(profile, 0).tolist() == profile.uniform().tolist()

    def test_sampling_deterministic(self):
        profile = fold_classes(all_violated(8, 5))
        a = ss.measurement_success_rate(profile, 12, trials=500, rng_seed=3)
        b = ss.measurement_success_rate(profile, 12, trials=500, rng_seed=3)
        assert a == b

    def test_draws_from_lifted_marginal(self, planted14, monkeypatch):
        _, table, summary = planted14
        profile = from_table(table)
        drawn = []

        class Recorder:
            def binomial(self, trials, p):
                drawn.append(p)
                return trials // 2

        monkeypatch.setattr(np.random, "default_rng", lambda seed: Recorder())
        for iterations in (0, summary.q_m, 2 * summary.q_m + 1):
            assert ss.measurement_success_rate(fold_classes(profile), iterations, 10, 0) == 0.5
            expected = lifted_marginal(profile, table.unique_solution(), iterations)
            assert abs(drawn[-1] - expected) <= 1e-12

    def test_huge_trial_count(self):
        profile = all_violated(8, 5)
        rate = ss.measurement_success_rate(fold_classes(profile), 6, trials=10**12, rng_seed=0)
        # binomial standard deviation at 10**12 trials is below 5e-7
        assert abs(rate - lifted_marginal(profile, 5, 6)) < 1e-5

    def test_memory_independent_of_n(self):
        table = ss.build_unsat_table(ss.generate_planted_3sat(16, 80, seed=3))
        classes = ss.PhaseProfile.from_histogram(table.m, table.histogram)
        peak = traced_peak(lambda: ss.measurement_success_rate(classes, 50, 1000, 0))
        assert peak < 64 * 1024


class TestCostReport:
    def test_toy_scaling_figure(self, toy_table):
        report = ss.run_sweep(toy_table, config())
        cost = report.to_json_dict()["cost"]
        assert cost["iterations_per_run"] == 2
        assert cost["scaling_figure"] == pytest.approx(math.pi * 1.5**1.5 * 2 / 4, abs=1e-12)
        assert cost["expected_total_iterations"] >= cost["iterations_per_run"]

    def test_expected_total_uses_measured_peak(self):
        report = ss.run_sweep(planted_table(8, 10, 1), config(q_max=10))
        cost = report.to_json_dict()["cost"]
        assert cost["expected_total_iterations"] == report.spectral.q_m / report.p_peak_measured
