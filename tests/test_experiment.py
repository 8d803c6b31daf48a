import json
import math
import tracemalloc

import numpy as np
import pytest

import satsearch as ss
from satsearch.experiment import curve_csv


def traced_peak(call):
    """Peak bytes that tracemalloc sees Python allocate while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def lifted_marginal(profile, solution, iterations):
    """Data-register marginal of solution, read from the full 2N-amplitude state."""
    state = profile.lift(ss.state_after(profile, iterations))
    return ss.measure_distribution(state, solution)[0]


def planted_config(tmp_path, n, m, seed, **options):
    """RunConfig of the planted 3SAT instance (n, m, seed), written as DIMACS."""
    path = tmp_path / f"planted-{n}-{m}-{seed}.cnf"
    path.write_text(ss.serialize_dimacs(ss.generate_planted_3sat(n, m, seed)))
    return ss.RunConfig(formula_path=str(path), **options)


# Entry points that read an instance and require exactly one solution.
UNIQUE_SOLUTION_RUNS = [
    pytest.param(ss.run_sweep, id="run_sweep"),
    pytest.param(
        lambda config: ss.repeat_until_success_stats(config, 10, 0),
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
        profile = ss.PhaseProfile.all_violated(n, solution)
        q_m = round(math.pi * math.sqrt(1 << n) / 4)
        curve = ss.success_curve(profile, 2 * q_m)
        closed = ss.grover_closed_form(1 << n, 2 * q_m)
        assert np.max(np.abs(curve[:, 2] - closed)) < 1e-6
        assert curve[q_m, 2] >= 0.95

    def test_row_zero_is_uniform(self):
        profile = ss.PhaseProfile.all_violated(4, 3)
        curve = ss.success_curve(profile, 4)
        assert curve[0, 1] == pytest.approx(1 / 16)
        assert curve[0, 2] == pytest.approx(1 / 16)

    def test_marginal_dominates_overlap(self, planted14):
        formula, table, summary = planted14
        curve = ss.success_curve(ss.PhaseProfile.from_table(table), 50)
        assert np.all(curve[:, 1] >= curve[:, 2] - 1e-15)
        assert np.all((curve[:, 1:] >= -1e-15) & (curve[:, 1:] <= 1 + 1e-15))


class TestRunSweep:
    def test_toy_report_shape(self, tmp_path):
        path = tmp_path / "toy.cnf"
        path.write_text("p cnf 2 2\n1 0\n2 0\n")
        report = ss.run_sweep(ss.RunConfig(formula_path=str(path)))
        assert report.spectral.q_m == 2
        assert report.curve.shape == (2 * 2 + 1, 3)  # q = 0..2*q_m
        assert report.q_peak_measured <= 4
        assert report.solution == 3

    @pytest.mark.parametrize("run", UNIQUE_SOLUTION_RUNS)
    def test_rejects_multiple_solutions(self, tmp_path, run):
        path = tmp_path / "multi.cnf"
        path.write_text("p cnf 2 1\n1 2 0\n")
        with pytest.raises(ss.InstanceError, match="found 3"):
            run(ss.RunConfig(formula_path=str(path)))

    @pytest.mark.parametrize("run", UNIQUE_SOLUTION_RUNS)
    def test_rejects_unsatisfiable(self, tmp_path, run):
        path = tmp_path / "unsat.cnf"
        path.write_text("p cnf 1 2\n1 0\n-1 0\n")
        with pytest.raises(ss.InstanceError, match="found 0"):
            run(ss.RunConfig(formula_path=str(path)))

    def test_peak_matches_prediction_in_valid_regime(self, tmp_path):
        report = ss.run_sweep(planted_config(tmp_path, 12, 16, 5))
        s = report.spectral
        assert s.validity_ratio < 0.1
        p_at_qm = report.curve[s.q_m, 2]
        assert abs(p_at_qm - s.predicted_success) <= 0.25 * s.predicted_success
        assert abs(report.q_peak_measured - s.q_m) <= max(2, 0.1 * s.q_m)

    def test_deterministic_json(self, tmp_path):
        a = ss.run_sweep(planted_config(tmp_path, 9, 12, 2, q_max=40))
        b = ss.run_sweep(planted_config(tmp_path, 9, 12, 2, q_max=40, threads=2))
        assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())

    def test_timings_excluded_by_default(self, tmp_path):
        report = ss.run_sweep(planted_config(tmp_path, 8, 10, 1, q_max=10))
        assert "timings" not in report.to_json_dict()
        assert "timings" in report.to_json_dict(include_timings=True)
        assert report.timings["sweep_s"] >= 0

    def test_csv_format(self, tmp_path):
        report = ss.run_sweep(planted_config(tmp_path, 8, 10, 1, q_max=10))
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
        curve = ss.success_curve(ss.PhaseProfile.from_table(table), 2 * summary.q_m)
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
        closed = ss.grover_closed_form(1 << 12, steps)
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
                state = ss.grover_step(state, solution)
                expected.append(abs(state[solution]) ** 2)
            assert np.max(np.abs(curve[:, 1] - np.asarray(expected))) <= 1e-12

    @pytest.mark.parametrize("n", [20, 22])
    def test_matches_closed_form_large_n(self, n):
        total = 1 << n
        steps = ss.grover_optimal_steps(total)
        curve = ss.run_grover_baseline(total, steps)
        assert np.max(np.abs(curve[:, 1] - ss.grover_closed_form(total, steps))) <= 1e-12

    def test_memory_independent_of_n(self):
        steps = ss.grover_optimal_steps(1 << 16)
        assert traced_peak(lambda: ss.run_grover_baseline(1 << 16, steps)) < 64 * 1024


class TestSampling:
    def test_high_success_when_b_is_one(self):
        profile = ss.PhaseProfile.all_violated(10, 123)
        q_m = round(math.pi * math.sqrt(1 << 10) / 4)
        rate = ss.measurement_success_rate(profile, q_m, trials=2000, rng_seed=7)
        assert rate >= 0.9

    def test_mean_repeats_tracks_peak(self, tmp_path):
        # needs the validity regime: off it, spectator interference makes the
        # curve wiggle several tens of percent between adjacent q values
        config = planted_config(tmp_path, 14, 16, 1)
        report = ss.run_sweep(config)
        assert report.spectral.validity_ratio <= 0.05
        rate, mean_repeats = ss.repeat_until_success_stats(config, trials=10_000, rng_seed=11)
        assert rate > 0
        assert mean_repeats == pytest.approx(1 / report.p_peak_measured, rel=0.30)

    def test_trials_validated(self, tmp_path):
        config = planted_config(tmp_path, 8, 10, 0)
        with pytest.raises(ValueError):
            ss.repeat_until_success_stats(config, trials=0, rng_seed=0)

    def test_negative_iterations_rejected(self):
        profile = ss.PhaseProfile.all_violated(4, 3)
        with pytest.raises(ValueError, match="iterations"):
            ss.measurement_success_rate(profile, -7, 100, 0)
        with pytest.raises(ValueError, match="iterations"):
            ss.state_after(profile, -1)
        assert ss.state_after(profile, 0).tolist() == profile.classes().uniform().tolist()

    def test_sampling_deterministic(self):
        profile = ss.PhaseProfile.all_violated(8, 5)
        a = ss.measurement_success_rate(profile, 12, trials=500, rng_seed=3)
        b = ss.measurement_success_rate(profile, 12, trials=500, rng_seed=3)
        assert a == b

    def test_draws_from_lifted_marginal(self, planted14, monkeypatch):
        _, table, summary = planted14
        profile = ss.PhaseProfile.from_table(table)
        drawn = []

        class Recorder:
            def binomial(self, trials, p):
                drawn.append(p)
                return trials // 2

        monkeypatch.setattr(np.random, "default_rng", lambda seed: Recorder())
        for iterations in (0, summary.q_m, 2 * summary.q_m + 1):
            assert ss.measurement_success_rate(profile, iterations, 10, 0) == 0.5
            expected = lifted_marginal(profile, table.unique_solution(), iterations)
            assert abs(drawn[-1] - expected) <= 1e-12

    def test_huge_trial_count(self):
        profile = ss.PhaseProfile.all_violated(8, 5)
        rate = ss.measurement_success_rate(profile, 6, trials=10**12, rng_seed=0)
        # binomial standard deviation at 10**12 trials is below 5e-7
        assert abs(rate - lifted_marginal(profile, 5, 6)) < 1e-5

    def test_memory_independent_of_n(self):
        table = ss.build_unsat_table(ss.generate_planted_3sat(16, 80, seed=3))
        profile = ss.PhaseProfile.from_table(table)
        profile.classes()  # the one bincount over all assignments, cached
        peak = traced_peak(lambda: ss.measurement_success_rate(profile, 50, 1000, 0))
        assert peak < 64 * 1024


class TestCostReport:
    def test_toy_scaling_figure(self, tmp_path):
        path = tmp_path / "toy.cnf"
        path.write_text("p cnf 2 2\n1 0\n2 0\n")
        report = ss.run_sweep(ss.RunConfig(formula_path=str(path)))
        cost = ss.total_cost_report(report)
        assert cost.iterations_per_run == 2
        assert cost.scaling_figure == pytest.approx(math.pi * 1.5**1.5 * 2 / 4, abs=1e-12)
        assert cost.expected_total_iterations >= cost.iterations_per_run

    def test_expected_total_uses_measured_peak(self, tmp_path):
        report = ss.run_sweep(planted_config(tmp_path, 8, 10, 1, q_max=10))
        cost = ss.total_cost_report(report)
        assert cost.expected_total_iterations == report.spectral.q_m / report.p_peak_measured
