import math
import random
import statistics
import tracemalloc
import types

import numpy as np
import pytest

import satsearch as ss
from satsearch.cli import _curve_csv, _emit, _json_text
from satsearch.cnf import violation_mask
from satsearch.experiment import _binomial, _solution_probability

from oracles import all_violated, fold_classes, full_vector_curve, full_vector_states, grover_closed_form
from oracles import grover_step, lifted_marginal, profile_for, scalar_curve


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


def domain_table(formula, d):
    """Violation table over the assignments that satisfy d variable-disjoint 3-literal clauses of ``formula``.

    The d clauses are the first disjoint ones in formula order.  The domain
    holds 7**d * 2**(n - 3d) assignments, and the table counts the other
    m - d clauses' violations over it one clause mask at a time, as
    ``oracles.violation_counts`` does.  Returns the table and the domain's
    violation counts, in index order.
    """
    chosen, used = [], set()
    for k, clause in enumerate(formula.clauses):
        variables = set(map(abs, clause.literals))
        if len(chosen) < d and len(variables) == 3 and not variables & used:
            chosen.append(k)
            used |= variables
    assert len(chosen) == d
    indices = np.arange(formula.assignment_count)
    inside = np.ones(indices.size, dtype=bool)
    for k in chosen:
        inside &= ~violation_mask(formula.clauses[k], indices)
    domain = indices[inside]
    rest = [clause for k, clause in enumerate(formula.clauses) if k not in chosen]
    counts = np.zeros(domain.size, dtype=np.int64)
    for clause in rest:
        counts += violation_mask(clause, domain)
    histogram = np.bincount(counts, minlength=len(rest) + 1)
    solutions = domain[counts == 0][:2].tolist()
    return ss.UnsatTable(formula.n, len(rest), histogram, solutions), counts


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

    def test_marginal_equals_overlap(self, planted14):
        formula, table, summary = planted14
        curve = ss.success_curve(ss.PhaseProfile.from_table(table), 50)
        assert curve[:, 1].tobytes() == curve[:, 2].tobytes()
        assert np.all((curve[:, 1:] >= -1e-15) & (curve[:, 1:] <= 1 + 1e-15))

    def test_bit_exact_against_scalar_read_out(self, class_profile):
        """Recording the pairs and reading them in one pass changes no bit of any row."""
        assert ss.success_curve(class_profile, 3000).tobytes() == scalar_curve(class_profile, 3000).tobytes()

    def test_read_out_rounds_as_numpy_scalars(self):
        """On random real amplitudes, the array read-out is 2a**2 on numpy scalars, bit for bit."""
        classes = ss.PhaseProfile(2, [0, 1, 2], [3, 4, 1])
        rng = np.random.default_rng(5)
        amplitudes = rng.normal(size=20000)
        amplitudes[:3] = [0.0, -1e-170, 1e-170]  # zero, and squares below the smallest subnormal
        scale = 1.0 / classes.axis[0]
        expected = np.array([2.0 * ((real * scale) * (real * scale)) for real in amplitudes])
        assert _solution_probability(classes, amplitudes).tobytes() == expected.tobytes()


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
        assert "".join(_json_text(a.to_json_dict())) == "".join(_json_text(b.to_json_dict()))

    def test_hand_built_table_runs_as_enumerated(self):
        """A table that no enumeration built gives the bytes of the enumerated one."""
        formula = ss.generate_planted_block3sat(12)
        # four blocks of three variables; an assignment violates one clause in
        # each block it gets wrong, and each block has 7 wrong patterns
        histogram = [math.comb(4, u) * 7**u for u in range(5)] + [0] * (formula.m - 4)
        (r,) = ss.cnf.satisfying_assignments(formula)
        outputs = []
        for table in (ss.UnsatTable(12, formula.m, histogram, [r]), ss.build_unsat_table(formula)):
            report = ss.run_sweep(table, config(include_grover=True), snapshot=True)
            report.repeat_stats = ss.repeat_until_success_stats(table, 1000, 3)
            documents = (report.to_json_dict(), report.snapshot, table.to_json_dict())
            outputs.append(tuple("".join(_json_text(document)) for document in documents))
        assert outputs[0] == outputs[1]

    def test_csv_format(self):
        report = ss.run_sweep(planted_table(8, 10, 1), config(q_max=10))
        lines = "".join(_curve_csv("q,p_marginal,p_overlap", report.curve)).strip().split("\n")
        assert lines[0] == "q,p_marginal,p_overlap"
        assert len(lines) == 12
        q, pm, po = lines[1].split(",")
        assert q == "0"
        assert float(pm) == pytest.approx(1 / 256)
        assert float(po) == pytest.approx(1 / 256)

    def test_sinusoid_fit_invariant(self, planted14):
        formula, table, summary = planted14
        assert summary.validity_ratio <= 0.05
        classes = ss.PhaseProfile.from_table(table)
        curve = ss.success_curve(classes, 2 * summary.q_m)
        a, omega = sin_squared_fit(curve, summary.lambda_pm)
        assert omega == pytest.approx(summary.lambda_pm, rel=0.10)
        assert a == pytest.approx(summary.predicted_success, rel=0.25)


class TestDomainTable:
    """A table over a domain smaller than 2**n: N is the histogram's sum for the summary, the baseline and the cost."""

    def test_summary_baseline_and_cost_over_the_domain(self):
        formula = ss.generate_planted_3sat(18, 90, seed=1)
        assert formula.m == 93
        table, _ = domain_table(formula, 5)
        total = 7**5 * 2**3
        assert (table.m, int(np.sum(table.histogram))) == (88, total)
        report = ss.run_sweep(table, config(include_grover=True))
        s = report.spectral
        # acceptance criterion 4's tolerances
        assert abs(report.q_peak_measured - s.q_m) <= max(2, 0.1 * s.q_m), (s.q_m, report.q_peak_measured)
        assert abs(s.predicted_success - report.p_peak_measured) <= 0.25 * report.p_peak_measured
        assert table.assignment_count == total
        assert s.alpha == 1 / math.sqrt(total)
        steps = ss.grover_optimal_steps(total)
        assert report.grover_curve.shape == (steps + 1, 2)
        assert np.max(np.abs(report.grover_curve[:, 1] - grover_closed_form(total, steps))) <= 1e-12
        cost = report.to_json_dict()["cost"]
        assert cost["scaling_figure"] == math.pi * s.B**3 * math.sqrt(total) / 4.0

    def test_class_curve_against_per_assignment_stepping(self):
        formula = ss.generate_planted_3sat(12, 60, seed=3)
        table, counts = domain_table(formula, 4)
        assert table.assignment_count == counts.size == 7**4
        report = ss.run_sweep(table, config())
        profile = ss.PhaseProfile(table.m, counts, np.ones(counts.size, dtype=np.int64))
        (solution,) = np.flatnonzero(counts == 0)
        expected = full_vector_curve(full_vector_states(profile, len(report.curve) - 1), solution)
        assert np.max(np.abs(report.curve - expected)) <= 1e-12


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

    def test_empty_domain_rejected(self):
        with pytest.raises(ValueError, match="empty search domain"):
            ss.run_grover_baseline(0)

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
        classes = ss.PhaseProfile(2, [0, 1, 2], [1, 2, 1])
        assert ss.success_curve(classes, rows - 1).shape == (rows, 3)
        assert ss.run_grover_baseline(4, rows - 1).shape == (rows, 2)
        refused = f"{rows + 1} curve rows exceed the {rows} that fit"
        with pytest.raises(ss.GuardError, match=refused):
            ss.success_curve(classes, rows)
        with pytest.raises(ss.GuardError, match=refused):
            ss.run_grover_baseline(4, rows)

    @pytest.mark.slow
    def test_streamed_write_peak_is_flat(self, tmp_path):
        """Writing a q_max = 4 * 10**5 curve, 31 MB of JSON, peaks under 1 MiB: the write streams blocks of rows."""
        q_max = 4 * 10**5
        curve = np.empty((q_max + 1, 3))
        curve[:, 0] = np.arange(q_max + 1)
        curve[:, 1] = curve[:, 2] = np.sin(np.arange(q_max + 1) / 997.0) ** 2
        out = tmp_path / "report.json"
        peak = traced_peak(lambda: _emit(_json_text({"curve": curve}), str(out)))
        assert out.stat().st_size > 60 * q_max
        assert peak < 1 << 20


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
        classes = ss.PhaseProfile(2, [0, 1, 2], [1, 2, 1])
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
        formula, table, summary = planted14
        profile = profile_for(formula)
        drawn = []

        def binomial(trials, p, seed):
            drawn.append(p)
            return trials // 2

        monkeypatch.setattr(ss.experiment, "_binomial", binomial)
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
        classes = ss.PhaseProfile.from_table(table)
        peak = traced_peak(lambda: ss.measurement_success_rate(classes, 50, 1000, 0))
        assert peak < 64 * 1024


def binomial_pmf(n, p):
    """P(X = k) for k = 0..n, X ~ Binomial(n, p), in log space (relative error about 1e-13 at n = 1000)."""
    log_p, log_q = math.log(p), math.log1p(-p)
    return [
        math.exp(math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1) + k * log_p + (n - k) * log_q)
        for k in range(n + 1)
    ]


class TestBinomialDraw:
    """``_binomial``'s draws against the binomial law itself, on both branches and at the edges of its domain.

    The draw takes n minus the draw at 1 - p when p > 0.5, walks geometric
    gaps when n p < 10 and runs BTRS above.  No other sampler shares its
    uniforms, so the tests check the law: its probabilities over 20000 seeds
    up to n = 1000, its first two moments up to n = 2**63 - 1, and that every
    (n, p) of the domain gives a count in [0, n].
    """

    # One draw for each seed 0..19999, as runs with consecutive --trials-seed
    # make them, binned so that every bin expects at least 5.  Bound: the
    # Wilson-Hilferty z of the chi-square statistic is at most 4 (upper tail
    # about 3e-5 per case); these seeds give z from -0.1 to 1.4.  Besides n p
    # below 10 and above, the cases take both sides of that seam, and
    # (1000, 0.03), near perfbench's `run --trials 1000` at p of about 0.027.
    @pytest.mark.parametrize(
        "n, p",
        [(50, 0.0047), (30, 0.03), (1000, 0.3), (1000, 0.97), (100, 0.0999), (100, 0.1001), (1000, 0.03)],
        ids=["inversion-n50", "inversion-n30", "btpe", "btpe-above-half", "seam-below", "seam-above", "n1000-np30"],
    )
    def test_law_chi_square(self, n, p):
        draws = 20_000
        expected = [draws * f for f in binomial_pmf(n, p)]
        observed = [0] * (n + 1)
        for seed in range(draws):
            observed[_binomial(n, p, seed)] += 1
        bins, tail = [], [0, 0.0]  # (observed, expected) per bin, and the bin being filled
        for k in range(n + 1):
            tail = [tail[0] + observed[k], tail[1] + expected[k]]
            if tail[1] >= 5 and sum(expected[k + 1 :]) >= 5:
                bins.append(tail)
                tail = [0, 0.0]
        bins[-1] = [bins[-1][0] + tail[0], bins[-1][1] + tail[1]]
        dof = len(bins) - 1
        chi2 = sum((o - e) ** 2 / e for o, e in bins)
        z = ((chi2 / dof) ** (1 / 3) - (1 - 2 / (9 * dof))) / math.sqrt(2 / (9 * dof))
        assert dof >= 2 and z <= 4.0, (chi2, dof, z)

    # 4000 draws (seeds 0..3999) at n = 10**12 and, on each branch, at the
    # domain's end, 2**63 - 1: the mean within 4 standard errors of n*p, the
    # variance within 4 * sqrt(2 / 3999) of n*p*(1 - p), relative.  Near 2**63
    # a factorial's log is about 4e20, too coarse for BTRS's acceptance test
    # when taken as lgamma differences.
    @pytest.mark.parametrize(
        "n, p",
        [
            (10**12, 2e-11), (10**12, 0.3), (10**12, 0.97),
            (2**63 - 1, 5e-19), (2**63 - 1, 1e-17), (2**63 - 1, 0.5), (2**62, 0.5), (2**63 - 1, 0.97),
        ],
        ids=[
            "n1e12-np20", "n1e12", "n1e12-above-half",
            "n2**63-np5", "n2**63-np92", "n2**63", "n2**62", "n2**63-above-half",
        ],
    )
    def test_moments_at_large_n(self, n, p):
        draws = 4000
        centre = round(n * p)
        deviations = [_binomial(n, p, seed) - centre for seed in range(draws)]
        mean = centre + sum(deviations) / draws
        variance = n * p * (1 - p)
        assert abs(mean - n * p) <= 4 * math.sqrt(variance / draws), mean
        assert abs(statistics.variance(deviations) / variance - 1) <= 4 * math.sqrt(2 / (draws - 1))

    def test_whole_domain(self):
        """Any 0 <= n < 2**63 and 0 <= p <= 1 gives an int in [0, n], subnormal p and p a few ulp below 1 included."""
        for n in (0, 1, 2**63 - 1):
            for p in (0.0, 5e-324, 1e-300, 0.5, 0.5000001, 1 - 1e-16, 1.0):
                for seed in range(3):
                    k = _binomial(n, p, seed)
                    assert type(k) is int and 0 <= k <= n, (n, p, seed, k)
            assert _binomial(n, 0.0, 0) == 0 and _binomial(n, 1.0, 0) == n

    @pytest.mark.parametrize("n, p", [(30, 0.1), (1000, 0.3)], ids=["geometric", "btrs"])
    def test_first_uniform_zero(self, n, p, monkeypatch):
        """``random()`` returns 0.0 once in 2**53 draws; a draw that starts with it still ends in [0, n]."""
        drawn = []

        class ZeroFirst(random.Random):
            def random(self):
                drawn.append(super().random() if drawn else 0.0)
                return drawn[-1]

        monkeypatch.setattr(ss.experiment, "random", types.SimpleNamespace(Random=ZeroFirst))
        assert 0 <= _binomial(n, p, 0) <= n
        assert drawn[0] == 0.0 and len(drawn) > 1

    def test_negative_seed_rejected(self):
        # Random seeds with |seed|, so a negative seed would repeat a positive one
        assert random.Random(-7).random() == random.Random(7).random()
        for p in (0.0, 0.5):
            with pytest.raises(ValueError, match="seed"):
                _binomial(10, p, -1)
        classes = ss.PhaseProfile(2, [0, 1, 2], [1, 2, 1])
        with pytest.raises(ValueError, match="seed"):
            ss.measurement_success_rate(classes, 1, 100, -1)


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
