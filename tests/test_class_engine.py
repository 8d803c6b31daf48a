"""Class-coordinate engine against the two-branch, per-assignment state vector it replaces.

``success_curve`` and ``state_after`` step at most m + 1 class amplitudes,
branch 0 of the class state; the oracle steps all 2**(n+1) amplitudes with the
two-branch kernel ``oracles.FullKernel`` and the per-assignment profile of
``oracles.py``.  ``success_curve`` reads the solution class u = 0, so it is
compared at every solution.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import satsearch as ss

from conftest import formulas
from oracles import FullKernel, class_entries, fold_classes, full_vector_curve, full_vector_states, lift
from oracles import measure_distribution, profile_for, two_branch


def ones(size):
    return np.ones(size, dtype=np.int64)


UNSATISFIABLE = ss.parse_dimacs("p cnf 1 2\n1 0\n-1 0\n")


class TestClassProfile:
    def test_classes_drop_empty_counts(self):
        profile = ss.PhaseProfile(m=3, u=np.array([2, 1, 1, 0]), weights=ones(4))
        classes = fold_classes(profile)
        assert classes.u.tolist() == [0, 1, 2]
        assert classes.weights.tolist() == [1, 2, 1]
        assert classes.total == profile.total == 4
        assert class_entries(classes, profile.u).tolist() == [2, 1, 1, 0]

    def test_from_table_is_the_fold(self, planted14):
        formula, table, _ = planted14
        folded = fold_classes(profile_for(formula))
        classes = ss.PhaseProfile.from_table(table)
        assert classes.u.tolist() == folded.u.tolist()
        assert classes.weights.tolist() == folded.weights.tolist()
        assert classes.total == folded.total == 1 << 14

    def test_uniform_lifts_to_uniform_state(self, planted14):
        formula, _, _ = planted14
        profile = profile_for(formula)
        uniform = np.full(2 << 14, 1 / math.sqrt(2 << 14), dtype=np.complex128)
        lifted = lift(profile, fold_classes(profile).uniform())
        assert np.max(np.abs(lifted - uniform)) < 1e-15
        assert np.array_equal(two_branch(profile.uniform()), uniform)
        assert np.array_equal(FullKernel(profile).uniform(), uniform)

    def test_classes_keep_conjugation(self):
        # class c carries exp(+i*pi*u_c/m) on branch b=0 and its conjugate on b=1
        classes = fold_classes(ss.PhaseProfile(m=2, u=np.array([0, 1, 2, 2]), weights=ones(4)))
        upper = np.exp(1j * np.pi * np.arange(3) / 2)
        assert np.array_equal(classes.phases, upper)
        assert np.array_equal(FullKernel(classes).phases, np.concatenate([upper, upper.conj()]))

    @pytest.mark.parametrize(
        "m, histogram, solutions, message",
        [(2, [1, 1, 1, 1], [0], "m\\+1 = 3 bins, got 4"), (3, [0, 0, 0, 0], [], "empty search domain")],
        ids=["class-beyond-m", "empty"],
    )
    def test_histogram_checked(self, m, histogram, solutions, message):
        # refused where the table is made, before any profile could read it
        with pytest.raises(ss.InstanceError, match=message):
            ss.UnsatTable(2, m, histogram, solutions)

    @pytest.mark.parametrize(
        "m, u, weights, message",
        [
            (2, [0, 5], [1, 1], "integers in 0..m = 0..2"),
            (2, [0, -1], [1, 1], "integers in 0..m = 0..2"),
            (2, [0, 0.5], [1, 1], "integers in 0..m = 0..2"),
            (2, [], [], "at least one entry"),
            (0, [0], [1], "m must be >= 1"),
        ],
        ids=["beyond-m", "negative", "non-integer", "no-entry", "no-clause"],
    )
    def test_refused_where_made(self, m, u, weights, message):
        # each would give a class a phase no clause count gives, or divide by N = 0
        with pytest.raises(ValueError, match=message):
            ss.PhaseProfile(m, u, weights)

    def test_weights_validated(self):
        with pytest.raises(ValueError, match="weights"):
            ss.PhaseProfile(m=1, u=np.array([0, 1]), weights=np.array([1, 0]))
        with pytest.raises(ValueError, match="weights"):
            ss.PhaseProfile(m=1, u=np.array([0, 1]), weights=np.array([1]))

    @pytest.mark.parametrize(
        "read",
        [
            lambda profile: ss.success_curve(profile, 3),
            lambda profile: ss.measurement_success_rate(profile, 3, trials=10, rng_seed=0),
        ],
        ids=["success_curve", "measurement_success_rate"],
    )
    def test_no_solution_class(self, read):
        per_assignment = profile_for(UNSATISFIABLE)
        for profile in (
            per_assignment,
            fold_classes(per_assignment),
            ss.PhaseProfile.from_table(ss.UnsatTable(3, 3, [0, 5, 0, 3], [])),
        ):
            assert profile.u[0] != 0
            with pytest.raises(ss.InstanceError, match="no assignment satisfies every clause"):
                read(profile)


class TestAgainstFullVector:
    @given(formulas(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_any_formula_any_index(self, formula, data):
        # formulas() includes multi-solution and unsatisfiable instances: the
        # curve is every solution's, and the lifted final state every index's
        table = ss.build_unsat_table(formula)
        profile = profile_for(formula)
        classes = fold_classes(profile)
        q_max = data.draw(st.integers(1, 40))
        states = list(full_vector_states(profile, q_max))
        if table.solutions:
            curve = ss.success_curve(classes, q_max)
            for solution in ss.cnf.satisfying_assignments(formula):  # the table keeps only two
                assert np.max(np.abs(curve - full_vector_curve(states, solution))) <= 1e-12
        assert np.max(np.abs(lift(profile, ss.state_after(classes, q_max)) - states[-1])) <= 1e-12

    def test_planted_n14(self, planted14):
        formula, table, summary = planted14
        profile = profile_for(formula)
        classes = fold_classes(profile)
        q_max = 2 * summary.q_m
        solution = table.unique_solution()
        expected = []
        for q, state in enumerate(full_vector_states(profile, q_max)):  # 2**15 amplitudes, one state at a time
            expected.append((q, *measure_distribution(state, solution)))
        assert np.max(np.abs(ss.success_curve(classes, q_max) - np.array(expected))) <= 1e-12
        assert np.max(np.abs(lift(profile, ss.state_after(classes, q_max)) - state)) <= 1e-12

    def test_class_norm_drift_n18(self):
        # the n = 18, seed 0 instance of acceptance criterion 4
        classes = fold_classes(profile_for(ss.generate_planted_3sat(18, 16, 0)))
        state = classes.uniform()
        for _ in range(10_000):
            state = ss.search_step(state, classes)
        assert abs(np.linalg.norm(two_branch(state)) - 1.0) <= 1e-10


class TestAgainstTwoBranchKernel:
    """The one-branch step, lifted to (a, conj a), against the two-branch kernel at every step."""

    @staticmethod
    def worst_gap(profile, steps):
        kernel = FullKernel(profile)
        state, full = profile.uniform(), kernel.uniform()
        worst = np.max(np.abs(two_branch(state) - full))
        for _ in range(steps):
            state, full = ss.search_step(state, profile), kernel.step(full)
            worst = max(worst, np.max(np.abs(two_branch(state) - full)))
        return worst

    @given(formulas(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_any_formula(self, formula, data):
        profile = profile_for(formula)
        steps = data.draw(st.integers(1, 40))
        for stepped in (profile, fold_classes(profile)):
            assert self.worst_gap(stepped, steps) <= 1e-12

    def test_class_profiles(self, class_profile):
        assert self.worst_gap(class_profile, 3000) <= 1e-12


class TestMultiSolutionGroverLaw:
    """k solutions, every other assignment violating all m clauses.

    The iterate is then Grover's on the doubled register with 2k marked
    states, so each solution's marginal is sin^2((2q+1)theta)/k with
    sin(theta) = sqrt(k/N) (Boyer, Brassard, Hoyer, Tapp, quant-ph/9605034).
    """

    @pytest.mark.parametrize("k", [1, 2, 3, 7, 16])
    @pytest.mark.parametrize("m", [1, 4])
    def test_marginal_per_solution(self, k, m):
        n = 10
        total = 1 << n
        rng = np.random.default_rng(k)
        solutions = rng.choice(total, size=k, replace=False)
        u = np.full(total, m, dtype=np.int32)
        u[solutions] = 0
        profile = ss.PhaseProfile(m, u, ones(total))
        theta = math.asin(math.sqrt(k / total))
        q_max = 2 * round(math.pi / (4 * theta))
        q = np.arange(q_max + 1)
        law = np.sin((2 * q + 1) * theta) ** 2 / k
        curve = ss.success_curve(fold_classes(profile), q_max)
        assert np.max(np.abs(curve[:, 1] - law)) <= 1e-6
        assert np.max(np.abs(curve[:, 2] - law)) <= 1e-6
        states = list(full_vector_states(profile, q_max))
        for solution in solutions:
            assert np.max(np.abs(curve - full_vector_curve(states, int(solution)))) <= 1e-12


class TestExtendedPrecision:
    def test_curve_against_clongdouble_stepping(self):
        """The planted n = 22 curve (``gen -n 22 -m 110 --seed 1``) lies within 1e-14 of extended-precision stepping.

        The reference is ``FullKernel`` in ``np.clongdouble`` (a 64-bit
        mantissa on x86-64), its phases and axis included, over
        q = 0..2*q_m = 19064.  Measured max |dp| over both columns: 1.4e-15
        for the one-branch curve, and 1.1e-15 for the float64 two-branch
        kernel that it replaced.  The peak is at the same q in all three.
        """
        if np.finfo(np.longdouble).nmant < 63:
            pytest.skip("long double is no wider than float64 here")
        table = ss.build_unsat_table(ss.generate_planted_3sat(22, 110, 1))
        classes = ss.PhaseProfile.from_table(table)
        q_max = 2 * ss.spectral_summary(table).q_m
        curve = ss.success_curve(classes, q_max)
        reference = full_vector_curve(full_vector_states(classes, q_max, np.clongdouble), 0)
        assert np.max(np.abs(curve - reference)) <= 1e-14
        assert np.argmax(curve[:, 2]) == np.argmax(reference[:, 2])
