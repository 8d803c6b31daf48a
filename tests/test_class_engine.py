"""Class-coordinate engine against the per-assignment state vector it replaces.

``success_curve`` and ``state_after`` step at most 2(m+1) class amplitudes;
the oracle steps all 2**(n+1) amplitudes through the same ``search_step``
kernel with the per-assignment profile of ``oracles.py``.  ``success_curve``
reads the solution class u = 0, so it is compared at every solution.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import satsearch as ss

from conftest import formulas
from oracles import class_entries, fold_classes, full_vector_curve, full_vector_states, lift, profile_for


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

    def test_from_histogram_is_the_fold(self, planted14):
        formula, table, _ = planted14
        folded = fold_classes(profile_for(formula))
        classes = ss.PhaseProfile.from_histogram(table.m, table.histogram)
        assert classes.u.tolist() == folded.u.tolist()
        assert classes.weights.tolist() == folded.weights.tolist()
        assert classes.total == folded.total == 1 << 14

    def test_uniform_lifts_to_uniform_state(self, planted14):
        formula, _, _ = planted14
        profile = profile_for(formula)
        uniform = np.full(2 << 14, 1 / math.sqrt(2 << 14), dtype=np.complex128)
        lifted = lift(profile, fold_classes(profile).uniform())
        assert np.max(np.abs(lifted - uniform)) < 1e-15
        assert np.array_equal(profile.uniform(), uniform)

    def test_classes_keep_conjugation(self):
        # class c carries exp(+i*pi*u_c/m) on branch b=0 and its conjugate on b=1
        classes = fold_classes(ss.PhaseProfile(m=2, u=np.array([0, 1, 2, 2]), weights=ones(4)))
        upper = np.exp(1j * np.pi * np.arange(3) / 2)
        assert np.array_equal(classes.phases, np.concatenate([upper, upper.conj()]))

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
            ss.PhaseProfile.from_histogram(3, [0, 5, 0, 3]),
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
        states = full_vector_states(profile, q_max)
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
        states = full_vector_states(profile, q_max)
        expected = full_vector_curve(states, table.unique_solution())
        assert np.max(np.abs(ss.success_curve(classes, q_max) - expected)) <= 1e-12
        assert np.max(np.abs(lift(profile, ss.state_after(classes, q_max)) - states[-1])) <= 1e-12

    def test_class_norm_drift_n18(self):
        # the n = 18, seed 0 instance of acceptance criterion 4
        classes = fold_classes(profile_for(ss.generate_planted_3sat(18, 16, 0)))
        state = classes.uniform()
        for _ in range(10_000):
            state = ss.search_step(state, classes)
        assert abs(np.linalg.norm(state) - 1.0) <= 1e-10


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
        states = full_vector_states(profile, q_max)
        for solution in solutions:
            assert np.max(np.abs(curve - full_vector_curve(states, int(solution)))) <= 1e-12
