"""Class-coordinate engine against the per-assignment state vector it replaces.

``success_curve`` and ``state_after`` step at most 2(m+1) class amplitudes;
the oracle here steps all 2**(n+1) amplitudes through the same
``search_step`` kernel with the per-assignment profile.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import satsearch as ss

from conftest import formulas


def full_vector_states(profile, iterations):
    """Per-assignment states after q = 0..iterations applications of the iterate."""
    state = profile.uniform()
    states = [state]
    for _ in range(iterations):
        state = ss.search_step(state, profile)
        states.append(state)
    return states


def full_vector_curve(profile, index, q_max):
    rows = [
        (q, *ss.measure_distribution(state, index))
        for q, state in enumerate(full_vector_states(profile, q_max))
    ]
    return np.asarray(rows)


class TestClassProfile:
    def test_classes_drop_empty_counts(self):
        profile = ss.PhaseProfile(m=3, u=np.array([2, 1, 1, 0]))
        classes = profile.classes()
        assert classes.u.tolist() == [0, 1, 2]
        assert classes.weights.tolist() == [1, 2, 1]
        assert classes.total == profile.total == 4
        assert [profile.class_of(i) for i in range(4)] == [2, 1, 1, 0]

    def test_from_histogram_is_the_fold(self, planted14):
        _, table, summary = planted14
        folded = ss.PhaseProfile.from_table(table).classes()
        classes = ss.PhaseProfile.from_histogram(table.m, table.histogram)
        assert classes.classes() is classes
        assert classes.u.tolist() == folded.u.tolist()
        assert classes.weights.tolist() == folded.weights.tolist()
        assert classes.total == folded.total == 1 << 14
        # the solution is entry 0, and the curve is the per-assignment one bit for bit
        q_max = 2 * summary.q_m
        per_assignment = ss.success_curve(ss.PhaseProfile.from_table(table), table.unique_solution(), q_max)
        assert np.array_equal(ss.success_curve(classes, 0, q_max), per_assignment)

    def test_uniform_lifts_to_uniform_state(self, planted14):
        _, table, _ = planted14
        profile = ss.PhaseProfile.from_table(table)
        uniform = np.full(2 << 14, 1 / math.sqrt(2 << 14), dtype=np.complex128)
        lifted = profile.lift(profile.classes().uniform())
        assert np.max(np.abs(lifted - uniform)) < 1e-15
        assert np.array_equal(profile.uniform(), uniform)

    def test_classes_keep_conjugation(self):
        # class c carries exp(+i*pi*u_c/m) on branch b=0 and its conjugate on b=1
        classes = ss.PhaseProfile(m=2, u=np.array([0, 1, 2, 2])).classes()
        upper = np.exp(1j * np.pi * np.arange(3) / 2)
        assert np.array_equal(classes.phase_vector(), np.concatenate([upper, upper.conj()]))

    def test_weights_validated(self):
        with pytest.raises(ValueError, match="weights"):
            ss.PhaseProfile(m=1, u=np.array([0, 1]), weights=np.array([1, 0]))
        with pytest.raises(ValueError, match="weights"):
            ss.PhaseProfile(m=1, u=np.array([0, 1]), weights=np.array([1]))

    def test_class_of_out_of_range(self, toy_table):
        profile = ss.PhaseProfile.from_table(toy_table)
        for index in (-1, 4):
            with pytest.raises(ValueError, match="out of range"):
                profile.class_of(index)

    def test_success_curve_rejects_bad_index(self, toy_table):
        profile = ss.PhaseProfile.from_table(toy_table)
        with pytest.raises(ValueError):
            ss.success_curve(profile, 4, 3)


class TestAgainstFullVector:
    @given(formulas(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_any_formula_any_index(self, formula, data):
        # formulas() includes multi-solution and unsatisfiable instances
        profile = ss.PhaseProfile.from_table(ss.build_unsat_table(formula))
        index = data.draw(st.integers(0, formula.assignment_count - 1))
        q_max = data.draw(st.integers(1, 40))
        curve = ss.success_curve(profile, index, q_max)
        assert np.max(np.abs(curve - full_vector_curve(profile, index, q_max))) <= 1e-12
        final = full_vector_states(profile, q_max)[-1]
        assert np.max(np.abs(profile.lift(ss.state_after(profile, q_max)) - final)) <= 1e-12

    def test_planted_n14(self, planted14):
        _, table, summary = planted14
        profile = ss.PhaseProfile.from_table(table)
        q_max = 2 * summary.q_m
        states = full_vector_states(profile, q_max)
        for index in (table.unique_solution(), 0, 12345):
            expected = np.asarray(
                [(q, *ss.measure_distribution(s, index)) for q, s in enumerate(states)]
            )
            assert np.max(np.abs(ss.success_curve(profile, index, q_max) - expected)) <= 1e-12
        assert np.max(np.abs(profile.lift(ss.state_after(profile, q_max)) - states[-1])) <= 1e-12

    def test_class_norm_drift_n18(self):
        # the n = 18, seed 0 instance of acceptance criterion 4
        table = ss.build_unsat_table(ss.generate_planted_3sat(18, 16, 0))
        classes = ss.PhaseProfile.from_table(table).classes()
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
        profile = ss.PhaseProfile(m, u)
        theta = math.asin(math.sqrt(k / total))
        q_max = 2 * round(math.pi / (4 * theta))
        q = np.arange(q_max + 1)
        law = np.sin((2 * q + 1) * theta) ** 2 / k
        for solution in solutions:
            curve = ss.success_curve(profile, int(solution), q_max)
            assert np.max(np.abs(curve[:, 1] - law)) <= 1e-6
            assert np.max(np.abs(curve[:, 2] - law)) <= 1e-6
