import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import satsearch as ss

from conftest import formulas, random_state
from oracles import apply_clause_phases_factored, expression_search_step, grover_step, lift
from oracles import lift_snapshot, measure_distribution, oracle_snapshot, profile_for, two_branch
from oracles import violation_counts, zero_profile


def uniform(n):
    return zero_profile(1 << n).uniform()


def half_state(size, seed):
    """A random one-branch state whose two-branch state (a, conj a) has norm 1."""
    return random_state(size, seed) / math.sqrt(2)


def assert_solution_amplitude_real(classes, steps):
    """Im a_(0,0) is exactly 0.0 from the uniform state through ``steps`` steps of ``search_step``."""
    state = classes.uniform()
    assert state[0].imag == 0.0
    for step in range(1, steps + 1):
        state = ss.search_step(state, classes)
        assert state[0].imag == 0.0, step


class TestUniformState:
    def test_n1_amplitudes(self):
        state = uniform(1)
        assert np.allclose(state, 0.5)
        assert state.shape == (2,)  # branch 0 of the 4 amplitudes

    def test_n2_single_amplitude(self):
        state = uniform(2)
        assert state[3] == pytest.approx(1 / math.sqrt(8))
        assert two_branch(state)[1 * 4 + 3] == pytest.approx(1 / math.sqrt(8))

    @pytest.mark.parametrize("n", [1, 3, 7, 12])
    def test_normalized(self, n):
        assert np.linalg.norm(uniform(n)) == pytest.approx(math.sqrt(0.5), abs=1e-12)
        assert np.linalg.norm(two_branch(uniform(n))) == pytest.approx(1.0, abs=1e-12)


class TestClausePhases:
    def test_single_clause_phase_inversion(self):
        # one clause (x1), n=1: assignment 0 violates it, phase exp(i*pi) = -1
        formula = ss.parse_dimacs("p cnf 1 1\n1 0\n")
        profile = profile_for(formula)
        state = np.zeros(2, dtype=complex)
        state[0] = 1.0  # (b=0, i=0)
        out = state * profile.phases
        assert out[0] == pytest.approx(-1.0, abs=1e-15)

    def test_solution_fiber_untouched_exactly(self, toy_formula, toy_table):
        profile = profile_for(toy_formula)
        r = toy_table.unique_solution()
        state = np.zeros(4, dtype=complex)
        state[r] = 1.0
        out = state * profile.phases
        assert out[r] == 1.0 + 0.0j  # eigenvalue exactly 1 on the solution fiber
        assert out.conj()[r] == 1.0 + 0.0j  # and so on branch 1

    @pytest.mark.parametrize("n,m_req,seed", [(4, 6, 0), (6, 10, 1)])
    def test_eigenbasis_phases(self, n, m_req, seed):
        formula = ss.generate_planted_3sat(n, m_req, seed)
        profile = profile_for(formula)
        u = violation_counts(formula)
        total = 1 << n
        for i in range(total):
            state = np.zeros(total, dtype=complex)
            state[i] = 1.0
            out = state * profile.phases
            for b, sign in ((0, 1.0), (1, -1.0)):
                expected = np.exp(sign * 1j * np.pi * u[i] / formula.m)
                assert abs(two_branch(out)[b * total + i] - expected) < 1e-12

    def test_dimension_mismatch(self, toy_formula):
        profile = profile_for(toy_formula)
        with pytest.raises(ValueError, match="state has 8 amplitudes, expected 4"):
            ss.search_step(np.zeros(8, dtype=complex), profile)


def single_pass(state, profile):
    """The diagonal pass on a two-branch state: ``profile.phases`` on branch 0, their conjugates on branch 1."""
    return state * np.concatenate([profile.phases, profile.phases.conj()])


class TestFactoredEquivalence:
    @given(formulas(max_n=6, max_m=8), st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_matches_single_pass(self, formula, seed):
        profile = profile_for(formula)
        state = random_state(2 * formula.assignment_count, seed)
        fast = single_pass(state, profile)
        factored = apply_clause_phases_factored(state, formula)
        assert np.max(np.abs(fast - factored)) < 1e-10

    def test_clause_order_irrelevant(self):
        formula = ss.generate_planted_3sat(6, 10, seed=2)
        state = random_state(2 * formula.assignment_count, seed=3)
        shuffled = ss.CnfFormula(formula.n, tuple(reversed(formula.clauses)))
        a = apply_clause_phases_factored(state, formula)
        b = apply_clause_phases_factored(state, shuffled)
        assert np.max(np.abs(a - b)) < 1e-12

    def test_single_clause_case(self):
        formula = ss.parse_dimacs("p cnf 2 1\n1 -2 0\n")
        profile = profile_for(formula)
        state = random_state(8, seed=5)
        assert np.max(np.abs(single_pass(state, profile) - apply_clause_phases_factored(state, formula))) < 1e-14


class TestReflection:
    """``search_step`` on an all-zero-violation profile is the bare reflection, here of (a, conj a)."""

    @staticmethod
    def reflect(state):
        return ss.search_step(state, zero_profile(state.shape[0]))

    def test_uniform_negated(self):
        state = uniform(3)
        assert np.max(np.abs(self.reflect(state) + state)) < 1e-14

    def test_orthogonal_state_unchanged(self):
        # i(|0> - |1>) x |i> / sqrt(2) has zero overlap with the uniform state
        state = np.zeros(8, dtype=complex)
        state[3] = 1j / math.sqrt(2)
        assert two_branch(state)[8 + 3] == -1j / math.sqrt(2)
        assert np.max(np.abs(self.reflect(state) - state)) < 1e-15

    def test_self_inverse(self):
        state = half_state(16, seed=8)
        twice = self.reflect(self.reflect(state))
        assert np.max(np.abs(twice - state)) < 1e-12

    def test_negates_only_uniform_component(self):
        state = half_state(8, seed=9)
        out = self.reflect(state)
        axis = np.full(16, 1 / 4.0, dtype=complex)
        assert np.vdot(axis, two_branch(out)) == pytest.approx(-np.vdot(axis, two_branch(state)), abs=1e-12)
        # the difference is purely along the uniform direction, which is real
        diff = out - state
        assert np.max(np.abs(diff - diff[0].real)) < 1e-12


class TestSearchStep:
    def test_composition(self, toy_formula):
        profile = profile_for(toy_formula)
        state = half_state(4, seed=13)
        phased = single_pass(two_branch(state), profile)
        composed = phased - phased.sum() / 4  # psi - 2<+|psi>|+> over 8 amplitudes
        assert np.max(np.abs(two_branch(ss.search_step(state, profile)) - composed)) < 1e-14

    def test_norm_preserved(self, toy_formula):
        profile = profile_for(toy_formula)
        state = half_state(4, seed=14)
        for _ in range(1000):
            state = ss.search_step(state, profile)
        assert abs(np.linalg.norm(two_branch(state)) - 1.0) < 1e-12

    def test_zero_violations_reduces_to_reflection(self):
        # all-zero violation counts: the phase pass is the identity
        profile = zero_profile(8)
        state = profile.uniform()
        assert np.max(np.abs(ss.search_step(state, profile) + state)) < 1e-14

    def test_bit_exact_against_expression(self, class_profile):
        state = expected = class_profile.uniform()
        for step in range(5000):
            state = ss.search_step(state, class_profile)
            expected = expression_search_step(expected, class_profile)
            assert state.tobytes() == expected.tobytes(), step

    def test_solution_amplitude_stays_real(self, class_profile):
        """Im a_(0,0) is exactly 0.0 after every step: the u = 0 phase is 1+0j and the reflection writes real parts only."""
        assert class_profile.u[0] == 0
        assert_solution_amplitude_real(class_profile, 3000)

    def test_solution_amplitude_stays_real_planted_n22(self):
        """The same over the full 2*q_m = 19064 steps of ``gen -n 22 -m 110 --seed 1``."""
        table = ss.build_unsat_table(ss.generate_planted_3sat(22, 110, 1))
        classes = ss.PhaseProfile.from_table(table)
        q_max = 2 * ss.spectral_summary(table).q_m
        assert q_max == 19064
        assert_solution_amplitude_real(classes, q_max)


class TestGroverStep:
    def test_n4_single_step_exact(self):
        state = np.full(4, 0.5, dtype=complex)
        out = grover_step(state, 2)
        assert abs(out[2]) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_norm_preserved(self):
        state = np.full(64, 1 / 8.0, dtype=complex)
        for _ in range(100):
            state = grover_step(state, 17)
        assert abs(np.linalg.norm(state) - 1.0) < 1e-12


class TestMeasureDistribution:
    def test_amplified_state(self):
        state = np.zeros(8, dtype=complex)
        state[2] = state[4 + 2] = 1 / math.sqrt(2)
        marginal, overlap = measure_distribution(state, 2)
        assert marginal == pytest.approx(1.0)
        assert overlap == pytest.approx(1.0)

    def test_uniform_state(self):
        marginal, overlap = measure_distribution(two_branch(uniform(3)), 5)
        assert marginal == pytest.approx(1 / 8)
        assert overlap == pytest.approx(1 / 8)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40)
    def test_marginal_dominates_overlap(self, seed):
        state = random_state(16, seed)
        marginal, overlap = measure_distribution(state, 3)
        assert marginal >= overlap - 1e-15

    def test_bad_solution_index(self):
        with pytest.raises(ValueError):
            measure_distribution(two_branch(uniform(2)), 4)


class TestSnapshot:
    def test_matches_per_element_formula(self, planted14):
        _, table, _ = planted14
        classes = ss.PhaseProfile.from_table(table)
        state = half_state(classes.size, seed=21)
        full = two_branch(state)
        expected = [
            [b * (table.m + 1) + int(u), float(a.real), float(a.imag)]
            for b in (0, 1)
            for u, a in zip(classes.u, full[b * classes.size : (b + 1) * classes.size])
        ]
        snapshot = ss.state_snapshot(classes, state)
        assert snapshot == {"m": table.m, "amplitudes": expected}
        assert all(type(v) in (int, float) for row in snapshot["amplitudes"] for v in row)
        # exact conjugates, the sign of a zero imaginary part included
        rows = snapshot["amplitudes"]
        conjugates = [[k + table.m + 1, re, -im] for k, re, im in rows[: classes.size]]
        assert json.dumps(rows[classes.size :]) == json.dumps(conjugates)
        assert sum(re * re + im * im for _, re, im in rows) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_state_of_other_classes(self):
        classes = ss.PhaseProfile(2, [0, 1, 2], [1, 2, 1])
        with pytest.raises(ValueError, match="state has 6 amplitudes, expected 3"):
            ss.state_snapshot(classes, np.zeros(6, dtype=complex))  # both branches

    def test_lifted_planted_state(self, planted14):
        formula, table, summary = planted14
        classes = ss.PhaseProfile.from_table(table)
        state = ss.state_after(classes, 2 * summary.q_m)
        snapshot = json.loads(json.dumps(ss.state_snapshot(classes, state)))
        lifted = lift(profile_for(formula), state)
        for threshold in (0, 1e-6):
            # line lists, not strings: pytest's diff of two megabyte strings runs for minutes
            assert lift_snapshot(formula, snapshot, threshold).split("\n") == oracle_snapshot(
                lifted, threshold
            ).split("\n")
