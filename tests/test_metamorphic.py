"""Metamorphic relations: rewritten instances whose answers are known from the original's.

A symmetry of the problem is an oracle that costs one more enumeration at any
n (Chen, Cheung and Yiu, HKUST-CS98-01 (1998); Segura et al., IEEE TSE 42,
805 (2016)).  Relabelling runs at the real ``cnf.BLOCK_BITS`` and the default
workers, where the scalar oracle is too slow: on fixed seeds at n = 18-22,
on hypothesis's relabellings of random formulas at n = 12-18, and once at
n = 30, where two workers share the 2**14 blocks.  Permuting the variables
and flipping literals moves clauses between a block's decided top bits and
its product, and so between the pruned blocks of one worker's share and
another's: the same histogram has to come out of other pruning paths.
Writing the relabelled formula as DIMACS and parsing it again must not move
it either.
Writing each clause twice doubles every violation count and leaves every
phase pi*u/m as it was, so the dynamics and the spectrum must not move.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import satsearch as ss

from conftest import random_3sat


def relabel(formula: ss.CnfFormula, sigma: list[int], flips: int) -> ss.CnfFormula:
    """Variable k moves to sigma[k] and is negated where bit k of ``flips`` is set; clauses in reverse order.

    Assignment s of ``formula`` violates as many clauses as sigma(s XOR flips) of the result.
    """

    def literal(lit: int) -> int:
        k = abs(lit) - 1
        negated = (lit < 0) != bool(flips >> k & 1)
        return -(sigma[k] + 1) if negated else sigma[k] + 1

    return ss.CnfFormula(formula.n, tuple(ss.Clause(map(literal, c.literals)) for c in reversed(formula.clauses)))


def moved(assignment, sigma: list[int], flips: int):
    """sigma(assignment XOR flips): bit k goes to bit sigma[k]; an int, or elementwise over an int64 array."""
    flipped = assignment ^ flips
    return sum((flipped >> k & 1) << target for k, target in enumerate(sigma))


def doubled(formula: ss.CnfFormula) -> ss.CnfFormula:
    """Each clause written twice, in place: m' = 2m."""
    return ss.CnfFormula(formula.n, tuple(c for c in formula.clauses for _ in range(2)))


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("n", [18, 20, 22])
def test_relabelled_enumeration(n, seed):
    """A permutation, a flip mask and reversed clauses give the same histogram and the mapped solution.

    Writing the relabelled formula as DIMACS and parsing it again gives it
    back clause for clause, and its table is the image's.
    """
    formula = ss.generate_planted_3sat(n, 5 * n, seed)
    rng = np.random.default_rng(1000 + seed)
    sigma = [int(k) for k in rng.permutation(n)]
    flips = int(rng.integers(0, 1 << n))
    relabelled = relabel(formula, sigma, flips)
    table = ss.build_unsat_table(formula)
    image = ss.build_unsat_table(relabelled)
    assert np.array_equal(image.histogram, table.histogram)
    assert image.unique_solution() == moved(table.unique_solution(), sigma, flips)

    reparsed = ss.parse_dimacs(ss.serialize_dimacs(relabelled, comments=[f"seed {seed}"]))
    assert reparsed.n == relabelled.n
    assert reparsed.clauses == relabelled.clauses
    assert ss.build_unsat_table(reparsed).to_json_dict() == image.to_json_dict()


@st.composite
def relabellings(draw):
    """A random 3SAT formula at n = 12..18 with m = n..5n, a permutation sigma, a flip mask and a clause order."""
    n = draw(st.integers(12, 18))
    formula = random_3sat(n, draw(st.integers(n, 5 * n)), seed=draw(st.integers(0, 2**32 - 1)))
    sigma = draw(st.permutations(range(n)))
    flips = draw(st.integers(0, (1 << n) - 1))
    order = draw(st.permutations(range(formula.m)))
    return formula, sigma, flips, order


@given(relabellings())
@settings(max_examples=30, deadline=None)
def test_any_relabelling(case):
    """The clauses in any order, then relabelled: the same histogram, and the two smallest images of the solutions."""
    formula, sigma, flips, order = case
    reordered = ss.CnfFormula(formula.n, tuple(formula.clauses[k] for k in order))
    table, image = ss.build_unsat_table(formula), ss.build_unsat_table(relabel(reordered, sigma, flips))
    solutions = np.array(ss.cnf.satisfying_assignments(formula), dtype=np.int64)
    assert np.array_equal(image.histogram, table.histogram)
    assert table.solutions == solutions[:2].tolist()
    assert image.solutions == sorted(moved(solutions, sigma, flips).tolist())[:2]


@pytest.mark.slow
def test_relabelled_enumeration_n30():
    """At n = 30 the default workers share the blocks; the relabelled histogram and solution still match."""
    formula = ss.generate_planted_3sat(30, 150, seed=1)
    rng = np.random.default_rng(1030)
    sigma = [int(k) for k in rng.permutation(30)]
    flips = int(rng.integers(0, 1 << 30))
    table, image = ss.build_unsat_table(formula), ss.build_unsat_table(relabel(formula, sigma, flips))
    assert np.array_equal(image.histogram, table.histogram)
    assert image.unique_solution() == moved(table.unique_solution(), sigma, flips)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("n", [14, 16, 18])
def test_duplicated_clauses(n, seed):
    """histogram'[2u] = histogram[u]; q_m, the curve and the spectrum are equal; B is within 2 ulp."""
    formula = ss.generate_planted_3sat(n, 5 * n, seed)
    table, twice = ss.build_unsat_table(formula), ss.build_unsat_table(doubled(formula))
    assert twice.m == 2 * table.m
    assert np.array_equal(twice.histogram[0::2], table.histogram)
    assert not twice.histogram[1::2].any()

    summary, summary_twice = ss.spectral_summary(table), ss.spectral_summary(twice)
    assert summary_twice.q_m == summary.q_m
    assert abs(summary_twice.B - summary.B) <= 2 * np.spacing(summary.B)

    config = ss.RunConfig(formula_path="inst.cnf")
    curve, curve_twice = ss.run_sweep(table, config).curve, ss.run_sweep(twice, config).curve
    assert curve_twice.tobytes() == curve.tobytes()
    assert ss.spectrum(twice).to_json_dict() == ss.spectrum(table).to_json_dict()
