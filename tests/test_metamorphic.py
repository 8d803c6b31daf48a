"""Metamorphic relations: rewritten instances whose answers are known from the original's.

A symmetry of the problem is an oracle that costs one more enumeration at any
n (Chen, Cheung and Yiu, HKUST-CS98-01 (1998); Segura et al., IEEE TSE 42,
805 (2016)).  Relabelling runs at the real ``cnf.BLOCK_BITS``, n = 18-22,
where the scalar oracle is too slow: permuting the variables and flipping
literals moves clauses between a block's decided top bits and its product,
so the same histogram has to come out of other pruning paths; writing the
relabelled formula as DIMACS and parsing it again must not move it either.
Writing each clause twice doubles every violation count and leaves every
phase pi*u/m as it was, so the dynamics and the spectrum must not move.
"""

import numpy as np
import pytest

import satsearch as ss


def relabel(formula: ss.CnfFormula, sigma: list[int], flips: int) -> ss.CnfFormula:
    """Variable k moves to sigma[k] and is negated where bit k of ``flips`` is set; clauses in reverse order.

    Assignment s of ``formula`` violates as many clauses as sigma(s XOR flips) of the result.
    """

    def literal(lit: int) -> int:
        k = abs(lit) - 1
        negated = (lit < 0) != bool(flips >> k & 1)
        return -(sigma[k] + 1) if negated else sigma[k] + 1

    return ss.CnfFormula(formula.n, tuple(ss.Clause(map(literal, c.literals)) for c in reversed(formula.clauses)))


def moved(assignment: int, sigma: list[int], flips: int) -> int:
    """sigma(assignment XOR flips): bit k goes to bit sigma[k]."""
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
