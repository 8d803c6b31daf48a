"""Planted unique-solution instance generators.

Three families, all deterministic for a given seed and all with exactly one
satisfying assignment.  Only the random family enumerates to get there; the
chain and block families are unique by construction (the tests confirm it by
enumeration), so ``cnf.MAX_ENUMERATION_N`` does not bound them; they only need
n <= ``cnf.MAX_INDEX_N``, which every family takes from ``cnf.check_index``:

* ``generate_planted_3sat`` draws random 3-literal clauses satisfied by a
  hidden assignment, lists the assignments that survive them with
  ``cnf.satisfying_assignments``, a pruned walk over bit prefixes that builds
  no histogram and keeps a few thousand prefixes at most for a batch of 5n
  clauses, then greedily appends clauses that each kill at least one
  surviving non-solution until the solution is unique.  The returned
  clause count is whatever uniqueness required, which for random clauses
  lands near 5n or above.  Before its first draw it takes ``cnf``'s two
  guards: ``check_enumeration`` on n, and ``check_fits`` on the batch at
  ``CLAUSE_BYTES`` a clause.
* ``generate_planted_chain`` builds n nested clauses (lengths 1..n) whose
  violation sets partition the non-solutions, so every wrong assignment
  violates exactly one clause.  That concentrates the violation histogram at
  u=1, which maximizes the phase contrast per clause and keeps the clause
  count at n + extras.  Optional extra clauses are random 3-literal ones
  satisfied by the hidden assignment.
* ``generate_planted_block3sat`` is the 3-literal-only analogue: variables are
  grouped into blocks of three and each block contributes the seven clauses
  that forbid every wrong value pattern of the block.  A remainder block of
  one or two variables borrows variables from the first block.  Clause count
  is about 7n/3, far below what the random family needs for uniqueness.

Every family draws variables by 0-based position k and writes each literal as
DIMACS does, k + 1 or, negated, -(k + 1).
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .cnf import (
    Clause,
    CnfFormula,
    InstanceError,
    check_enumeration,
    check_fits,
    check_index,
    satisfying_assignments,
    violation_mask,
)

# Peak bytes per initial clause of _planted_3sat and serialize_dimacs of its
# formula: tracemalloc's peak over both, divided by m, is 407 to 413 at n = 10
# and 456 to 498 at n = 20 and 30, for m = 10**4 to 3 * 10**5 (batches this
# large leave the planted assignment unique, so the formula keeps m clauses).
# The guard takes 1024, more than twice the largest.
CLAUSE_BYTES = 1024


def _bit(assignment: int, position: int) -> int:
    return (assignment >> position) & 1


def _literal(position: int, negated: int) -> int:
    """DIMACS literal of the variable at 0-based ``position``: negative when ``negated``."""
    return -(position + 1) if negated else position + 1


def _random_clause_satisfied_by(rng: np.random.Generator, n: int, planted: int) -> Clause:
    while True:
        positions = rng.choice(n, size=3, replace=False)
        negations = rng.integers(0, 2, size=3)
        clause = Clause(map(_literal, positions.tolist(), negations.tolist()))
        if clause.satisfied_by(planted):
            return clause


def _separating_clause(rng: np.random.Generator, n: int, planted: int, survivor: int) -> Clause:
    """3-literal clause violated by ``survivor`` and satisfied by ``planted``."""
    differing = [k for k in range(n) if _bit(planted, k) != _bit(survivor, k)]
    anchor = int(rng.choice(differing))
    pool = [k for k in range(n) if k != anchor]
    others = rng.choice(pool, size=2, replace=False)
    literals = [_literal(anchor, not _bit(planted, anchor))]
    for k in others.tolist():
        literals.append(_literal(k, _bit(survivor, k)))
    return Clause(literals)


def _check_bounds(n: int, minimum: int, family: str) -> None:
    if n < minimum:
        raise InstanceError(f"{family} generation needs n >= {minimum}, got n={n}")
    check_index(n, f"{family} generation")


def generate_planted_3sat(n: int, m: int, seed: int) -> CnfFormula:
    """Random planted 3SAT with exactly one satisfying assignment.

    ``m`` is the size of the initial random batch.
    ``cnf.satisfying_assignments``, the pruned prefix walk, lists the
    assignments that satisfy it in increasing order; the repair loop then
    appends further clauses (each falsifying the lowest surviving
    non-solution) until the planted assignment is the unique solution, so
    the returned formula typically has more than ``m`` clauses.
    ``cnf.check_enumeration`` on n and ``cnf.check_fits`` on m at
    ``CLAUSE_BYTES`` raise ``GuardError`` before any clause is drawn.
    """
    return _planted_3sat(n, m, seed)[0]


def _planted_3sat(n: int, m: int, seed: int) -> tuple[CnfFormula, int]:
    """``generate_planted_3sat``'s formula and planted assignment."""
    if m < 1:
        raise InstanceError(f"need m >= 1 initial clauses, got m={m}")
    _check_bounds(n, 3, "planted 3SAT")
    check_enumeration(n)
    check_fits(m, CLAUSE_BYTES, "initial clauses")
    rng = np.random.default_rng(seed)
    planted = int(rng.integers(0, 1 << n))
    clauses = [_random_clause_satisfied_by(rng, n, planted) for _ in range(m)]

    survivors = np.array(satisfying_assignments(CnfFormula(n, tuple(clauses))), dtype=np.int64)
    while survivors.size > 1:
        target = int(survivors[0]) if int(survivors[0]) != planted else int(survivors[1])
        clause = _separating_clause(rng, n, planted, target)
        clauses.append(clause)
        survivors = survivors[~violation_mask(clause, survivors)]
    return CnfFormula(n, tuple(clauses)), planted


def generate_planted_chain(n: int, extras: int = 0, seed: int = 0) -> CnfFormula:
    """Nested-clause instance whose non-solutions each violate exactly one clause.

    Clause j (over the first j variables in a random order) is violated
    precisely by the assignments that agree with the planted one on the first
    j-1 chain variables and differ on the j-th, so the violation sets
    partition the non-solutions.  ``extras`` appends random 3-literal clauses
    satisfied by the planted assignment, spreading the histogram to u >= 1.
    """
    if extras < 0:
        raise InstanceError("extras must be >= 0")
    _check_bounds(n, 3 if extras else 1, "planted chain")
    rng = np.random.default_rng(seed)
    planted = int(rng.integers(0, 1 << n))
    order = [int(v) for v in rng.permutation(n)]

    clauses = []
    for j in range(n):
        literals = [_literal(order[t], _bit(planted, order[t])) for t in range(j)]
        literals.append(_literal(order[j], not _bit(planted, order[j])))
        clauses.append(Clause(literals))
    for _ in range(extras):
        clauses.append(_random_clause_satisfied_by(rng, n, planted))
    return CnfFormula(n, tuple(clauses))


def generate_planted_block3sat(n: int, seed: int = 0) -> CnfFormula:
    """Unique-solution 3SAT from per-block pattern exclusion.

    Variables are split into blocks of three (in a random order); each full
    block contributes seven clauses, one forbidding each value pattern that
    disagrees with the planted assignment on that block.  A remainder of one
    or two variables borrows enough variables from the first block to keep
    every clause at three literals.
    """
    _check_bounds(n, 4, "planted block 3SAT")
    rng = np.random.default_rng(seed)
    planted = int(rng.integers(0, 1 << n))
    order = [int(v) for v in rng.permutation(n)]
    full, remainder = divmod(n, 3)

    def pattern_clause(variables: list[int], pattern: tuple[int, ...]) -> Clause:
        return Clause(map(_literal, variables, pattern))

    clauses = []
    for b in range(full):
        trio = order[3 * b : 3 * b + 3]
        planted_pattern = tuple(_bit(planted, v) for v in trio)
        for pattern in product((0, 1), repeat=3):
            if pattern != planted_pattern:
                clauses.append(pattern_clause(trio, pattern))
    if remainder:
        tail = order[3 * full :]
        borrowed = order[: 3 - remainder]
        planted_tail = tuple(_bit(planted, v) for v in tail)
        anchored = tuple(_bit(planted, v) for v in borrowed)
        for pattern in product((0, 1), repeat=remainder):
            if pattern != planted_tail:
                clauses.append(pattern_clause(tail + borrowed, pattern + anchored))
    return CnfFormula(n, tuple(clauses))
