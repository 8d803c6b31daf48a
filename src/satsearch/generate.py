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
  satisfied by the hidden assignment, drawn as the random family draws them.
* ``generate_planted_block3sat`` is the 3-literal-only analogue: variables are
  grouped into blocks of three and each block contributes the seven clauses
  that forbid every wrong value pattern of the block.  A remainder block of
  one or two variables borrows variables from the first block.  Clause count
  is about 7n/3, far below what the random family needs for uniqueness.

Every family draws variables by 0-based position k and writes each literal as
DIMACS does, k + 1 or, negated, -(k + 1).

Random clauses come from ``Generator.integers`` alone.  An attempt at a
clause is eight bounded draws, decoded as numpy's ``choice(n, 3,
replace=False)`` then ``integers(0, 2, 3)`` would read the same stream:
Floyd's rule (Bentley and Floyd, CACM 30, 754 (1987)) for the three
positions, the two swaps of ``choice``'s shuffle, and the three signs.  Each
batch of clauses is one ``integers`` call per round of attempts, so the
instances, and the generator state after the batch, are those of one
``choice`` call per attempt.
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
# formula: tracemalloc's peak over both, divided by m, is 405 to 493 at n = 10
# and 448 to 491 at n = 20 and 30, for m = 10**4, 10**5 and 3 * 10**5 (batches
# this large leave the planted assignment unique, so the formula keeps m
# clauses).  The peak includes the first round of the batched draw, all m
# attempts in one call.  The guard takes 1024, more than twice the largest.
CLAUSE_BYTES = 1024


def _bit(assignment: int, position: int) -> int:
    return (assignment >> position) & 1


def _literal(position, negated):
    """DIMACS literal of the variable at 0-based ``position``: negative when ``negated``.

    Plain arithmetic, so it takes ints and numpy arrays alike.
    """
    return (position + 1) * (1 - 2 * negated)


def _choice_highs(k: int, top: int) -> list[int]:
    """Exclusive highs of the 2k - 1 draws that ``_choose`` decodes."""
    return [*range(top - k + 1, top + 1), *range(k, 1, -1)]


def _choose(draws: np.ndarray, top: int) -> np.ndarray:
    """numpy's ``choice(top, k, replace=False)``, one per row of draws at ``_choice_highs(k, top)``.

    Floyd's rule takes the first k: draw i is over [0, top - k + i] and, if it
    repeats an earlier pick, that upper bound is taken instead.  The shuffle
    then swaps position i = k - 1, ..., 1 with the next draw, over [0, i].
    """
    k = (draws.shape[1] + 1) // 2
    picks = draws[:, :k].copy()
    for i in range(1, k):
        picks[(picks[:, :i] == picks[:, i, None]).any(axis=1), i] = top - k + i
    rows = np.arange(len(picks))
    for i, swap in zip(range(k - 1, 0, -1), draws[:, k:].T):
        picks[rows, i], picks[rows, swap] = picks[rows, swap], picks[rows, i]
    return picks


def _satisfied_clauses(rng: np.random.Generator, n: int, planted: int, count: int) -> list[Clause]:
    """``count`` random 3-literal clauses satisfied by ``planted``.

    An attempt is a row of eight draws: ``choice(n, 3, replace=False)``'s
    five, then three signs; it is kept if ``planted`` satisfies it, that is
    if some position's bit in ``planted`` differs from its sign.  Each
    round draws one attempt per clause still missing, in one ``integers``
    call.  Every missing clause takes at least one attempt, so a round draws
    only attempts that drawing one at a time would draw too, and the
    generator ends where that would.
    """
    highs = np.array(_choice_highs(3, n) + [2, 2, 2])
    clauses: list[Clause] = []
    while len(clauses) < count:
        draws = rng.integers(0, np.tile(highs, (count - len(clauses), 1)))
        positions, signs = _choose(draws[:, :5], n), draws[:, 5:]
        kept = (((planted >> positions) & 1) != signs).any(axis=1)
        clauses += map(Clause, _literal(positions[kept], signs[kept]).tolist())
    return clauses


def _separating_clause(rng: np.random.Generator, n: int, planted: int, survivor: int) -> Clause:
    """3-literal clause violated by ``survivor`` and satisfied by ``planted``.

    One ``integers`` call draws the anchor, as ``choice(differing)`` would,
    and the other two positions, as ``choice(pool, 2, replace=False)`` would.
    """
    differing = [k for k in range(n) if _bit(planted, k) != _bit(survivor, k)]
    draws = rng.integers(0, [[len(differing), *_choice_highs(2, n - 1)]])
    anchor = differing[draws[0, 0]]
    pool = [k for k in range(n) if k != anchor]
    literals = [_literal(anchor, not _bit(planted, anchor))]
    for i in _choose(draws[:, 1:], n - 1)[0].tolist():
        literals.append(_literal(pool[i], _bit(survivor, pool[i])))
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
    """``generate_planted_3sat``'s formula and planted assignment.

    The planted assignment is one ``integers`` draw, the initial batch of m
    clauses comes from ``_satisfied_clauses`` and each repair clause from one
    ``integers`` call in ``_separating_clause``.  Both read the generator's
    stream as the ``choice`` calls they decode would, so every instance is
    the one that drawing each clause's positions with ``choice`` gives.
    """
    if m < 1:
        raise InstanceError(f"need m >= 1 initial clauses, got m={m}")
    _check_bounds(n, 3, "planted 3SAT")
    check_enumeration(n)
    check_fits(m, CLAUSE_BYTES, "initial clauses")
    rng = np.random.default_rng(seed)
    planted = int(rng.integers(0, 1 << n))
    clauses = _satisfied_clauses(rng, n, planted, m)

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
    clauses += _satisfied_clauses(rng, n, planted, extras)
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
