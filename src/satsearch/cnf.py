"""CNF formulas over Boolean variables, DIMACS I/O, and exhaustive violation tables.

An assignment of n variables is packed into an integer index i in [0, 2**n):
bit k-1 of i holds the value of variable x_k.  Every other component (phase
operators, spectral sums, success metrics) is keyed to this encoding, so it is
fixed here once and tested bit-exactly.

``read_dimacs`` is the only reader of DIMACS files: it decodes the bytes so
that no input can fail before parsing, and hands the text to ``parse_dimacs``,
which also accepts the SATLIB ``%`` trailer.

``build_unsat_table`` enumerates every assignment and keeps only the histogram
and the solutions; its oracles, the scalar count and the per-assignment
counts, live in ``tests/oracles.py``.  It is deliberately the only
solver in the package: exhaustive, and refused with ``GuardError`` above
n = ``MAX_ENUMERATION_N``, a constant (30) that bounds time alone, and when
its solution list would not fit in physical memory.  It needs no per-clause
pass over the assignments: an OR-clause is violated on exactly the indices i
with i & care == value, where care has the bits of the clause's variables and
value those of its negated literals.  Split i into a high and a low part and
that test factors into a test on each part, so the counts of a block of
assignments, laid out as a (high, low) matrix, are one 0/1 matrix product:
highs (high x m) @ lows (m x low).  The assignments are enumerated in fixed
blocks of 2**BLOCK_BITS, each counted in the smallest unsigned dtype that
holds m and kept only as its histogram and its zero indices, so the memory
used grows with the number of solutions, not with 2**n.  ``violation_blocks``,
the one pass over the assignments, alone knows the block layout, and the
table is its only reader in the package.  Its set-up runs at the call, on the
caller's thread: a plain generator that made it in the pool worker, BLAS
thread variables unset, slowed n = 22 enumeration from 0.027-0.030 s to
0.035-0.044 s (2 vCPUs, numpy 2.4; cause not known).
"""

from __future__ import annotations

import os
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

# Largest n that build_unsat_table enumerates.  It bounds time, not memory:
# 2**30 assignments take about 9 s on one thread, and each n above doubles it.
MAX_ENUMERATION_N = 30

# Assignments per enumeration block: 2**BLOCK_BITS.  Smaller blocks pay numpy's
# per-call overhead on more, smaller products; larger ones take no less time
# and hold more memory: the float product and the intp copy np.bincount makes.
BLOCK_BITS = 16

# Largest n the block kernel can index: its masks and indices are int64.
# MAX_ENUMERATION_N <= MAX_INDEX_N, so the table needs no check of its own.
MAX_INDEX_N = 62

# Peak bytes per solution: tracemalloc's peak over build_unsat_table with half
# of all assignments solutions, n = 16..20, is about 50, and over the planted
# generator's enumeration and repair loop, which copies the list to an array,
# 65 to 78.  The guard takes 160, twice the larger.
SOLUTION_BYTES = 160

# (first index, violation counts) of one enumeration block.
Block = tuple[int, np.ndarray]

# A DIMACS integer: optional minus sign and ASCII digits.  Python's int() would
# also take '+3', '1_0' and non-ASCII digits.
_DIMACS_INT = re.compile(r"-?[0-9]+")


class FormulaError(ValueError):
    """Structurally invalid clause or formula."""


class DimacsError(FormulaError):
    """Malformed DIMACS CNF text."""


class InstanceError(ValueError):
    """Instance lacks the solution structure an operation requires."""


class GuardError(RuntimeError):
    """Enumeration, memory or matrix-dimension guard exceeded."""


def memory_capacity(item_bytes: int) -> int:
    """How many items of ``item_bytes`` bytes fit in physical memory: the bound of every memory guard."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // item_bytes


@dataclass(frozen=True)
class Literal:
    """A 1-indexed Boolean variable or its negation."""

    var: int
    negated: bool = False

    def to_int(self) -> int:
        return -self.var if self.negated else self.var

    @classmethod
    def from_int(cls, lit: int) -> "Literal":
        if lit == 0:
            raise FormulaError("literal 0 is reserved as the clause terminator")
        return cls(abs(lit), lit < 0)

    def holds(self, assignment: int) -> bool:
        bit = (assignment >> (self.var - 1)) & 1
        return bool(bit) != self.negated


@dataclass(frozen=True)
class Clause:
    """Disjunction of literals.  Duplicates are dropped; tautologies rejected."""

    literals: tuple[Literal, ...]

    def __post_init__(self) -> None:
        seen: dict[tuple[int, bool], Literal] = {}
        for lit in self.literals:
            if lit.var < 1:
                raise FormulaError(f"variable index {lit.var} out of range")
            seen.setdefault((lit.var, lit.negated), lit)
        if not seen:
            raise FormulaError("empty clause")
        positive = {v for v, neg in seen if not neg}
        negative = {v for v, neg in seen if neg}
        if positive & negative:
            raise FormulaError("tautological clause: contains a literal and its negation")
        object.__setattr__(self, "literals", tuple(seen.values()))

    @classmethod
    def from_ints(cls, lits: Iterable[int]) -> "Clause":
        return cls(tuple(Literal.from_int(lit) for lit in lits))

    def to_ints(self) -> tuple[int, ...]:
        return tuple(lit.to_int() for lit in self.literals)

    def satisfied_by(self, assignment: int) -> bool:
        return any(lit.holds(assignment) for lit in self.literals)


@dataclass(frozen=True)
class CnfFormula:
    """A conjunction of OR-clauses over n variables."""

    n: int
    clauses: tuple[Clause, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise FormulaError("formula needs at least one variable")
        clauses = tuple(self.clauses)
        if not clauses:
            raise FormulaError("formula needs at least one clause")
        for clause in clauses:
            for lit in clause.literals:
                if lit.var > self.n:
                    raise FormulaError(
                        f"variable x{lit.var} exceeds declared count n={self.n}"
                    )
        object.__setattr__(self, "clauses", clauses)

    @property
    def m(self) -> int:
        return len(self.clauses)

    @property
    def assignment_count(self) -> int:
        return 1 << self.n


def parse_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF text.

    Accepts ``c`` comment lines, exactly one ``p cnf <vars> <clauses>`` header,
    then whitespace-separated integers with each clause terminated by 0.  An
    integer is an optional ``-`` and ASCII digits; anything else, such as
    ``+3`` or ``1_0``, is rejected.
    Clauses may span lines or share one.  A line starting with ``%`` ends the
    formula: SATLIB files close with a ``%`` line and a lone ``0``, and both
    are ignored.  Raises ``DimacsError`` on a malformed header, a clause count
    mismatch, out-of-range literals, empty clauses, or tautological clauses.
    """
    n = m = None
    tokens: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if line.startswith("%"):
            break
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if n is not None:
                raise DimacsError(f"line {lineno}: duplicate problem header")
            parts = line.split()
            if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
                raise DimacsError(
                    f"line {lineno}: malformed header {line!r}, expected 'p cnf <vars> <clauses>'"
                )
            if not all(_DIMACS_INT.fullmatch(part) for part in parts[2:]):
                raise DimacsError(f"line {lineno}: non-integer counts in header {line!r}")
            n, m = int(parts[2]), int(parts[3])
            if n < 1 or m < 1:
                raise DimacsError(f"line {lineno}: header requires n >= 1 and m >= 1")
            continue
        if n is None:
            raise DimacsError(f"line {lineno}: clause data before 'p cnf' header")
        tokens.extend(line.split())

    if n is None or m is None:
        raise DimacsError("missing 'p cnf' header")

    clauses: list[Clause] = []
    current: list[int] = []
    for tok in tokens:
        if not _DIMACS_INT.fullmatch(tok):
            raise DimacsError(f"non-integer token {tok!r} in clause data")
        lit = int(tok)
        if lit == 0:
            try:
                clauses.append(Clause.from_ints(current))
            except FormulaError as exc:
                raise DimacsError(f"clause {len(clauses) + 1}: {exc}") from None
            current = []
        else:
            if abs(lit) > n:
                raise DimacsError(f"literal {lit} out of range for n={n}")
            current.append(lit)
    if current:
        raise DimacsError("unterminated clause (missing trailing 0)")
    if len(clauses) != m:
        raise DimacsError(f"header declares {m} clauses, found {len(clauses)}")
    return CnfFormula(n, tuple(clauses))


def read_dimacs(path) -> CnfFormula:
    """Parse the DIMACS CNF file at ``path``.

    This is the one place where file bytes become a formula.  The bytes are
    decoded as Latin-1, which maps every byte to one character and never
    fails, so any file either parses or raises ``DimacsError``.  Comments may
    hold any bytes, UTF-8 included; a non-ASCII character inside a header or
    clause token makes that token non-integer.
    """
    with open(path, "rb") as handle:
        return parse_dimacs(handle.read().decode("latin-1"))


def serialize_dimacs(formula: CnfFormula, comments: Sequence[str] = ()) -> str:
    lines = [f"c {comment}" for comment in comments]
    lines.append(f"p cnf {formula.n} {formula.m}")
    for clause in formula.clauses:
        lines.append(" ".join(str(lit) for lit in clause.to_ints()) + " 0")
    return "\n".join(lines) + "\n"


@dataclass
class UnsatTable:
    """Violation histogram and solution list of a formula.

    ``histogram[u]`` is the number of assignments violating exactly u clauses
    and ``solutions`` the indices with zero violations, in increasing order.
    """

    formula: CnfFormula
    histogram: np.ndarray
    solutions: list[int]

    @property
    def n(self) -> int:
        return self.formula.n

    @property
    def m(self) -> int:
        return self.formula.m

    @property
    def assignment_count(self) -> int:
        return 1 << self.n

    def unique_solution(self) -> int:
        if len(self.solutions) != 1:
            raise InstanceError(
                f"expected exactly one satisfying assignment, found {len(self.solutions)}"
            )
        return self.solutions[0]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "histogram": [int(v) for v in self.histogram],
            "solutions": [int(i) for i in self.solutions],
        }


def violation_mask(clause: Clause, indices: np.ndarray) -> np.ndarray:
    """Boolean mask over assignment indices: True where the clause is violated."""
    violated = np.ones(indices.shape, dtype=bool)
    for lit in clause.literals:
        bit = (indices >> (lit.var - 1)) & 1
        violated &= (bit == 1) == lit.negated
    return violated


def _blocks(formula: CnfFormula) -> range:
    """Enumeration blocks in assignment order.

    Block ``top`` holds the 2**b assignments i with i >> b == top, where
    b = min(n, BLOCK_BITS).
    """
    return range(formula.assignment_count >> min(formula.n, BLOCK_BITS))


def _product_dtype(m: int) -> type:
    """Float dtype in which a sum of up to m zeros and ones is exact.

    float32 holds every integer up to 2**24, float64 every one up to 2**53.
    """
    return np.float32 if m < 1 << 24 else np.float64


def violation_blocks(formula: CnfFormula, tops: range | None = None) -> Iterator[Block]:
    """Iterator of (first index, counts) over the blocks ``tops``, all by default, in order.

    A block's index bits are split into a high and a low half, and the bits
    above the block, fixed to its ``top``, join the high half.  As a (high, low)
    matrix the counts are then highs @ lows, where highs[h, c] and lows[c, l]
    test clause c on each half.  Every term is 0 or 1 and every sum at most
    m, so the product is exact in ``_product_dtype(m)``.  ``lows`` depends only
    on the formula and is built at the call; only the products wait for the
    iterator.  The counts come in the smallest unsigned dtype that holds m:
    uint8 while m < 256, then uint16, then uint32.
    """
    bits = min(formula.n, BLOCK_BITS)
    low_bits = bits // 2
    rows = 1 << (bits - low_bits)
    care = np.array(
        [sum(1 << (lit.var - 1) for lit in c.literals) for c in formula.clauses], dtype=np.int64
    )
    value = np.array(
        [sum(1 << (lit.var - 1) for lit in c.literals if lit.negated) for c in formula.clauses],
        dtype=np.int64,
    )
    low_mask = (1 << low_bits) - 1
    product_dtype = _product_dtype(formula.m)
    lows = (
        (np.arange(1 << low_bits) & (care & low_mask)[:, None]) == (value & low_mask)[:, None]
    ).astype(product_dtype)
    care_hi, value_hi = care >> low_bits, value >> low_bits
    counts_dtype = np.min_scalar_type(formula.m)

    def block(top: int) -> Block:
        high = np.arange(top * rows, (top + 1) * rows, dtype=np.int64)
        highs = ((high[:, None] & care_hi) == value_hi).astype(product_dtype)
        return top << bits, (highs @ lows).astype(counts_dtype).reshape(-1)

    return map(block, _blocks(formula) if tops is None else tops)


def _run_summary(m: int, blocks: Iterator[Block], max_solutions: int) -> tuple[np.ndarray, list[int]]:
    """Summed histogram and zero-violation indices of ``violation_blocks``' blocks, in order.

    Raises ``GuardError`` before the indices would number more than ``max_solutions``.
    """
    histogram = np.zeros(m + 1, dtype=np.int64)
    solutions: list[int] = []
    for first, counts in blocks:
        block_histogram = np.bincount(counts, minlength=m + 1)
        histogram += block_histogram
        if block_histogram[0]:
            if len(solutions) + block_histogram[0] > max_solutions:
                raise GuardError(
                    f"the solution list outgrows its share of physical memory: "
                    f"more than {max_solutions} solutions at {SOLUTION_BYTES} bytes each"
                )
            solutions += (np.flatnonzero(counts == 0) + first).tolist()
    return histogram, solutions


def build_unsat_table(formula: CnfFormula, threads: int = 1) -> UnsatTable:
    """Exhaustively enumerate all 2**n assignments.

    The assignments are split into blocks of 2**BLOCK_BITS (a single block
    when n <= BLOCK_BITS) whatever the thread count, and each of ``threads``
    workers (at most ``os.cpu_count()``) counts one contiguous run of them.
    The runs' histograms are summed as integers and their solutions joined
    in block order, so the result is identical for every thread count.
    Raises ``GuardError`` when n > ``MAX_ENUMERATION_N``, before any block
    is walked, and when a run's solutions would outgrow its share of
    physical memory, 1/len(runs) of ``memory_capacity(SOLUTION_BYTES)``.
    """
    if formula.n > MAX_ENUMERATION_N:
        raise GuardError(
            f"enumeration over 2**{formula.n} assignments exceeds the limit n <= {MAX_ENUMERATION_N}"
        )
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    workers = min(threads, os.cpu_count() or 1)
    blocks = _blocks(formula)
    cuts = [k * len(blocks) // workers for k in range(workers + 1)]
    runs = [blocks[start:stop] for start, stop in zip(cuts, cuts[1:]) if start < stop]
    walkers = [violation_blocks(formula, run) for run in runs]
    max_solutions = memory_capacity(SOLUTION_BYTES) // len(runs)
    histogram = np.zeros(formula.m + 1, dtype=np.int64)
    solutions: list[int] = []
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_run_summary, formula.m, walker, max_solutions) for walker in walkers]
        for future in futures:
            run_histogram, run_solutions = future.result()
            histogram += run_histogram
            solutions += run_solutions
    return UnsatTable(formula, histogram, solutions)
