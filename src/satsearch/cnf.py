"""CNF formulas over Boolean variables, DIMACS I/O, and exhaustive violation tables.

An assignment of n variables is packed into an integer index i in [0, 2**n):
bit k-1 of i holds the value of variable x_k.  Every other component (phase
operators, spectral sums, success metrics) is keyed to this encoding, so it is
fixed here once and tested bit-exactly.

``read_dimacs`` is the only reader of DIMACS files: it refuses one that would
not fit in memory, decodes the bytes so that no input can fail before parsing,
and hands the text to ``parse_dimacs``, which also accepts the SATLIB ``%``
trailer.

``build_unsat_table`` enumerates every assignment and keeps the histogram and
the first two solutions; ``satisfying_assignments`` lists every solution, for
the planted generator, which reads nothing else.  Their oracles, the scalar
count and the per-assignment counts, live in ``tests/oracles.py``.  They are
deliberately the only solvers in the package: exhaustive, and refused with
``GuardError`` above n = ``MAX_ENUMERATION_N``, a constant (30) that bounds
time alone, and, for the solution list, when it would not fit in physical
memory.  Both rest on one fact, as does every test of a clause: an OR-clause
is violated on exactly the indices i with i & ``Clause.care`` ==
``Clause.value``, the bits of its variables and of its negated literals.

The table needs a count for every assignment.  Split i into low, middle and
top bits and the test factors into a test on each part.  The assignments are
enumerated in fixed blocks of 2**BLOCK_BITS, each with its top bits fixed: a
clause with a true literal there is satisfied on the whole block and drops
out of it, and the counts of the rest, laid out as a (middle, low) matrix,
are one 0/1 matrix product, mids.T (middle x clause) @ lows (clause x low),
over the clauses left.  Both tables depend only on the formula and are built
once per call.  A block is counted in the smallest unsigned dtype that holds
m and kept only as its histogram, where ``np.bincount``'s intp copy of the
counts is made, and its first zeros; so the memory used does not grow with
2**n.  ``violation_blocks``, the block product, alone knows the block layout,
and the table is its only reader in the package.  The blocks are split into
one contiguous run per worker: the calling thread walks run 0 and a pool the
others, so one run starts no thread.  The set-up of every run's walker runs
at the call, on the caller's thread: a plain generator that made it in the
pool worker, BLAS thread variables unset, slowed n = 22 enumeration from
0.027-0.030 s to 0.035-0.044 s (2 vCPUs, numpy 2.4; cause not known).

The solutions need no counts, so ``satisfying_assignments`` walks bit
prefixes from x_n down instead (Davis, Logemann and Loveland, CACM 5, 394
(1962)) and drops a prefix as soon as a clause is decided against it, at the
bit of the clause's lowest variable.  Its cost is the sum, over the bits, of
the frontier there times the clauses decided there.  A random planted batch
of 5n 3-clauses keeps a few thousand prefixes at most (1.8k at n = 22,
5.7-8.7k at n = 30 on the seeds tried), so at n = 30 the walk takes
milliseconds where the block product took 2.6 s.  Its worst case is a
formula whose every clause shares the lowest variable, which decides nothing
before the last bit: at n = 20, m = 100 with every clause holding x1 negated,
medians of 40-64 ms against the block product's 22-43 ms, 1.5-2x as long
(2 vCPUs, numpy 2.4).  The generator's clauses are i.i.d. random and never
take that shape; on random batches of m = n, 2n and 5n 3-clauses at n = 22
and 24 the walk was the faster, by 1.2-1.7x at m = n and 4-35x above.
"""

from __future__ import annotations

import os
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Iterable, Iterator, Sequence

import numpy as np

# Largest n that build_unsat_table and satisfying_assignments enumerate.  It
# bounds time, not memory: the table's 2**30 assignments take seconds on one
# thread, and each n above doubles it.
MAX_ENUMERATION_N = 30

# Assignments per enumeration block: 2**BLOCK_BITS.  Smaller blocks pay numpy's
# per-call overhead on more, smaller products; larger ones fix fewer top bits,
# so fewer clauses drop out of each block's product, and hold more memory: the
# float product and the intp copy np.bincount makes.  The per-call tables hold
# (m x 2**(BLOCK_BITS/2)) floats each.  The prefix walk extends at most as
# many prefixes at a time.
BLOCK_BITS = 16

# Largest n the block kernel can index: its masks and indices are int64.
# MAX_ENUMERATION_N <= MAX_INDEX_N, so the table needs no check of its own.
MAX_INDEX_N = 62

# Peak bytes per solution of satisfying_assignments: tracemalloc's peak over
# the walk on p cnf k 1 / 1 0, k = 16..20 (half of all assignments solutions),
# is 39 to 54, and 44 to 54 with the copy to an array the planted generator's
# repair loop makes (38 to 54 at m = 2 and for the clause (-1 -2)).  The
# guard takes 160, more than twice the largest.
SOLUTION_BYTES = 160

# Peak bytes per input byte of read_dimacs: tracemalloc's peak over a file at
# the bound, 0.4 to 8 MB of 1-, 2-, 3- or 9-literal clauses, is 50 to 66 (66
# with every clause on one line); comment lines take 4.  The guard takes 140,
# more than twice the largest.
DIMACS_BYTES = 140

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
        if len({var for var, _ in seen}) < len(seen):  # a variable with both signs
            raise FormulaError("tautological clause: contains a literal and its negation")
        object.__setattr__(self, "literals", tuple(seen.values()))

    @classmethod
    def from_ints(cls, lits: Iterable[int]) -> "Clause":
        return cls(tuple(Literal.from_int(lit) for lit in lits))

    def to_ints(self) -> tuple[int, ...]:
        return tuple(lit.to_int() for lit in self.literals)

    # at first read, not at construction: a parsed clause may name a variable
    # in the billions, and its mask would take that many bits
    @cached_property
    def _masks(self) -> tuple[int, int]:
        care = value = 0
        for lit in self.literals:
            bit = 1 << (lit.var - 1)
            care |= bit
            if lit.negated:
                value |= bit
        return care, value

    care = property(lambda self: self._masks[0], doc="Bit k-1 set for each variable x_k of the clause.")
    value = property(lambda self: self._masks[1], doc="Bit k-1 set for each negated x_k of the clause.")

    def satisfied_by(self, assignment: int) -> bool:
        return (assignment & self.care) != self.value


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

    This is the one place where file bytes become a formula.  A file longer
    than ``memory_capacity(DIMACS_BYTES)`` bytes raises ``GuardError`` before
    parsing.  Otherwise the bytes are decoded as Latin-1, which maps every
    byte to one character and never fails, so the file either parses or
    raises ``DimacsError``.  Comments may hold any bytes, UTF-8 included; a
    non-ASCII character inside a header or clause token makes that token
    non-integer.
    """
    limit = memory_capacity(DIMACS_BYTES)
    data = bytearray()
    with open(path, "rb") as handle:
        # in chunks: one read of limit + 1 bytes would allocate that much up front
        while len(data) <= limit and (chunk := handle.read(min(1 << 20, limit + 1 - len(data)))):
            data += chunk
    if len(data) > limit:
        raise GuardError(f"a file over {limit} bytes does not fit in physical memory at {DIMACS_BYTES} bytes each")
    return parse_dimacs(data.decode("latin-1"))


def serialize_dimacs(formula: CnfFormula, comments: Sequence[str] = ()) -> str:
    lines = [f"c {comment}" for comment in comments]
    lines.append(f"p cnf {formula.n} {formula.m}")
    for clause in formula.clauses:
        lines.append(" ".join(str(lit) for lit in clause.to_ints()) + " 0")
    return "\n".join(lines) + "\n"


@dataclass
class UnsatTable:
    """Violation histogram and first solutions of a formula.

    ``histogram[u]`` is the number of assignments violating exactly u clauses
    and ``solutions`` the first two indices with zero violations, in
    increasing order: enough to name a unique solution, where ``histogram[0]``
    counts them all.  ``cnf.satisfying_assignments`` lists every solution.
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
        if self.histogram[0] != 1:
            raise InstanceError(f"expected exactly one satisfying assignment, found {self.histogram[0]}")
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
    return (indices & clause.care) == clause.value


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

    A block's index bits are split into a low half, a middle half and the
    bits above the block, fixed to its ``top``.  As a (middle, low) matrix
    the counts are then mids.T @ lows, where mids[c, h] and lows[c, l] test
    clause c on the middle and low bits, summed over the clauses whose
    literals on the top bits are all false for this ``top``; every other
    clause is satisfied on the whole block and adds nothing, and a block
    with no clause left counts all zeros.  Every term is 0 or 1 and every
    sum at most m, so the product is exact in ``_product_dtype(m)``.
    ``mids`` and ``lows`` depend only on the formula and are built at the
    call; only the products wait for the iterator.  The counts come in the
    smallest unsigned dtype that holds m: uint8 while m < 256, then uint16,
    then uint32.
    """
    bits = min(formula.n, BLOCK_BITS)
    low_bits = bits // 2
    care = np.array([c.care for c in formula.clauses], dtype=np.int64)
    value = np.array([c.value for c in formula.clauses], dtype=np.int64)
    product_dtype = _product_dtype(formula.m)

    def violated(shift: int, width: int) -> np.ndarray:
        """(clause, 2**width) 0/1 table: clause c violated on index bits [shift, shift + width)."""
        mask = (1 << width) - 1
        part = np.arange(1 << width)
        return ((part & ((care >> shift) & mask)[:, None]) == ((value >> shift) & mask)[:, None]).astype(
            product_dtype
        )

    lows = violated(0, low_bits)
    mids = violated(low_bits, bits - low_bits)
    care_top, value_top = care >> bits, value >> bits
    counts_dtype = np.min_scalar_type(formula.m)

    def block(top: int) -> Block:
        active = np.flatnonzero((top & care_top) == value_top)
        return top << bits, (mids[active].T @ lows[active]).astype(counts_dtype).reshape(-1)

    return map(block, _blocks(formula) if tops is None else tops)


def _room_for(held: int, found: int, max_solutions: int) -> None:
    """Raise ``GuardError`` if ``found`` more solutions after ``held`` would pass ``max_solutions``."""
    if held + found > max_solutions:
        raise GuardError(
            f"the solution list outgrows its share of physical memory: "
            f"more than {max_solutions} solutions at {SOLUTION_BYTES} bytes each"
        )


def _check_enumeration(n: int) -> None:
    """Raise ``GuardError`` when n > ``MAX_ENUMERATION_N``."""
    if n > MAX_ENUMERATION_N:
        raise GuardError(f"enumeration over 2**{n} assignments exceeds the limit n <= {MAX_ENUMERATION_N}")


def _run_summary(m: int, blocks: Iterator[Block]) -> tuple[np.ndarray, list[int]]:
    """Summed histogram and first two zero-violation indices of ``violation_blocks``' blocks, in order."""
    histogram = np.zeros(m + 1, dtype=np.int64)
    solutions: list[int] = []
    for first, counts in blocks:
        block_histogram = np.bincount(counts, minlength=m + 1)
        histogram += block_histogram
        if block_histogram[0] and len(solutions) < 2:
            solutions += (np.flatnonzero(counts == 0)[: 2 - len(solutions)] + first).tolist()
    return histogram, solutions


def _walk_runs(formula: CnfFormula, threads: int) -> list[tuple[np.ndarray, list[int]]]:
    """``_run_summary`` of each contiguous run of blocks, in block order.

    The blocks are split into one run per worker, ``threads`` of them but at
    most ``os.cpu_count()``.  The calling thread reads run 0 and a pool the
    others, so one run starts no thread.  Raises ``GuardError`` when
    n > ``MAX_ENUMERATION_N``, before any block is walked.
    """
    _check_enumeration(formula.n)
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    workers = min(threads, os.cpu_count() or 1)
    blocks = _blocks(formula)
    cuts = [k * len(blocks) // workers for k in range(workers + 1)]
    runs = [blocks[start:stop] for start, stop in zip(cuts, cuts[1:]) if start < stop]
    first, *others = [violation_blocks(formula, run) for run in runs]
    read = partial(_run_summary, formula.m)
    if not others:
        return [read(first)]
    with ThreadPoolExecutor(max_workers=len(others)) as pool:
        futures = [pool.submit(read, walker) for walker in others]
        return [read(first)] + [future.result() for future in futures]


def build_unsat_table(formula: CnfFormula, threads: int = 1) -> UnsatTable:
    """Exhaustively enumerate all 2**n assignments.

    The assignments are split into blocks of 2**BLOCK_BITS (a single block
    when n <= BLOCK_BITS) whatever the thread count, and each of ``threads``
    workers (at most ``os.cpu_count()``) counts one contiguous run of them.
    The runs' histograms are summed as integers and the first two of their
    solutions kept in block order, so the result is identical for every
    thread count.  Raises ``GuardError`` when n > ``MAX_ENUMERATION_N``,
    before any block is walked.
    """
    histogram = np.zeros(formula.m + 1, dtype=np.int64)
    solutions: list[int] = []
    for run_histogram, run_solutions in _walk_runs(formula, threads):
        histogram += run_histogram
        solutions = (solutions + run_solutions)[:2]
    return UnsatTable(formula, histogram, solutions)


def satisfying_assignments(formula: CnfFormula) -> list[int]:
    """Every index with zero violations, in increasing order, by a pruned walk over bit prefixes.

    The walk fixes x_n first and goes down: each prefix p of the bits fixed
    so far extends to 2p and 2p+1.  A clause is decided at the bit of its
    lowest variable; there, each parent whose bits falsify all the clause's
    other literals loses the one child whose new bit falsifies the last.
    The prefixes are walked depth-first in chunks of at most 2**BLOCK_BITS,
    the lower half of an oversized frontier first, so memory stays bounded
    and the solutions come out in increasing order.  Raises ``GuardError``
    when n > ``MAX_ENUMERATION_N``, before any prefix is walked, and before
    the list would outgrow ``memory_capacity(SOLUTION_BYTES)``.
    """
    _check_enumeration(formula.n)
    max_solutions = memory_capacity(SOLUTION_BYTES)
    # decided[b]: care and value above bit b, and the value of bit b that
    # violates, of each clause whose lowest variable is x_(b+1)
    decided: list[list[tuple[int, int, int]]] = [[] for _ in range(formula.n)]
    for clause in formula.clauses:
        bit = min(lit.var for lit in clause.literals) - 1
        decided[bit].append((clause.care >> (bit + 1), clause.value >> (bit + 1), (clause.value >> bit) & 1))
    dtype = np.min_scalar_type(formula.assignment_count - 1)  # holds every index
    solutions: list[int] = []
    stack = [(formula.n, np.zeros(1, dtype=dtype))]  # (bits left to fix, prefixes)
    while stack:
        left, prefixes = stack.pop()
        if prefixes.size > 1 << BLOCK_BITS:
            half = prefixes.size // 2
            stack += [(left, prefixes[half:]), (left, prefixes[:half])]
        elif left == 0:
            _room_for(len(solutions), prefixes.size, max_solutions)
            solutions += prefixes.tolist()
        else:
            children = np.empty(2 * prefixes.size, dtype=dtype)
            np.left_shift(prefixes, 1, out=children[0::2])
            np.bitwise_or(children[0::2], 1, out=children[1::2])
            if decided[left - 1]:
                # one contiguous row per child bit: an in-place test on a
                # strided view of interleaved flags took several times longer
                alive = np.ones((2, prefixes.size), dtype=bool)
                for care_above, value_above, violating in decided[left - 1]:
                    alive[violating] &= (prefixes & care_above) != value_above
                keep = np.empty(children.size, dtype=bool)
                keep[0::2], keep[1::2] = alive
                children = children[keep]
            if children.size:
                stack.append((left - 1, children))
    return solutions
