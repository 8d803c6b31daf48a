"""CNF formulas over Boolean variables, DIMACS I/O, and exhaustive violation tables.

An assignment of n variables is packed into an integer index i in [0, 2**n):
bit k-1 of i holds the value of variable x_k.  Every other component (phase
operators, spectral sums, success metrics) is keyed to this encoding, so it is
fixed here once and tested bit-exactly.  A clause is its literals as DIMACS
writes them, signed ints: k for x_k and -k for its negation.

``read_dimacs`` is the only reader of DIMACS files: it refuses, by
``check_fits``, one that would not fit in memory, decodes the bytes so that
no input can fail before parsing, and hands the text to ``parse_dimacs``,
which also accepts the SATLIB ``%`` trailer.

``build_unsat_table`` enumerates every assignment and keeps the histogram and
the first two solutions; ``satisfying_assignments`` lists every solution, for
the planted generator, which reads nothing else.  Their oracles, the scalar
count and the per-assignment counts, live in ``tests/oracles.py``.  They are
deliberately the only solvers in the package, and exhaustive.  Every guard of
the package is one of three calls here: ``check_enumeration`` refuses n above
``MAX_ENUMERATION_N``, ``check_index`` n above ``MAX_INDEX_N``, and
``check_fits`` a count of items that would not fit in physical memory, at the
item's measured peak bytes; ``GuardError`` says what they bound and what they
do not.  Both solvers rest on one fact, as does every test of a clause: an
OR-clause is violated on exactly the indices i with i & ``Clause.care`` ==
``Clause.value``, the bits of its variables and of its negated literals.

An ``UnsatTable`` is four facts, n, m, the histogram and those first
solutions, and holds no formula: any source may build one, and
``to_json_dict`` writes exactly those fields.  Its N is the histogram's sum,
2**n when the table is enumerated.

The table needs a count for every assignment.  Split i into low, middle and
top bits and the test factors into a test on each part.  The assignments are
enumerated in fixed blocks of 2**BLOCK_BITS, each with its top bits fixed: a
clause with a true literal there is satisfied on the whole block and drops
out of it, and the counts of the rest, laid out as a (middle, low) matrix,
are one 0/1 matrix product, mids.T (middle x clause) @ lows (clause x low),
over the clauses left.  Both tables depend only on the formula and are built
once per table.  A block is counted in the smallest unsigned dtype that holds
m and kept only as its histogram, where ``np.bincount``'s intp copy of the
counts is made, and its first zeros; so the memory used does not grow with
2**n.  ``violation_blocks``, the block counter, alone knows the block layout,
and the table is its only reader in the package.  Every worker shares that
one counter and takes every w-th block, worker k blocks k, k + w, ...: the
calling thread is worker 0 and a started thread each of the others, so one
worker starts no thread.  Each worker keeps its own histogram and its first
two solutions; their sum and the two smallest of them do not depend on which
worker saw which block.  The table takes one worker per
``MIN_BLOCKS_PER_WORKER`` blocks, at most the CPUs of the process's affinity
mask, so a small table stays on the calling thread.  A block's product is too
small to share: with the BLAS thread variables unset, OpenBLAS spread it over
the cores the worker threads use, and at n = 30 two workers took 5.3 s
against 4.8 s for one (2 vCPUs, numpy 2.4).  So the table holds the OpenBLAS
that numpy loaded at one thread, through ``ctypes``, and then restores the
count it found; where numpy's BLAS is another, whose threads it cannot set,
it keeps one worker.

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

import ctypes
import os
import re
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable, Iterator, Sequence

import numpy as np

try:  # the extension that runs numpy's matrix products, and so loads its BLAS
    from numpy._core import _multiarray_umath
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath

# Largest n that build_unsat_table and satisfying_assignments enumerate.  It
# bounds time, not memory: the table's 2**30 assignments take seconds on one
# thread, and each n above doubles it.
MAX_ENUMERATION_N = 30

# Assignments per enumeration block: 2**BLOCK_BITS.  Smaller blocks pay numpy's
# per-call overhead on more, smaller products; larger ones fix fewer top bits,
# so fewer clauses drop out of each block's product, and hold more memory: the
# float product and the intp copy np.bincount makes.  The clause tables, built
# once per table, hold (m x 2**(BLOCK_BITS/2)) floats each.  The prefix walk
# extends at most as many prefixes at a time.
BLOCK_BITS = 16

# Fewest blocks per worker for which build_unsat_table, left to choose,
# starts worker threads; a smaller table stays on the calling thread.  Two
# workers against one, OpenBLAS on one thread, on planted 5n batches at
# n = 17..22 (medians of 41 to 101 alternating calls, 2 vCPUs, numpy 2.4):
# at 1, 2 and 4 blocks per worker the one worker took 0.68-0.74, 0.78-0.99
# and 0.85-1.21 times as long as the two, at 8 0.99-1.34 times, and at 16
# and 32 1.26-1.55 times.  A worker thread also leaves its malloc arena behind,
# about 1 MiB of resident memory.
MIN_BLOCKS_PER_WORKER = 8

# Largest n the block kernel and the generators can index: their masks and
# indices are int64.  MAX_ENUMERATION_N <= MAX_INDEX_N, so the table needs no
# check_index of its own.
MAX_INDEX_N = 62

# Peak bytes per solution of satisfying_assignments: tracemalloc's peak over
# the walk on p cnf k 1 / 1 0, k = 16..20 (half of all assignments solutions),
# is 39 to 54, and 44 to 54 with the copy to an array the planted generator's
# repair loop makes (38 to 54 at m = 2 and for the clause (-1 -2)).  The
# guard takes 160, more than twice the largest.
SOLUTION_BYTES = 160

# Peak bytes per input byte of read_dimacs: tracemalloc's peak over a file at
# the bound, 0.4 to 2 MB of 1-, 2-, 3- or 9-literal clauses on 9 variables, is
# 13 to 36 with one clause per line, nearly all of it the clauses the formula
# keeps, and 26 to 45 with every clause on one line, whose tokens are listed at
# once; comment lines take 2 to 5.  The guard takes 140, more than twice the
# largest.
DIMACS_BYTES = 140

# Peak bytes per clause copy of build_unsat_table: m * (w + 1) copies on w
# workers, one for the clause tables, built once through int64 and bool
# (m x 2**(BLOCK_BITS/2)) temporaries, and one for each worker's mids[active]
# and lows[active] gather.  tracemalloc's peak over m = 2e4 and 5e4 clauses,
# each `1 0` or three random literals, at n = 16 (one worker) and n = 20 (one
# and two), is 1.75 to 2.15 KB per copy with the float32 product and 3.4 to
# 4.2 KB with the float64 one that m >= 2**24 takes.  The guard takes 8500,
# more than twice the largest.
TABLE_BYTES = 8500

# Most characters of an input line or token that a DIMACS error message echoes.
ECHO_CHARS = 32

# (first index, violation counts) of one enumeration block.
Block = tuple[int, np.ndarray]

# A DIMACS integer: optional minus sign and ASCII digits.  Python's int() would
# also take '+3', '1_0' and non-ASCII digits.
_DIMACS_INT = re.compile(r"-?[0-9]+")

# Most digits of a header count, leading zeros aside: every such count fits in
# an int64, and a literal past it is out of range.  int() refuses more than
# 4300 digits, a limit that sys.set_int_max_str_digits moves for the whole
# process.
MAX_COUNT_DIGITS = 18

# The line boundaries of str.splitlines(), to read a file one line at a time.
_LINE_BREAK = re.compile("\r\n|[\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]")


class FormulaError(ValueError):
    """Structurally invalid clause or formula."""


class DimacsError(FormulaError):
    """Malformed DIMACS CNF text."""


class InstanceError(ValueError):
    """Instance lacks the solution structure an operation requires."""


class GuardError(RuntimeError):
    """A request too large for this machine, refused before the work it would start.

    Raised only by ``check_enumeration``, ``check_fits`` and ``check_index``.
    The guards bound three things: n <= ``MAX_ENUMERATION_N`` for every
    enumeration, n <= ``MAX_INDEX_N`` for the generators, which index
    assignments in int64 and need not enumerate, and the bytes of what
    grows with the input (the file, the solution list, the clause tables and
    gathers, the initial clauses and the curve rows) against physical
    memory.  They do not bound time.  Two costs have no guard:
    ``spectral.spectrum``'s ~60 bisection passes of O(K**2) each over the K
    occupied classes, which a file can push to min(m + 1, 2**n), and the
    block products' m * 2**n, bounded only through ``MAX_ENUMERATION_N``.
    """


def memory_capacity(item_bytes: int) -> int:
    """How many items of ``item_bytes`` bytes fit in physical memory: the bound of ``check_fits``."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // item_bytes


def check_fits(count: int, item_bytes: int, what: str) -> None:
    """Raise ``GuardError``, naming the items ``what``, when ``count`` of them pass ``memory_capacity(item_bytes)``."""
    room = memory_capacity(item_bytes)
    if count > room:
        raise GuardError(f"{count} {what} exceed the {room} that fit in physical memory at {item_bytes} bytes each")


def check_enumeration(n: int) -> None:
    """Raise ``GuardError`` when n > ``MAX_ENUMERATION_N``."""
    if n > MAX_ENUMERATION_N:
        raise GuardError(f"enumeration over 2**{n} assignments exceeds the limit n <= {MAX_ENUMERATION_N}")


def check_index(n: int, what: str) -> None:
    """Raise ``GuardError`` when n > ``MAX_INDEX_N``: ``what`` indexes assignments in int64."""
    if n > MAX_INDEX_N:
        raise GuardError(f"{what} indexes assignments in int64: needs n <= {MAX_INDEX_N}, got n={n}")


@dataclass(frozen=True)
class Clause:
    """Disjunction of literals, each a signed DIMACS int: k is x_k and -k its negation.

    Any iterable of ints is kept as a tuple, duplicates dropped after their
    first occurrence; a 0, an empty clause and a tautology are rejected.
    """

    literals: tuple[int, ...]

    def __post_init__(self) -> None:
        literals = tuple(dict.fromkeys(self.literals))
        if 0 in literals:
            raise FormulaError("literal 0 is reserved as the clause terminator")
        if not literals:
            raise FormulaError("empty clause")
        if len(set(map(abs, literals))) < len(literals):  # a variable with both signs
            raise FormulaError("tautological clause: contains a literal and its negation")
        object.__setattr__(self, "literals", literals)

    # at first read, not at construction: a parsed clause may name a variable
    # in the billions, and its mask would take that many bits
    @cached_property
    def _masks(self) -> tuple[int, int]:
        care = value = 0
        for lit in self.literals:
            bit = 1 << (abs(lit) - 1)
            care |= bit
            if lit < 0:
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
            var = max(map(abs, clause.literals))
            if var > self.n:
                raise FormulaError(f"variable x{var} exceeds declared count n={self.n}")
        object.__setattr__(self, "clauses", clauses)

    @property
    def m(self) -> int:
        return len(self.clauses)

    @property
    def assignment_count(self) -> int:
        return 1 << self.n


def _lines(text: str) -> Iterator[str]:
    """``text.splitlines()``, one line at a time: the list would hold every line at once."""
    start = 0
    for brk in _LINE_BREAK.finditer(text):
        yield text[start : brk.start()]
        start = brk.end()
    if start < len(text):
        yield text[start:]


def _bounded_int(token: str) -> int | None:
    """The value of the DIMACS integer ``token``, or None past ``MAX_COUNT_DIGITS`` digits, leading zeros aside."""
    digits = token.lstrip("-").lstrip("0") or "0"
    if len(digits) > MAX_COUNT_DIGITS:
        return None
    return -int(digits) if token.startswith("-") else int(digits)


def _echo(text: str) -> str:
    """``repr(text)``, or the repr of its first ``ECHO_CHARS`` characters plus '...' when it is longer."""
    if len(text) <= ECHO_CHARS:
        return repr(text)
    return f"{text[:ECHO_CHARS]!r}..."


def _out_of_range(lit: int | None, n: int) -> DimacsError:
    """The error for a literal past n; one past ``MAX_COUNT_DIGITS`` digits (None) is not echoed."""
    if lit is None or abs(lit) >= 10**MAX_COUNT_DIGITS:
        return DimacsError(f"literal of more than {MAX_COUNT_DIGITS} digits out of range for n={n}")
    return DimacsError(f"literal {lit} out of range for n={n}")


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
    A header count may have at most ``MAX_COUNT_DIGITS`` digits after its
    leading zeros, and no message echoes an integer that has more, nor more
    than ``ECHO_CHARS`` characters of a line or token.
    """
    n = m = None
    clauses: list[Clause] = []
    current: list[int] = []
    for lineno, raw in enumerate(_lines(text), 1):
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
                    f"line {lineno}: malformed header {_echo(line)}, expected 'p cnf <vars> <clauses>'"
                )
            if not all(_DIMACS_INT.fullmatch(part) for part in parts[2:]):
                raise DimacsError(f"line {lineno}: non-integer counts in header {_echo(line)}")
            n, m = map(_bounded_int, parts[2:])
            if n is None or m is None:
                raise DimacsError(f"line {lineno}: header count of more than {MAX_COUNT_DIGITS} digits")
            if n < 1 or m < 1:
                raise DimacsError(f"line {lineno}: header requires n >= 1 and m >= 1")
            continue
        if n is None:
            raise DimacsError(f"line {lineno}: clause data before 'p cnf' header")
        for tok in line.split():
            if not _DIMACS_INT.fullmatch(tok):
                raise DimacsError(f"non-integer token {_echo(tok)} in clause data")
            try:
                lit = int(tok)
            except ValueError:  # past int()'s 4300 digits, which only leading zeros keep in range
                lit = _bounded_int(tok)
                if lit is None:
                    raise _out_of_range(None, n) from None
            if lit == 0:
                try:
                    clauses.append(Clause(current))
                except FormulaError as exc:
                    raise DimacsError(f"clause {len(clauses) + 1}: {exc}") from None
                current = []
            else:
                if abs(lit) > n:
                    raise _out_of_range(lit, n)
                current.append(lit)

    if n is None or m is None:
        raise DimacsError("missing 'p cnf' header")
    if current:
        raise DimacsError("unterminated clause (missing trailing 0)")
    if len(clauses) != m:
        raise DimacsError(f"header declares {m} clauses, found {len(clauses)}")
    return CnfFormula(n, tuple(clauses))


def read_dimacs(path) -> CnfFormula:
    """Parse the DIMACS CNF file at ``path``.

    This is the one place where file bytes become a formula.  The read stops
    one byte past ``memory_capacity(DIMACS_BYTES)``, and a file longer than
    that fails ``check_fits`` before parsing.  Otherwise the bytes are
    decoded as Latin-1, which maps every byte to one character and never
    fails, so the file either parses or raises ``DimacsError``.  Comments may
    hold any bytes, UTF-8 included; a non-ASCII character inside a header or
    clause token makes that token non-integer.
    """
    limit = memory_capacity(DIMACS_BYTES)
    data = bytearray()
    with open(path, "rb") as handle:
        # in chunks: one read of limit + 1 bytes would allocate that much up front
        while len(data) <= limit and (chunk := handle.read(min(1 << 20, limit + 1 - len(data)))):
            data += chunk
    check_fits(len(data), DIMACS_BYTES, "bytes of the file")
    return parse_dimacs(data.decode("latin-1"))


def serialize_dimacs(formula: CnfFormula, comments: Sequence[str] = ()) -> str:
    lines = [f"c {comment}" for comment in comments]
    lines.append(f"p cnf {formula.n} {formula.m}")
    for clause in formula.clauses:
        lines.append(" ".join(map(str, clause.literals)) + " 0")
    return "\n".join(lines) + "\n"


@dataclass
class UnsatTable:
    """Violation table of n variables and m clauses: four facts, and no formula.

    ``histogram[u]`` is the number of assignments violating exactly u clauses
    and ``solutions`` the first two indices with zero violations, in
    increasing order: enough to name a unique solution, where ``histogram[0]``
    counts them all.  ``build_unsat_table`` fills it by enumeration, but any
    source may, a closed form included; every run reads only these fields,
    and ``to_json_dict`` is exactly them.  Their N, ``assignment_count``, is
    the histogram's sum: 2**n when the table is enumerated, fewer on any
    smaller domain.  ``cnf.satisfying_assignments`` lists every solution.
    """

    n: int
    m: int
    histogram: np.ndarray
    solutions: list[int]

    @property
    def assignment_count(self) -> int:
        return int(np.sum(self.histogram))

    def unique_solution(self) -> int:
        if self.histogram[0] != 1:
            raise InstanceError(f"expected exactly one satisfying assignment, found {self.histogram[0]}")
        if len(self.solutions) != 1:
            raise InstanceError(f"one satisfying assignment counted but {len(self.solutions)} listed")
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


def violation_blocks(formula: CnfFormula) -> Callable[[int], Block]:
    """The block counter of ``formula``: block ``top`` -> (first index, counts).

    A block's index bits are split into a low half, a middle half and the
    bits above the block, fixed to its ``top``.  As a (middle, low) matrix
    the counts are then mids.T @ lows, where mids[c, h] and lows[c, l] test
    clause c on the middle and low bits, summed over the clauses whose
    literals on the top bits are all false for this ``top``; every other
    clause is satisfied on the whole block and adds nothing, and a block
    with no clause left counts all zeros.  Every term is 0 or 1 and every
    sum at most m, so the product is exact in ``_product_dtype(m)``.
    ``mids``, ``lows`` and the top-bit masks depend only on the formula and
    are built here, once, on the calling thread; the counter only reads
    them, so any number of threads may share it, each calling it for its
    own blocks.  The counts come in the smallest unsigned dtype that holds
    m: uint8 while m < 256, then uint16, then uint32.
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

    return block


def _run_summary(m: int, blocks: Iterator[Block]) -> tuple[np.ndarray, list[int]]:
    """Summed histogram and first two zero-violation indices of blocks given in increasing order."""
    histogram = np.zeros(m + 1, dtype=np.int64)
    solutions: list[int] = []
    for first, counts in blocks:
        block_histogram = np.bincount(counts, minlength=m + 1)
        histogram += block_histogram
        if block_histogram[0] and len(solutions) < 2:
            solutions += (np.flatnonzero(counts == 0)[: 2 - len(solutions)] + first).tolist()
    return histogram, solutions


def _cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one, else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_BlasThreads = tuple[Callable[[], int], Callable[[int], None]]


@cache
def _openblas() -> _BlasThreads | None:
    """(getter, setter) of the thread count of the OpenBLAS numpy loaded, or None for any other BLAS.

    The symbols are looked up through numpy's own extension, whose handle
    reaches the libraries it links; the names are those of the scipy-openblas
    build numpy's wheels bundle and of OpenBLAS with and without its 64-bit
    integer suffix.  Looked up once per process: about 30 us a call.
    """
    try:
        lib = ctypes.CDLL(_multiarray_umath.__file__)
    except OSError:
        return None
    for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
        try:
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}")
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}")
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return None


# The BLAS thread count is one per process: two walks that each saved and
# restored it on their own could leave it at 1.
_BLAS_PIN = threading.Lock()


@contextmanager
def _one_blas_thread(blas: _BlasThreads | None) -> Iterator[None]:
    """Hold ``blas`` at one thread while the body runs, then restore the count found; no-op for None."""
    if blas is None:
        yield
        return
    get, put = blas
    with _BLAS_PIN:
        found = get()
        put(1)
        try:
            yield
        finally:
            put(found)


def build_unsat_table(formula: CnfFormula, threads: int | None = None) -> UnsatTable:
    """Exhaustively enumerate all 2**n assignments.

    The assignments are split into blocks of 2**BLOCK_BITS (a single block
    when n <= BLOCK_BITS) whatever the worker count.  By default there is
    one worker per ``MIN_BLOCKS_PER_WORKER`` blocks, at least one and at
    most the CPUs this process may run on, and a single worker where
    numpy's BLAS is not OpenBLAS; ``threads`` sets the count instead, still
    at most the CPUs and the blocks.  With w workers, worker k counts blocks
    k, k + w, k + 2w, ... through the one counter ``violation_blocks``
    builds on the calling thread.  The calling thread is worker 0 and each
    other worker a started thread, so one worker starts no thread.  OpenBLAS
    is held at one thread until every worker has finished, and its count
    then restored.  A worker's exception is raised on the calling thread
    once every worker has joined.  The histograms are summed as integers
    and the two smallest of all the workers' solutions kept, so the result
    is identical for every worker count.  Fails ``check_enumeration``
    before any block is walked, and ``check_fits`` for m * (w + 1) clause
    copies, the tables and each worker's gather, before any table is built.
    """
    check_enumeration(formula.n)
    if threads is not None and threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    blas = _openblas()
    blocks = _blocks(formula)
    if threads is None:
        threads = len(blocks) // MIN_BLOCKS_PER_WORKER if blas else 1
    workers = max(1, min(threads, _cpus(), len(blocks)))
    check_fits(formula.m * (workers + 1), TABLE_BYTES, f"clause copies ({formula.m} clauses on {workers} workers)")
    count = violation_blocks(formula)
    outcomes: list = [None] * workers  # each worker's summary, or its exception

    def walk(k: int) -> None:
        try:
            outcomes[k] = _run_summary(formula.m, map(count, blocks[k::workers]))
        except BaseException as exc:  # raised again on the calling thread
            outcomes[k] = exc

    with _one_blas_thread(blas):
        started: list[threading.Thread] = []
        try:
            for k in range(1, workers):
                thread = threading.Thread(target=walk, args=(k,))
                thread.start()
                started.append(thread)
            walk(0)
        finally:
            for thread in started:
                thread.join()
    for outcome in outcomes:
        if isinstance(outcome, BaseException):
            raise outcome
    histogram = sum(part for part, _ in outcomes)
    solutions = sorted(index for _, first in outcomes for index in first)[:2]
    return UnsatTable(formula.n, formula.m, histogram, solutions)


def satisfying_assignments(formula: CnfFormula) -> list[int]:
    """Every index with zero violations, in increasing order, by a pruned walk over bit prefixes.

    The walk fixes x_n first and goes down: each prefix p of the bits fixed
    so far extends to 2p and 2p+1.  A clause is decided at the bit of its
    lowest variable; there, each parent whose bits falsify all the clause's
    other literals loses the one child whose new bit falsifies the last.
    The prefixes are walked depth-first in chunks of at most 2**BLOCK_BITS,
    the lower half of an oversized frontier first, so memory stays bounded
    and the solutions come out in increasing order.  Fails
    ``check_enumeration`` before any prefix is walked, and ``check_fits`` at
    ``SOLUTION_BYTES`` before the list would outgrow physical memory.
    """
    check_enumeration(formula.n)
    # decided[b]: care and value above bit b, and the value of bit b that
    # violates, of each clause whose lowest variable is x_(b+1)
    decided: list[list[tuple[int, int, int]]] = [[] for _ in range(formula.n)]
    for clause in formula.clauses:
        bit = min(map(abs, clause.literals)) - 1
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
            check_fits(len(solutions) + prefixes.size, SOLUTION_BYTES, "solutions")
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
