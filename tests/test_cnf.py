import contextlib
import io
import os
import sys
import tempfile
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import satsearch as ss
from satsearch.cli import main
from satsearch.cnf import violation_mask

from conftest import TOY_DIMACS, enumeration_walkers, formula_with_assignment, counter_formula, formulas, random_3sat
from oracles import unsat_count, violation_counts


def record_threads(monkeypatch) -> tuple[list, list]:
    """Patch the table's worker threads to note each start, and whether each join left the thread finished.

    Returns the two lists, of started threads and of join outcomes.
    """
    started, finished = [], []

    class Recorded(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

        def join(self, timeout=None):
            super().join(timeout)
            finished.append(not self.is_alive())

    monkeypatch.setattr(ss.cnf.threading, "Thread", Recorded)
    return started, finished


def formula_with_solutions(n: int, solutions: set[int]) -> ss.CnfFormula:
    """One n-literal clause violated only by each non-solution: exactly ``solutions`` satisfy it."""
    blocking = [
        ss.Clause(-(k + 1) if a >> k & 1 else k + 1 for k in range(n)) for a in range(1 << n) if a not in solutions
    ]
    return ss.CnfFormula(n, tuple(blocking))


class TestParseDimacs:
    def test_basic(self):
        formula = ss.parse_dimacs("p cnf 2 1\n1 -2 0\n")
        assert formula.n == 2
        assert formula.m == 1
        assert formula.clauses[0].literals == (1, -2)

    def test_comments_and_multiline_clauses(self):
        text = "c header comment\np cnf 3 2\n1 2\n3 0 -1 -2 -3 0\nc trailing\n"
        formula = ss.parse_dimacs(text)
        assert formula.m == 2
        assert formula.clauses[0].literals == (1, 2, 3)
        assert formula.clauses[1].literals == (-1, -2, -3)

    def test_tautological_clause_rejected(self):
        with pytest.raises(ss.DimacsError, match="tautological"):
            ss.parse_dimacs("p cnf 1 1\n1 -1 0\n")

    def test_clause_count_mismatch(self):
        with pytest.raises(ss.DimacsError, match="declares 2"):
            ss.parse_dimacs("p cnf 2 2\n1 0\n")

    def test_empty_clause_rejected(self):
        with pytest.raises(ss.DimacsError, match="empty clause"):
            ss.parse_dimacs("p cnf 2 2\n1 0\n0\n")

    def test_literal_out_of_range(self):
        with pytest.raises(ss.DimacsError, match="out of range"):
            ss.parse_dimacs("p cnf 2 1\n1 3 0\n")

    @pytest.mark.parametrize("digits", [19, 100, 4300, 4301, 9000])
    def test_long_literal_not_echoed(self, digits):
        with pytest.raises(ss.DimacsError) as raised:
            ss.parse_dimacs(f"p cnf 2 1\n1 -{'9' * digits} 0\n")
        assert str(raised.value) == "literal of more than 18 digits out of range for n=2"

    def test_leading_zeros_past_int_digit_limit(self):
        formula = ss.parse_dimacs("p cnf 0002 1\n1 -" + "0" * 5000 + "2 0\n")
        assert formula == ss.parse_dimacs("p cnf 2 1\n1 -2 0\n")

    def test_header_count_digit_bound(self):
        formula = ss.parse_dimacs("p cnf 2 " + "0" * 30 + "1\n1 0\n")
        assert formula.m == 1
        with pytest.raises(ss.DimacsError, match="declares 999999999999999999 clauses"):
            ss.parse_dimacs("p cnf 2 " + "9" * 18 + "\n1 0\n")
        with pytest.raises(ss.DimacsError, match="header count of more than 18 digits"):
            ss.parse_dimacs("p cnf 2 1" + "0" * 18 + "\n1 0\n")

    def test_malformed_header(self):
        with pytest.raises(ss.DimacsError, match="header"):
            ss.parse_dimacs("p dnf 2 1\n1 0\n")

    def test_missing_header(self):
        with pytest.raises(ss.DimacsError, match="header"):
            ss.parse_dimacs("1 0\n")

    def test_unterminated_clause(self):
        with pytest.raises(ss.DimacsError, match="unterminated"):
            ss.parse_dimacs("p cnf 2 1\n1 2\n")

    def test_duplicate_literals_dropped(self):
        formula = ss.parse_dimacs("p cnf 2 1\n1 1 -2 0\n")
        assert formula.clauses[0].literals == (1, -2)

    @given(formulas())
    @settings(max_examples=60)
    def test_roundtrip_identity(self, formula):
        again = ss.parse_dimacs(ss.serialize_dimacs(formula))
        assert again == formula

    def test_satlib_trailer_ignored(self):
        # SATLIB files close with a '%' line and a lone '0'
        text = "c uf3\np cnf 3 2\n 1 -2 3 0\n-1 2 0\n"
        assert ss.parse_dimacs(text + "%\n0\n\n") == ss.parse_dimacs(text)

    @pytest.mark.parametrize("header", ["p cnf 1_0 1", "p cnf +2 1", "p cnf 2 ¹", "p cnf 2 0x1"])
    def test_header_counts_must_be_ascii_digits(self, header):
        with pytest.raises(ss.DimacsError, match="non-integer counts"):
            ss.parse_dimacs(header + "\n1 0\n")

    # '²' passes str.isdigit, '1_0' and '+1' pass int()
    @pytest.mark.parametrize("token", ["+1", "1_0", "²", "1.0", "0x1", "--1"])
    def test_clause_tokens_must_be_ascii_integers(self, token):
        with pytest.raises(ss.DimacsError, match="non-integer token"):
            ss.parse_dimacs(f"p cnf 10 1\n{token} 0\n")

    @given(st.text(alphabet="a 0\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\u2028\u2029", max_size=12))
    def test_lines_are_splitlines(self, text):
        assert list(ss.cnf._lines(text)) == text.splitlines()

    @pytest.mark.parametrize("line, clauses", [("c a comment line\n", 0), ("-7 0\n", 1), ("1 -4 6 0\n", 1)])
    def test_parse_holds_one_line_at_a_time(self, line, clauses, tmp_path):
        # beyond the formula it returns, parsing holds the file's bytes, their
        # text and one line; lists of every line or token held 8 to 17 B more
        # per input byte
        path = tmp_path / "lines.cnf"
        path.write_text(f"p cnf 9 {20_000 * clauses or 1}\n" + line * 20_000 + ("" if clauses else "1 0\n"))
        tracemalloc.start()
        try:
            formula = ss.read_dimacs(path)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert formula.m == (20_000 * clauses or 1)
        assert peak - kept <= 6 * path.stat().st_size

    def test_serialize_comments(self):
        text = ss.serialize_dimacs(ss.parse_dimacs(TOY_DIMACS), comments=["planted 3"])
        assert text.startswith("c planted 3\np cnf 2 2\n")


class TestClauseEvaluation:
    def test_examples(self):
        clause = ss.Clause([1, -2])
        assert clause.satisfied_by(0b01)  # x1=1, x2=0
        assert not clause.satisfied_by(0b10)  # x1=0, x2=1
        assert ss.Clause([1]).satisfied_by(1)

    def test_unsat_count_examples(self, toy_formula):
        assert unsat_count(toy_formula, 0b00) == 2
        assert unsat_count(toy_formula, 0b11) == 0
        assert unsat_count(toy_formula, 0b01) == 1

    @given(formula_with_assignment())
    @settings(max_examples=80)
    def test_unsat_count_matches_per_clause_loop(self, case):
        formula, assignment = case
        satisfied = 0
        for clause in formula.clauses:
            if any((assignment >> (abs(lit) - 1)) & 1 != (lit < 0) for lit in clause.literals):
                satisfied += 1
        assert unsat_count(formula, assignment) == formula.m - satisfied


class TestClauseInvariants:
    def test_empty_rejected(self):
        with pytest.raises(ss.FormulaError):
            ss.Clause(())

    def test_tautology_rejected(self):
        with pytest.raises(ss.FormulaError):
            ss.Clause([2, -2])

    def test_zero_literal_rejected(self):
        with pytest.raises(ss.FormulaError, match="^literal 0 is reserved as the clause terminator$"):
            ss.Clause([1, 0])

    def test_any_iterable_kept_as_a_tuple(self):
        clause = ss.Clause(iter([-2, 5, -2]))
        assert clause.literals == (-2, 5)
        assert clause == ss.Clause((-2, 5))

    def test_masks(self):
        clause = ss.Clause([3, -1, 3, -4])
        assert clause.literals == (3, -1, -4)
        assert (clause.care, clause.value) == (0b1101, 0b1001)

    def test_masks_wait_for_a_read(self):
        # a clause on x_4000000000 parses without building its 500 MB mask
        tracemalloc.start()
        try:
            ss.parse_dimacs("p cnf 4000000000 1\n-4000000000 0\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_parsed_clause_bytes(self):
        # a clause keeps one tuple of signed ints: 146 B for three literals,
        # where one object per literal kept 416
        text = "p cnf 9 20000\n" + "1 -4 6 0\n" * 20_000
        tracemalloc.start()
        try:
            formula = ss.parse_dimacs(text)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert formula.m == 20_000
        assert kept <= 256 * formula.m

    def test_variable_bound_checked(self):
        with pytest.raises(ss.FormulaError):
            ss.CnfFormula(2, (ss.Clause([3]),))

    def test_formula_needs_clauses(self):
        with pytest.raises(ss.FormulaError):
            ss.CnfFormula(2, ())


class TestUnsatTable:
    def test_toy_hand_enumeration(self, toy_formula, toy_table):
        assert list(toy_table.histogram) == [1, 2, 1]
        assert toy_table.solutions == [3]
        assert list(violation_counts(toy_formula)) == [2, 1, 1, 0]

    def test_single_clause_single_variable(self):
        table = ss.build_unsat_table(ss.parse_dimacs("p cnf 1 1\n1 0\n"))
        assert list(table.histogram) == [1, 1]
        assert table.solutions == [1]

    @given(formulas())
    @settings(max_examples=40)
    def test_histogram_sums_to_assignment_count(self, formula):
        table = ss.build_unsat_table(formula)
        assert int(table.histogram.sum()) == formula.assignment_count
        assert table.solutions == [int(i) for i in np.flatnonzero(violation_counts(formula) == 0)][:2]

    def test_guard(self, monkeypatch):
        """n = 31 and 63 are refused by both readers before any work; n = 30 is enumerated."""
        walked = []

        def no_blocks(formula):
            walked.append(formula.n)
            return lambda top: (top, np.zeros(0, dtype=np.uint8))

        def no_tables(item_bytes):
            raise AssertionError("the clause tables were sized")

        class NoArrays:
            def __getattr__(self, name):
                raise AssertionError("the prefix walk began")

        monkeypatch.setattr(ss.cnf, "violation_blocks", no_blocks)
        with monkeypatch.context() as patch:
            patch.setattr(ss.cnf, "memory_capacity", no_tables)  # the table's next check after the guard
            for n in (31, 63):
                wide = ss.parse_dimacs(f"p cnf {n} 1\n1 0\n")
                with pytest.raises(ss.GuardError, match="n <= 30"):
                    ss.build_unsat_table(wide)
                with patch.context() as walk:
                    walk.setattr(ss.cnf, "np", NoArrays())  # the walk's first array comes after the guard
                    with pytest.raises(ss.GuardError, match="n <= 30"):
                        ss.cnf.satisfying_assignments(wide)
        assert walked == []
        n = ss.cnf.MAX_ENUMERATION_N
        # the stub blocks count no assignment, so the table they sum to is refused where it is made
        with pytest.raises(ss.InstanceError, match="empty search domain"):
            ss.build_unsat_table(ss.parse_dimacs(f"p cnf {n} 1\n1 0\n"))
        assert walked == [n]  # one set of clause tables for every worker
        # one unit clause per variable, x_k true for odd k and false for even k
        units = "".join(f"{k if k % 2 else -k} 0\n" for k in range(1, n + 1))
        solutions = ss.cnf.satisfying_assignments(ss.parse_dimacs(f"p cnf {n} {n}\n{units}"))
        assert solutions == [sum(1 << (k - 1) for k in range(1, n + 1, 2))]

    def test_enumeration_limit_within_index_limit(self):
        # what lets the table drop a check of the int64 index limit of its own
        assert ss.cnf.MAX_ENUMERATION_N <= ss.cnf.MAX_INDEX_N

    @pytest.mark.parametrize("threads", [1, 2])
    def test_solution_list_against_physical_memory(self, threads, monkeypatch):
        """The walk lists the solutions that fit and refuses one more; the table, on w workers, needs room for two."""
        formula = ss.parse_dimacs("p cnf 20 1\n1 0\n")  # 2**19 solutions, 2**18 per half
        monkeypatch.setattr(ss.cnf.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        for capacity, fits in ((1 << 19, True), ((1 << 19) - 1, False)):
            pages = {"SC_PAGE_SIZE": ss.cnf.SOLUTION_BYTES, "SC_PHYS_PAGES": capacity}
            monkeypatch.setattr(ss.cnf.os, "sysconf", pages.__getitem__)
            if fits:
                assert len(ss.cnf.satisfying_assignments(formula)) == 1 << 19
            else:
                with pytest.raises(ss.GuardError, match=f"solutions exceed the {capacity} that fit"):
                    ss.cnf.satisfying_assignments(formula)
        # room for two solutions: the table keeps two, whatever the count;
        # the clause tables, which this memory does not bound, take 1 byte
        pages = {"SC_PAGE_SIZE": ss.cnf.SOLUTION_BYTES, "SC_PHYS_PAGES": 2}
        monkeypatch.setattr(ss.cnf.os, "sysconf", pages.__getitem__)
        monkeypatch.setattr(ss.cnf, "TABLE_BYTES", 1)
        table = ss.build_unsat_table(formula, threads=threads)
        assert table.solutions == [1, 3] and table.histogram[0] == 1 << 19

    def test_threaded_enumeration_identical(self):
        formula = ss.generate_planted_3sat(9, 12, seed=4)
        sequential = ss.build_unsat_table(formula, threads=1)
        threaded = ss.build_unsat_table(formula, threads=3)
        assert np.array_equal(sequential.histogram, threaded.histogram)
        assert sequential.solutions == threaded.solutions

    @staticmethod
    def blocked_table_matches_scalar_path(formula, bits, threads):
        """Counter, table, counts, histogram and solutions with 2**bits-assignment blocks and prefix chunks.

        Each is checked against ``unsat_count``; the counter also on its first
        indices and on the blocks asked for in reverse order.
        """
        with mock.patch.object(ss.cnf, "BLOCK_BITS", bits):
            count = ss.cnf.violation_blocks(formula)
            tops = ss.cnf._blocks(formula)
            blocks = list(map(count, tops))
            backwards = list(map(count, reversed(tops)))
            table = ss.build_unsat_table(formula, threads=threads)
            solutions = ss.cnf.satisfying_assignments(formula)
            counts = violation_counts(formula)
        expected = [unsat_count(formula, i) for i in range(formula.assignment_count)]
        size = 1 << min(formula.n, bits)
        assert [first for first, _ in blocks] == list(range(0, formula.assignment_count, size))
        assert np.concatenate([block_counts for _, block_counts in blocks]).tolist() == expected
        assert [(first, c.tolist()) for first, c in backwards] == [(first, c.tolist()) for first, c in blocks[::-1]]
        assert counts.tolist() == expected
        assert table.histogram.tolist() == np.bincount(expected, minlength=formula.m + 1).tolist()
        assert solutions == [i for i, u in enumerate(expected) if u == 0]
        assert table.solutions == solutions[:2]
        return counts

    @given(formulas(max_n=8), st.integers(0, 6), st.sampled_from([1, 2, 3]))
    @settings(max_examples=60, deadline=None)
    # with 4-assignment blocks, x3..x6 are the top bits: a clause on top bits alone
    @example(ss.parse_dimacs("p cnf 6 3\n3 -6 0\n1 -2 4 0\n-5 0\n"), 2, 2)
    # every clause holds x6, so each block with x6 = 1 has no clause left and counts all 0
    @example(ss.parse_dimacs("p cnf 6 3\n6 1 0\n6 -2 5 0\n6 0\n"), 2, 2)
    # every clause holds -x1, so the walk prunes nothing until the last bit,
    # where 128 prefixes pass through chunks of four
    @example(ss.parse_dimacs("p cnf 8 4\n-1 2 3 0\n-1 -4 5 0\n-1 6 -8 0\n-1 7 0\n"), 2, 2)
    # one unit clause on x1: the 128 solutions come out of one-prefix chunks
    @example(ss.parse_dimacs("p cnf 8 1\n1 0\n"), 0, 1)
    # a random batch with m = n, which leaves many solutions
    @example(random_3sat(8, 8, seed=1), 1, 3)
    def test_every_block_split_matches_scalar_path(self, formula, bits, threads):
        # blocks of 1 to 64 assignments: up to 256 blocks, shared by the
        # workers; from 4 assignments on, a block's product has both a middle
        # and a low half, and literals also land on the block-index bits,
        # which leave out of the product the clauses they satisfy; the prefix
        # walk's chunks of 1 to 64 prefixes split every larger frontier
        self.blocked_table_matches_scalar_path(formula, bits, threads)

    def test_walker_set_up_at_the_call(self, monkeypatch):
        # the clause tables are built when the counter is made, not when a block is counted
        formula = ss.generate_planted_3sat(8, 20, seed=1)
        count = ss.cnf.violation_blocks(formula)

        def no_set_up(m):
            raise AssertionError("set-up ran while the blocks were counted")

        monkeypatch.setattr(ss.cnf, "_product_dtype", no_set_up)
        counts = np.concatenate([block_counts for _, block_counts in map(count, ss.cnf._blocks(formula))])
        assert counts.tolist() == [unsat_count(formula, i) for i in range(1 << 8)]

    def test_clause_tables_built_once_on_the_calling_thread(self, monkeypatch):
        # four workers share one counter, whose tables the calling thread builds
        set_up = []
        product_dtype = ss.cnf._product_dtype

        def record(m):
            set_up.append(threading.get_ident())
            return product_dtype(m)

        monkeypatch.setattr(ss.cnf, "_product_dtype", record)
        started, _ = record_threads(monkeypatch)
        formula = ss.generate_planted_3sat(10, 40, seed=2)
        with enumeration_walkers(4) as shares:
            table = ss.build_unsat_table(formula, threads=4)
        assert (len(shares), len(started)) == (4, 3)
        assert set_up == [threading.get_ident()]
        assert table.histogram.tolist() == np.bincount(violation_counts(formula), minlength=formula.m + 1).tolist()

    # three solutions among 16 blocks of 4 assignments; on 2, 3 and 4 workers
    # the smallest is in worker 1's share and worker 0 holds a larger one, so a
    # merge in worker order would keep that one first.  "apart": blocks 1, 3
    # and 4, and the two smallest are in different shares; "one-share": block
    # 1 holds both, and block 12 the third
    @pytest.mark.parametrize("solutions", [{5, 13, 17}, {5, 6, 49}], ids=["apart", "one-share"])
    def test_merge_keeps_the_two_smallest(self, solutions):
        formula = formula_with_solutions(6, solutions)
        # every non-solution violates its one clause
        expected = {"n": 6, "m": 61, "histogram": [3, 61] + [0] * 60, "solutions": sorted(solutions)[:2]}
        for threads in (1, 2, 3, 4):
            with enumeration_walkers(4) as shares:
                table = ss.build_unsat_table(formula, threads=threads)
            assert len(shares) == threads
            assert table.to_json_dict() == expected

    def test_one_submission_per_worker(self, monkeypatch):
        # the calling thread is worker 0, so one thread is started for the other worker
        started, _ = record_threads(monkeypatch)
        formula = ss.generate_planted_3sat(12, 40, seed=6)
        single = ss.build_unsat_table(formula, threads=1)
        monkeypatch.setattr(ss.cnf.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)  # two workers
        with mock.patch.object(ss.cnf, "BLOCK_BITS", 2):  # 1024 blocks
            threaded = ss.build_unsat_table(formula, threads=2)
        assert len(started) == 2 - 1
        assert np.array_equal(threaded.histogram, single.histogram)
        assert threaded.solutions == single.solutions

    @pytest.mark.parametrize(
        "m, dtype", [(1, np.float32), ((1 << 24) - 1, np.float32), (1 << 24, np.float64)]
    )
    def test_product_dtype_holds_every_count(self, m, dtype):
        # float32 is exact for integers up to 2**24 only
        assert ss.cnf._product_dtype(m) is dtype

    def test_sixteen_bit_counts(self):
        # m >= 256 clauses, and counts up to 511 that no longer fit in a byte
        formula = ss.CnfFormula(9, counter_formula(9).clauses + random_3sat(9, 40, seed=5).clauses)
        counts = self.blocked_table_matches_scalar_path(formula, 4, 2)
        assert counts.dtype == np.uint16 and counts.max() >= 256

    def test_huge_thread_count_capped_at_cpu_count(self, monkeypatch):
        started, _ = record_threads(monkeypatch)
        formula = ss.generate_planted_3sat(6, 12, seed=2)
        # the CPUs the process may run on, not every CPU the machine has
        monkeypatch.setattr(ss.cnf.os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        monkeypatch.setattr(ss.cnf.os, "cpu_count", lambda: 8)
        with mock.patch.object(ss.cnf, "BLOCK_BITS", 2):  # 16 blocks
            huge = ss.build_unsat_table(formula, threads=1 << 20)
            single = ss.build_unsat_table(formula, threads=1)
        # three workers, the calling thread and two started threads; one worker starts no thread
        assert len(started) == 3 - 1
        assert np.array_equal(huge.histogram, single.histogram)
        assert huge.solutions == single.solutions

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one_rejected(self, toy_formula, threads):
        with pytest.raises(ValueError, match="threads must be >= 1"):
            ss.build_unsat_table(toy_formula, threads=threads)

    @staticmethod
    def enumeration_peak(formula, threads):
        """Peak bytes tracemalloc sees while ``build_unsat_table`` runs."""
        tracemalloc.start()
        try:
            table = ss.build_unsat_table(formula, threads=threads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.unique_solution() >= 0
        return peak

    def test_peak_memory_bounded_by_block(self):
        # Each worker holds one 2**16 block at a time: its float32 product,
        # its byte counts and the int64 copy np.bincount makes, about 0.6 MiB
        # for any n.  Counts of every assignment would add 1 MiB per 2**20
        # assignments (and 8 MiB more for the bincount copy).
        formula = ss.generate_planted_3sat(20, 100, seed=3)
        assert self.enumeration_peak(formula, threads=2) <= 6 << 20

    def test_peak_memory_of_block_product(self):
        # two workers' blocks, about 1.3 MiB; 2**18-assignment blocks took
        # about twice that
        formula = ss.generate_planted_3sat(20, 100, seed=3)
        assert self.enumeration_peak(formula, threads=2) <= 2 << 20

    def test_json_export(self, toy_table):
        payload = toy_table.to_json_dict()
        assert payload == {"n": 2, "m": 2, "histogram": [1, 2, 1], "solutions": [3]}

    def test_unique_solution_accessor(self, toy_table):
        assert toy_table.unique_solution() == 3
        multi = ss.build_unsat_table(ss.parse_dimacs("p cnf 2 1\n1 2 0\n"))
        with pytest.raises(ss.InstanceError, match="found 3"):
            multi.unique_solution()
        # one solution counted and none listed: no table says so, so no reader meets it
        with pytest.raises(ss.InstanceError, match="min\\(N_0, 2\\) of N_0 = 1, got 0"):
            ss.UnsatTable(3, 1, np.array([1, 7]), [])

    @pytest.mark.parametrize(
        "n, m, histogram, solutions, message",
        [
            (2, 2, [1, 1, 1, 1], [0], "m\\+1 = 3 bins, got 4"),
            (1, 1, [1, 5], [0], "N = 6 assignments, more than 2\\*\\*n"),
            (2, 1, [1, 3], [7], "in \\[0, 2\\*\\*2\\)"),
            (2, 1, [1, 3], [-1], "in \\[0, 2\\*\\*2\\)"),
            (2, 2, [2, -1, 3], [0, 1], ">= 0"),
            (2, 1, [0, 0], [], "empty search domain"),
            (2, 1, [2, 2], [3, 1], "strictly increasing"),
            (2, 1, [2, 2], [1, 1], "strictly increasing"),
            (2, 1, [2, 2], [1], "min\\(N_0, 2\\) of N_0 = 2, got 1"),
            (2, 1, [1, 3], [0, 1], "min\\(N_0, 2\\) of N_0 = 1, got 2"),
            (2, 1, [3, 1], [0, 1, 2], "min\\(N_0, 2\\) of N_0 = 3, got 3"),
            (2, 1, [0, 4], [0], "min\\(N_0, 2\\) of N_0 = 0, got 1"),
            (2, 1, [1.5, 2.5], [0], "integers"),
            (1, 0, [2], [0, 1], "m must be >= 1"),
        ],
        ids=[
            "bins-beyond-m", "more-than-2**n", "solution-beyond-2**n", "negative-solution", "negative-bin",
            "empty", "out-of-order", "repeated", "too-few", "too-many", "more-than-two", "unsatisfiable-listed",
            "non-integer", "no-clause",
        ],
    )
    def test_refused_where_made(self, n, m, histogram, solutions, message):
        """An inconsistent table never exists: each check raises InstanceError, a ValueError, in the constructor."""
        with pytest.raises(ss.InstanceError, match=message):
            ss.UnsatTable(n, m, histogram, solutions)


class TestEnumerationWorkers:
    """The table's own worker count, and OpenBLAS held at one thread while the blocks are walked."""

    @pytest.fixture
    def blas(self):
        """The real OpenBLAS getter and setter, set to 2 threads, so that a pin to 1 shows."""
        blas = ss.cnf._openblas()
        if blas is None:
            pytest.skip("numpy's BLAS is not OpenBLAS")
        get, put = blas
        found = get()
        put(2)
        yield blas
        put(found)

    @pytest.mark.parametrize("n, workers", [(3, 1), (4, 1), (5, 2), (6, 4), (8, 4)])
    def test_one_worker_per_min_blocks(self, n, workers, monkeypatch):
        # 2**(n-2) blocks, at least 4 per worker, at most 4 CPUs: a table of
        # fewer than 8 blocks starts no thread
        monkeypatch.setattr(ss.cnf, "MIN_BLOCKS_PER_WORKER", 4)
        monkeypatch.setattr(ss.cnf, "_openblas", lambda: (lambda: 1, lambda count: None))
        formula = random_3sat(n, 2 * n, seed=n)
        single = ss.build_unsat_table(formula, threads=1)
        started, _ = record_threads(monkeypatch)
        with enumeration_walkers(4) as shares:
            table = ss.build_unsat_table(formula)
        assert (len(shares), len(started)) == (workers, workers - 1)
        assert np.array_equal(table.histogram, single.histogram)
        assert table.solutions == single.solutions

    def test_no_pool_without_openblas(self, monkeypatch):
        # a BLAS whose threads the walk cannot set keeps the table on the calling thread
        monkeypatch.setattr(ss.cnf, "_openblas", lambda: None)
        started, _ = record_threads(monkeypatch)
        formula = ss.generate_planted_3sat(10, 40, seed=2)
        with enumeration_walkers(4) as shares:
            table = ss.build_unsat_table(formula)
        assert (len(shares), started) == (1, [])
        assert table.histogram.tolist() == ss.build_unsat_table(formula, threads=1).histogram.tolist()

    def test_blas_count_restored(self, blas, monkeypatch):
        get, _ = blas
        before = get()
        ss.build_unsat_table(ss.generate_planted_3sat(10, 40, seed=2))
        assert get() == before
        monkeypatch.setattr(ss.cnf, "_run_summary", mock.Mock(side_effect=RuntimeError("walk failed")))
        with pytest.raises(RuntimeError, match="walk failed"):
            ss.build_unsat_table(ss.generate_planted_3sat(10, 40, seed=2))
        assert get() == before

    @pytest.mark.parametrize("failing", ["worker", "caller"])
    def test_worker_error_raised_on_the_caller(self, failing, monkeypatch):
        # one worker fails, on the started thread or on the calling thread; the
        # error reaches the caller only once the started thread has finished
        caller = threading.get_ident()
        summary = ss.cnf._run_summary

        def read(m, blocks):
            if (threading.get_ident() == caller) == (failing == "caller"):
                raise RuntimeError(f"{failing} failed")
            return summary(m, blocks)

        _, finished = record_threads(monkeypatch)
        monkeypatch.setattr(ss.cnf, "_run_summary", read)
        monkeypatch.setattr(ss.cnf.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        with mock.patch.object(ss.cnf, "BLOCK_BITS", 4), pytest.raises(RuntimeError, match=f"{failing} failed"):
            ss.build_unsat_table(ss.generate_planted_3sat(10, 40, seed=2), threads=2)
        assert finished and all(finished)

    def test_products_on_one_blas_thread(self, blas, monkeypatch):
        get, put = blas
        before = get()
        puts, seen = [], []
        summary = ss.cnf._run_summary

        def read(m, blocks):
            def each():
                for block in blocks:
                    seen.append(get())  # right after the block's product
                    yield block

            return summary(m, each())

        monkeypatch.setattr(ss.cnf, "_openblas", lambda: (get, lambda count: (puts.append(count), put(count))))
        monkeypatch.setattr(ss.cnf, "_run_summary", read)
        with mock.patch.object(ss.cnf, "BLOCK_BITS", 4):  # 64 blocks
            ss.build_unsat_table(ss.generate_planted_3sat(10, 40, seed=2), threads=2)
        assert puts == [1, before]
        assert seen == [1] * 64

    def test_concurrent_walks_restore_blas_count(self, blas):
        # each walk saves and restores the one count of the process: unserialised,
        # a walk could save another's pin of 1 and restore that
        get, _ = blas
        before = get()
        formula = ss.generate_planted_3sat(12, 40, seed=6)
        expected = ss.build_unsat_table(formula, threads=1).histogram.tolist()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(ss.build_unsat_table, formula, 2) for _ in range(64)]
                tables = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert get() == before
        assert all(table.histogram.tolist() == expected for table in tables)


class TestViolationMask:
    def test_matches_satisfied_by(self):
        clause = ss.Clause([1, -3])
        indices = np.arange(8)
        mask = violation_mask(clause, indices)
        for i in range(8):
            assert mask[i] == (not clause.satisfied_by(i))


@st.composite
def long_digit_files(draw):
    """DIMACS bytes with one run of 4301 to 9000 digits, its first nonzero, as a literal or a header count."""
    pattern = draw(st.text("0123456789", min_size=1, max_size=16))
    length = draw(st.integers(4301, 9000))
    run = draw(st.sampled_from("123456789")) + (pattern * length)[: length - 1]
    literal = draw(st.sampled_from(["", "-"])) + run
    before = " ".join(map(str, draw(st.lists(st.integers(-3, 3).filter(bool), max_size=3))))
    header, clauses = draw(
        st.sampled_from(
            [
                (f"p cnf {run} 1", "1 0"),
                (f"p cnf 3 {run}", "1 0"),
                ("p cnf 3 2", f"1 0 {before} {literal} 2 0"),
                ("p cnf 3 1", f"{before}\n{literal} 0"),
            ]
        )
    )
    comment = draw(st.sampled_from(["", "c fuzz\n"]))
    return f"{comment}{header}\n{clauses}\n".encode()


def read_bytes_as_dimacs(data: bytes):
    # hypothesis rejects function-scoped fixtures such as tmp_path, so each
    # example makes its own file
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "fuzz.cnf")
        with open(path, "wb") as handle:
            handle.write(data)
        return ss.read_dimacs(path)


class TestReadDimacs:
    def test_utf8_comment_parses(self):
        data = "c größe ≤ 3 — ünïcode\np cnf 2 1\n1 -2 0\n".encode("utf-8")
        assert read_bytes_as_dimacs(data) == ss.parse_dimacs("p cnf 2 1\n1 -2 0\n")

    @pytest.mark.parametrize("token", [b"\xff", "١".encode("utf-8"), "１".encode("utf-8")])
    def test_non_ascii_clause_token_rejected(self, token):
        with pytest.raises(ss.DimacsError, match="non-integer"):
            read_bytes_as_dimacs(b"p cnf 2 1\n1 " + token + b" 0\n")

    def test_file_at_the_memory_bound(self, monkeypatch):
        """A file of memory_capacity(DIMACS_BYTES) bytes parses; one byte more raises GuardError unparsed."""
        data = TOY_DIMACS.encode()
        pages = {"SC_PAGE_SIZE": ss.cnf.DIMACS_BYTES, "SC_PHYS_PAGES": len(data)}
        monkeypatch.setattr(ss.cnf.os, "sysconf", pages.__getitem__)
        assert read_bytes_as_dimacs(data) == ss.parse_dimacs(TOY_DIMACS)
        monkeypatch.setattr(ss.cnf, "parse_dimacs", mock.Mock(side_effect=AssertionError("parsed")))
        with pytest.raises(ss.GuardError, match=f"{len(data) + 1} bytes of the file exceed the {len(data)} that fit"):
            read_bytes_as_dimacs(data + b"\n")

    @given(
        st.one_of(
            st.binary(),
            st.binary().map(lambda tail: b"p cnf 3 2\n" + tail),
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_any_bytes_parse_or_raise_dimacs_error(self, data):
        try:
            formula = read_bytes_as_dimacs(data)
        except ss.DimacsError:
            return
        assert isinstance(formula, ss.CnfFormula)

    @given(long_digit_files())
    @settings(max_examples=50, deadline=None)
    def test_long_digit_run_exit_3(self, data):
        """A literal or header count past int()'s 4300 digits exits 3 with one short line."""
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "long.cnf")
            with open(path, "wb") as handle:
                handle.write(data)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                assert main(["analyze", "-f", path]) == 3
        assert err.getvalue().count("\n") == 1 and len(err.getvalue()) < 100, err.getvalue()[:200]

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("p cnf 5 1\n" + "x" * 5000 + " 0\n", "non-integer token 'xxxx"),
            ("p cnf " + "x" * 5000 + " 1\n", "non-integer counts in header 'p cnf xxxx"),
            ("p " + "x" * 5000 + "\n", "malformed header 'p xxxx"),
        ],
        ids=["token", "header-counts", "header"],
    )
    def test_long_input_echo_is_cut(self, text, fragment, tmp_path, capsys):
        """A 5000-character token or header exits 3 with one short line that echoes its first characters."""
        path = tmp_path / "long.cnf"
        path.write_text(text)
        assert main(["analyze", "-f", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and len(err.encode()) < 200 and "Traceback" not in err, err[:300]
        assert fragment in err and "..." in err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("p cnf 2 1\n1 x 0\n", "non-integer token 'x' in clause data"),
            ("p cnf 2 x\n", "line 1: non-integer counts in header 'p cnf 2 x'"),
            ("p cnf 2\n", "line 1: malformed header 'p cnf 2', expected 'p cnf <vars> <clauses>'"),
        ],
    )
    def test_short_input_echoed_whole(self, text, message):
        with pytest.raises(ss.DimacsError) as caught:
            ss.parse_dimacs(text)
        assert str(caught.value) == message
