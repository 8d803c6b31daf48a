import os
import tempfile
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import satsearch as ss
from satsearch.cnf import violation_mask

from conftest import TOY_DIMACS, formula_with_assignment, counter_formula, formulas, random_3sat
from oracles import unsat_count, violation_counts


class TestParseDimacs:
    def test_basic(self):
        formula = ss.parse_dimacs("p cnf 2 1\n1 -2 0\n")
        assert formula.n == 2
        assert formula.m == 1
        assert formula.clauses[0].to_ints() == (1, -2)

    def test_comments_and_multiline_clauses(self):
        text = "c header comment\np cnf 3 2\n1 2\n3 0 -1 -2 -3 0\nc trailing\n"
        formula = ss.parse_dimacs(text)
        assert formula.m == 2
        assert formula.clauses[0].to_ints() == (1, 2, 3)
        assert formula.clauses[1].to_ints() == (-1, -2, -3)

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
        assert formula.clauses[0].to_ints() == (1, -2)

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

    def test_serialize_comments(self):
        text = ss.serialize_dimacs(ss.parse_dimacs(TOY_DIMACS), comments=["planted 3"])
        assert text.startswith("c planted 3\np cnf 2 2\n")


class TestClauseEvaluation:
    def test_examples(self):
        clause = ss.Clause.from_ints([1, -2])
        assert clause.satisfied_by(0b01)  # x1=1, x2=0
        assert not clause.satisfied_by(0b10)  # x1=0, x2=1
        assert ss.Clause.from_ints([1]).satisfied_by(1)

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
            if any(
                bool((assignment >> (lit.var - 1)) & 1) != lit.negated
                for lit in clause.literals
            ):
                satisfied += 1
        assert unsat_count(formula, assignment) == formula.m - satisfied


class TestClauseInvariants:
    def test_empty_rejected(self):
        with pytest.raises(ss.FormulaError):
            ss.Clause(())

    def test_tautology_rejected(self):
        with pytest.raises(ss.FormulaError):
            ss.Clause.from_ints([2, -2])

    def test_masks(self):
        clause = ss.Clause.from_ints([3, -1, 3, -4])
        assert clause.to_ints() == (3, -1, -4)
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

    def test_variable_bound_checked(self):
        with pytest.raises(ss.FormulaError):
            ss.CnfFormula(2, (ss.Clause.from_ints([3]),))

    def test_formula_needs_clauses(self):
        with pytest.raises(ss.FormulaError):
            ss.CnfFormula(2, ())


class TestUnsatTable:
    def test_toy_hand_enumeration(self, toy_table):
        assert list(toy_table.histogram) == [1, 2, 1]
        assert toy_table.solutions == [3]
        assert list(violation_counts(toy_table.formula)) == [2, 1, 1, 0]

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

        def no_blocks(formula, tops=None):
            walked.append(formula.n)
            return iter(())

        def no_walk(item_bytes):
            raise AssertionError("the prefix walk began")

        monkeypatch.setattr(ss.cnf, "violation_blocks", no_blocks)
        with monkeypatch.context() as patch:
            patch.setattr(ss.cnf, "memory_capacity", no_walk)  # the walk's first step after the guard
            for n in (31, 63):
                wide = ss.parse_dimacs(f"p cnf {n} 1\n1 0\n")
                with pytest.raises(ss.GuardError, match="n <= 30"):
                    ss.build_unsat_table(wide)
                with pytest.raises(ss.GuardError, match="n <= 30"):
                    ss.cnf.satisfying_assignments(wide)
        assert walked == []
        n = ss.cnf.MAX_ENUMERATION_N
        assert ss.build_unsat_table(ss.parse_dimacs(f"p cnf {n} 1\n1 0\n")).solutions == []
        assert walked == [n]
        # one unit clause per variable, x_k true for odd k and false for even k
        units = "".join(f"{k if k % 2 else -k} 0\n" for k in range(1, n + 1))
        solutions = ss.cnf.satisfying_assignments(ss.parse_dimacs(f"p cnf {n} {n}\n{units}"))
        assert solutions == [sum(1 << (k - 1) for k in range(1, n + 1, 2))]

    def test_enumeration_limit_within_index_limit(self):
        # what lets the table drop a check of the int64 index limit of its own
        assert ss.cnf.MAX_ENUMERATION_N <= ss.cnf.MAX_INDEX_N

    @pytest.mark.parametrize("threads", [1, 2])
    def test_solution_list_against_physical_memory(self, threads, monkeypatch):
        """The walk lists the solutions that fit and refuses one more; the table, on w runs, needs room for two."""
        formula = ss.parse_dimacs("p cnf 20 1\n1 0\n")  # 2**19 solutions, 2**18 per half
        monkeypatch.setattr(ss.cnf.os, "cpu_count", lambda: 2)
        for capacity, fits in ((1 << 19, True), ((1 << 19) - 1, False)):
            pages = {"SC_PAGE_SIZE": ss.cnf.SOLUTION_BYTES, "SC_PHYS_PAGES": capacity}
            monkeypatch.setattr(ss.cnf.os, "sysconf", pages.__getitem__)
            if fits:
                assert len(ss.cnf.satisfying_assignments(formula)) == 1 << 19
            else:
                with pytest.raises(ss.GuardError, match="physical memory"):
                    ss.cnf.satisfying_assignments(formula)
        # room for two solutions: the table keeps two, whatever the count
        pages = {"SC_PAGE_SIZE": ss.cnf.SOLUTION_BYTES, "SC_PHYS_PAGES": 2}
        monkeypatch.setattr(ss.cnf.os, "sysconf", pages.__getitem__)
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
        """Walker, table, counts, histogram and solutions with 2**bits-assignment blocks and prefix chunks.

        Each is checked against ``unsat_count``; the walker also on its first
        indices and on a run of every other block.
        """
        with mock.patch.object(ss.cnf, "BLOCK_BITS", bits):
            blocks = list(ss.cnf.violation_blocks(formula))
            run = list(ss.cnf.violation_blocks(formula, range(len(blocks))[1::2]))
            table = ss.build_unsat_table(formula, threads=threads)
            solutions = ss.cnf.satisfying_assignments(formula)
            counts = violation_counts(formula)
        expected = [unsat_count(formula, i) for i in range(formula.assignment_count)]
        size = 1 << min(formula.n, bits)
        assert [first for first, _ in blocks] == list(range(0, formula.assignment_count, size))
        assert np.concatenate([block_counts for _, block_counts in blocks]).tolist() == expected
        assert [(first, c.tolist()) for first, c in run] == [
            (first, c.tolist()) for first, c in blocks[1::2]
        ]
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
        # the set-up runs on the caller's thread, not in the pool worker that
        # reads the blocks
        formula = ss.generate_planted_3sat(8, 20, seed=1)
        blocks = ss.cnf.violation_blocks(formula)

        def no_set_up(m):
            raise AssertionError("set-up ran while the blocks were read")

        monkeypatch.setattr(ss.cnf, "_product_dtype", no_set_up)
        counts = np.concatenate([block_counts for _, block_counts in blocks])
        assert counts.tolist() == [unsat_count(formula, i) for i in range(1 << 8)]

    def test_one_submission_per_worker(self, monkeypatch):
        # the calling thread walks run 0, so the pool gets the other run
        submitted = []

        class RecordingPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                submitted.append(args)
                return super().submit(fn, *args, **kwargs)

        formula = ss.generate_planted_3sat(12, 40, seed=6)
        single = ss.build_unsat_table(formula, threads=1)
        monkeypatch.setattr(ss.cnf, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(ss.cnf.os, "cpu_count", lambda: 2)  # two runs
        with mock.patch.object(ss.cnf, "BLOCK_BITS", 2):  # 1024 blocks
            threaded = ss.build_unsat_table(formula, threads=2)
        assert len(submitted) == 2 - 1
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
        sizes = []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        formula = ss.generate_planted_3sat(6, 12, seed=2)
        monkeypatch.setattr(ss.cnf, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(ss.cnf.os, "cpu_count", lambda: 3)
        with mock.patch.object(ss.cnf, "BLOCK_BITS", 2):  # 16 blocks
            huge = ss.build_unsat_table(formula, threads=1 << 20)
            single = ss.build_unsat_table(formula, threads=1)
        # three runs, the calling thread's and the pool's two; one run starts no pool
        assert sizes == [3 - 1]
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


class TestViolationMask:
    def test_matches_satisfied_by(self):
        clause = ss.Clause.from_ints([1, -3])
        indices = np.arange(8)
        mask = violation_mask(clause, indices)
        for i in range(8):
            assert mask[i] == (not clause.satisfied_by(i))


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
        with pytest.raises(ss.GuardError, match=f"over {len(data)} bytes"):
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
