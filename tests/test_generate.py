import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import satsearch as ss
from satsearch.cli import main

import oracles
from oracles import violation_counts


class TestPlanted3Sat:
    def test_unique_solution(self):
        formula = ss.generate_planted_3sat(10, 12, seed=7)
        table = ss.build_unsat_table(formula)
        assert len(table.solutions) == 1

    def test_deterministic(self):
        a = ss.generate_planted_3sat(8, 10, seed=3)
        b = ss.generate_planted_3sat(8, 10, seed=3)
        assert a == b

    def test_different_seeds_differ(self):
        a = ss.generate_planted_3sat(8, 10, seed=3)
        b = ss.generate_planted_3sat(8, 10, seed=4)
        assert a != b

    def test_all_clauses_have_three_literals(self):
        formula = ss.generate_planted_3sat(9, 15, seed=0)
        assert all(len(c.literals) == 3 for c in formula.clauses)

    def test_reports_true_clause_count(self):
        formula = ss.generate_planted_3sat(10, 4, seed=2)
        assert formula.m >= 4
        assert formula.m == len(formula.clauses)

    def test_n_below_three_rejected(self):
        with pytest.raises(ss.InstanceError, match="n >= 3"):
            ss.generate_planted_3sat(2, 5, seed=0)

    def test_guard(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a clause was drawn")

        monkeypatch.setattr(ss.generate, "_satisfied_clauses", refuse)
        with pytest.raises(ss.GuardError, match="n <= 30"):
            ss.generate_planted_3sat(31, 155, seed=0)

    def test_survivors_read_no_histogram(self, tmp_path, monkeypatch):
        """The survivors come from the solutions-only walk; the formulas keep their bytes."""

        def refuse(*args):
            raise AssertionError("the violation histogram was read")

        monkeypatch.setattr(ss.cnf, "_run_summary", refuse)
        text = ss.serialize_dimacs(ss.generate_planted_3sat(12, 40, 6))
        out = tmp_path / "x.cnf"
        assert main(["gen", "-n", "19", "-m", "95", "--seed", "2", "-o", str(out)]) == 0
        assert [hashlib.sha256(blob).hexdigest() for blob in (text.encode(), out.read_bytes())] == [
            "5493a31f33d48eeb4f7b2119983704bedb765271723689042c88b6871b1d9ae6",
            "78e33ad90672c5690d95988deb2e9722bc0226fdaa847a3f3635b1515d134b35",
        ]

    # sha256 of serialize_dimacs(generate_planted_3sat(n, 5n, seed)), taken
    # from the block walk the prefix walk replaced: a change in the RNG draws
    # or in the order the survivors come out moves them
    PINNED = {
        (17, 5): "073d99a55b96a1e83291897bbd7f0d8e8b91ec024a28621405cabdfea58f2792",
        (17, 6): "f67c687a2675870a3d0a92969897622fd7617b07890663c07faaac4fe5b32a35",
        (18, 5): "f3995602dd40fa1cc46ce9f49314bde8cbb49d158ee88223456f7a655f841b03",
        (18, 6): "d01f492b224ca60b06df3a7f3aa70260daf76f163242fd18b8635dd0d16cd999",
        (22, 5): "166f27dd0c4644a0fb06d5c8df9f14be56ca1b8acecf9d02b0953e2ad3094ddd",
        (22, 6): "17c70a461655441de91dc4abe0d67f164a7f437d45e0a1d0a9775bec132c23f6",
        (26, 1): "50c9ceec05b0ea890939aaa91a5fa3c3eb095a8adc7d2cd78ad1a78b6dd1c60c",
    }

    @pytest.mark.parametrize("n, seed", list(PINNED))
    def test_bytes_pinned(self, n, seed):
        formula, planted = ss.generate._planted_3sat(n, 5 * n, seed)
        assert formula == ss.generate_planted_3sat(n, 5 * n, seed)
        assert hashlib.sha256(ss.serialize_dimacs(formula).encode()).hexdigest() == self.PINNED[n, seed]
        if n == 26:  # the table, an independent oracle, confirms the one solution
            assert ss.build_unsat_table(formula).unique_solution() == planted

    def test_int64_index_limit_before_the_draw(self):
        # n = 64 would reach numpy's integer draw, which raises ValueError
        with pytest.raises(ss.GuardError, match="n <= 62"):
            ss.generate_planted_3sat(64, 5, seed=0)


def twin_generators(seed, n):
    """Two generators at one seed, each past the draw of the planted assignment, and that assignment."""
    rngs = [np.random.default_rng(seed) for _ in range(2)]
    planted = [int(rng.integers(0, 1 << n)) for rng in rngs]
    return rngs, planted[0]


def with_n(low, high, second):
    """Pairs (n, x): n in [low, high] and x drawn from ``second(n)``."""
    return st.integers(low, high).flatmap(lambda n: st.tuples(st.just(n), second(n)))


# n in [3, 30] and an initial batch of m in [1, 6n] clauses
BATCHES = with_n(3, 30, lambda n: st.integers(1, 6 * n))
SEEDS = st.integers(0, 2**32)


def enumerable(batch):
    """At most 2**12 expected survivors, 2**n (7/8)**m: the walk lists every one."""
    n, m = batch
    return m >= (n - 12) * math.log(2) / math.log(8 / 7)


class TestOneByOneDraw:
    """The batched draws against numpy's ``choice`` one clause at a time (``oracles``)."""

    @given(batch=BATCHES, seed=SEEDS)
    @example(batch=(3, 1), seed=0)  # Floyd's first draw is over [0, 0]
    @settings(max_examples=150, deadline=None)
    def test_initial_batch(self, batch, seed):
        n, m = batch
        (batched, single), planted = twin_generators(seed, n)
        assert ss.generate._satisfied_clauses(batched, n, planted, m) == oracles.satisfied_clauses(
            single, n, planted, m
        )
        assert batched.bit_generator.state == single.bit_generator.state

    @given(case=with_n(3, 30, lambda n: st.integers(1, (1 << n) - 1)), seed=SEEDS)
    @example(case=(3, 1), seed=0)
    @settings(max_examples=150, deadline=None)
    def test_separating_clause(self, case, seed):
        n, flips = case
        (batched, single), planted = twin_generators(seed, n)
        survivor = planted ^ flips
        assert ss.generate._separating_clause(batched, n, planted, survivor) == oracles.separating_clause(
            single, n, planted, survivor
        )
        assert batched.bit_generator.state == single.bit_generator.state

    @given(batch=BATCHES.filter(enumerable), seed=SEEDS)
    @example(batch=(3, 1), seed=0)
    @settings(max_examples=100, deadline=None)
    def test_planted_3sat(self, batch, seed):
        n, m = batch
        formula, planted = ss.generate._planted_3sat(n, m, seed)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ss.generate, "_satisfied_clauses", oracles.satisfied_clauses)
            patch.setattr(ss.generate, "_separating_clause", oracles.separating_clause)
            assert (formula, planted) == ss.generate._planted_3sat(n, m, seed)

    @given(case=with_n(3, 62, lambda n: st.integers(0, 3 * n)), seed=SEEDS)
    @settings(max_examples=100, deadline=None)
    def test_planted_chain(self, case, seed):
        text = ss.serialize_dimacs(ss.generate_planted_chain(*case, seed=seed))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ss.generate, "_satisfied_clauses", oracles.satisfied_clauses)
            assert text == ss.serialize_dimacs(ss.generate_planted_chain(*case, seed=seed))


class TestPlantedChain:
    def test_every_nonsolution_violates_exactly_one_clause(self):
        formula = ss.generate_planted_chain(8, seed=5)
        table = ss.build_unsat_table(formula)
        assert formula.m == 8
        assert len(table.solutions) == 1
        assert table.histogram[0] == 1
        assert table.histogram[1] == formula.assignment_count - 1

    def test_extras_keep_uniqueness(self):
        formula = ss.generate_planted_chain(8, extras=5, seed=5)
        table = ss.build_unsat_table(formula)
        assert formula.m == 13
        assert len(table.solutions) == 1
        # extras can only add violations on top of the chain's one
        assert all(u >= 1 for i, u in enumerate(violation_counts(formula)) if i != table.solutions[0])

    def test_clause_lengths_are_nested(self):
        formula = ss.generate_planted_chain(6, seed=1)
        assert sorted(len(c.literals) for c in formula.clauses) == [1, 2, 3, 4, 5, 6]

    def test_deterministic(self):
        assert ss.generate_planted_chain(7, extras=2, seed=9) == ss.generate_planted_chain(7, extras=2, seed=9)

    def test_extras_need_three_variables(self):
        with pytest.raises(ss.InstanceError):
            ss.generate_planted_chain(2, extras=1, seed=0)


class TestPlantedBlock3Sat:
    @pytest.mark.parametrize("n", [4, 5, 6, 10, 14])
    def test_unique_and_three_literals(self, n):
        formula = ss.generate_planted_block3sat(n, seed=n)
        table = ss.build_unsat_table(formula)
        assert len(table.solutions) == 1
        assert all(len(c.literals) == 3 for c in formula.clauses)
        full, remainder = divmod(n, 3)
        assert formula.m == 7 * full + (2**remainder - 1)

    def test_deterministic(self):
        assert ss.generate_planted_block3sat(10, seed=2) == ss.generate_planted_block3sat(10, seed=2)

    def test_minimum_size(self):
        with pytest.raises(ss.InstanceError):
            ss.generate_planted_block3sat(3, seed=0)


# The chain and block families never enumerate, so they have no enumeration
# guard; block 3SAT at n = 40 has 13 full blocks of seven clauses plus one
# clause for the one-variable remainder.
CONSTRUCTED = [(ss.generate_planted_chain, 40), (ss.generate_planted_block3sat, 92)]


@pytest.mark.parametrize("generate, m", CONSTRUCTED, ids=["chain", "block3sat"])
def test_constructed_beyond_enumeration(generate, m, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a block was walked")

    monkeypatch.setattr(ss.cnf, "violation_blocks", refuse)
    formula = generate(40, seed=1)
    assert formula.n == 40 and formula.m == m


@pytest.mark.parametrize("generate, m", CONSTRUCTED, ids=["chain", "block3sat"])
def test_constructed_int64_index_limit(generate, m):
    generate(62, seed=0)
    with pytest.raises(ss.GuardError, match="n <= 62"):
        generate(63, seed=0)
