from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import strategies as st

import satsearch as ss

# {(x1), (x2)} over two variables: histogram [1, 2, 1], unique solution 3.
TOY_DIMACS = "p cnf 2 2\n1 0\n2 0\n"


@pytest.fixture(scope="session")
def toy_formula():
    return ss.parse_dimacs(TOY_DIMACS)


@pytest.fixture(scope="session")
def toy_table(toy_formula):
    return ss.build_unsat_table(toy_formula)


@pytest.fixture(scope="session")
def planted14():
    """Random planted 3SAT instance at n=14 with table and summary."""
    formula = ss.generate_planted_3sat(14, 16, seed=1)
    table = ss.build_unsat_table(formula)
    return formula, table, ss.spectral_summary(table)


@pytest.fixture(scope="session", params=["planted-14", "chain-16", "block3sat-12", "three-solutions"])
def class_profile(request):
    """Class profiles of three generator families, and one with N_0 = 3 so the read-out scale is not 1."""
    if request.param == "three-solutions":
        return ss.PhaseProfile.from_histogram(5, [3, 30, 40, 20, 6, 1])
    formula = {
        "planted-14": lambda: ss.generate_planted_3sat(14, 16, seed=1),
        "chain-16": lambda: ss.generate_planted_chain(16, 2, 4),
        "block3sat-12": lambda: ss.generate_planted_block3sat(12),
    }[request.param]()
    table = ss.build_unsat_table(formula)
    return ss.PhaseProfile.from_histogram(table.m, table.histogram)


@contextmanager
def enumeration_walkers(cpus: int):
    """Show the enumeration ``cpus`` CPUs and 4-assignment blocks; yields the list of the runs it walks.

    With 2**(n-2) blocks, a table at n >= 9 has enough of them for a worker
    on each of up to 16 CPUs.
    """
    runs = []
    summary = ss.cnf._run_summary

    def walk(m, blocks):
        runs.append(blocks)
        return summary(m, blocks)

    with (
        mock.patch.object(ss.cnf.os, "sched_getaffinity", lambda pid: set(range(cpus)), create=True),
        mock.patch.object(ss.cnf, "BLOCK_BITS", 2),
        mock.patch.object(ss.cnf, "_run_summary", walk),
    ):
        yield runs


def random_state(dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    state = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return state / np.linalg.norm(state)


def random_3sat(n: int, m: int, seed: int) -> ss.CnfFormula:
    """Plain random 3SAT (distinct variables per clause, no planting)."""
    rng = np.random.default_rng(seed)
    clauses = []
    for _ in range(m):
        positions = rng.choice(n, size=3, replace=False)
        negations = rng.integers(0, 2, size=3)
        clauses.append(ss.Clause(-(p + 1) if g else p + 1 for p, g in zip(positions.tolist(), negations.tolist())))
    return ss.CnfFormula(n, tuple(clauses))


def counter_formula(n: int) -> ss.CnfFormula:
    """Formula under which assignment i violates exactly i clauses.

    Clause (not x_k) appears 2**(k-1) times, so m = 2**n - 1 and every
    assignment is its own violation class.
    """
    clauses = [ss.Clause((-k,)) for k in range(1, n + 1) for _ in range(1 << (k - 1))]
    return ss.CnfFormula(n, tuple(clauses))


@st.composite
def formulas(draw, max_n: int = 6, max_m: int = 8):
    n = draw(st.integers(2, max_n))
    m = draw(st.integers(1, max_m))
    clauses = []
    for _ in range(m):
        width = draw(st.integers(1, min(3, n)))
        variables = draw(st.permutations(range(1, n + 1)))[:width]
        negations = draw(st.lists(st.booleans(), min_size=width, max_size=width))
        clauses.append(ss.Clause(-v if g else v for v, g in zip(variables, negations)))
    return ss.CnfFormula(n, tuple(clauses))


@st.composite
def formula_with_assignment(draw):
    formula = draw(formulas())
    assignment = draw(st.integers(0, formula.assignment_count - 1))
    return formula, assignment
