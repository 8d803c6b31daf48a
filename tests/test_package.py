import ast
import dataclasses
import inspect
from operator import attrgetter
from pathlib import Path

import satsearch as ss

PUBLIC = [
    "__version__", "Clause", "CnfFormula", "DimacsError", "EigenPairReport",
    "FormulaError", "GuardError", "InstanceError", "Literal", "PhaseProfile", "RunConfig",
    "RunReport", "SpectralSummary", "UnsatTable", "build_unsat_table", "dense_eigencheck",
    "generate_planted_3sat", "generate_planted_block3sat", "generate_planted_chain",
    "grover_optimal_steps", "lambda2_from_histogram", "measurement_success_rate",
    "parse_dimacs", "read_dimacs", "repeat_until_success_stats", "run_grover_baseline",
    "run_sweep", "search_step", "serialize_dimacs", "spectral_summary", "state_after",
    "state_snapshot", "success_curve",
]

# parameters of the library's entry points and fields of the run configuration:
# a knob removed from them cannot return unnoticed
PARAMETERS = {
    "build_unsat_table": ["formula", "threads"],
    "cnf.satisfying_assignments": ["formula"],
    "generate_planted_3sat": ["n", "m", "seed"],
}
RUN_CONFIG_FIELDS = ["formula_path", "q_max", "include_grover", "grover_steps"]

# the satsearch modules each module imports; "__init__" is the package itself
IMPORTS = {
    "__init__": ["cnf", "experiment", "generate", "spectral", "statevector"],
    "cli": ["cnf", "experiment", "generate", "spectral", "statevector"],
    "cnf": [],
    "experiment": ["__init__", "cnf", "spectral", "statevector"],
    "generate": ["cnf"],
    "spectral": ["cnf", "statevector"],
    "statevector": [],
}

# the names generate takes from cnf: the random family's survivors come from
# the solutions-only walk, not from the histogram table
GENERATE_FROM_CNF = [
    "Clause", "CnfFormula", "GuardError", "InstanceError", "Literal", "MAX_ENUMERATION_N",
    "MAX_INDEX_N", "satisfying_assignments", "violation_mask",
]

SOURCES = {path.stem: ast.parse(path.read_text()) for path in Path(ss.__file__).parent.glob("*.py")}


def test_public_names_pinned():
    assert ss.__all__ == PUBLIC
    assert all(hasattr(ss, name) for name in PUBLIC)


def test_knobs_pinned():
    assert {name: list(inspect.signature(attrgetter(name)(ss)).parameters) for name in PARAMETERS} == PARAMETERS
    assert [field.name for field in dataclasses.fields(ss.RunConfig)] == RUN_CONFIG_FIELDS


def package_imports(tree):
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.add(node.module or "__init__")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("satsearch"):
            found.add(node.module.partition(".")[2] or "__init__")
        elif isinstance(node, ast.Import):
            found.update(a.name.partition(".")[2] or "__init__" for a in node.names if a.name.startswith("satsearch"))
    return sorted(found)


def test_intra_package_imports_pinned():
    assert {name: package_imports(tree) for name, tree in SOURCES.items()} == IMPORTS


def test_generate_imports_pinned():
    names = [
        alias.name
        for node in ast.walk(SOURCES["generate"])
        if isinstance(node, ast.ImportFrom) and node.module == "cnf"
        for alias in node.names
    ]
    assert names == GENERATE_FROM_CNF


def test_only_cnf_walks_the_assignments():
    def references(tree):
        return any(
            getattr(node, "id", None) == "violation_blocks"
            or getattr(node, "attr", None) == "violation_blocks"
            or (isinstance(node, ast.alias) and node.name == "violation_blocks")
            for node in ast.walk(tree)
        )

    assert [name for name, tree in SOURCES.items() if references(tree)] == ["cnf"]


def test_only_cli_turns_files_into_tables():
    """experiment takes a violation table; only the CLI reads a DIMACS file and enumerates it."""
    readers = {"read_dimacs", "build_unsat_table"}

    def calls(tree):
        return any(
            isinstance(node, ast.Call) and (getattr(node.func, "id", None) or getattr(node.func, "attr", None)) in readers
            for node in ast.walk(tree)
        )

    assert [name for name, tree in SOURCES.items() if calls(tree)] == ["cli"]
