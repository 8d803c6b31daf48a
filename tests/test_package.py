import ast
import dataclasses
import inspect
import os
import subprocess
import sys
from operator import attrgetter
from pathlib import Path

import pytest

import satsearch as ss
from satsearch.cli import main

PUBLIC = [
    "__version__", "Clause", "CnfFormula", "DimacsError", "EigenPairReport",
    "FormulaError", "GuardError", "InstanceError", "PhaseProfile", "RunConfig", "RunReport",
    "SpectralSummary", "UnsatTable", "build_unsat_table",
    "generate_planted_3sat", "generate_planted_block3sat", "generate_planted_chain",
    "grover_optimal_steps", "lambda2", "measurement_success_rate",
    "parse_dimacs", "read_dimacs", "repeat_until_success_stats", "run_grover_baseline",
    "run_sweep", "search_step", "serialize_dimacs", "spectral_summary", "spectrum",
    "state_after", "state_snapshot", "success_curve",
]

# parameters of the library's entry points and fields of the run configuration:
# a knob removed from them cannot return unnoticed
PARAMETERS = {
    "build_unsat_table": ["formula", "threads"],
    "cnf.satisfying_assignments": ["formula"],
    "generate_planted_3sat": ["n", "m", "seed"],
    "spectral.class_phases": ["m", "u"],
    "spectral.histogram_classes": ["table"],
    "spectral.lambda2": ["table"],
    "PhaseProfile.from_table": ["table"],
}
RUN_CONFIG_FIELDS = ["formula_path", "q_max", "include_grover", "grover_steps"]

# a clause is its signed DIMACS literals: a second representation cannot return unnoticed
CLAUSE_FIELDS = ["literals"]

# a violation table is four facts, with no formula, and a run report carries no clock
UNSAT_TABLE_FIELDS = ["n", "m", "histogram", "solutions"]
RUN_REPORT_FIELDS = [
    "config", "version", "spectral", "histogram", "solution", "curve", "q_peak_measured",
    "p_peak_measured", "grover_curve", "repeat_stats", "snapshot",
]

# the satsearch modules each module imports; "__init__" is the package itself,
# which imports none: it resolves its public names on first use
IMPORTS = {
    "__init__": [],
    "cli": ["cnf", "experiment", "generate", "spectral"],
    "cnf": [],
    "experiment": ["__init__", "cnf", "spectral", "statevector"],
    "generate": ["cnf"],
    "spectral": ["cnf"],
    "statevector": ["spectral"],
}

# the names generate takes from cnf: the random family's survivors come from
# the solutions-only walk, not from the histogram table, and its guards are cnf's
GENERATE_FROM_CNF = [
    "Clause", "CnfFormula", "InstanceError",
    "check_enumeration", "check_fits", "check_index", "satisfying_assignments", "violation_mask",
]

SOURCES = {path.stem: ast.parse(path.read_text()) for path in Path(ss.__file__).parent.glob("*.py")}


def test_public_names_pinned():
    assert ss.__all__ == PUBLIC
    assert all(hasattr(ss, name) for name in PUBLIC)


def test_knobs_pinned():
    assert {name: list(inspect.signature(attrgetter(name)(ss)).parameters) for name in PARAMETERS} == PARAMETERS
    assert [field.name for field in dataclasses.fields(ss.RunConfig)] == RUN_CONFIG_FIELDS
    assert [field.name for field in dataclasses.fields(ss.Clause)] == CLAUSE_FIELDS
    assert [field.name for field in dataclasses.fields(ss.UnsatTable)] == UNSAT_TABLE_FIELDS
    assert [field.name for field in dataclasses.fields(ss.RunReport)] == RUN_REPORT_FIELDS
    assert list(inspect.signature(ss.RunReport.to_json_dict).parameters) == ["self"]


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


def test_generate_draws_no_choice():
    """Every random clause is decoded from ``integers`` draws: no ``choice`` call can bring back a second draw path."""
    calls = [
        node.lineno
        for node in ast.walk(SOURCES["generate"])
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "choice"
    ]
    assert calls == []


def identifiers(node):
    """The identifiers ``node`` holds: names, attributes, imported aliases and definitions."""
    return {getattr(part, key, None) for part in ast.walk(node) for key in ("id", "attr", "name")} - {None}


def test_only_cnf_walks_the_assignments():
    assert [name for name, tree in SOURCES.items() if "violation_blocks" in identifiers(tree)] == ["cnf"]


def test_guards_in_one_place():
    """Only cnf sizes memory, compares with the n limits or raises GuardError: every other module calls its checks."""
    sizers = [name for name, tree in SOURCES.items() if "memory_capacity" in identifiers(tree)]
    limiters = [
        name
        for name, tree in SOURCES.items()
        if any(
            isinstance(node, ast.Compare) and {"MAX_ENUMERATION_N", "MAX_INDEX_N"} & identifiers(node)
            for node in ast.walk(tree)
        )
    ]
    raisers = [
        name
        for name, tree in SOURCES.items()
        if any(isinstance(node, ast.Raise) and "GuardError" in identifiers(node) for node in ast.walk(tree))
    ]
    assert (sizers, limiters, raisers) == (["cnf"], ["cnf"], ["cnf"])


def test_one_domain_size():
    """Only cnf computes a domain size from n: every other module reads N, the histogram's sum, from the table."""

    def sizes_from_n(tree):
        return any(
            isinstance(node, ast.BinOp)
            and isinstance(node.right, ast.Attribute)
            and node.right.attr == "n"
            and isinstance(node.left, ast.Constant)
            and (type(node.op), node.left.value) in {(ast.LShift, 1), (ast.Pow, 2)}
            for node in ast.walk(tree)
        )

    assert [name for name, tree in SOURCES.items() if sizes_from_n(tree)] == ["cnf"]


def test_clause_phase_written_once():
    """Only ``spectral.class_phases`` combines pi with m: the summary, the spectrum and the iterate read theta_u from it."""

    def phase_sites(node):
        return [part for part in ast.walk(node) if isinstance(part, ast.BinOp) and {"pi", "m"} <= identifiers(part)]

    writers = {
        f"{name}.{node.name}": len(phase_sites(node))
        for name, tree in SOURCES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and phase_sites(node)
    }
    assert list(writers) == ["spectral.class_phases"]
    # no module-level site either
    assert sum(len(phase_sites(tree)) for tree in SOURCES.values()) == writers["spectral.class_phases"]


def test_no_unused_imports():
    """Every name a module imports is read in it: a leftover import costs every command its start-up."""

    def unused(tree):
        imported = {
            (alias.asname or alias.name).partition(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        return sorted(imported - read)

    assert {name: unused(tree) for name, tree in SOURCES.items() if unused(tree)} == {}


def test_only_cli_turns_files_into_tables():
    """experiment takes a violation table; only the CLI reads a DIMACS file and enumerates it."""
    readers = {"read_dimacs", "build_unsat_table"}

    def calls(tree):
        return any(
            isinstance(node, ast.Call) and (getattr(node.func, "id", None) or getattr(node.func, "attr", None)) in readers
            for node in ast.walk(tree)
        )

    assert [name for name, tree in SOURCES.items() if calls(tree)] == ["cli"]


def test_no_dense_linear_algebra():
    """The spectrum is a secular solve: no module reaches numpy.linalg, whose dense eig is the tests' oracle."""

    def references(tree):
        return any(
            getattr(node, "id", None) == "linalg"
            or getattr(node, "attr", None) == "linalg"
            or (isinstance(node, ast.alias) and "linalg" in node.name.split("."))
            or (isinstance(node, ast.ImportFrom) and "linalg" in (node.module or "").split("."))
            for node in ast.walk(tree)
        )

    assert [name for name, tree in SOURCES.items() if references(tree)] == []


# A fresh interpreter runs one command on the pinned n = 8 toy and prints the
# modules it loaded.
FOOTPRINT = """
import sys
from satsearch.cli import main
assert main(sys.argv[1:]) == 0
print("\\n".join(sys.modules))
"""


@pytest.mark.parametrize(
    "command, absent",
    [
        (
            ["analyze"],
            ["numpy.random", "concurrent.futures", "satsearch.experiment", "satsearch.statevector", "satsearch.generate"],
        ),
        (
            ["run", "--trials", "50", "--snapshot", "snap.json"],
            ["numpy.random", "concurrent.futures", "satsearch.generate"],
        ),
    ],
    ids=["analyze", "run"],
)
def test_import_footprint(command, absent, tmp_path):
    """Each command loads only its layers: no numpy.random, no thread pool, no generator outside ``gen``."""
    loaded = loaded_modules(command, tmp_path)
    assert "satsearch.cnf" in loaded
    assert sorted(loaded.intersection(absent)) == []


def test_trials_import_nothing_more(tmp_path):
    """``run --trials`` loads exactly the modules a run without trials loads: its draw needs no import of its own."""
    snapshot = ["--snapshot", "snap.json"]
    assert loaded_modules(["run", "--trials", "50", *snapshot], tmp_path) == loaded_modules(["run", *snapshot], tmp_path)


def loaded_modules(command, tmp_path):
    """The modules a fresh interpreter has loaded after one command on the pinned n = 8 toy."""
    assert main(["gen", "-n", "8", "-m", "12", "--seed", "1", "-o", str(tmp_path / "inst.cnf")]) == 0
    env = {**os.environ, "PYTHONPATH": str(Path(ss.__file__).parent.parent)}
    argv = [*command, "-f", "inst.cnf", "-o", "out.json"]
    child = subprocess.run(
        [sys.executable, "-c", FOOTPRINT, *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    return set(child.stdout.split())
