"""Simulation and analysis toolkit for amplitude-amplification search on CNF instances.

The public names resolve on first use (PEP 562), so importing the package, or
one of its modules such as ``satsearch.cli``, loads only the modules that are
used: ``analyze`` never loads the dynamics, and no command loads the
generator but ``gen``.  ``satsearch.cnf``-style access to the modules works
the same way.
"""

from importlib import import_module

__version__ = "0.1.0"

# each module's public names; __getattr__ imports a module when one of its names is first read
_EXPORTS = {
    "cnf": (
        "Clause", "CnfFormula", "DimacsError", "FormulaError", "GuardError", "InstanceError",
        "UnsatTable", "build_unsat_table", "parse_dimacs", "read_dimacs", "serialize_dimacs",
    ),
    "generate": ("generate_planted_3sat", "generate_planted_block3sat", "generate_planted_chain"),
    "statevector": ("PhaseProfile", "search_step", "state_snapshot"),
    "spectral": ("EigenPairReport", "SpectralSummary", "lambda2_from_histogram", "spectral_summary", "spectrum"),
    "experiment": (
        "RunConfig", "RunReport", "grover_optimal_steps", "measurement_success_rate",
        "repeat_until_success_stats", "run_grover_baseline", "run_sweep", "state_after", "success_curve",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_MODULES = {"cli", *_EXPORTS}

__all__ = ["__version__", *sorted(_HOME)]


def __getattr__(name: str):
    if name in _MODULES:
        return import_module(f".{name}", __name__)
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
        globals()[name] = value  # later reads skip this hook
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

