"""Simulation and analysis toolkit for amplitude-amplification search on CNF instances."""

__version__ = "0.1.0"

from .cnf import (
    Clause,
    CnfFormula,
    DimacsError,
    FormulaError,
    GuardError,
    InstanceError,
    UnsatTable,
    build_unsat_table,
    parse_dimacs,
    read_dimacs,
    serialize_dimacs,
)
from .generate import (
    generate_planted_3sat,
    generate_planted_block3sat,
    generate_planted_chain,
)
from .statevector import (
    PhaseProfile,
    search_step,
    state_snapshot,
)
from .spectral import (
    EigenPairReport,
    SpectralSummary,
    lambda2_from_histogram,
    spectral_summary,
    spectrum,
)
from .experiment import (
    RunConfig,
    RunReport,
    grover_optimal_steps,
    measurement_success_rate,
    repeat_until_success_stats,
    run_grover_baseline,
    run_sweep,
    state_after,
    success_curve,
)

__all__ = [
    "__version__",
    "Clause",
    "CnfFormula",
    "DimacsError",
    "EigenPairReport",
    "FormulaError",
    "GuardError",
    "InstanceError",
    "PhaseProfile",
    "RunConfig",
    "RunReport",
    "SpectralSummary",
    "UnsatTable",
    "build_unsat_table",
    "generate_planted_3sat",
    "generate_planted_block3sat",
    "generate_planted_chain",
    "grover_optimal_steps",
    "lambda2_from_histogram",
    "measurement_success_rate",
    "parse_dimacs",
    "read_dimacs",
    "repeat_until_success_stats",
    "run_grover_baseline",
    "run_sweep",
    "search_step",
    "serialize_dimacs",
    "spectral_summary",
    "spectrum",
    "state_after",
    "state_snapshot",
    "success_curve",
]
