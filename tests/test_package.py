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


def test_public_names_pinned():
    assert ss.__all__ == PUBLIC
    assert all(hasattr(ss, name) for name in PUBLIC)
