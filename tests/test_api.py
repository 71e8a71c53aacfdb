"""The public API: the names ``spinstar`` exports, pinned."""

import spinstar

PUBLIC = [
    "ArrowheadMatrix", "DesignInput", "DesignSolution", "ETA_MAX", "EnvelopeError",
    "EvolutionCache", "FeasibilityReport", "FidelityTrace", "GPolynomial", "GroupedStar",
    "InfeasibleDesignError", "LARGEST", "M_MAX", "NoRealDesignError", "ReducedParams",
    "ResourceLimitError", "RootChoice", "RoutingState", "SMALLEST", "STEPS_MAX",
    "SpinStarError", "StarEvolution", "StarSpec", "SymmetryError", "VerificationReport",
    "apply_offset", "back_solve", "build_arrowhead", "build_full_spin_hamiltonian",
    "build_grouped", "build_reduced", "design", "exchange_operator", "exchange_parities",
    "feasibility", "fidelity_trace", "g_polynomial", "initial_routing", "is_exchange_symmetric",
    "lambda_coefficients", "lift_reduced_amplitude", "min_feasible_even_eta", "propagate",
    "reduced_matrix", "retarget", "single_excitation_indices", "solve_e", "transfer_time_grid",
    "transition_amplitude", "verify_design",
]


def test_public_names_are_pinned_and_resolve():
    assert sorted(spinstar.__all__) == PUBLIC
    assert len(PUBLIC) == 50
    assert [name for name in PUBLIC if not hasattr(spinstar, name)] == []
