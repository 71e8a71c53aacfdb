"""The public API: the names ``spinstar`` exports, pinned."""

import spinstar
from spinstar import dynamics, model

PUBLIC = [
    "ArrowheadMatrix", "DesignInput", "DesignSolution", "ETA_MAX", "EnvelopeError",
    "EvolutionCache", "FeasibilityReport", "FidelityTrace", "GPolynomial", "GroupedStar",
    "InfeasibleDesignError", "LARGEST", "M_MAX", "NoRealDesignError", "ReducedParams",
    "ResourceLimitError", "RootChoice", "RoutingState", "SMALLEST", "STEPS_MAX",
    "SpinStarError", "StarEvolution", "StarSpec", "SymmetryError", "VerificationReport",
    "apply_offset", "back_solve", "build_arrowhead", "build_full_spin_hamiltonian",
    "build_grouped", "build_reduced", "design", "feasibility", "fidelity_trace",
    "g_polynomial", "initial_routing", "lambda_coefficients", "lift_reduced_amplitude",
    "min_feasible_even_eta", "propagate", "reduced_matrix", "retarget",
    "single_excitation_indices", "solve_e", "transfer_time_grid", "transition_amplitude",
    "verify_design",
]

# Exchange-symmetry names that are test references (tests/oracle.py) or
# deleted: none is an attribute of the package or of its modules.
MOVED = ["DEGENERACY_TOL", "exchange_operator", "exchange_parities", "exchange_permutation",
         "is_exchange_symmetric"]


def test_public_names_are_pinned_and_resolve():
    assert sorted(spinstar.__all__) == PUBLIC
    assert len(PUBLIC) == 47
    assert [name for name in PUBLIC if not hasattr(spinstar, name)] == []
    # A star import binds exactly the public names: no submodule, no __version__.
    namespace = {}
    exec("from spinstar import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC
    assert [(module.__name__, name) for module in (spinstar, model, dynamics)
            for name in MOVED if hasattr(module, name)] == []
