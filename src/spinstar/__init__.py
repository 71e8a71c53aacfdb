"""Design and verification of spin-star networks that transfer
single-excitation states between edge nodes by tuning local potentials only.

The workflow is: pick a bystander count and an even spectrum ratio, solve the
resulting cubic for the admissible potentials (:mod:`spinstar.designer`),
then confirm the transfer by exact dynamics (:mod:`spinstar.dynamics`).
Routes are switched by swapping potentials (:mod:`spinstar.switchboard`);
:mod:`spinstar.cli` exposes everything as the ``spinstar`` command.
"""

from .designer import (
    LARGEST,
    SMALLEST,
    DesignInput,
    FeasibilityReport,
    GPolynomial,
    RootChoice,
    back_solve,
    design,
    feasibility,
    g_polynomial,
    lambda_coefficients,
    min_feasible_even_eta,
    solve_e,
)
from .dynamics import (
    EvolutionCache,
    VerificationReport,
    exchange_parities,
    fidelity_trace,
    lift_reduced_amplitude,
    propagate,
    transfer_time_grid,
    transition_amplitude,
    verify_design,
)
from .errors import (
    InfeasibleDesignError,
    NoRealDesignError,
    ResourceLimitError,
    SpinStarError,
    SymmetryError,
)
from .model import (
    ArrowheadMatrix,
    DesignSolution,
    FidelityTrace,
    ReducedParams,
    StarSpec,
    build_arrowhead,
    build_full_spin_hamiltonian,
    build_reduced,
    exchange_operator,
    is_exchange_symmetric,
    reduced_matrix,
    single_excitation_indices,
)
from .switchboard import RoutingState, apply_offset, initial_routing, retarget

__version__ = "0.1.0"

__all__ = [
    "ArrowheadMatrix",
    "DesignInput",
    "DesignSolution",
    "EvolutionCache",
    "FeasibilityReport",
    "FidelityTrace",
    "GPolynomial",
    "InfeasibleDesignError",
    "LARGEST",
    "NoRealDesignError",
    "ReducedParams",
    "ResourceLimitError",
    "RootChoice",
    "RoutingState",
    "SMALLEST",
    "SpinStarError",
    "StarSpec",
    "SymmetryError",
    "VerificationReport",
    "apply_offset",
    "back_solve",
    "build_arrowhead",
    "build_full_spin_hamiltonian",
    "build_reduced",
    "design",
    "exchange_operator",
    "exchange_parities",
    "feasibility",
    "fidelity_trace",
    "g_polynomial",
    "initial_routing",
    "is_exchange_symmetric",
    "lambda_coefficients",
    "lift_reduced_amplitude",
    "min_feasible_even_eta",
    "propagate",
    "reduced_matrix",
    "retarget",
    "single_excitation_indices",
    "solve_e",
    "transfer_time_grid",
    "transition_amplitude",
    "verify_design",
]
