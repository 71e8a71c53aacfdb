"""Design and verification of spin-star networks that transfer
single-excitation states between edge nodes by tuning local potentials only.

The workflow is: pick a bystander count and an even spectrum ratio, solve the
resulting cubic for the admissible potentials (:mod:`spinstar.designer`),
then confirm the transfer by exact dynamics (:mod:`spinstar.dynamics`).
Routes are switched by swapping potentials (:mod:`spinstar.switchboard`);
:mod:`spinstar.cli` exposes everything as the ``spinstar`` command.
"""

from types import ModuleType as _ModuleType

from .designer import (
    ETA_MAX,
    LARGEST,
    M_MAX,
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
    STEPS_MAX,
    EvolutionCache,
    StarEvolution,
    VerificationReport,
    fidelity_trace,
    transfer_time_grid,
    verify_design,
)
from .errors import (
    EnvelopeError,
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
    reduced_matrix,
    single_excitation_indices,
)
from .switchboard import RoutingState, retarget

__version__ = "0.1.0"

# The public API is every name imported above that is not private and not a
# submodule: the import lists are its one spelling.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
