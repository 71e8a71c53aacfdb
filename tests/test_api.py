"""The public API: the names ``spinstar`` exports, pinned."""

import ast
from pathlib import Path

import spinstar
from spinstar import dynamics, model, switchboard

PUBLIC = [
    "ArrowheadMatrix", "DesignInput", "DesignSolution", "ETA_MAX", "EnvelopeError",
    "EvolutionCache", "FeasibilityReport", "FidelityTrace", "GPolynomial",
    "InfeasibleDesignError", "LARGEST", "M_MAX", "NoRealDesignError", "ReducedParams",
    "ResourceLimitError", "RootChoice", "RoutingState", "SMALLEST", "STEPS_MAX",
    "SpinStarError", "StarEvolution", "StarSpec", "SymmetryError", "VerificationReport",
    "back_solve", "build_arrowhead", "build_full_spin_hamiltonian",
    "build_reduced", "design", "feasibility", "fidelity_trace", "g_polynomial",
    "lambda_coefficients", "min_feasible_even_eta", "reduced_matrix", "retarget",
    "single_excitation_indices", "solve_e", "transfer_time_grid", "verify_design",
]

# Names that are test references (tests/oracle.py) or deleted, because no
# command and no benchmark operation reached them, or folded into a type
# (StarEvolution groups its own star): none is an attribute of the package
# or of its modules.
MOVED = ["DEGENERACY_TOL", "exchange_operator", "exchange_parities", "exchange_permutation",
         "is_exchange_symmetric", "apply_offset", "initial_routing", "lift_reduced_amplitude",
         "propagate", "transition_amplitude", "GroupedStar", "build_grouped"]

ROOT = Path(__file__).resolve().parents[1]


def test_public_names_are_pinned_and_resolve():
    assert sorted(spinstar.__all__) == PUBLIC
    assert len(PUBLIC) == 40
    assert [name for name in PUBLIC if not hasattr(spinstar, name)] == []
    # A star import binds exactly the public names: no submodule, no __version__.
    namespace = {}
    exec("from spinstar import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC
    assert [(module.__name__, name) for module in (spinstar, model, dynamics, switchboard)
            for name in MOVED if hasattr(module, name)] == []
    # Two methods went with them: only the removed propagate reached the one,
    # and nothing called the other.
    assert not hasattr(dynamics.EvolutionCache, "propagator")
    assert not hasattr(model.FidelityTrace, "__len__")


def _used_names(path: Path) -> set[str]:
    """Every identifier that ``path`` reads as a name or an attribute, or
    imports: definitions alone do not count."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def test_every_public_name_is_reached_by_a_command_or_the_benchmark():
    # The package's modules, which hold the commands, and the benchmark's
    # operations; __init__.py only re-exports.
    sources = [path for path in sorted((ROOT / "src" / "spinstar").glob("*.py"))
               if path.name != "__init__.py"] + sorted((ROOT / "bench").glob("*.py"))
    used = set().union(*map(_used_names, sources))
    assert [name for name in spinstar.__all__ if name not in used] == []
