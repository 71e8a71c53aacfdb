"""Route selection on top of a solved design.

One design serves every source/target pair: all edges couple to the hub
identically, so redirecting the transfer is just moving the distinguished
local potential from one node to another.  Switching is meaningful only while
the excitation is parked at a node (t = 0 or a multiple of the transfer
time); this module does not model mid-flight changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import DesignSolution, StarSpec, check_pair, check_route


@dataclass(frozen=True)
class RoutingState:
    """A design together with the source/target pair it is currently wired
    for; ``realized_spec`` holds the actual potentials.  Construction checks
    the route once, in ``O(len(realized_spec.exceptions))``."""

    base: DesignSolution
    source: int
    target: int
    realized_spec: StarSpec

    def __post_init__(self):
        source, target = check_route(self.realized_spec, self.base.params, self.source, self.target)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)


def initial_routing(sol: DesignSolution) -> RoutingState:
    """The route a fresh design is wired for: edge 1 to edge 2."""
    return RoutingState(base=sol, source=1, target=2, realized_spec=sol.realized)


def retarget(state: RoutingState, new_target: int) -> RoutingState:
    """Redirect the transfer to ``new_target`` by exchanging its local
    potential with the current target's, in ``O(len(exceptions))``.

    Retargeting to the current target is a no-op; swapping back restores the
    original potentials exactly (the swap moves float values verbatim).  The
    swap keeps the route valid (the target's value moves to the new target,
    a bystander's to the old target), so the new state is not re-checked.
    """
    spec = state.realized_spec
    _, new_target = check_pair(state.source, new_target, ("source", "new_target"), 1,
                               spec.edge_count)
    old_target = state.target
    new_spec = spec.replace({old_target: spec.potential(new_target),
                             new_target: spec.potential(old_target)})
    moved = object.__new__(RoutingState)
    moved.__dict__.update(base=state.base, source=state.source, target=new_target,
                          realized_spec=new_spec)
    return moved


def apply_offset(spec: StarSpec, delta: float) -> StarSpec:
    """Shift every local potential by ``delta``, in ``O(len(exceptions))``.

    Transfer probabilities are unchanged: the shift multiplies the evolution
    by a global phase.  Useful to park the bystanders at zero potential.
    """
    delta = float(delta)
    if not math.isfinite(delta):
        raise ValueError("delta must be finite")
    return StarSpec.sparse(
        spec.edge_count,
        spec.coupling,
        spec.hub + delta,
        spec.background + delta,
        [(j, value + delta) for j, value in spec.exceptions],
    )
