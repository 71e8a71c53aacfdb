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

from .model import DesignSolution, StarSpec, check_int, check_route


@dataclass(frozen=True)
class RoutingState:
    """A design together with the source/target pair it is currently wired
    for; ``realized_spec`` holds the actual per-node potentials."""

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
    potential with the current target's.

    Retargeting to the current target is a no-op; swapping back restores the
    original potentials exactly (the swap moves float values verbatim).
    """
    n = state.realized_spec.edge_count
    new_target = check_int(new_target, "new_target", 1, n)
    if new_target == state.source:
        raise ValueError("new_target must differ from the source")
    pots = list(state.realized_spec.potentials)
    pots[state.target], pots[new_target] = pots[new_target], pots[state.target]
    new_spec = StarSpec(
        edge_count=n,
        coupling=state.realized_spec.coupling,
        potentials=tuple(pots),
    )
    return RoutingState(
        base=state.base,
        source=state.source,
        target=new_target,
        realized_spec=new_spec,
    )


def apply_offset(spec: StarSpec, delta: float) -> StarSpec:
    """Shift every local potential by ``delta``.

    Transfer probabilities are unchanged: the shift multiplies the evolution
    by a global phase.  Useful to park the bystanders at zero potential.
    """
    delta = float(delta)
    if not math.isfinite(delta):
        raise ValueError("delta must be finite")
    return StarSpec(
        edge_count=spec.edge_count,
        coupling=spec.coupling,
        potentials=tuple(x + delta for x in spec.potentials),
    )
