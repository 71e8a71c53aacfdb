"""Route switching on top of a solved design."""

import numpy as np
import pytest

from spinstar import (
    SMALLEST,
    DesignInput,
    RoutingState,
    StarSpec,
    build_arrowhead,
    design,
    retarget,
)

from oracle import transition_amplitude


@pytest.fixture(scope="module")
def solved():
    return design(DesignInput(m=2, eta=4, root_choice=SMALLEST))


def _fidelity(spec, t, src, dst):
    h = build_arrowhead(spec).to_dense()
    return abs(transition_amplitude(h, t, src, dst)) ** 2


def test_initial_routing_matches_design(solved):
    state = RoutingState(solved, 1, 2, solved.realized)
    assert (state.source, state.target) == (1, 2)
    assert state.realized_spec == solved.realized


def test_retarget_swaps_potentials(solved):
    state = RoutingState(solved, 1, 2, solved.realized)
    moved = retarget(state, 3)
    a, e, d = solved.params.a, solved.params.e, solved.params.d
    assert moved.realized_spec.potentials == (a, e, d, e, d)
    assert (moved.source, moved.target) == (1, 3)
    # the new route transfers perfectly; the old one no longer does
    tau = solved.transfer_time
    assert _fidelity(moved.realized_spec, tau, 1, 3) >= 1.0 - 1e-9
    assert _fidelity(moved.realized_spec, tau, 1, 2) < 0.999


def test_retarget_to_current_target_is_noop(solved):
    state = RoutingState(solved, 1, 2, solved.realized)
    same = retarget(state, 2)
    assert same.realized_spec.potentials == state.realized_spec.potentials
    assert (same.source, same.target) == (1, 2)


def test_retarget_is_involution(solved):
    state = RoutingState(solved, 1, 2, solved.realized)
    back = retarget(retarget(state, 4), 2)
    assert back.realized_spec.potentials == state.realized_spec.potentials
    assert (back.source, back.target) == (1, 2)


def test_retarget_validation(solved):
    state = RoutingState(solved, 1, 2, solved.realized)
    with pytest.raises(ValueError, match="^source and new_target must differ$"):
        retarget(state, 1)  # the source
    with pytest.raises(ValueError, match=r"^new_target must lie in 1\.\.4, got 0$"):
        retarget(state, 0)
    with pytest.raises(ValueError, match=r"^new_target must lie in 1\.\.4, got 5$"):
        retarget(state, 5)
    with pytest.raises(ValueError, match="^new_target must be an integer, got 2.0$"):
        retarget(state, 2.0)


def test_every_target_reachable():
    # node symmetry: one design serves all routes
    for m in (2, 3):
        sol = design(DesignInput(m=m, eta=4 if m == 2 else 6))
        tau = sol.transfer_time
        state = RoutingState(sol, 1, 2, sol.realized)
        for k in range(2, sol.realized.edge_count + 1):
            moved = retarget(state, k)
            assert _fidelity(moved.realized_spec, tau, 1, k) >= 1.0 - 1e-9


def test_routing_state_rejects_inconsistent_spec(solved):
    bad = StarSpec(4, 1.0, (0.0, 1.0, 2.0, 3.0, 4.0))
    with pytest.raises(ValueError):
        RoutingState(base=solved, source=1, target=2, realized_spec=bad)


def test_routing_state_rejects_other_size_or_coupling(solved):
    a, e, d = solved.params.a, solved.params.e, solved.params.d
    bigger = StarSpec(5, 1.0, (a, e, e, d, d, d))
    with pytest.raises(ValueError, match="edge_count"):
        RoutingState(base=solved, source=1, target=2, realized_spec=bigger)
    recoupled = StarSpec(4, 2.0, solved.realized.potentials)
    with pytest.raises(ValueError, match="coupling"):
        RoutingState(base=solved, source=1, target=2, realized_spec=recoupled)


def test_numpy_integer_nodes_accepted(solved):
    state = RoutingState(base=solved, source=np.int64(1), target=np.int32(2),
                         realized_spec=solved.realized)
    assert (state.source, state.target) == (1, 2)
    moved = retarget(state, np.int64(3))
    assert type(moved.target) is int
    assert moved == retarget(RoutingState(solved, 1, 2, solved.realized), 3)
