"""Route switching and global offsets on top of a solved design."""

import numpy as np
import pytest

from spinstar import (
    SMALLEST,
    DesignInput,
    RoutingState,
    StarSpec,
    apply_offset,
    build_arrowhead,
    design,
    fidelity_trace,
    initial_routing,
    retarget,
    transfer_time_grid,
    transition_amplitude,
)


@pytest.fixture(scope="module")
def solved():
    return design(DesignInput(m=2, eta=4, root_choice=SMALLEST))


def _fidelity(spec, t, src, dst):
    h = build_arrowhead(spec).to_dense()
    return abs(transition_amplitude(h, t, src, dst)) ** 2


def test_initial_routing_matches_design(solved):
    state = initial_routing(solved)
    assert (state.source, state.target) == (1, 2)
    assert state.realized_spec == solved.realized


def test_retarget_swaps_potentials(solved):
    state = initial_routing(solved)
    moved = retarget(state, 3)
    a, e, d = solved.params.a, solved.params.e, solved.params.d
    assert moved.realized_spec.potentials == (a, e, d, e, d)
    assert (moved.source, moved.target) == (1, 3)
    # the new route transfers perfectly; the old one no longer does
    tau = solved.transfer_time
    assert _fidelity(moved.realized_spec, tau, 1, 3) >= 1.0 - 1e-9
    assert _fidelity(moved.realized_spec, tau, 1, 2) < 0.999


def test_retarget_to_current_target_is_noop(solved):
    state = initial_routing(solved)
    same = retarget(state, 2)
    assert same.realized_spec.potentials == state.realized_spec.potentials
    assert (same.source, same.target) == (1, 2)


def test_retarget_is_involution(solved):
    state = initial_routing(solved)
    back = retarget(retarget(state, 4), 2)
    assert back.realized_spec.potentials == state.realized_spec.potentials
    assert (back.source, back.target) == (1, 2)


def test_retarget_validation(solved):
    state = initial_routing(solved)
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
        state = initial_routing(sol)
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
    assert moved == retarget(initial_routing(solved), 3)


def test_apply_offset_zero_is_identity(solved):
    spec = solved.realized
    assert apply_offset(spec, 0.0) == spec


def test_apply_offset_parks_bystanders_at_zero(solved):
    spec = solved.realized
    a, e, d = solved.params.a, solved.params.e, solved.params.d
    shifted = apply_offset(spec, -d)
    assert shifted.potentials == (a - d, e - d, e - d, 0.0, 0.0)
    # only the active pair and the hub carry potential now
    tau = solved.transfer_time
    assert _fidelity(shifted, tau, 1, 2) >= 1.0 - 1e-9


def test_apply_offset_preserves_fidelity_trace():
    spec = StarSpec(5, 0.9, (0.3, -0.4, -0.4, 1.1, 1.1, 1.1))
    grid = transfer_time_grid(4.0, steps=300)
    base = fidelity_trace(build_arrowhead(spec).to_dense(), grid, 1, 2)
    moved = fidelity_trace(build_arrowhead(apply_offset(spec, 7.3)).to_dense(), grid, 1, 2)
    assert np.max(np.abs(base.values - moved.values)) < 1e-12


def test_apply_offset_rejects_non_finite(solved):
    with pytest.raises(ValueError):
        apply_offset(solved.realized, float("nan"))
