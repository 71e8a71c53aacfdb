"""Core types and Hamiltonian constructors.

Oracle convention: expected numbers are either direct transcriptions, closed
forms derived independently of the code under test (and re-checked here by
evaluating the design polynomial), or brute-force comparisons against the
full spin space.
"""

import dataclasses
import math
import re

import numpy as np
import pytest

from spinstar import (
    LARGEST,
    SMALLEST,
    DesignInput,
    ReducedParams,
    ResourceLimitError,
    StarSpec,
    SymmetryError,
    build_arrowhead,
    build_full_spin_hamiltonian,
    build_reduced,
    cli,
    design,
    g_polynomial,
    lift_reduced_amplitude,
    min_feasible_even_eta,
    reduced_matrix,
    single_excitation_indices,
    transition_amplitude,
)
from spinstar.model import (
    ArrowheadMatrix,
    DesignSolution,
    FidelityTrace,
    check_eta,
    check_int,
    check_pair,
    check_route,
    routed_star,
)

from oracle import exchange_operator

# Closed-form smallest admissible potential for m=2, eta=4: e**2 = 4/15.
E_M2_ETA4 = 2.0 / math.sqrt(15.0)


def _random_symmetric_spec(rng, m):
    """Random star obeying the reduction preconditions; returns the active pair."""
    n = m + 2
    hub, active, rest = rng.uniform(-2.0, 2.0, size=3)
    coupling = float(rng.uniform(0.2, 2.0))
    source, target = (int(x) for x in rng.choice(np.arange(1, n + 1), size=2, replace=False))
    pots = np.full(n + 1, rest)
    pots[0] = hub
    pots[source] = active
    pots[target] = active
    return StarSpec(n, coupling, tuple(pots)), source, target


def _total_sz(sites):
    """Independent kron-built total z operator (|0> is the -1 eigenstate)."""
    sz = np.array([[-1.0, 0.0], [0.0, 1.0]])
    total = np.zeros((2**sites, 2**sites))
    for k in range(sites):
        op = np.eye(1)
        for s in range(sites):
            op = np.kron(op, sz if s == k else np.eye(2))
        total += op
    return total


# ---------------------------------------------------------------------------
# StarSpec / ArrowheadMatrix
# ---------------------------------------------------------------------------

def test_star_spec_validation():
    with pytest.raises(ValueError):
        StarSpec(2, 1.0, (0.0, 0.0, 0.0))  # too few edges for a switch
    with pytest.raises(ValueError):
        StarSpec(3, 1.0, (0.0, 0.0, 0.0))  # wrong potentials length
    with pytest.raises(ValueError):
        StarSpec(3, 0.0, (0.0,) * 4)  # coupling must be positive
    with pytest.raises(ValueError):
        StarSpec(3, -1.0, (0.0,) * 4)
    with pytest.raises(ValueError):
        StarSpec(3, 1.0, (0.0, math.inf, 0.0, 0.0))


def test_check_int():
    assert check_int(np.int64(3), "k", 1, 3) == 3
    assert type(check_int(np.int32(3), "k")) is int
    for bad in (True, 2.0, "2", None):
        with pytest.raises(ValueError, match="k must be an integer"):
            check_int(bad, "k")
    with pytest.raises(ValueError, match=r"k must lie in 1\.\.3, got 4"):
        check_int(4, "k", 1, 3)
    with pytest.raises(ValueError, match="k must be at least 2, got 1"):
        check_int(1, "k", lo=2)


def test_check_pair():
    assert check_pair(np.int64(1), 3, ("x", "y"), 1, 3) == (1, 3)
    assert type(check_pair(np.int32(2), 1, ("x", "y"), 1, 3)[0]) is int
    with pytest.raises(ValueError, match="^x and y must differ$"):
        check_pair(2, 2, ("x", "y"), 1, 3)
    # Each integer is checked, under its own name, before the two are compared.
    with pytest.raises(ValueError, match=r"^x must lie in 1\.\.3, got 0$"):
        check_pair(0, 0, ("x", "y"), 1, 3)
    with pytest.raises(ValueError, match=r"^y must lie in 1\.\.3, got 4$"):
        check_pair(1, 4, ("x", "y"), 1, 3)
    with pytest.raises(ValueError, match="^y must be an integer, got 2.0$"):
        check_pair(1, 2.0, ("x", "y"), 1, 3)


def test_check_eta():
    assert check_eta(2) == 2 and type(check_eta(np.int64(1_400_000))) is int
    with pytest.raises(ValueError, match="^eta must be at least 2, got 0$"):
        check_eta(0)
    with pytest.raises(ValueError, match="^eta must be at least 2, got -4$"):
        check_eta(-4)
    with pytest.raises(ValueError, match=r"^eta must be even \(phase cancellation needs it\), "
                       "got 5$"):
        check_eta(5)
    for bad in (4.0, "4", True):
        with pytest.raises(ValueError, match="^eta must be an integer"):
            check_eta(bad)


@pytest.mark.parametrize("call", [
    lambda: single_excitation_indices(2.9),
    lambda: single_excitation_indices(-1),
    lambda: exchange_operator("4", 0, 1),
    lambda: exchange_operator(4.0, 0, 1),
    lambda: ArrowheadMatrix(3.7, 0.0, (1.0, 1.0), (0.0, 0.0)),
    lambda: ArrowheadMatrix(True, 0.0, (1.0,), (0.0,)),
    lambda: ArrowheadMatrix(1, 0.0, (), ()),
], ids=["indices 2.9", "indices -1", "operator '4'", "operator 4.0", "arrowhead 3.7",
        "arrowhead True", "arrowhead 1"])
def test_sizes_are_integers_not_truncations(call):
    with pytest.raises(ValueError, match="^(edge_count|dimension) must be"):
        call()


def test_arrowhead_matrix_validation():
    with pytest.raises(ValueError, match="^arm_couplings and arm_values must each have 2 entries$"):
        ArrowheadMatrix(3, 0.0, (1.0,), (0.0, 0.0))
    with pytest.raises(ValueError, match="^all entries must be finite$"):
        ArrowheadMatrix(3, 0.0, (1.0, math.inf), (0.0, 0.0))
    wide = build_arrowhead(StarSpec.sparse(4097, 1.0, 0.0, 0.5))
    assert wide.dimension == 4098
    with pytest.raises(ResourceLimitError, match="limited to 4096 edges"):
        wide.to_dense()


def test_fidelity_trace_refuses_nan_fidelities_and_non_finite_times():
    with pytest.raises(ValueError, match=r"^fidelities must lie in \[0, 1\] up to rounding$"):
        FidelityTrace([0.0, 1.0], [math.nan, 0.5])
    for times in ([math.nan], [0.0, math.inf]):
        with pytest.raises(ValueError, match="^times must be finite$"):
            FidelityTrace(times, [0.5] * len(times))


def test_fidelity_trace_refuses_fidelities_beyond_one():
    assert FidelityTrace([0.0, 1.0], [0.0, 1.0 + 1e-12]).values[1] == 1.0 + 1e-12
    for bad in (1.0 + 1e-11, -1e-300):
        with pytest.raises(ValueError, match="fidelities must lie in"):
            FidelityTrace([0.0, 1.0], [0.5, bad])


def test_design_solution_needs_four_spectrum_entries():
    sol = design(DesignInput(m=2, eta=4))
    with pytest.raises(ValueError, match="^target_spectrum must have four entries$"):
        DesignSolution(params=sol.params, eta=4, transfer_time=sol.transfer_time,
                       target_spectrum=sol.target_spectrum[:3], root_residual=0.0,
                       realized=sol.realized)


@pytest.mark.parametrize("m, root", [(1, SMALLEST), (2, LARGEST), (7, SMALLEST),
                                     (10**6, LARGEST)])
def test_design_solution_derives_its_transfer_time_spectrum_and_star(m, root):
    sol = design(DesignInput(m=m, eta=min_feasible_even_eta(m), root_choice=root))
    assert "realized" not in vars(sol)  # built on first read
    p, eta, e = sol.params, sol.eta, sol.params.e
    given = DesignSolution(params=p, eta=eta, transfer_time=math.pi / e,
                           target_spectrum=(0.0, e, eta * e, -eta * e),
                           root_residual=sol.root_residual, realized=routed_star(p),
                           spectrum_residual=sol.spectrum_residual,
                           lambda_residual=sol.lambda_residual)
    # repr spells every float exactly, so equal reprs are equal bits.
    assert sol == given and repr(sol) == repr(given)
    assert [f.name for f in dataclasses.fields(sol)] == [
        "params", "eta", "transfer_time", "target_spectrum", "root_residual",
        "spectrum_residual", "lambda_residual"]
    assert sol.realized is sol.realized and sol.realized._parts() == given.realized._parts()
    assert cli.render_design(cli.design_document(sol, 1, 2, sol.realized, root)) == \
        cli.render_design(cli.design_document(given, 1, 2, given.realized, root))


def test_design_solution_checks_what_it_is_given():
    # A three-entry spectrum: test_design_solution_needs_four_spectrum_entries.
    sol = design(DesignInput(m=2, eta=4))
    p, e = sol.params, sol.params.e
    off_route = routed_star(p).replace({2: p.d, 3: e})
    zero = ReducedParams(a=p.a, b=p.b, c=p.c, d=p.d, e=0.0, m=2)
    cases = [
        ({"transfer_time": math.pi / e * (1.0 + 1e-11)}, "transfer_time must equal pi / params.e"),
        ({"transfer_time": math.nan}, "transfer_time must equal pi / params.e"),
        ({"target_spectrum": (0.0, e, 4 * e, -2 * e)},
         "target_spectrum must be {0, e, +eta*e, -eta*e}"),
        ({"realized": off_route}, "potentials do not realize the route (source=1, target=2): "
                                  f"node 2 carries {p.d!r} where {e!r} is required"),
        ({"params": zero}, "params.e must be nonzero (transfer time is pi/e)"),
        ({"root_residual": -1.0}, "root_residual must be a finite number >= 0, got -1.0"),
    ]
    given = {"params": p, "eta": 4, "transfer_time": sol.transfer_time,
             "target_spectrum": sol.target_spectrum, "root_residual": 0.0}
    for change, message in cases:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            DesignSolution(**{**given, **change})


@pytest.mark.parametrize("given, missing", [("spectrum_residual", "lambda_residual"),
                                            ("lambda_residual", "spectrum_residual")])
def test_a_lone_spectrum_or_lambda_residual_is_refused_by_name(given, missing):
    # Accepted alone, the residual was dropped: design_document wrote the
    # root residual only.
    sol = design(DesignInput(m=2, eta=4))
    with pytest.raises(ValueError, match=f"^{missing} is missing: the spectrum and lambda "
                                         "residuals are a pair$"):
        DesignSolution(params=sol.params, eta=sol.eta, root_residual=sol.root_residual,
                       **{given: getattr(sol, given)})


def test_stars_equal_node_by_node_hash_alike_across_a_signed_zero_hub():
    plus, minus = StarSpec(3, 1.0, (0.0, 0.5, 0.5, 0.1)), StarSpec(3, 1.0, (-0.0, 0.5, 0.5, 0.1))
    assert math.copysign(1.0, minus.hub) == -1.0
    assert plus == minus and hash(plus) == hash(minus)


def test_build_arrowhead_uniform_star():
    spec = StarSpec(3, 1.0, (0.0, 0.0, 0.0, 0.0))
    h = build_arrowhead(spec).to_dense()
    expected = np.zeros((4, 4))
    expected[0, 1:] = 1.0
    expected[1:, 0] = 1.0
    assert np.array_equal(h, expected)


def test_build_arrowhead_vanishing_coupling_limit():
    spec = StarSpec(3, 1e-30, (5.0, 1.0, 2.0, 3.0))
    h = build_arrowhead(spec).to_dense()
    assert np.array_equal(np.diag(h), [5.0, 1.0, 2.0, 3.0])
    off = h - np.diag(np.diag(h))
    assert np.max(np.abs(off)) <= 1e-29


def test_build_arrowhead_from_solved_design():
    # Oracle: e = 2/sqrt(15) is a root of the m=2, eta=4 design polynomial.
    assert abs(g_polynomial(2, 4).evaluate(E_M2_ETA4)) < 1e-14
    sol = design(DesignInput(m=2, eta=4, root_choice=SMALLEST))
    arrow = build_arrowhead(sol.realized)
    e = E_M2_ETA4
    diag = (arrow.hub_value,) + arrow.arm_values
    np.testing.assert_allclose(diag, (0.0, e, e, -e, -e), rtol=0, atol=1e-12)
    assert arrow.arm_couplings == (1.0,) * 4


def test_arrowhead_dense_is_exactly_symmetric():
    rng = np.random.default_rng(11)
    for m in (1, 2, 3, 4):
        spec, _, _ = _random_symmetric_spec(rng, m)
        h = build_arrowhead(spec).to_dense()
        assert np.array_equal(h, h.T)
        # off-arrowhead entries are exactly zero
        assert np.all(h[1:, 1:][~np.eye(spec.edge_count, dtype=bool)] == 0.0)


# ---------------------------------------------------------------------------
# Full spin space (brute-force oracle)
# ---------------------------------------------------------------------------

def test_arrowhead_matches_full_space_block():
    rng = np.random.default_rng(23)
    for m in (1, 2, 3, 4):
        spec, _, _ = _random_symmetric_spec(rng, m)
        full = build_full_spin_hamiltonian(spec)
        idx = single_excitation_indices(spec.edge_count)
        block = full[np.ix_(idx, idx)]
        assert np.max(np.abs(block - build_arrowhead(spec).to_dense())) < 1e-12


def _kron_full_spin_hamiltonian(spec):
    """Reference: the star Hamiltonian as a sum of Kronecker chains, site 0
    the most significant factor, c/2 (xx + yy) per hub-edge pair plus the
    local number operators."""
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    sy = np.array([[0.0, 1.0j], [-1.0j, 0.0]])
    number = np.array([[0.0, 0.0], [0.0, 1.0]])
    sites = spec.edge_count + 1

    def chain(site_ops):
        out = np.ones((1, 1), dtype=complex)
        for site in range(sites):
            out = np.kron(out, site_ops.get(site, np.eye(2)))
        return out

    h = np.zeros((2**sites, 2**sites), dtype=complex)
    for j in range(1, sites):
        h += 0.5 * spec.coupling * (chain({0: sx, j: sx}) + chain({0: sy, j: sy}))
    for j, lam in enumerate(spec.potentials):
        h += lam * chain({j: number})
    assert np.max(np.abs(h.imag)) == 0.0
    return h.real


def test_full_space_matches_kron_reference():
    rng = np.random.default_rng(37)
    for n in (3, 4, 6, 8):
        spec = StarSpec(n, float(rng.uniform(0.2, 2.0)), tuple(rng.uniform(-2.0, 2.0, n + 1)))
        ref = _kron_full_spin_hamiltonian(spec)
        assert np.max(np.abs(build_full_spin_hamiltonian(spec) - ref)) < 1e-12


def test_full_space_vacuum_is_stationary():
    rng = np.random.default_rng(29)
    spec, _, _ = _random_symmetric_spec(rng, 3)
    h = build_full_spin_hamiltonian(spec)
    assert np.all(h[:, 0] == 0.0)
    assert np.all(h[0, :] == 0.0)
    vac = np.zeros(h.shape[0])
    vac[0] = 1.0
    evals, vecs = np.linalg.eigh(h)
    evolved = vecs @ (np.exp(-1j * evals * 3.7) * (vecs.T @ vac))
    assert abs(evolved[0] - 1.0) < 1e-12
    assert np.max(np.abs(evolved[1:])) < 1e-12


def test_full_space_conserves_excitation_number():
    rng = np.random.default_rng(31)
    for m in (1, 2, 3):
        spec, _, _ = _random_symmetric_spec(rng, m)
        h = build_full_spin_hamiltonian(spec)
        total = _total_sz(spec.edge_count + 1)
        comm = h @ total - total @ h
        assert np.max(np.abs(comm)) < 1e-12


def test_full_space_resource_cap():
    spec = StarSpec(11, 1.0, (0.0,) * 12)
    with pytest.raises(ResourceLimitError):
        build_full_spin_hamiltonian(spec)


def test_single_excitation_indices_order():
    idx = single_excitation_indices(3)
    # hub first, then edges 1..N; hub excitation is the most significant bit
    assert list(idx) == [8, 4, 2, 1]


# ---------------------------------------------------------------------------
# Exchange symmetry
# ---------------------------------------------------------------------------

def test_exchange_operator_flips_antisymmetric_vector():
    p = exchange_operator(4, 2, 3)
    v = np.array([0.0, 0.0, 1.0, -1.0])
    assert np.array_equal(p @ v, -v)


def test_exchange_operator_is_involution():
    p = exchange_operator(6, 1, 4)
    assert np.array_equal(p @ p, np.eye(6))


def test_exchange_operator_leaves_symmetric_arrowhead_invariant():
    spec = StarSpec(4, 0.8, (0.3, 0.5, 0.5, -0.2, -0.2))
    h = build_arrowhead(spec).to_dense()
    p = exchange_operator(5, 1, 2)
    assert np.max(np.abs(p @ h @ p - h)) == 0.0


def test_exchange_operator_rejects_bad_indices():
    with pytest.raises(ValueError):
        exchange_operator(4, 1, 1)
    with pytest.raises(ValueError):
        exchange_operator(4, 0, 4)
    with pytest.raises(ValueError):
        exchange_operator(4, -1, 2)


# ---------------------------------------------------------------------------
# Reduction
# ---------------------------------------------------------------------------

def test_build_reduced_reads_off_elements():
    spec = StarSpec(4, 1.0, (0.0, 0.5, 0.5, -0.5, -0.5))
    params = build_reduced(spec, 1, 2)
    assert params.a == 0.0
    assert abs(params.b - math.sqrt(2.0)) < 1e-15
    assert params.c == 1.0
    assert params.d == -0.5
    assert params.e == 0.5
    assert params.m == 2


def test_build_reduced_swapped_roles():
    # Using the former bystanders as the active pair swaps d and e.
    spec = StarSpec(4, 1.0, (0.0, 0.5, 0.5, -0.5, -0.5))
    params = build_reduced(spec, 3, 4)
    assert params.d == 0.5
    assert params.e == -0.5
    assert params.m == 2


def test_build_reduced_rejects_broken_symmetry():
    spec = StarSpec(4, 1.0, (0.0, 0.5, 0.4, -0.5, -0.5))
    with pytest.raises(SymmetryError):
        build_reduced(spec, 1, 2)
    # unequal bystanders are just as fatal
    spec2 = StarSpec(4, 1.0, (0.0, 0.5, 0.5, -0.5, -0.4))
    with pytest.raises(SymmetryError):
        build_reduced(spec2, 1, 2)


def test_build_reduced_applies_the_route_rule():
    # the tolerance is relative to max(1, |wanted|): 1e-12 * 70 here
    d, e = -70.0, 0.5
    nudged = StarSpec(5, 1.0, (0.0, e, e, d, d + 3.5e-11, d))
    assert build_reduced(nudged, 1, 2).d == d
    broken = StarSpec(5, 1.0, (0.0, e, e, d, d + 1e-9, d))
    with pytest.raises(SymmetryError, match="^the four-level reduction does not apply: "
                       "potentials do not realize the route \\(source=1, target=2\\): "
                       "node 4 carries "):
        build_reduced(broken, 1, 2)


def test_build_reduced_rejects_bad_nodes():
    spec = StarSpec(4, 1.0, (0.0, 0.5, 0.5, -0.5, -0.5))
    with pytest.raises(ValueError):
        build_reduced(spec, 1, 1)
    with pytest.raises(ValueError):
        build_reduced(spec, 0, 2)
    with pytest.raises(ValueError):
        build_reduced(spec, 1, 5)


@pytest.mark.parametrize("source, target", [(1, 1), (0, 2), (1, 5), (True, 2), (1, 2.0)])
def test_build_reduced_and_check_route_refuse_bad_nodes_alike(source, target):
    spec = StarSpec(4, 1.0, (0.0, 0.5, 0.5, -0.5, -0.5))
    params = ReducedParams(a=0.0, b=math.sqrt(2.0), c=1.0, d=-0.5, e=0.5, m=2)
    with pytest.raises(ValueError) as reduced:
        build_reduced(spec, source, target)
    with pytest.raises(ValueError) as routed:
        check_route(spec, params, source, target)
    assert type(reduced.value) is ValueError
    assert str(reduced.value) == str(routed.value)


def test_reduced_matrix_layout_and_decoupled_case():
    params = ReducedParams(a=1.0, b=0.0, c=0.0, d=2.0, e=3.0, m=4)
    assert np.array_equal(reduced_matrix(params), np.diag([1.0, 2.0, 3.0, 3.0]))
    params = ReducedParams(a=0.5, b=math.sqrt(3.0), c=1.0, d=-1.0, e=2.0, m=3)
    h = reduced_matrix(params)
    assert np.array_equal(h, h.T)
    assert np.array_equal(h[0], [0.5, math.sqrt(3.0), 1.0, 1.0])
    assert np.array_equal(np.diag(h), [0.5, -1.0, 2.0, 2.0])


def test_reduced_matrix_solved_design_spectrum():
    # Eigendecomposition oracle on the closed-form m=2, eta=4 solution.
    e = E_M2_ETA4
    params = ReducedParams(a=0.0, b=math.sqrt(2.0), c=1.0, d=-e, e=e, m=2)
    evals = np.linalg.eigvalsh(reduced_matrix(params))
    np.testing.assert_allclose(evals, sorted([0.0, e, 4 * e, -4 * e]), rtol=0, atol=1e-12)


def test_antisymmetric_mode_is_always_an_eigenvector():
    rng = np.random.default_rng(37)
    v = np.array([0.0, 0.0, 1.0, -1.0])
    for _ in range(20):
        a, d, e = rng.uniform(-3.0, 3.0, size=3)
        c = float(rng.uniform(0.1, 2.0))
        m = int(rng.integers(1, 30))
        params = ReducedParams(a=a, b=math.sqrt(m) * c, c=c, d=d, e=e, m=m)
        h = reduced_matrix(params)
        assert np.max(np.abs(h @ v - e * v)) < 1e-12


def test_reduced_trace_identity():
    rng = np.random.default_rng(41)
    for _ in range(10):
        a, d, e = rng.uniform(-3.0, 3.0, size=3)
        c = float(rng.uniform(0.1, 2.0))
        m = int(rng.integers(1, 30))
        params = ReducedParams(a=a, b=math.sqrt(m) * c, c=c, d=d, e=e, m=m)
        trace = float(np.trace(reduced_matrix(params)))
        assert abs(trace - (a + d + 2 * e)) < 1e-12


def test_reduced_params_coupling_consistency_enforced():
    with pytest.raises(ValueError):
        ReducedParams(a=0.0, b=1.5, c=1.0, d=0.0, e=0.0, m=2)  # b**2 != m*c**2
    with pytest.raises(ValueError):
        ReducedParams(a=0.0, b=1.0, c=1.0, d=0.0, e=0.0, m=0)


# ---------------------------------------------------------------------------
# Reduced-basis amplitudes
# ---------------------------------------------------------------------------

def test_lift_reduced_amplitude_identity_at_t0():
    spec = StarSpec(5, 1.0, (0.2, 0.7, 0.7, -0.1, -0.1, -0.1))
    assert abs(lift_reduced_amplitude(spec, 1, 2, 0.0)) < 1e-12


def test_lift_reduced_amplitude_unit_at_transfer_time():
    sol = design(DesignInput(m=2, eta=4, root_choice=SMALLEST))
    amp = lift_reduced_amplitude(sol.realized, 1, 2, sol.transfer_time)
    assert abs(abs(amp) - 1.0) < 1e-9


def test_lift_reduced_amplitude_matches_full_dynamics():
    spec = StarSpec(52, 1.0, (0.4,) + (0.9, 0.9) + (-0.3,) * 50)
    reduced = lift_reduced_amplitude(spec, 1, 2, 1.3)
    full = transition_amplitude(build_arrowhead(spec).to_dense(), 1.3, 1, 2)
    assert abs(reduced - full) < 1e-10


def test_lift_reduced_amplitude_random_sweep():
    rng = np.random.default_rng(43)
    worst = 0.0
    for _ in range(25):
        m = int(rng.integers(1, 51))
        spec, source, target = _random_symmetric_spec(rng, m)
        t = float(rng.uniform(0.0, 20.0))
        reduced = lift_reduced_amplitude(spec, source, target, t)
        full = transition_amplitude(build_arrowhead(spec).to_dense(), t, source, target)
        worst = max(worst, abs(reduced - full))
    assert worst < 1e-10


def test_lift_reduced_amplitude_propagates_symmetry_error():
    spec = StarSpec(4, 1.0, (0.0, 0.5, 0.4, -0.5, -0.5))
    with pytest.raises(SymmetryError):
        lift_reduced_amplitude(spec, 1, 2, 1.0)
