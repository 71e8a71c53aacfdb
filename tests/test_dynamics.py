"""Spectral time evolution, fidelity traces, and design verification."""

import dataclasses
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinstar import (
    LARGEST,
    SMALLEST,
    DesignInput,
    DesignSolution,
    EvolutionCache,
    ReducedParams,
    ResourceLimitError,
    RoutingState,
    StarEvolution,
    StarSpec,
    back_solve,
    build_arrowhead,
    design,
    fidelity_trace,
    min_feasible_even_eta,
    reduced_matrix,
    retarget,
    solve_e,
    transfer_time_grid,
    verify_design,
)
from spinstar.dynamics import _pairwise_sum, _parity_pattern_ok
from spinstar.model import routed_star

from oracle import (
    eigen_amplitude,
    exchange_operator,
    exchange_parities,
    parity_pattern_ok,
    transition_amplitude,
    verification_report,
)


def _random_symmetric_matrix(rng, dim):
    raw = rng.standard_normal((dim, dim))
    return (raw + raw.T) / 2.0


def _propagator(h, t):
    """``exp(-i h t)`` from the eigensystem that :class:`EvolutionCache`
    holds: the sum its amplitudes take one entry at a time."""
    cache = EvolutionCache.from_hamiltonian(h)
    return (cache.eigenvectors * np.exp(-1j * cache.eigenvalues * t)) @ cache.eigenvectors.T


def _amplitude(h, t, src, dst):
    return EvolutionCache.from_hamiltonian(h).amplitude(t, src, dst)


# ---------------------------------------------------------------------------
# Propagation
# ---------------------------------------------------------------------------

def test_propagate_identity_at_t0():
    rng = np.random.default_rng(2)
    h = _random_symmetric_matrix(rng, 8)
    u = _propagator(h, 0.0)
    assert np.max(np.abs(u - np.eye(8))) < 1e-12


def test_propagate_diagonal_hamiltonian():
    lam = np.array([0.3, -1.1, 2.0])
    u = _propagator(np.diag(lam), 1.7)
    expected = np.diag(np.exp(-1j * lam * 1.7))
    assert np.max(np.abs(u - expected)) < 1e-12


def test_propagate_two_level_swap():
    # closed form: exp(-i t X) = cos(t) I - i sin(t) X
    h = np.array([[0.0, 1.0], [1.0, 0.0]])
    for t in (0.4, math.pi / 2, 2.9):
        u = _propagator(h, t)
        expected = math.cos(t) * np.eye(2) - 1j * math.sin(t) * h
        assert np.max(np.abs(u - expected)) < 1e-12
        assert abs(_amplitude(h, t, 0, 1) - expected[1, 0]) < 1e-12
    u = _propagator(h, math.pi / 2)
    assert abs(abs(u[0, 1]) - 1.0) < 1e-12


def test_propagate_rejects_asymmetric():
    with pytest.raises(ValueError):
        _propagator(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)


def test_unitarity_random_sweep():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(200):
        dim = int(rng.integers(2, 65))
        h = _random_symmetric_matrix(rng, dim)
        t = float(rng.uniform(0.0, 100.0))
        u = _propagator(h, t)
        worst = max(worst, float(np.max(np.abs(u.conj().T @ u - np.eye(dim)))))
    assert worst < 1e-10


def test_group_property():
    rng = np.random.default_rng(5)
    h = _random_symmetric_matrix(rng, 12)
    t1, t2 = 0.9, 2.3
    gap = np.max(np.abs(_propagator(h, t1 + t2) - _propagator(h, t1) @ _propagator(h, t2)))
    assert gap < 1e-9


def test_probability_conservation():
    rng = np.random.default_rng(7)
    h = _random_symmetric_matrix(rng, 32)
    cache = EvolutionCache.from_hamiltonian(h)
    for t in (0.1, 4.2, 77.0):
        total = sum(abs(cache.amplitude(t, 4, dst)) ** 2 for dst in range(32))
        assert abs(total - 1.0) < 1e-10


def test_evolution_cache_invariants():
    rng = np.random.default_rng(11)
    h = _random_symmetric_matrix(rng, 24)
    cache = EvolutionCache.from_hamiltonian(h)
    v, e = cache.eigenvectors, cache.eigenvalues
    assert np.max(np.abs((v * e) @ v.T - h)) < 1e-10
    assert np.max(np.abs(v.T @ v - np.eye(24))) < 1e-12


# ---------------------------------------------------------------------------
# Transition amplitudes and traces
# ---------------------------------------------------------------------------

def test_transition_amplitude_t0_off_diagonal():
    h = np.diag([1.0, 2.0, 3.0])
    assert _amplitude(h, 0.0, 0, 2) == 0.0


def test_transition_amplitude_at_transfer_time():
    sol = design(DesignInput(m=2, eta=4, root_choice=SMALLEST))
    h4 = reduced_matrix(sol.params)
    amp = _amplitude(h4, sol.transfer_time, 2, 3)
    assert abs(amp - 1.0) < 1e-9


def test_transition_amplitude_halfway_below_unit():
    sol = design(DesignInput(m=2, eta=4, root_choice=SMALLEST))
    h4 = reduced_matrix(sol.params)
    amp = _amplitude(h4, sol.transfer_time / 2.0, 2, 3)
    assert abs(amp) < 1.0


def test_transition_amplitude_index_validation():
    h = np.diag([1.0, 2.0])
    with pytest.raises(ValueError):
        _amplitude(h, 1.0, 0, 2)
    with pytest.raises(ValueError):
        _amplitude(h, 1.0, -1, 0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t", [1e308, -1e308, math.inf, math.nan])
def test_every_query_refuses_phases_beyond_the_float_range(t):
    # Eigenvalues +-2, so t*E overflows from |t| ~ 9e307; the star's nodes 1
    # and 2 share a group, so its dark modes enter the amplitude.
    h = [[0.0, 2.0], [2.0, 0.0]]
    cache = EvolutionCache.from_hamiltonian(h)
    star = StarEvolution.from_spec(StarSpec(3, 1.0, (0.0, 0.5, 0.5, -0.5)))
    calls = [lambda: cache.amplitude(t, 0, 1), lambda: cache.amplitudes([0.0, t], 0, 1),
             lambda: star.amplitude(t, 1, 2), lambda: star.amplitudes([0.0, t], 1, 2)]
    for call in calls:
        with pytest.raises(ValueError, match=r"give phases t\*E beyond the float range"):
            call()
    # Just inside the range every query evaluates, without a warning.
    t = 8e307
    for call in calls:
        assert np.isfinite(call()).all()


def _star_whose_dark_modes_alone_overflow_at(t):
    # eigh may return the top bright eigenvalue an ulp below the potential of
    # a group's dark modes, so only their own check catches a time between
    # the two limits.  Here the bright spectrum is scaled down to widen that
    # window: 4e8 * 1e300 overflows, 4e8 * 2.5e299 does not.
    star = StarEvolution.from_spec(StarSpec(3, 1.0, (0.0, 1e300, 1e300, -1e300)))
    bright = star.bright
    star = dataclasses.replace(star, bright=EvolutionCache(bright.eigenvalues / 4,
                                                           bright.eigenvectors))
    assert math.isfinite(t * float(np.abs(star.bright.eigenvalues).max()))
    assert not math.isfinite(t * 1e300)
    return star


@pytest.mark.filterwarnings("error")
def test_the_dark_modes_phase_is_checked_on_its_own():
    t = 4e8
    star = _star_whose_dark_modes_alone_overflow_at(t)
    for call in (lambda: star.amplitude(t, 1, 2), lambda: star.amplitudes([0.0, t], 1, 2)):
        with pytest.raises(ValueError, match=r"give phases t\*E beyond the float range"):
            call()


def test_the_dark_modes_phase_is_refused_before_the_bright_modes_are_evaluated(monkeypatch):
    t = 4e8
    star = _star_whose_dark_modes_alone_overflow_at(t)
    calls, evaluate = [], EvolutionCache.amplitudes

    def spy(self, *args):
        calls.append(args)
        return evaluate(self, *args)

    monkeypatch.setattr(EvolutionCache, "amplitudes", spy)
    with pytest.raises(ValueError, match=r"give phases t\*E beyond the float range"):
        star.amplitudes([0.0, t], 1, 2)
    assert not calls
    star.amplitudes([0.0, 1.0], 1, 2)  # in range: the bright modes are evaluated once
    assert len(calls) == 1


def test_fidelity_trace_single_point():
    h = np.diag([1.0, 2.0, 3.0])
    trace = fidelity_trace(h, [0.0], 0, 1)
    assert list(trace.times) == [0.0]
    assert list(trace.values) == [0.0]


def test_fidelity_trace_peaks_at_transfer_time():
    sol = design(DesignInput(m=2, eta=4, root_choice=SMALLEST))
    h4 = reduced_matrix(sol.params)
    grid = np.linspace(0.0, sol.transfer_time, 801)
    trace = fidelity_trace(h4, grid, 2, 3)
    assert int(np.argmax(trace.values)) == len(grid) - 1
    assert trace.values[-1] >= 1.0 - 1e-9


def test_fidelity_trace_reuses_one_decomposition():
    sol = design(DesignInput(m=2, eta=4, root_choice=SMALLEST))
    h4 = reduced_matrix(sol.params)
    grid = transfer_time_grid(sol.transfer_time, steps=200)
    trace = fidelity_trace(h4, grid, 2, 3)
    pointwise = [abs(transition_amplitude(h4, float(t), 2, 3)) ** 2 for t in grid]
    assert np.max(np.abs(trace.values - np.asarray(pointwise))) < 1e-12


def test_fidelity_trace_offset_invariance():
    sol = design(DesignInput(m=3, eta=4))
    h = build_arrowhead(sol.realized).to_dense()
    grid = transfer_time_grid(sol.transfer_time, steps=400)
    base = fidelity_trace(h, grid, 1, 2)
    shifted = fidelity_trace(h + 7.3 * np.eye(h.shape[0]), grid, 1, 2)
    assert np.max(np.abs(base.values - shifted.values)) < 1e-12


@pytest.mark.parametrize("grid, message", [
    ([[0.0, 1.0], [2.0, 3.0]], "1-d"),
    ([], "at least one sample"),
    ([0.0, 2.0, 1.0], "strictly increasing"),
])
def test_fidelity_trace_refuses_a_bad_grid(grid, message):
    # The grid is checked before any evaluation, with the messages of
    # FidelityTrace, which refuses a grid that is not 1-d.
    with pytest.raises(ValueError, match=message):
        fidelity_trace(np.diag([1.0, 2.0]), grid, 0, 1)


def test_evolution_cache_refuses_a_non_square_hamiltonian():
    with pytest.raises(ValueError, match="^Hamiltonian must be a square matrix$"):
        EvolutionCache.from_hamiltonian(np.zeros((2, 3)))


def test_fidelity_trace_grid_validation():
    h = np.diag([1.0, 2.0])
    with pytest.raises(ValueError):
        fidelity_trace(h, [], 0, 1)
    with pytest.raises(ValueError):
        fidelity_trace(h, [0.0, 0.0], 0, 1)
    with pytest.raises(ValueError):
        fidelity_trace(h, [1.0, 0.5], 0, 1)


def test_transfer_time_grid_pins_tau():
    tau = 6.0836680139604175
    grid = transfer_time_grid(tau)
    assert grid.size == 1000
    assert np.min(np.abs(grid - tau)) < 1e-12
    assert grid[0] == 0.0
    assert abs(grid[-1] - 1.2 * tau) < 2.0 * (grid[1] - grid[0])
    spacing = np.diff(grid)
    assert np.max(spacing) - np.min(spacing) < 1e-15


def test_transfer_time_grid_outside_window_falls_back():
    grid = transfer_time_grid(50.0, t_max=1.0, steps=11)
    assert np.array_equal(grid, np.linspace(0.0, 1.0, 11))
    # tau within the first half-spacing cannot be pinned onto a grid point
    grid = transfer_time_grid(1.0, t_max=100.0, steps=11)
    assert np.array_equal(grid, np.linspace(0.0, 100.0, 11))


def test_transfer_time_grid_validation():
    with pytest.raises(ValueError):
        transfer_time_grid(1.0, steps=1)
    with pytest.raises(ValueError):
        transfer_time_grid(1.0, t_max=-2.0)
    with pytest.raises(ValueError, match="finite"):
        transfer_time_grid(1.0, t_max=math.inf)
    with pytest.raises(ValueError):
        transfer_time_grid(-1.0)


# ---------------------------------------------------------------------------
# Grouped star dynamics
# ---------------------------------------------------------------------------

@settings(deadline=None, derandomize=True, max_examples=120)
@given(data=st.data(), n=st.integers(3, 200), extra=st.integers(0, 200),
       few=st.lists(st.floats(-5.0, 5.0), max_size=3),
       hub=st.floats(-5.0, 5.0), coupling=st.floats(0.05, 5.0), t_max=st.floats(0.1, 60.0),
       seed=st.integers(0, 2**32 - 1))
def test_star_evolution_matches_dense(data, n, extra, few, hub, coupling, t_max, seed):
    # Edge potentials drawn from a palette with both zeros, a few chosen
    # values and up to 200 random ones: from one group to all N distinct.
    rng = np.random.default_rng(seed)
    palette = np.array([0.0, -0.0, *few, *rng.uniform(-5.0, 5.0, extra)])
    edges = palette[rng.integers(0, palette.size, n)]
    spec = StarSpec(n, coupling, (hub, *edges.tolist()))
    src = data.draw(st.one_of(st.just(0), st.integers(0, n)))
    dst = data.draw(st.one_of(st.just(src), st.just(0), st.integers(0, n)))
    grid = np.linspace(0.0, t_max, 9)

    h = build_arrowhead(spec).to_dense()
    want = EvolutionCache.from_hamiltonian(h).amplitudes(grid, src, dst)
    star = StarEvolution.from_spec(spec)
    got = star.amplitudes(grid, src, dst)
    norm = float(np.max(np.abs(np.linalg.eigvalsh(h))))
    assert np.max(np.abs(got - want)) <= 1e-10 * max(1.0, norm * t_max)
    assert star.amplitude(t_max, src, dst) == pytest.approx(got[-1], abs=1e-15)
    assert star.bright.dimension == np.unique(edges).size + 1


def test_star_evolution_state_validation():
    star = StarEvolution.from_spec(StarSpec(3, 1.0, (0.0, 0.5, 0.5, -0.5)))
    assert star.dimension == 4
    assert (star.levels, star.sizes, star.background_group) == ((-0.5, 0.5), (1, 2), 1)
    assert star.exception_groups == {3: 0}
    with pytest.raises(TypeError):
        star.exception_groups[3] = 1  # read-only, like the rest of the value
    with pytest.raises(ValueError, match=r"src must lie in 0\.\.3, got 4"):
        star.amplitude(1.0, 4, 1)
    with pytest.raises(ValueError, match=r"dst must lie in 0\.\.3, got -1"):
        star.amplitudes([0.0, 1.0], 1, -1)
    with pytest.raises(ValueError, match="src must be an integer"):
        star.amplitude(1.0, 1.0, 1)


def test_grouped_star_limits_distinct_potentials(monkeypatch):
    def spread(k):
        return StarSpec(k, 1.0, (0.0, *np.arange(k, dtype=float).tolist()))

    # The limit is on the bright arrowhead's size, so its eigensolve (about
    # 9 s at k = 4096) is left out: the diagonal stands in for the spectrum.
    # The arrowhead is built symmetric, so no symmetry check makes arrays of
    # its size beside it (h - h.T and its abs took the peak to 3x the matrix).
    solved = []
    monkeypatch.setattr(np.linalg, "eigh", lambda h: solved.append(h.shape) or (np.diagonal(h), h))
    star = spread(4096)
    tracemalloc.start()
    try:
        assert StarEvolution.from_spec(star).bright.dimension == 4097
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert solved == [(4097, 4097)]
    assert peak < 1.1 * 8 * 4097**2, peak
    star = spread(4097)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="limited to 4096 distinct edge potentials"):
            StarEvolution.from_spec(star)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Refused before anything of size (k+1)**2, 134 MB here, exists.
    assert solved == [(4097, 4097)]
    assert peak < 4 << 20


def test_verify_design_at_large_star_without_dense_matrix():
    sol = design(DesignInput(m=10**6, eta=1_300_006, root_choice=SMALLEST))
    report = verify_design(sol)
    assert report.passed


# ---------------------------------------------------------------------------
# Parities and verification
# ---------------------------------------------------------------------------

def test_exchange_parities_on_design():
    sol = design(DesignInput(m=2, eta=4, root_choice=SMALLEST))
    evals, vecs = np.linalg.eigh(reduced_matrix(sol.params))
    parities = exchange_parities(evals, vecs, 2, 3)
    antisym = int(np.argmin(np.abs(evals - sol.params.e)))
    expected = np.ones(4)
    expected[antisym] = -1.0
    assert np.max(np.abs(parities - expected)) < 1e-9


def test_exchange_parities_degenerate_cluster():
    # exactly degenerate pair: parity must split into one +1 and one -1
    h = np.diag([1.0, 1.0, 2.0, 3.0])
    h[0, 1] = h[1, 0] = 0.0
    evals, vecs = np.linalg.eigh(h)
    parities = exchange_parities(evals, vecs, 0, 1)
    assert sorted(np.round(parities[:2]).tolist()) == [-1.0, 1.0]
    assert np.allclose(parities[2:], 1.0)


def test_exchange_parities_match_dense_operator():
    # generic spectra: every cluster is one vector v, whose parity is v.P.v
    rng = np.random.default_rng(5)
    for dim in (4, 7, 12):
        for i, j in ((0, 1), (dim - 1, 1)):
            p = exchange_operator(dim, i, j)
            h = _random_symmetric_matrix(rng, dim)
            evals, vecs = np.linalg.eigh(h + p @ h @ p)
            want = np.einsum("ik,ij,jk->k", vecs, p, vecs)
            assert np.max(np.abs(exchange_parities(evals, vecs, i, j) - want)) < 1e-12


def test_verify_design_passes_for_both_roots():
    for policy in (SMALLEST, LARGEST):
        sol = design(DesignInput(m=2, eta=4, root_choice=policy))
        report = verify_design(sol, tol=1e-9)
        assert report.passed
        assert report.fidelity_at_tau >= 1.0 - 1e-9
        assert report.spectrum_deviation <= 1e-9
        assert report.parity_check


@pytest.mark.parametrize("m, eta", [(10**8, 2 * 10**8), (10**9, 2 * 10**9)])
def test_verify_design_passes_far_beyond_the_envelope(m, eta):
    # From eta ~ 1e8 the modes at 0 and e are closer than 1e-8 of the
    # spectral radius; the parity of each mode is still read off on its own.
    for e in solve_e(m, eta):
        a, d = back_solve(e, m, eta)
        params = ReducedParams(a=a, b=math.sqrt(m), c=1.0, d=d, e=e, m=m)
        sol = DesignSolution(params=params, eta=eta, transfer_time=math.pi / e,
                             target_spectrum=(0.0, e, eta * e, -eta * e),
                             root_residual=0.0, realized=routed_star(params))
        report = verify_design(sol)
        assert report.passed and report.parity_check


def _design_cache():
    sol = design(DesignInput(m=2, eta=4, root_choice=SMALLEST))
    cache = EvolutionCache.from_hamiltonian(reduced_matrix(sol.params))
    antisymmetric = int(np.argmin(np.abs(cache.eigenvalues - sol.params.e)))
    return cache, sol.params.e, antisymmetric


def test_parity_pattern_needs_the_antisymmetric_mode_at_e():
    cache, e, antisymmetric = _design_cache()
    assert _parity_pattern_ok(cache, e)
    for k in range(4):
        if k != antisymmetric:
            assert not _parity_pattern_ok(cache, cache.eigenvalues[k])


def test_parity_pattern_needs_every_parity_at_plus_or_minus_one():
    # The antisymmetric column rotated 45 degrees into a neighbour: both
    # columns then have parity 0.
    cache, e, k = _design_cache()
    j = k - 1 if k > 0 else k + 1
    vecs = cache.eigenvectors.copy()
    v, w = vecs[:, k].copy(), vecs[:, j].copy()
    vecs[:, k], vecs[:, j] = (v + w) / math.sqrt(2.0), (w - v) / math.sqrt(2.0)
    assert not _parity_pattern_ok(EvolutionCache(cache.eigenvalues, vecs), e)


def test_parity_pattern_needs_exactly_one_negative_parity():
    # A copy of the antisymmetric column in place of a symmetric one: two
    # parities -1, the first of them on the mode at the given eigenvalue.
    cache, e, k = _design_cache()
    for j in range(4):
        if j != k:
            vecs = cache.eigenvectors.copy()
            vecs[:, j] = vecs[:, k]
            doubled = EvolutionCache(cache.eigenvalues, vecs)
            assert not _parity_pattern_ok(doubled, cache.eigenvalues[min(j, k)])


def test_parity_pattern_matches_exchange_parities():
    rng = np.random.default_rng(7)
    p = exchange_operator(4, 2, 3)
    for _ in range(200):
        h = _random_symmetric_matrix(rng, 4)
        cache = EvolutionCache.from_hamiltonian(h + p @ h @ p)
        assert np.min(np.diff(cache.eigenvalues)) > 1e-6
        parities = exchange_parities(cache.eigenvalues, cache.eigenvectors, 2, 3)
        for k, value in enumerate(cache.eigenvalues):
            want = (np.max(np.abs(np.abs(parities) - 1.0)) <= 1e-6
                    and np.sum(parities < 0) == 1 and np.argmin(parities) == k)
            assert _parity_pattern_ok(cache, value) == want


def test_parity_pattern_is_numpys_with_a_nan():
    # NaN in each eigenvalue and each eigenvector entry, and as e_value: a
    # NaN eigenvalue is the closest to e, as np.argmin has it, so the rule
    # holds when it sits at the antisymmetric mode.
    cache, e, _ = _design_cache()
    outcomes = set()
    for index in [*range(4), *np.ndindex(4, 4)]:
        evals, vecs = cache.eigenvalues.copy(), cache.eigenvectors.copy()
        (evals if isinstance(index, int) else vecs)[index] = np.nan
        with_nan = EvolutionCache(evals, vecs)
        for value in (e, *cache.eigenvalues.tolist(), math.nan):
            want = parity_pattern_ok(evals, vecs, value)
            assert _parity_pattern_ok(with_nan, value) == want, (index, value)
            outcomes.add(want)
    assert outcomes == {False, True}


def _bits(value):
    """``value`` with every float, also inside tuples, as its hex: equal
    bits compare equal, NaN and signed zeros included."""
    if isinstance(value, float):
        return value.hex()
    return tuple(map(_bits, value)) if isinstance(value, tuple) else value


@settings(deadline=None, derandomize=True, max_examples=200)
@given(n=st.one_of(st.integers(1, 139), st.sampled_from([255, 256, 257, 1000, 4097])),
       seed=st.integers(0, 2**32 - 1), zeros=st.sampled_from([0.0, 0.5, 1.0]),
       negative=st.booleans())
@example(n=5, seed=0, zeros=1.0, negative=True)
def test_pairwise_sum_is_numpys_bit_for_bit(n, seed, zeros, negative):
    # Parts spread over 40 decades, so that any other order of additions
    # shows in the last bits, and a share ``zeros`` of them zeros of either
    # sign, or all -0.0, whose sum numpy makes +0.0.
    rng = np.random.default_rng(seed)
    parts = np.abs(rng.standard_normal((n, 2))) * 10.0 ** rng.integers(-20, 20, (n, 2))
    parts[rng.random((n, 2)) < zeros] = 0.0
    signs = -1.0 if negative else rng.choice([-1.0, 1.0], (n, 2))
    terms = (parts * signs).view(complex).ravel()
    got, want = _pairwise_sum(terms.tolist()), complex(np.sum(terms))
    assert _bits((got.real, got.imag)) == _bits((want.real, want.imag))


@settings(deadline=None, derandomize=True, max_examples=150)
@given(dim=st.one_of(st.integers(1, 3), st.integers(4, 64), st.integers(65, 150)),
       seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-3, 1e3),
       zeros=st.sampled_from([0.0, 0.5, 1.0]), t=st.floats(-1e3, 1e3),
       states=st.tuples(st.integers(0, 149), st.integers(0, 149)))
@example(dim=3, seed=0, scale=1.0, zeros=1.0, t=-0.0, states=(0, 1))
@example(dim=4, seed=0, scale=1.0, zeros=1.0, t=-0.0, states=(0, 1))
@example(dim=64, seed=1, scale=1.0, zeros=0.0, t=2.5, states=(3, 60))
@example(dim=65, seed=2, scale=1.0, zeros=0.0, t=2.5, states=(64, 0))
def test_amplitude_is_numpys_bit_for_bit(dim, seed, scale, zeros, t, states):
    # Dimensions 1-3, 4-64 and beyond: each branch of the pairwise sum.  A
    # share ``zeros`` of the couplings is zeroed, and eigenvectors flip sign
    # at random, so that terms and amplitudes vanish with either sign of zero.
    rng = np.random.default_rng(seed)
    h = scale * _random_symmetric_matrix(rng, dim)
    off = np.triu(rng.random((dim, dim)) < zeros, 1)
    h[off | off.T] = 0.0
    solved = EvolutionCache.from_symmetric(h)
    cache = EvolutionCache(solved.eigenvalues, solved.eigenvectors * rng.choice([-1.0, 1.0], dim))
    src, dst = (state % dim for state in states)
    for when in (0.0, math.pi / scale, t):
        got = cache.amplitude(when, src, dst)
        want = eigen_amplitude(cache.eigenvalues, cache.eigenvectors, when, src, dst)
        assert _bits((got.real, got.imag)) == _bits((want.real, want.imag))


@settings(deadline=None, derandomize=True, max_examples=120)
@given(m=st.one_of(st.integers(1, 12), st.integers(1, 10**6)), extra=st.integers(0, 20),
       policy=st.sampled_from([SMALLEST, LARGEST]), target=st.integers(0, 10**6),
       nudged=st.integers(0, 100), seed=st.integers(0, 2**32 - 1))
def test_verify_design_report_is_numpys_bit_for_bit(m, extra, policy, target, nudged, seed):
    # A design, retargeted, with up to 100 bystanders moved within the route
    # rule to distinct values, each a distinct group of the bright arrowhead.
    sol = design(DesignInput(m=m, eta=min_feasible_even_eta(m) + 2 * extra, root_choice=policy))
    state = retarget(RoutingState(sol, 1, 2, sol.realized), 2 + target % (m + 1))
    rng, d = random.Random(seed), sol.params.d
    nodes = [j for j in rng.sample(range(1, m + 3), min(m + 2, nudged + 2))
             if j not in (state.source, state.target)][:nudged]
    edited = state.realized_spec.replace(
        {j: d + rng.choice((-k, k)) * math.ulp(d) for k, j in enumerate(nodes, 1)})
    for star, route in ((sol.realized, (1, 2)), (state.realized_spec, (state.source, state.target)),
                        (edited, (state.source, state.target))):
        got = verify_design(sol, tol=1e-9, spec=star, source=route[0], target=route[1])
        want = verification_report(sol, 1e-9, star, *route)
        assert _bits(dataclasses.astuple(got)) == _bits(dataclasses.astuple(want))


def test_verify_design_evolves_the_given_star_and_route():
    sol = design(DesignInput(m=3, eta=6))
    moved = retarget(RoutingState(sol, 1, 2, sol.realized), 4).realized_spec
    assert verify_design(sol, spec=moved, source=1, target=4).passed
    report = verify_design(sol, spec=moved, source=1, target=2)
    assert not report.passed and report.reduction_deviation > 0.1
    assert verify_design(sol) == verify_design(sol, spec=sol.realized, source=1, target=2)


def test_verify_design_detects_detuned_potential():
    sol = design(DesignInput(m=2, eta=4, root_choice=SMALLEST))
    e = sol.params.e * 1.01
    params = ReducedParams(a=sol.params.a, b=sol.params.b, c=1.0, d=sol.params.d, e=e, m=2)
    detuned = DesignSolution(
        params=params,
        eta=4,
        transfer_time=math.pi / e,
        target_spectrum=(0.0, e, 4 * e, -4 * e),
        root_residual=0.0,
        realized=StarSpec(4, 1.0, (params.a, e, e, params.d, params.d)),
    )
    report = verify_design(detuned, tol=1e-9)
    assert not report.passed
    assert report.fidelity_at_tau < 1.0 - 1e-4


def test_phase_cancellation_at_transfer_time():
    rng = np.random.default_rng(19)
    for _ in range(10):
        m = int(rng.integers(1, 101))
        eta = min_feasible_even_eta(m) + 2 * int(rng.integers(0, 6))
        sol = design(DesignInput(m=m, eta=eta))
        evals = np.linalg.eigvalsh(reduced_matrix(sol.params))
        tau = sol.transfer_time
        antisym = int(np.argmin(np.abs(evals - sol.params.e)))
        for k, energy in enumerate(evals):
            phase = np.exp(-1j * energy * tau)
            expected = -1.0 if k == antisym else 1.0
            assert abs(phase - expected) < 1e-9


def _star_with_200_potentials():
    n = 400
    return StarEvolution.from_spec(
        StarSpec(n, 1.0, [0.3] + [1.0 + 0.01 * (j % 200) for j in range(n)]))


def _reduced_cache():
    return EvolutionCache.from_hamiltonian(reduced_matrix(design(DesignInput(m=7, eta=12)).params))


def test_star_amplitudes_keep_their_phase_factors_under_64_mib():
    # 200 distinct edge potentials over 50 000 steps: the whole
    # steps x (k+1) phase array would take about 160 MB.
    evolution = _star_with_200_potentials()
    assert evolution.bright.dimension == 201
    grid = np.linspace(0.0, 50.0, 50_000)
    evolution.amplitudes(grid[:10], 1, 201)  # warm up numpy
    tracemalloc.start()
    try:
        amps = evolution.amplitudes(grid, 1, 201)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (64 << 20) + amps.nbytes
    for row in (0, 20_540, 20_541, 41_082, 49_999):
        assert abs(amps[row] - evolution.amplitude(grid[row], 1, 201)) <= 1e-12


def test_amplitudes_hold_a_few_mib_beyond_their_result():
    cache = _reduced_cache()
    grid = np.linspace(0.0, 50.0, 10**6)
    cache.amplitudes(grid[:10], 2, 3)  # warm up numpy
    tracemalloc.start()
    try:
        amps = cache.amplitudes(grid, 2, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert amps.nbytes == 16 * 10**6
    assert peak < amps.nbytes + (4 << 20)


@pytest.mark.parametrize("which", ["4x4", "k=200 arrowhead"])
def test_amplitudes_in_blocks_have_the_bits_of_the_whole_grid_product(which):
    if which == "4x4":
        cache, src, dst = _reduced_cache(), 2, 3
    else:
        cache, src, dst = _star_with_200_potentials().bright, 1, 200
    weights = cache.eigenvectors[dst] * cache.eigenvectors[src]
    rows = (1 << 20) // (16 * cache.dimension)  # one block's rows
    for steps in (1, 2, rows - 1, rows, rows + 1, 2 * rows + 1):
        grid = np.linspace(0.0, 50.0, steps)
        whole = np.exp(-1j * np.multiply.outer(grid, cache.eigenvalues)) @ weights
        assert cache.amplitudes(grid, src, dst).tobytes() == whole.tobytes()
