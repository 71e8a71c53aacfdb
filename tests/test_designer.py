"""Inverse-eigenvalue designer.

Frozen expected values come from closed forms worked out independently of the
solver: the m=2, eta=4 polynomial 56.25 u^3 - 22.5 u^2 - 13 u + 4 factors as
3.75 (u - 4/15)(15 u^2 - 2 u - 4), giving positive roots u = 4/15 and
u = (1 + sqrt(61))/15; eliminating the hub/bystander potentials gives
d = e + (1 - eta^2) e^3 / 2 and a = -e - d at any root.  Each frozen value is
re-checked here by an eigendecomposition of the resulting matrix.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinstar import (
    LARGEST,
    SMALLEST,
    DesignInput,
    EvolutionCache,
    InfeasibleDesignError,
    NoRealDesignError,
    ReducedParams,
    RootChoice,
    back_solve,
    design,
    designer,
    feasibility,
    g_polynomial,
    lambda_coefficients,
    min_feasible_even_eta,
    reduced_matrix,
    solve_e,
    verify_design,
)
from spinstar.designer import ETA_MAX, M_MAX, _companion_roots
from spinstar.errors import EnvelopeError

from oracle import exchange_parities

E_SMALL = 2.0 / math.sqrt(15.0)
E_LARGE = math.sqrt((1.0 + math.sqrt(61.0)) / 15.0)


def _back_solve_closed_form(e, eta):
    d = e + (1.0 - eta * eta) * e**3 / 2.0
    return -e - d, d


# ---------------------------------------------------------------------------
# Characteristic-polynomial coefficients
# ---------------------------------------------------------------------------

def test_lambda_coefficients_hand_case():
    assert lambda_coefficients(1.0, 0.0, 0.0, 1.0, 1.0) == (1.0, -3.0, 3.0)


def test_lambda_coefficients_solved_design():
    l0, l1, l2 = lambda_coefficients(0.0, math.sqrt(2.0), 1.0, -E_SMALL, E_SMALL)
    assert abs(l0) < 1e-12
    assert abs(l1 - 16.0) < 1e-12
    assert abs(l2) < 1e-12


def test_lambda_coefficients_sum_constraint():
    rng = np.random.default_rng(3)
    for _ in range(10):
        b, c, d, e = rng.uniform(-2.0, 2.0, size=4)
        e = e if e != 0 else 0.5
        a = -e - d
        _, _, l2 = lambda_coefficients(a, b, c, d, e)
        assert l2 == 0.0


def test_lambda_coefficients_rejects_zero_e():
    with pytest.raises(ZeroDivisionError):
        lambda_coefficients(1.0, 1.0, 1.0, 1.0, 0.0)


def test_g_polynomial_m2_eta4():
    poly = g_polynomial(2, 4)
    assert (poly.x0, poly.x2, poly.x4, poly.x6) == (4.0, -13.0, -22.5, 56.25)


def test_g_polynomial_eta_one_has_no_roots():
    for m in (1, 2, 17):
        poly = g_polynomial(m, 1)
        assert (poly.x0, poly.x2, poly.x4, poly.x6) == (m + 2.0, 2.0, 0.0, 0.0)
        for e in np.linspace(0.0, 5.0, 21):
            assert poly.evaluate(float(e)) >= m + 2


def test_g_polynomial_m1_eta2():
    poly = g_polynomial(1, 2)
    assert (poly.x0, poly.x2, poly.x4, poly.x6) == (3.0, -1.0, -4.5, 2.25)


def test_g_polynomial_validation():
    with pytest.raises(ValueError):
        g_polynomial(0, 4)
    with pytest.raises(ValueError):
        g_polynomial(2.5, 4)


# ---------------------------------------------------------------------------
# Root finding
# ---------------------------------------------------------------------------

def test_solve_e_m2_eta4_closed_form():
    roots = solve_e(2, 4)
    assert len(roots) == 2
    assert abs(roots[0] - E_SMALL) < 1e-12
    assert abs(roots[1] - E_LARGE) < 1e-12
    poly = g_polynomial(2, 4)
    for e in roots:
        assert abs(poly.evaluate(e)) < 1e-10 * 4


def test_solve_e_residual_bound_random():
    rng = np.random.default_rng(5)
    for _ in range(20):
        m = int(rng.integers(1, 201))
        eta = min_feasible_even_eta(m) + 2 * int(rng.integers(0, 10))
        poly = g_polynomial(m, eta)
        roots = solve_e(m, eta)
        assert roots == sorted(roots)
        for e in roots:
            assert e > 0
            assert abs(poly.evaluate(e)) < 1e-10 * (m + 2)


def test_solve_e_consistent_with_feasibility():
    # m=2 admits eta=2 by the sign criterion; the roots bracket the minimum.
    report = feasibility(2, 2)
    assert report.feasible
    roots = solve_e(2, 2)
    assert len(roots) == 2
    assert roots[0] < report.e_star < roots[1]


def test_solve_e_infeasible_raises_with_report():
    with pytest.raises(InfeasibleDesignError) as excinfo:
        solve_e(1000, 2)
    assert excinfo.value.report is not None
    assert excinfo.value.report.g_min > 0


def test_solve_e_accepts_noninteger_eta():
    # A purely polynomial question; only design() insists on even integers.
    roots = solve_e(2, 4.5)
    poly = g_polynomial(2, 4.5)
    assert roots and all(abs(poly.evaluate(e)) < 1e-10 * 4 for e in roots)


# ---------------------------------------------------------------------------
# Potential recovery
# ---------------------------------------------------------------------------

def test_back_solve_smallest_root():
    a, d = back_solve(E_SMALL, 2, 4)
    assert abs(a) < 1e-9
    assert abs(d + E_SMALL) < 1e-9


def test_back_solve_largest_root():
    a, d = back_solve(E_LARGE, 2, 4)
    a_ref, d_ref = _back_solve_closed_form(E_LARGE, 4)
    assert abs(a - a_ref) < 1e-12
    assert abs(d - d_ref) < 1e-12
    h = np.array([[a, math.sqrt(2.0), 1.0, 1.0],
                  [math.sqrt(2.0), d, 0.0, 0.0],
                  [1.0, 0.0, E_LARGE, 0.0],
                  [1.0, 0.0, 0.0, E_LARGE]])
    evals = np.linalg.eigvalsh(h)
    target = sorted([0.0, E_LARGE, 4 * E_LARGE, -4 * E_LARGE])
    np.testing.assert_allclose(evals, target, rtol=0, atol=1e-12)


def test_back_solve_sum_constraint():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = int(rng.integers(1, 201))
        eta = min_feasible_even_eta(m) + 2 * int(rng.integers(0, 10))
        for e in solve_e(m, eta):
            a, d = back_solve(e, m, eta)
            assert abs(a + d + e) < 1e-12 * max(1.0, abs(a), abs(d))


def test_back_solve_rejects_non_root():
    with pytest.raises(NoRealDesignError):
        back_solve(5.0, 2, 4)
    with pytest.raises(ValueError, match="^e must be nonzero$"):
        back_solve(0.0, 1, 4)


def test_root_choice_refuses_an_unknown_kind():
    with pytest.raises(ValueError, match="^unknown root choice 'median'$"):
        RootChoice("median")


@pytest.mark.parametrize("kind, index, message", [
    ("smallest", 3, r"^index must lie in 0\.\.0, got 3$"),
    ("largest", -7, r"^index must lie in 0\.\.0, got -7$"),
    ("index", -1, r"^index must be at least 0, got -1$"),
])
def test_root_choice_refuses_an_index_its_kind_does_not_read(kind, index, message):
    # Only "index" reads its index, so the other kinds have one value each.
    with pytest.raises(ValueError, match=message):
        RootChoice(kind, index)


@pytest.mark.parametrize("eta, message", [
    (3, r"^eta must be even \(phase cancellation needs it\), got 3$"),
    (0, "^eta must be at least 2, got 0$"),
    (4.0, "^eta must be an integer, got 4.0$"),
], ids=["odd", "zero", "float"])
def test_design_input_and_design_solution_share_the_eta_rule(eta, message):
    sol = design(DesignInput(m=2, eta=4))
    with pytest.raises(ValueError, match=message):
        DesignInput(m=2, eta=eta)
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(sol, eta=eta)


# ---------------------------------------------------------------------------
# Feasibility
# ---------------------------------------------------------------------------

def test_feasibility_m2_eta4_frozen():
    report = feasibility(2, 4)
    assert abs(report.e_star**2 - (6.0 + 8.0 * math.sqrt(3.0)) / 45.0) < 1e-12
    # independent direct evaluation of the polynomial at its minimum
    u = report.e_star**2
    g = 4.0 - 13.0 * u - 22.5 * u**2 + 56.25 * u**3
    assert abs(report.g_min - g) < 1e-12
    assert abs(report.g_min - (-1.2844815313898703)) < 1e-12
    assert report.feasible


def test_feasibility_eta_one_always_infeasible():
    for m in (1, 2, 5, 50, 1000):
        report = feasibility(m, 1)
        assert not report.feasible
        assert report.g_min == m + 2
        assert math.isnan(report.e_star)


def test_feasibility_below_threshold_eta():
    report = feasibility(3, 0.5)
    assert not report.feasible and math.isnan(report.e_star)


def test_feasibility_m1000_asymptotic_bracket():
    eta = min_feasible_even_eta(1000)
    assert 1200 <= eta <= 1400
    assert abs(feasibility(1000, 2).asymptotic_threshold - 9.0 / (4.0 * math.sqrt(3.0)) * 1000) < 1e-9


def test_min_feasible_even_eta_matches_definition():
    for m in (1, 2, 3, 10, 37):
        eta = min_feasible_even_eta(m)
        assert eta >= 2 and eta % 2 == 0
        assert feasibility(m, eta).feasible
        assert eta == 2 or not feasibility(m, eta - 2).feasible


def _scan_min_feasible_even_eta(m):
    """The upward scan over even eta, kept as a reference for the walk."""
    eta = 2
    while not feasibility(m, eta).feasible:
        eta += 2
    return eta


def _bisect_min_feasible_even_eta(m):
    """Doubling plus bisection over even eta, a reference for the walk at
    any m: O(log m) feasibility tests."""
    hi = 2
    while not feasibility(m, hi).feasible:
        hi *= 2
    lo = hi // 2  # infeasible, or 1 when eta = 2 is already feasible
    while hi - lo > 2:
        mid = (lo + hi) // 4 * 2
        if feasibility(m, mid).feasible:
            hi = mid
        else:
            lo = mid
    return hi


def test_min_feasible_even_eta_equals_linear_scan():
    for m in range(1, 301):
        assert min_feasible_even_eta(m) == _scan_min_feasible_even_eta(m), m


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(1, M_MAX), st.integers(M_MAX, 10**9)))
def test_min_feasible_even_eta_equals_bisection_and_definition(m):
    eta = min_feasible_even_eta(m)
    assert eta == _bisect_min_feasible_even_eta(m)
    assert eta >= 2 and eta % 2 == 0 and feasibility(m, eta).feasible
    assert eta == 2 or not feasibility(m, eta - 2).feasible


def test_min_feasible_even_eta_takes_at_most_two_feasibility_tests(monkeypatch):
    calls = []
    predicate = designer._feasible

    def counting(m, eta):
        calls.append(eta)
        return predicate(m, eta)

    monkeypatch.setattr(designer, "_feasible", counting)
    spread = np.unique(np.geomspace(1, 10**6, 3000).astype(int)).tolist()
    rng = np.random.default_rng(12)
    huge = [10**15, 10**17, 10**20, 10**25, 10**40]
    for m in [*range(1, 1001), *spread, *rng.integers(1, 10**6, 1000).tolist(), *huge]:
        calls.clear()
        eta = min_feasible_even_eta(m)
        assert len(calls) <= 2, (m, calls)
        assert eta == _bisect_min_feasible_even_eta(m), m


# An 80-digit evaluation of the design polynomial at its minimum gives
# g_min = -0.023, -0.76 and -1.11 at these eta, and a positive value at eta - 2.
@pytest.mark.parametrize("m, eta", [
    (10**15, 1299038105676658),
    (10**17, 129903810567665798),
    (10**20, 129903810567665797016),
])
def test_min_feasible_even_eta_at_huge_m(m, eta):
    assert min_feasible_even_eta(m) == eta
    assert feasibility(m, eta).feasible and not feasibility(m, eta - 2).feasible


@pytest.mark.parametrize("scale", [0.5, 2.0])
def test_min_feasible_even_eta_does_not_depend_on_its_start(scale):
    # A walk both ways from an even start far below or above the walk's own
    # start (r = floor(3 sqrt(3) m / 4)) crosses the same threshold: the
    # feasible even eta form an up-set, so starting at r costs no answer.
    for m in [*range(1, 201), 1000, 5000]:
        eta = max(2, 2 * int(scale * math.isqrt(27 * m * m // 16) / 2))
        if feasibility(m, eta).feasible:
            while eta > 2 and feasibility(m, eta - 2).feasible:
                eta -= 2
        else:
            while not feasibility(m, eta).feasible:
                eta += 2
        assert min_feasible_even_eta(m) == eta, m


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10**40))
def test_min_feasible_even_eta_is_minimal_at_any_m(m):
    eta = min_feasible_even_eta(m)
    r = math.isqrt(27 * m * m // 16)  # floor(3 sqrt(3) m / 4)
    assert eta % 2 == 0 and 3 * (r - eta) < 2 and eta <= max(2, r + 2)  # eta > r - 2/3
    assert feasibility(m, eta).feasible
    assert eta == 2 or not feasibility(m, eta - 2).feasible


def test_min_feasible_even_eta_is_the_threshold_up_to_large_m():
    for m in [*range(1, 10_001), 100_000, 1_000_000]:
        eta = min_feasible_even_eta(m)
        assert eta % 2 == 0 and feasibility(m, eta).feasible, m
        assert eta == 2 or not feasibility(m, eta - 2).feasible, m


def test_feasibility_monotonicity_observed():
    # eta**3 / (eta**2 - 1) increases for eta > sqrt(3), so every even eta
    # above the threshold is feasible.
    for m in (1, 7, 40, 10**6, 10**20):
        eta = min_feasible_even_eta(m)
        for k in range(15):
            assert feasibility(m, eta + 2 * k).feasible, (m, eta + 2 * k)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, M_MAX), st.integers(1, ETA_MAX // 2), st.integers(-4, 4), st.booleans())
def test_feasibility_rule_matches_g_min_sign_and_solve_e(m, k, offset, near):
    # Any even eta up to ETA_MAX, or one within 8 of the threshold.
    eta = max(2, min_feasible_even_eta(m) + 2 * offset) if near else 2 * k
    feasible = designer._feasible(m, eta)
    report = feasibility(m, eta)
    assert report.feasible == feasible
    poly, u = g_polynomial(m, eta), report.e_star**2
    scale = abs(poly.x0) + abs(poly.x2 * u) + abs(poly.x4 * u * u) + abs(poly.x6 * u**3)
    if abs(report.g_min) > 1e-9 * scale:
        assert feasible == (report.g_min < 0)
    if feasible:
        assert len(solve_e(m, eta)) == 2
    else:
        with pytest.raises(InfeasibleDesignError):
            solve_e(m, eta)


@pytest.mark.parametrize("eta", [1e78, 1e200, 1e308, 10**400])
def test_feasibility_is_exact_at_huge_eta(eta):
    # The float coefficients of the design polynomial overflow here, and
    # 10**400 is not a float at all; the verdict does not depend on them.
    assert feasibility(1, eta).feasible
    assert feasibility(10**6, eta).feasible
    assert feasibility(10**308, eta).feasible == (eta > 1.3e308)  # threshold 1.299e308


def test_feasibility_is_exact_at_huge_m():
    # m and m + 2 are not floats: the margins they set are inf, the g_min
    # that needs them NaN, and e_star, which depends on eta alone, is kept.
    m = 10**400
    report = feasibility(m, 4)
    assert not report.feasible
    assert report.asymptotic_threshold == math.inf and math.isnan(report.g_min)
    assert report.e_star.hex() == feasibility(1, 4).e_star.hex()
    assert feasibility(m, 10**401).feasible
    assert feasibility(m, 1).g_min == math.inf
    eta = min_feasible_even_eta(m)
    assert feasibility(m, eta).feasible and not feasibility(m, eta - 2).feasible


_ETAS = {
    "near the threshold": lambda t, k, x: t + k,
    "far above the threshold": lambda t, k, x: t * (2 + abs(k)) ** 6,
    "at most 1": lambda t, k, x: 1.0 - 11.0 * x,
    "negative": lambda t, k, x: -t - abs(k),
    "non-integer": lambda t, k, x: t * (0.5 + 2.0 * x),
}


@settings(max_examples=500, deadline=None)
@given(st.integers(1, 10**18), st.sampled_from(sorted(_ETAS)), st.integers(-8, 8),
       st.floats(0.0, 1.0, exclude_max=True))
def test_solve_e_is_infeasible_exactly_when_the_discriminant_says_so(m, where, k, x):
    # Up to m = 10**18: two ascending roots that pass the root rule whenever
    # the exact test says they exist, or a typed error that they cannot be
    # resolved; InfeasibleDesignError exactly when the test fails.
    eta = _ETAS[where](min_feasible_even_eta(m), k, x)
    if not designer._feasible(m, eta):
        with pytest.raises(InfeasibleDesignError):
            solve_e(m, eta)
        return
    try:
        roots = solve_e(m, eta)
    except NoRealDesignError:
        return
    poly = g_polynomial(m, eta)
    assert len(roots) == 2 and 0.0 < roots[0] <= roots[1]
    assert all(designer._is_root(poly, e * e) for e in roots)


def test_solve_e_follows_the_discriminant_in_named_cases():
    # Companion estimates once passed the root rule below the threshold...
    with pytest.raises(InfeasibleDesignError):
        solve_e(2, -4)
    # ...and a numpy integer m overflows the exact test unless checked first.
    with pytest.raises(InfeasibleDesignError):
        solve_e(np.int64(10**6), 1_299_038)
    # Two roots a relative 1e-8 apart are both returned.
    low, high = solve_e(10**15, 1_299_038_105_676_658)
    assert low < high
    # Feasible, but the roots cannot be resolved in floating point.
    m, eta = 172_652_621_799_022_464, 224_282_334_761_910_626
    assert feasibility(m, eta).feasible
    with pytest.raises(NoRealDesignError, match="cannot be resolved in floating point"):
        solve_e(m, eta)


def test_g_polynomial_refuses_an_m_beyond_the_float_range():
    with pytest.raises(ValueError, match="^m of 1329 bits"):
        g_polynomial(10**400, 4)


def test_an_eta_beyond_the_float_range_is_one_value_error():
    # Each call is one ValueError naming eta, before numpy sees a coefficient.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for eta in (1.2e77, 1e78, 1e200, 1e308, 10**400, math.nan):
            for call in (g_polynomial, solve_e, lambda m, eta: back_solve(1e-39, m, eta)):
                with pytest.raises(ValueError, match="^eta="):
                    call(1, eta)
    # Just below, the polynomial is formed and both of its roots found.
    for eta, roots in ((1e76, [1.7320508075688773e-76, 1.4142135623730952e-38]),
                       (1e77, [1.7320508075688773e-77, 4.4721359549995795e-39])):
        assert solve_e(1, eta) == roots
        assert all(designer._is_root(g_polynomial(1, eta), e * e) for e in roots)
    # feasibility keeps the g_min it reported before.
    assert math.isnan(feasibility(1, 1e78).g_min)
    assert math.isnan(feasibility(1, 1e200).g_min)


def test_e_star_stays_finite_where_eta_squared_overflows():
    # From eta ~ 7.7e153 on, 3 (eta**2 - 1) overflows; e_star is then the
    # same formula in 1/eta, sqrt(2 / (sqrt(3) eta)) to rounding.
    for eta in (1e154, 1e200, 1e307):
        want = math.sqrt(2.0 / (math.sqrt(3.0) * eta))
        report = feasibility(1, eta)
        assert abs(report.e_star - want) <= 1e-15 * want and math.isnan(report.g_min)
    # Below, e_star keeps the bits of the formula in eta.
    rng = np.random.default_rng(3)
    for eta in 10.0 ** rng.uniform(1e-6, math.log10(7e153), 500):
        eta = float(eta)
        old = math.sqrt((6.0 + 2.0 * math.sqrt(3.0) * eta) / (3.0 * (eta * eta - 1.0)))
        assert feasibility(1, eta).e_star.hex() == old.hex()


@pytest.mark.parametrize("eta", [math.inf, -math.inf, math.nan])
def test_feasibility_refuses_non_finite_eta(eta):
    with pytest.raises(ValueError, match="eta"):
        feasibility(2, eta)


def test_feasibility_is_exact_for_numpy_integers():
    # 1299040**6 overflows int64, so the test must not run in numpy integers.
    assert feasibility(10**6, np.int64(1_299_040)).feasible
    assert not feasibility(10**6, np.int64(1_299_038)).feasible


# ---------------------------------------------------------------------------
# End-to-end design
# ---------------------------------------------------------------------------

def test_design_smallest_reproduces_known_solution():
    sol = design(DesignInput(m=2, eta=4, root_choice=SMALLEST))
    params = sol.params
    assert abs(params.e - E_SMALL) < 1e-12
    assert abs(params.a) < 1e-9
    assert abs(params.d + params.e) < 1e-9
    assert abs(params.b - math.sqrt(2.0)) < 1e-15
    assert params.c == 1.0
    assert abs(sol.transfer_time - math.pi / params.e) == 0.0


def test_design_largest_root():
    sol = design(DesignInput(m=2, eta=4, root_choice=LARGEST))
    a_ref, d_ref = _back_solve_closed_form(E_LARGE, 4)
    assert abs(sol.params.e - E_LARGE) < 1e-12
    assert abs(sol.params.a - a_ref) < 1e-12
    assert abs(sol.params.d - d_ref) < 1e-12


def test_design_realizes_star():
    sol = design(DesignInput(m=3, eta=4))
    spec = sol.realized
    params = sol.params
    assert spec.edge_count == 5
    assert spec.coupling == 1.0
    assert spec.potentials[0] == params.a
    assert spec.potentials[1] == spec.potentials[2] == params.e
    assert spec.potentials[3:] == (params.d,) * 3


def test_design_spectrum_oracle_randomized():
    rng = np.random.default_rng(13)
    for _ in range(25):
        m = int(rng.integers(1, 201))
        eta = min_feasible_even_eta(m) + 2 * int(rng.integers(0, 21))
        for policy in (SMALLEST, LARGEST):
            sol = design(DesignInput(m=m, eta=eta, root_choice=policy))
            evals = np.linalg.eigvalsh(reduced_matrix(sol.params))
            target = np.sort(np.asarray(sol.target_spectrum))
            assert np.max(np.abs(evals - target)) < 1e-9
            assert sol.root_residual < 1e-10 * (m + 2)


def test_design_lambda_residuals():
    rng = np.random.default_rng(17)
    for _ in range(15):
        m = int(rng.integers(1, 201))
        eta = min_feasible_even_eta(m) + 2 * int(rng.integers(0, 11))
        sol = design(DesignInput(m=m, eta=eta))
        p = sol.params
        l0, l1, l2 = lambda_coefficients(p.a, p.b, p.c, p.d, p.e)
        assert abs(l0) < 1e-9
        assert abs(l1 - eta * eta) < 1e-9 * max(1.0, eta * eta)
        assert abs(l2) < 1e-9


def test_design_trace_identity():
    sol = design(DesignInput(m=5, eta=8))
    p = sol.params
    assert abs(p.a + p.d + p.e) < 1e-12 * max(1.0, abs(p.a), abs(p.d))


def test_design_large_m_scaling():
    # hub and bystander potentials grow like sqrt(m) and cancel each other
    for m in (100, 1000, 10_000):
        sol = design(DesignInput(m=m, eta=min_feasible_even_eta(m)))
        p = sol.params
        assert p.a * p.d < 0
        assert 0.1 <= abs(p.a) / math.sqrt(m) <= 10.0
        assert 0.1 <= abs(p.d) / math.sqrt(m) <= 10.0
        if m == 10_000:
            assert 0.9 <= abs(p.a / p.d) <= 1.1
            assert abs(p.a + p.d) / max(abs(p.a), abs(p.d)) < 0.1


def test_design_infeasible_carries_report():
    with pytest.raises(InfeasibleDesignError) as excinfo:
        design(DesignInput(m=1000, eta=2))
    assert excinfo.value.report is not None
    assert not excinfo.value.report.feasible


def test_design_input_validation():
    with pytest.raises(ValueError):
        DesignInput(m=0, eta=4)
    with pytest.raises(ValueError):
        DesignInput(m=2, eta=3)  # odd
    with pytest.raises(ValueError):
        DesignInput(m=2, eta=0)
    with pytest.raises(ValueError):
        DesignInput(m=2, eta=4.0)  # non-integer
    with pytest.raises(ValueError):
        DesignInput(m=2, eta=4, root_choice="smallest")


def test_design_input_refuses_requests_beyond_the_envelope():
    assert min_feasible_even_eta(M_MAX) <= ETA_MAX
    with pytest.raises(EnvelopeError, match=r"m <= M_MAX = 1000000"):
        DesignInput(m=M_MAX + 1, eta=ETA_MAX)
    with pytest.raises(EnvelopeError, match=r"eta <= ETA_MAX = 1400000"):
        DesignInput(m=1, eta=ETA_MAX + 2)
    for policy in (SMALLEST, LARGEST):
        for m, eta in ((1, 10**6), (7, ETA_MAX), (M_MAX, ETA_MAX)):
            assert verify_design(design(DesignInput(m=m, eta=eta, root_choice=policy))).passed


def test_companion_roots_match_numpy_polyroots():
    # one stacked call for all 500 cubics, each row against polyroots alone
    rng = np.random.default_rng(41)
    polys = []
    for _ in range(500):
        m = int(10 ** rng.uniform(0, 6))
        eta = int(rng.integers(1, ETA_MAX // 2)) * 2
        polys.append(g_polynomial(m, eta))
    for p, roots in zip(polys, _companion_roots(polys)):
        coeffs = [p.x0, p.x2, p.x4, p.x6]
        assert roots == np.polynomial.polynomial.polyroots(coeffs).tolist()


def test_stacked_eigensolves_equal_single_calls_bit_for_bit():
    # numpy solves a stack one matrix at a time, with the LAPACK build at
    # hand: 3000 companions (feasible or not, so real or complex roots) and
    # 3000 four-level matrices, each against its own call.
    rng = np.random.default_rng(7)
    polys, params = [], []
    for _ in range(3000):
        m = int(10 ** rng.uniform(0, 6))
        eta = int(rng.integers(1, ETA_MAX // 2)) * 2
        polys.append(g_polynomial(m, eta))
        a, d, e = rng.normal(0.0, 10.0 ** rng.uniform(-3, 3), size=3)
        params.append(ReducedParams(a=a, b=math.sqrt(m), c=1.0, d=d, e=e, m=m))
    companions = np.array([(0.0, 0.0, -p.x0 / p.x6, 1.0, 0.0, -p.x2 / p.x6, 0.0, 1.0, -p.x4 / p.x6)
                           for p in polys]).reshape(-1, 3, 3)
    stacked = np.linalg.eigvals(companions).astype(complex)
    assert any(np.iscomplexobj(np.linalg.eigvals(c)) for c in companions[:100])
    for matrix, roots in zip(companions, stacked):
        assert np.linalg.eigvals(matrix).astype(complex).tobytes() == roots.tobytes()
    reduced = np.array([reduced_matrix(p) for p in params])
    for matrix, evals in zip(reduced, np.linalg.eigvalsh(reduced)):
        assert np.linalg.eigvalsh(matrix).tobytes() == evals.tobytes()


def _bits(sol) -> tuple:
    p = sol.params
    return (p.m, sol.eta, *(float(x).hex() for x in (p.a, p.b, p.c, p.d, p.e, sol.transfer_time,
                                                     *sol.target_spectrum, sol.root_residual,
                                                     sol.spectrum_residual, sol.lambda_residual)),
            sol.realized)


def test_design_block_equals_design_request_by_request():
    rng = np.random.default_rng(11)
    requests = []
    for _ in range(300):
        m = int(10 ** rng.uniform(0, 6))
        eta = min(ETA_MAX, min_feasible_even_eta(m) + 2 * int(10 ** rng.uniform(0, 5)))
        policy = (SMALLEST, LARGEST, RootChoice("index", 1))[int(rng.integers(3))]
        requests.append(DesignInput(m=m, eta=eta, root_choice=policy))
    assert [_bits(sol) for sol in designer.design_block(requests)] == [
        _bits(design(r)) for r in requests]
    assert list(designer.design_block([])) == []


@pytest.mark.parametrize("bad, error", [
    (DesignInput(m=500, eta=2), InfeasibleDesignError),
    (DesignInput(m=500, eta=650, root_choice=RootChoice("index", 2)), ValueError),
])
def test_design_block_raises_a_failing_request_in_its_turn(bad, error):
    # the solutions before it, then design's own error for it; none after
    good = [DesignInput(m=m, eta=min_feasible_even_eta(m)) for m in (3, 40, 7000)]
    with pytest.raises(error) as alone:
        design(bad)
    solutions = designer.design_block(good[:2] + [bad] + good[2:])
    assert [_bits(next(solutions)) for _ in range(2)] == [_bits(design(r)) for r in good[:2]]
    with pytest.raises(error) as in_block:
        next(solutions)
    assert str(in_block.value) == str(alone.value)
    assert next(solutions, None) is None


def test_root_choice_parse_and_select():
    assert RootChoice.parse("smallest") is SMALLEST
    assert RootChoice.parse("largest") is LARGEST
    assert RootChoice.parse("index:1") == RootChoice("index", 1)
    with pytest.raises(ValueError):
        RootChoice.parse("middle")
    roots = [0.3, 0.8]
    assert SMALLEST.select(roots) == 0.3
    assert LARGEST.select(roots) == 0.8
    assert RootChoice("index", 1).select(roots) == 0.8
    with pytest.raises(ValueError):
        RootChoice("index", 2).select(roots)


@pytest.mark.parametrize("text", ["index:abc", "index:1.5", "index:", "index:-1"])
def test_root_choice_parse_names_the_allowed_forms(text):
    with pytest.raises(ValueError, match="root choice must be 'smallest', 'largest' or 'index:k'"):
        RootChoice.parse(text)


@pytest.mark.parametrize("m, eta", [(1, 200), (1, 1000), (1, 10**5), (1, 10**6), (10, 10**6)])
def test_design_smallest_root_at_large_eta(m, eta):
    sol = design(DesignInput(m=m, eta=eta, root_choice=SMALLEST))
    assert sol.params.e == solve_e(m, eta)[0]
    assert verify_design(sol).passed


def test_design_largest_root_at_large_eta_is_the_true_larger_root():
    # the terms of the cubic reach ~eta at the larger root e ~ sqrt(2/eta)
    sol = design(DesignInput(m=2, eta=10**6, root_choice=LARGEST))
    assert abs(sol.params.e - 1.41421e-3) < 1e-8
    assert verify_design(sol).passed


@settings(deadline=None, derandomize=True, max_examples=200)
@given(log_m=st.floats(0.0, 6.0), frac=st.floats(0.0, 1.0))
def test_design_core_over_the_envelope(log_m, frac):
    # m log-uniform in [1, M_MAX], even eta log-uniform in [eta_min(m), ETA_MAX]
    m = max(1, round(10.0**log_m))
    lo = min_feasible_even_eta(m)
    eta = max(lo, round(lo * (ETA_MAX / lo) ** frac / 2) * 2)
    assert m <= M_MAX and eta <= ETA_MAX
    for policy in (SMALLEST, LARGEST):
        assert verify_design(design(DesignInput(m=m, eta=eta, root_choice=policy))).passed
    roots = solve_e(m, eta)
    assert roots[0] < feasibility(m, eta).e_star < roots[-1]
    assert LARGEST.select(roots) == max(roots)
    for policy in (SMALLEST, LARGEST):
        e = policy.select(roots)
        a, d = back_solve(e, m, eta)
        params = ReducedParams(a=a, b=math.sqrt(m), c=1.0, d=d, e=e, m=m)
        cache = EvolutionCache.from_hamiltonian(reduced_matrix(params))
        target = np.sort([0.0, e, eta * e, -eta * e])
        assert np.max(np.abs(cache.eigenvalues - target)) <= 1e-9
        assert abs(cache.amplitude(math.pi / e, 2, 3) - 1.0) <= 1e-9
        parities = exchange_parities(cache.eigenvalues, cache.eigenvectors, 2, 3)
        antisymmetric = np.argmin(np.abs(cache.eigenvalues - e))
        expected = np.where(np.arange(4) == antisymmetric, -1.0, 1.0)
        assert np.max(np.abs(parities - expected)) < 1e-6


def test_design_with_index_policy():
    sol = design(DesignInput(m=2, eta=4, root_choice=RootChoice("index", 1)))
    assert abs(sol.params.e - E_LARGE) < 1e-12
