"""Inverse eigenvalue design of transfer networks.

Given ``m`` bystanders and an even ratio ``eta``, find matrix elements
``{a, b, c, d, e}`` whose four-level Hamiltonian has spectrum
``{0, e, +eta*e, -eta*e}``.  With that spectrum, evolving for ``pi/e`` flips
the sign of the antisymmetric source/target mode and leaves every other mode
untouched, which is exactly a perfect source-to-target swap.

Everything is measured in units of the hub-edge coupling (``c = 1``), which
also fixes ``b = sqrt(m)``.  The problem collapses to a single cubic in
``e**2``, so the work to solve it does not grow with network size
(``tests/test_cli.py::test_every_command_is_constant_time_in_m`` counts the
calls of a design at m = 10**4 and 10**6).  The same elimination leaves
the bystander and hub potentials in closed form,
``d = e + (1 - eta**2) e**3 / 2`` and ``a = -e - d``.  One relative rule
decides what counts as a root, ``|g(u)| <= ROOT_RESIDUAL_TOL * sum |terms|``
over the four terms of the cubic in ``u = e**2``: it guards the polished
roots of :func:`solve_e` and the ``e`` given to :func:`back_solve`.

For ``eta > 1`` the substitution ``u = 2 (w + 1) / (eta**2 - 1)`` turns the
cubic into ``2 / (eta**2 - 1)`` times the depressed cubic
``w**3 - eta**2 w + m (eta**2 - 1) / 2``.  That cubic has exactly one
negative root, and it lies below ``w = -1`` (the value there is positive),
so it gives ``u < 0``; two positive roots exist exactly when the
discriminant is positive: ``16 eta**6 > 27 m**2 (eta**2 - 1)**2``
(equality would make ``sqrt(3)`` rational).  That test, in integers and
exact for any finite ``eta``, is the only feasibility rule: :func:`solve_e`
returns both roots whenever it holds, or raises that they cannot be resolved
in floating point.

Designs take one code path, :func:`design_block`.  For a block of requests
it forms each design polynomial once, solves every companion matrix in one
``np.linalg.eigvals`` call and every reduced 4x4 matrix in one
``np.linalg.eigvalsh`` call, and runs each other step request by request.
:func:`design` is its one-request case, two LAPACK calls; :func:`solve_e`,
:func:`back_solve` and :func:`design_residuals` share its per-request steps.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .errors import EnvelopeError, InfeasibleDesignError, NoRealDesignError
from .model import DesignSolution, ReducedParams, check_eta, check_int, reduced_rows

# Residual bound on accepted roots, relative to the sizes of the cubic's terms.
ROOT_RESIDUAL_TOL = 1e-10

# Deviation allowed between the spectrum of a designed matrix and its target.
SPECTRUM_TOL = 1e-9

# The supported envelope.  ETA_MAX is a round cap just above the thresholds
# of the largest networks (eta_min(M_MAX) = 1 299 040).  The rounding of the
# phase eta*e*tau = eta*pi grows with eta: a dense scan (m <= 100, the top
# 100 even eta below a cap, both roots) finds no verify_design failure at
# 1e-9 below 10**6, a few from about 1.1*10**6 (largest root, m <= 6) and
# 29 of 20 000 below 2*10**6, so the cap stays as low as M_MAX allows.
M_MAX = 10**6
ETA_MAX = 1_400_000

# The paper's large-m slope of the eta threshold, eta_min ~ ETA_SLOPE * m.
ETA_SLOPE = 9.0 / (4.0 * math.sqrt(3.0))


def check_envelope(m: int | None = None, eta: int | None = None) -> None:
    """Raise :class:`EnvelopeError` naming the limit if ``m > M_MAX`` or
    ``eta > ETA_MAX``."""
    if m is not None and m > M_MAX:
        raise EnvelopeError(f"m={m} lies beyond the supported envelope m <= M_MAX = {M_MAX}")
    if eta is not None and eta > ETA_MAX:
        raise EnvelopeError(
            f"eta={eta} lies beyond the supported envelope eta <= ETA_MAX = {ETA_MAX}"
        )


@dataclass(frozen=True)
class RootChoice:
    """Which of the two positive roots of the design polynomial to use:
    ``smallest`` gives the longer transfer time, ``largest`` the shorter."""

    kind: str

    def __post_init__(self):
        if self.kind not in ("smallest", "largest"):
            raise ValueError(f"root choice must be 'smallest' or 'largest', got {self.kind!r}")

    @classmethod
    def parse(cls, text: str) -> "RootChoice":
        """Accepts ``smallest`` or ``largest``, and the older spellings
        ``index:0`` and ``index:1`` of the same two choices."""
        choices = {"smallest": SMALLEST, "largest": LARGEST, "index:0": SMALLEST, "index:1": LARGEST}
        if text not in choices:
            raise ValueError(f"root choice must be 'smallest' or 'largest', got {text!r}")
        return choices[text]

    def select(self, roots: list[float]) -> float:
        """The chosen one of the ascending ``roots``."""
        return roots[0] if self.kind == "smallest" else roots[-1]

    def __str__(self) -> str:
        return self.kind


SMALLEST = RootChoice("smallest")
LARGEST = RootChoice("largest")


@dataclass(frozen=True)
class DesignInput:
    """A design request: bystander count, spectrum ratio, and which of the
    two roots to use (:data:`SMALLEST` or :data:`LARGEST`).

    The supported envelope is ``1 <= m <= M_MAX = 10**6`` and even
    ``2 <= eta <= ETA_MAX = 1 400 000``; requests beyond it raise
    :class:`EnvelopeError`, in ``O(1)``.  Inside it designs pass
    :func:`~spinstar.dynamics.verify_design` at 1e-9, except a few with the
    largest root at small ``m`` and ``eta > 10**6``, where the rounding of
    the phase ``eta * pi`` reaches the tolerance.
    """

    m: int
    eta: int
    root_choice: RootChoice = SMALLEST

    def __post_init__(self):
        object.__setattr__(self, "m", check_int(self.m, "m", lo=1))
        object.__setattr__(self, "eta", check_eta(self.eta))
        check_envelope(self.m, self.eta)
        if not isinstance(self.root_choice, RootChoice):
            raise ValueError("root_choice must be a RootChoice")


@dataclass(frozen=True)
class GPolynomial:
    """Even polynomial ``x0 + x2 e**2 + x4 e**4 + x6 e**6`` whose positive
    roots are the admissible source/target potentials."""

    x0: float
    x2: float
    x4: float
    x6: float

    def evaluate(self, e: float) -> float:
        return self.evaluate_u(float(e) * float(e))

    def evaluate_u(self, u: float) -> float:
        """Value as a cubic in ``u = e**2``."""
        return self.x0 + u * (self.x2 + u * (self.x4 + u * self.x6))

    def derivative_u(self, u: float) -> float:
        return self.x2 + u * (2.0 * self.x4 + 3.0 * u * self.x6)


def _is_root(poly: GPolynomial, u: float) -> bool:
    """The root rule: ``|g(u)| <= ROOT_RESIDUAL_TOL * sum |terms|`` over the
    four terms of the cubic in ``u = e**2``."""
    u2 = u * u
    scale = abs(poly.x0) + abs(poly.x2 * u) + abs(poly.x4 * u2) + abs(poly.x6 * u2 * u)
    return abs(poly.evaluate_u(u)) <= ROOT_RESIDUAL_TOL * scale


@dataclass(frozen=True)
class FeasibilityReport:
    """Whether a (m, eta) pair admits a design, and why.

    ``feasible`` is the exact discriminant test of the module docstring.
    The rest are margins, computed in floats: ``e_star`` locates the global
    minimum of the design polynomial over positive ``e`` (NaN when there is
    no interior minimum, i.e. eta <= 1, or eta is beyond the float range),
    ``g_min`` is its value there (NaN where :func:`g_polynomial` cannot form
    the polynomial), and ``asymptotic_threshold`` is the large-m estimate
    ``ETA_SLOPE * m`` of the required eta.  A margin too large for a float
    is ``inf``.
    """

    e_star: float
    g_min: float
    feasible: bool
    asymptotic_threshold: float


def lambda_coefficients(a: float, b: float, c: float, d: float, e: float) -> tuple[float, float, float]:
    """Coefficients (L0, L1, L2) of the four-level characteristic polynomial
    written as ``L0 e^3 + L1 e^2 x + L2 e x^2 - x^3`` after the antisymmetric
    factor is divided out.

    A valid design must reach ``(0, eta**2, 0)``.
    """
    if e == 0:
        raise ZeroDivisionError("e must be nonzero to normalize the coefficients")
    a, b, c, d, e = float(a), float(b), float(c), float(d), float(e)
    l0 = (a * d * e - b * b * e - 2.0 * c * c * d) / e**3
    l1 = (b * b + 2.0 * c * c - a * d - (a + d) * e) / e**2
    l2 = (a + d + e) / e
    return (l0, l1, l2)


def design_residuals(params: ReducedParams, eta: int, target_spectrum,
                     evals) -> tuple[float, float, float]:
    """Root, spectrum and lambda residuals of a design.

    The root residual is ``|g(e)|``, the design polynomial of ``(m, eta)``
    at ``params.e``; the spectrum residual the largest deviation of the
    four-level eigenvalues from ``target_spectrum``; the lambda residual the
    largest deviation of :func:`lambda_coefficients` from ``(0, eta**2, 0)``.
    ``evals`` are the four-level eigenvalues in ascending order, as
    ``dynamics.verify_design`` returns them.
    """
    return _residuals(g_polynomial(params.m, eta), params, eta, target_spectrum, evals)


def _residuals(poly: GPolynomial, params: ReducedParams, eta, target_spectrum,
               evals: list[float]) -> tuple[float, float, float]:
    """:func:`design_residuals` with ``poly`` and ``evals`` at hand."""
    root = abs(poly.evaluate(params.e))
    spectrum = max(abs(x - y) for x, y in zip(evals, sorted(map(float, target_spectrum))))
    l0, l1, l2 = lambda_coefficients(params.a, params.b, params.c, params.d, params.e)
    return root, spectrum, float(max(abs(l0), abs(l1 - eta**2), abs(l2)))


def _float_or_inf(n: int) -> float:
    """The positive int ``n`` as a float, ``inf`` beyond the float range."""
    try:
        return float(n)
    except OverflowError:
        return math.inf


def g_polynomial(m: int, eta: float) -> GPolynomial:
    """Design polynomial for ``m`` bystanders and spectrum ratio ``eta``.

    Raises ``ValueError`` naming ``m`` or ``eta`` when a coefficient lies
    beyond the float range (``m`` from ``2**1024``, ``eta`` from about
    ``1.2e77``) or is not finite.
    """
    m = check_int(m, "m", lo=1)
    x0 = _float_or_inf(m + 2)
    if x0 == math.inf:
        raise ValueError(f"m of {m.bit_length()} bits lies beyond the float range")
    try:
        eta2 = float(eta) * float(eta)
        x6 = 0.25 * (1.0 - eta2) ** 2
    except OverflowError:
        x6 = math.inf
    if not math.isfinite(x6):
        raise ValueError(f"eta={eta!r} puts the design polynomial beyond the float range")
    return GPolynomial(x0=x0, x2=3.0 - eta2, x4=1.5 * (1.0 - eta2), x6=x6)


def solve_e(m: int, eta: float) -> list[float]:
    """The two positive roots of the design polynomial, ascending.

    The exact discriminant test decides whether they exist.  If it holds,
    the cubic in ``u = e**2`` has one negative root and two positive ones:
    the two eigenvalues of its 3x3 companion matrix with the largest real
    parts, each polished with a few Newton steps.  Beyond the envelope the
    two can round to the same double.

    Raises ``ValueError`` from :func:`g_polynomial` for an ``m`` or ``eta``
    beyond the float range; :class:`InfeasibleDesignError` (carrying the
    feasibility analysis) when the test fails; and
    :class:`NoRealDesignError` when a polished root is not positive or fails
    the module's root rule, ``|g(e)| <= ROOT_RESIDUAL_TOL * sum |terms|``:
    the roots exist but cannot be resolved in floating point.
    """
    poly = _checked_polynomial(m, eta)
    return _polished_roots(poly, m, eta, _companion_roots([poly])[0])


def _checked_polynomial(m: int, eta: float) -> GPolynomial:
    """The design polynomial of ``(m, eta)``, raising as :func:`solve_e`
    does when it cannot be formed or the exact test finds no roots."""
    poly = g_polynomial(m, eta)
    if not _feasible(check_int(m, "m", lo=1), eta):
        report = feasibility(m, eta)
        raise InfeasibleDesignError(f"no admissible root for m={m}, eta={eta}: the design "
                                    f"polynomial stays positive (minimum {report.g_min!r})", report)
    return poly


def _companion_roots(polys: list[GPolynomial]) -> list[list]:
    """Roots in ``u`` of each cubic of the nonempty ``polys`` (nonzero
    leading coefficient, as the design cubic's is for ``eta > 1``), one list
    each, ascending by real part: the eigenvalues of their companion
    matrices, by one ``np.linalg.eigvals`` call on their stack.  numpy
    solves a stack one matrix at a time, so each list has the bits of its
    matrix solved alone, which are numpy's ``polyroots`` without its series
    bookkeeping (a third of its time)."""
    roots = np.linalg.eigvals(np.array([[[0.0, 0.0, 0.0 - p.x0 / p.x6],
                                         [1.0, 0.0, 0.0 - p.x2 / p.x6],
                                         [0.0, 1.0, 0.0 - p.x4 / p.x6]] for p in polys]))
    roots.sort()
    return roots.tolist()


def _polished_roots(poly: GPolynomial, m: int, eta, roots: list) -> list[float]:
    """:func:`solve_e`'s roots from the companion eigenvalues ``roots``,
    ascending by real part: the real parts of the two largest, polished and
    checked."""
    polished = []
    for z in roots[1:]:
        u = z.real
        for _ in range(3):
            slope = poly.derivative_u(u)
            if slope == 0.0:
                break
            u -= poly.evaluate_u(u) / slope
        e = math.sqrt(max(u, 0.0))
        if not (e > 0.0 and _is_root(poly, e * e)):
            raise NoRealDesignError(
                f"the roots of the design polynomial for m={m}, eta={eta} cannot be resolved "
                f"in floating point (residual {poly.evaluate_u(u)!r} at u={u!r})")
        polished.append(e)
    return sorted(polished)


# No command calls this; it stays public because bench/ops.py times it.
def back_solve(e: float, m: int, eta: float) -> tuple[float, float]:
    """Recover the hub and bystander potentials ``(a, d)`` from a root ``e``.

    In units ``c = 1``, ``b**2 = m``, the trace condition gives
    ``a = -e - d``, and eliminating ``a*d`` between the other two
    characteristic conditions gives ``d = e + (1 - eta**2) e**3 / 2``.  Both
    are closed forms; what is left of the three conditions is the design
    cubic, so an ``e`` that fails the root rule raises
    :class:`NoRealDesignError`.
    """
    poly, e = g_polynomial(m, eta), float(e)
    if e == 0.0:
        raise ValueError("e must be nonzero")
    if not _is_root(poly, e * e):
        raise NoRealDesignError(f"e={e!r} is not a root of the design polynomial for m={m}, "
                                f"eta={eta} (residual {poly.evaluate(e)!r})")
    return _potentials(e, eta)


def _potentials(e: float, eta) -> tuple[float, float]:
    """The closed forms ``(a, d)`` of :func:`back_solve` at the root ``e``,
    unchecked."""
    d = e + (1.0 - float(eta) * float(eta)) * e**3 / 2.0
    return -e - d, d


def _feasible(m: int, eta) -> bool:
    """The feasibility rule: with ``eta = p/q`` exactly (``q = 1`` for an
    integer), ``eta > 1`` and the depressed cubic's discriminant
    ``16 eta**6 - 27 m**2 (eta**2 - 1)**2`` is positive.  Integer arithmetic,
    so exact for any finite ``eta``; a non-finite one raises ``ValueError``."""
    try:
        p, q = (int(eta), 1) if isinstance(eta, (int, np.integer)) else float(eta).as_integer_ratio()
    except (OverflowError, ValueError):
        raise ValueError(f"eta must be a finite number, got {eta!r}") from None
    return p > q and 16 * p**6 > 27 * (m * q * (p * p - q * q)) ** 2


def feasibility(m: int, eta: float) -> FeasibilityReport:
    """Decide by the exact discriminant test whether ``(m, eta)`` admits a
    design, and report the float margins of :class:`FeasibilityReport`.
    A non-finite ``eta`` raises ``ValueError``."""
    m = check_int(m, "m", lo=1)
    feasible = _feasible(m, eta)
    asymptotic = ETA_SLOPE * _float_or_inf(m)
    if eta <= 1:
        # Every coefficient is then non-negative: the minimum over real e sits
        # at e = 0 with value m + 2 > 0, and there is no interior minimum.
        return FeasibilityReport(math.nan, _float_or_inf(m + 2), feasible, asymptotic)
    try:  # eta itself may lie beyond the float range
        eta = float(eta)
        e_star_sq = (6.0 + 2.0 * math.sqrt(3.0) * eta) / (3.0 * (eta * eta - 1.0))
    except OverflowError:
        e_star_sq = eta = math.nan
    if 3.0 * (eta * eta - 1.0) == math.inf:  # the same formula, in x = 1/eta
        x = 1.0 / eta
        e_star_sq = (6.0 * x * x + 2.0 * math.sqrt(3.0) * x) / (3.0 * (1.0 - x * x))
    try:
        g_min = g_polynomial(m, eta).evaluate_u(e_star_sq)
    except ValueError:
        g_min = math.nan
    return FeasibilityReport(math.sqrt(e_star_sq), float(g_min), feasible, asymptotic)


def min_feasible_even_eta(m: int) -> int:
    """Smallest even ``eta >= 2`` that admits a design for ``m`` bystanders.

    Feasibility is ``eta**3 / (eta**2 - 1) > (3 sqrt(3) / 4) m``, the
    discriminant test divided through.  The left side increases for
    ``eta > sqrt(3)``, so the feasible even eta form an up-set, and
    ``eta < eta**3 / (eta**2 - 1) <= eta + 2/3`` for ``eta >= 2`` puts the
    threshold in ``(r - 2/3, r + 2]`` with ``r = floor((3 sqrt(3) / 4) m)``,
    computed exactly as ``isqrt(27 m**2 // 16)``.  So a walk up in steps of
    2 from the even number at or below ``r`` makes at most two exact tests:
    constant time at any ``m``, as
    ``tests/test_designer.py::test_min_feasible_even_eta_takes_at_most_two_feasibility_tests``
    counts.
    """
    m = check_int(m, "m", lo=1)
    r = math.isqrt(27 * m * m // 16)
    eta = max(2, r - r % 2)
    while not _feasible(m, eta):
        eta += 2
    return eta


def design(request: DesignInput) -> DesignSolution:
    """Solve a design request end to end, in constant time: the one-row
    case of :func:`design_block`, which holds the only design path.

    Finds the admissible roots, picks one by the request's root choice,
    recovers the hub/bystander potentials, and realizes the star network in
    coupling units (``coupling = c = 1``).  The solve is one 3x3 companion
    ``eigvals`` and one 4x4 ``eigvalsh``.  The solution derives its
    transfer time and target spectrum from ``e`` and ``eta``, and builds
    the realized star on first read of ``realized``, from its hub,
    bystander and route values (:func:`~spinstar.model.routed_star`), so
    time and memory are ``O(1)`` in ``m``, as
    ``tests/test_sparse_star.py::test_design_and_retarget_run_in_constant_memory``
    and ``tests/test_cli.py::test_every_command_is_constant_time_in_m`` check.
    """
    return list(design_block((request,)))[0]


def design_block(requests: Iterable[DesignInput]) -> Iterator[DesignSolution]:
    """Solve ``requests`` as :func:`design` solves each, yielding their
    solutions in order.

    Each request's design polynomial is formed once.  All companion
    matrices go to one ``np.linalg.eigvals`` call and all reduced 4x4
    matrices to one ``np.linalg.eigvalsh`` call; numpy solves a stack one
    matrix at a time, so every solution has the bits that a request solved
    alone gets.  Every other step runs per request, in order: the
    feasibility test, the Newton polish and root rule, the root choice, the
    back-solve, :class:`~spinstar.model.ReducedParams`, the residuals, the
    spectrum guard and :class:`~spinstar.model.DesignSolution`.  The block
    is solved when its first solution is asked for.  A request that fails
    raises its error in its turn, after the solutions of the requests before
    it, and ends the block.  Memory grows with the block, not with ``m``.
    """
    # Each stage stops at the first request that fails in it and keeps that
    # request's error; the next stage takes only the requests before it.
    rows, solved, failure = [], [], None
    try:
        for request in requests:
            rows.append((request, _checked_polynomial(request.m, request.eta)))
    except Exception as exc:  # re-raised in its turn, below
        failure = exc
    roots = _companion_roots([poly for _, poly in rows]) if rows else []
    try:
        for (request, poly), eigenvalues in zip(rows, roots):
            solved.append(_reduced_params(request, poly, eigenvalues))
    except Exception as exc:  # an earlier request than any that failed above
        failure = exc
    matrices = [reduced_rows(p) for p in solved]
    spectra = np.linalg.eigvalsh(np.array(matrices)).tolist() if matrices else []
    for (request, poly), params, evals in zip(rows, solved, spectra):
        yield _solution(request, poly, params, evals)
    if failure is not None:
        raise failure


def _reduced_params(request: DesignInput, poly: GPolynomial, roots: list) -> ReducedParams:
    """The request's matrix elements, from its companion eigenvalues
    ``roots``, ascending by real part.  :func:`_polished_roots` has applied
    the root rule to the chosen root, so its potentials are the closed forms
    without :func:`back_solve`'s checks."""
    m, eta = request.m, request.eta
    e = request.root_choice.select(_polished_roots(poly, m, eta, roots))
    a, d = _potentials(e, eta)
    return ReducedParams(a=a, b=math.sqrt(m), c=1.0, d=d, e=e, m=m)


def _solution(request: DesignInput, poly: GPolynomial, params: ReducedParams,
              evals: list[float]) -> DesignSolution:
    """The request's solution, from its matrix elements and their 4x4
    eigenvalues ``evals``, ascending.  ``target`` is the spectrum that the
    solution derives for itself, in the same order."""
    m, eta, e = request.m, request.eta, params.e
    target = (0.0, e, eta * e, -eta * e)
    root, deviation, lambda_deviation = _residuals(poly, params, eta, target, evals)
    if deviation > SPECTRUM_TOL * max(1.0, abs(eta * e)):
        raise NoRealDesignError(f"design for m={m}, eta={eta} misses its spectrum by {deviation!r}")
    return DesignSolution(params, eta, root_residual=root, spectrum_residual=deviation,
                          lambda_residual=lambda_deviation)
