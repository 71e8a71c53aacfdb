"""Inverse eigenvalue design of transfer networks.

Given ``m`` bystanders and an even ratio ``eta``, find matrix elements
``{a, b, c, d, e}`` whose four-level Hamiltonian has spectrum
``{0, e, +eta*e, -eta*e}``.  With that spectrum, evolving for ``pi/e`` flips
the sign of the antisymmetric source/target mode and leaves every other mode
untouched, which is exactly a perfect source-to-target swap.

Everything is measured in units of the hub-edge coupling (``c = 1``), which
also fixes ``b = sqrt(m)``.  The problem collapses to a single cubic in
``e**2``, so the work to solve it does not grow with network size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleDesignError, NoRealDesignError
from .model import DesignSolution, ReducedParams, StarSpec, check_int, reduced_matrix

# Residual bound on accepted roots, scaled by the constant coefficient m + 2.
ROOT_RESIDUAL_TOL = 1e-10

# Bound on the characteristic-coefficient residuals of a returned (a, d)
# pair, relative to the size of the terms being cancelled.
LAMBDA_RESIDUAL_TOL = 1e-9

# Deviation allowed between the spectrum of a designed matrix and its target.
SPECTRUM_TOL = 1e-9


@dataclass(frozen=True)
class RootChoice:
    """Which positive root of the design polynomial to use.

    ``smallest`` reproduces the longest transfer time, ``largest`` the
    shortest, ``index`` picks position ``index`` in the ascending root list.
    """

    kind: str
    index: int = 0

    def __post_init__(self):
        if self.kind not in ("smallest", "largest", "index"):
            raise ValueError(f"unknown root choice {self.kind!r}")
        lo = 0 if self.kind == "index" else None
        object.__setattr__(self, "index", check_int(self.index, "index", lo=lo))

    @classmethod
    def parse(cls, text: str) -> "RootChoice":
        """Accepts ``smallest``, ``largest`` or ``index:k``."""
        if text == "smallest":
            return SMALLEST
        if text == "largest":
            return LARGEST
        if text.startswith("index:"):
            return cls("index", int(text.split(":", 1)[1]))
        raise ValueError(f"root choice must be 'smallest', 'largest' or 'index:k', got {text!r}")

    def select(self, roots: list[float]) -> float:
        if self.kind == "smallest":
            return roots[0]
        if self.kind == "largest":
            return roots[-1]
        if self.index >= len(roots):
            raise ValueError(f"root index {self.index} out of range; {len(roots)} root(s) exist")
        return roots[self.index]

    def __str__(self) -> str:
        return self.kind if self.kind != "index" else f"index:{self.index}"


SMALLEST = RootChoice("smallest")
LARGEST = RootChoice("largest")


@dataclass(frozen=True)
class DesignInput:
    """A design request: bystander count, spectrum ratio, root policy."""

    m: int
    eta: int
    root_choice: RootChoice = SMALLEST

    def __post_init__(self):
        object.__setattr__(self, "m", check_int(self.m, "m", lo=1))
        object.__setattr__(self, "eta", check_int(self.eta, "eta"))
        if self.eta < 2 or self.eta % 2 != 0:
            raise ValueError("eta must be an even integer >= 2 (phase cancellation needs it)")
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


@dataclass(frozen=True)
class FeasibilityReport:
    """Whether a (m, eta) pair admits a design, and why.

    ``e_star`` locates the global minimum of the design polynomial over
    positive ``e`` (NaN when there is no interior minimum, i.e. eta <= 1);
    ``feasible`` is the sign test ``g_min < 0``.  ``asymptotic_threshold`` is
    the large-m estimate ``9/(4*sqrt(3)) * m`` of the required eta, reported
    for orientation only; the sign of ``g_min`` is the criterion.
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


def design_residuals(params: ReducedParams, eta: int, target_spectrum) -> tuple[float, float]:
    """Spectrum and lambda residuals of a design.

    The spectrum residual is the largest deviation of the four-level
    eigenvalues from ``target_spectrum``; the lambda residual the largest
    deviation of :func:`lambda_coefficients` from ``(0, eta**2, 0)``.
    """
    evals = np.linalg.eigvalsh(reduced_matrix(params))
    spectrum = float(np.max(np.abs(evals - np.sort(np.asarray(target_spectrum)))))
    l0, l1, l2 = lambda_coefficients(params.a, params.b, params.c, params.d, params.e)
    return spectrum, float(max(abs(l0), abs(l1 - eta**2), abs(l2)))


def g_polynomial(m: int, eta: float) -> GPolynomial:
    """Design polynomial for ``m`` bystanders and spectrum ratio ``eta``."""
    m = check_int(m, "m", lo=1)
    eta2 = float(eta) * float(eta)
    return GPolynomial(
        x0=float(m + 2),
        x2=3.0 - eta2,
        x4=1.5 * (1.0 - eta2),
        x6=0.25 * (1.0 - eta2) ** 2,
    )


def solve_e(m: int, eta: float) -> list[float]:
    """All positive real roots of the design polynomial, ascending.

    Substituting ``u = e**2`` turns the polynomial into a cubic, solved via
    the companion matrix and then polished with a few Newton steps so every
    returned root satisfies ``|g(e)| < 1e-10 * (m + 2)``.

    Raises :class:`InfeasibleDesignError` (carrying the feasibility analysis)
    when no positive real root exists.
    """
    poly = g_polynomial(m, eta)
    coeffs = [poly.x0, poly.x2, poly.x4, poly.x6]
    while len(coeffs) > 1 and coeffs[-1] == 0.0:
        coeffs.pop()
    roots: list[float] = []
    if len(coeffs) > 1:
        candidates = np.polynomial.polynomial.polyroots(coeffs)
        for z in candidates:
            if abs(z.imag) > 1e-8 * max(1.0, abs(z)):
                continue
            u = float(z.real)
            if u <= 0.0:
                continue
            for _ in range(3):
                slope = poly.derivative_u(u)
                if slope == 0.0:
                    break
                u -= poly.evaluate_u(u) / slope
            if u <= 0.0:
                continue
            e = math.sqrt(u)
            if abs(poly.evaluate(e)) < ROOT_RESIDUAL_TOL * (m + 2):
                roots.append(e)
    roots.sort()
    # Newton can pull two companion estimates of the same root together.
    deduped: list[float] = []
    for e in roots:
        if not deduped or e - deduped[-1] > 1e-12 * max(1.0, e):
            deduped.append(e)
    if not deduped:
        report = feasibility(m, eta)
        raise InfeasibleDesignError(
            f"no admissible root for m={m}, eta={eta}: the design polynomial "
            f"stays positive (minimum {report.g_min!r})",
            report,
        )
    return deduped


def back_solve(e: float, m: int, eta: float) -> tuple[float, float]:
    """Recover the hub and bystander potentials ``(a, d)`` from a root ``e``.

    Their sum and product follow from the prescribed characteristic
    coefficients (``a + d = -e`` and ``a*d = m + 2 + (1 - eta**2) e**2`` in
    units ``c = 1``, ``b**2 = m``); the constant-term condition then picks
    which quadratic root is which.
    """
    e = float(e)
    if e == 0.0:
        raise ValueError("e must be nonzero")
    eta2 = float(eta) * float(eta)
    product = m + 2 + (1.0 - eta2) * e * e
    disc = e * e - 4.0 * product  # equals (a - d)**2 for exact roots
    if disc < 0.0:
        raise NoRealDesignError(
            f"no real potentials for e={e!r}, m={m}, eta={eta}: discriminant {disc!r} < 0"
        )
    r = math.sqrt(disc)
    t_hi = (-e + r) / 2.0
    t_lo = (-e - r) / 2.0

    def constant_term_residual(a: float, d: float) -> tuple[float, float]:
        terms = (a * d * e, -m * e, -2.0 * d)
        residual = abs(sum(terms)) / abs(e) ** 3
        scale = sum(abs(t) for t in terms) / abs(e) ** 3
        return residual, scale

    res_fwd, scale_fwd = constant_term_residual(t_hi, t_lo)
    res_rev, scale_rev = constant_term_residual(t_lo, t_hi)
    if res_fwd <= res_rev:
        a, d, residual, scale = t_hi, t_lo, res_fwd, scale_fwd
    else:
        a, d, residual, scale = t_lo, t_hi, res_rev, scale_rev
    if residual > LAMBDA_RESIDUAL_TOL * max(1.0, scale):
        raise NoRealDesignError(
            f"neither (a, d) assignment satisfies the constant-term condition "
            f"for e={e!r} (best residual {residual!r}); e is not a root"
        )
    return a, d


def feasibility(m: int, eta: float) -> FeasibilityReport:
    """Locate the global minimum of the design polynomial and test its sign."""
    m = check_int(m, "m", lo=1)
    eta = float(eta)
    asymptotic = 9.0 / (4.0 * math.sqrt(3.0)) * m
    if eta <= 1.0:
        # Every coefficient is then non-negative: the minimum over real e sits
        # at e = 0 with value m + 2 > 0, and there is no interior minimum.
        return FeasibilityReport(
            e_star=math.nan,
            g_min=float(m + 2),
            feasible=False,
            asymptotic_threshold=asymptotic,
        )
    e_star_sq = (6.0 + 2.0 * math.sqrt(3.0) * eta) / (3.0 * (eta * eta - 1.0))
    e_star = math.sqrt(e_star_sq)
    g_min = g_polynomial(m, eta).evaluate_u(e_star_sq)
    return FeasibilityReport(
        e_star=e_star,
        g_min=float(g_min),
        feasible=bool(g_min < 0.0),
        asymptotic_threshold=asymptotic,
    )


def min_feasible_even_eta(m: int) -> int:
    """Smallest even ``eta >= 2`` that admits a design for ``m`` bystanders.

    The upward scan always terminates: the polynomial's minimum drops without
    bound as eta grows at fixed m.
    """
    eta = 2
    while not feasibility(m, eta).feasible:
        eta += 2
    return eta


def design(request: DesignInput) -> DesignSolution:
    """Solve a design request end to end.

    Finds the admissible roots, picks one per the request's root policy,
    recovers the hub/bystander potentials, and realizes the star network in
    coupling units (``coupling = c = 1``).  The solve (a cubic plus a 4x4
    eigendecomposition) takes constant time; realizing and checking the
    ``m + 3`` potentials takes O(m).
    """
    m, eta = request.m, request.eta
    roots = solve_e(m, eta)
    e = request.root_choice.select(roots)
    a, d = back_solve(e, m, eta)
    params = ReducedParams(a=a, b=math.sqrt(m), c=1.0, d=d, e=e, m=m)
    target = (0.0, e, eta * e, -eta * e)
    deviation, _ = design_residuals(params, eta, target)
    if deviation > SPECTRUM_TOL * max(1.0, abs(eta * e)):
        raise NoRealDesignError(
            f"design for m={m}, eta={eta} misses its spectrum by {deviation!r}"
        )
    realized = StarSpec(
        edge_count=m + 2,
        coupling=1.0,
        potentials=(a, e, e) + (d,) * m,
    )
    return DesignSolution(
        params=params,
        eta=eta,
        transfer_time=math.pi / e,
        target_spectrum=target,
        root_residual=abs(g_polynomial(m, eta).evaluate(e)),
        realized=realized,
    )
