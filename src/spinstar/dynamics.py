"""Exact unitary time evolution of real symmetric Hamiltonians.

Evolution goes through the spectral decomposition rather than a matrix
exponential: the eigenbasis of a real symmetric matrix is orthogonal, so the
propagator is unitary up to rounding and the one eigendecomposition is reused
across an entire time grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    DesignSolution,
    FidelityTrace,
    StarSpec,
    build_arrowhead,
    build_reduced,
    check_int,
    exchange_operator,
    reduced_matrix,
)

# Pre-condition on inputs: max-norm asymmetry allowed before refusing.
SYMMETRY_TOL = 1e-12

DEFAULT_VERIFY_TOL = 1e-9

# Eigenvalues closer than this (relative to the spectral radius) are treated
# as one degenerate cluster when assigning exchange parities.
DEGENERACY_TOL = 1e-8


def _require_symmetric(h) -> np.ndarray:
    h = np.ascontiguousarray(h, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("Hamiltonian must be a square matrix")
    asym = float(np.max(np.abs(h - h.T)))
    if asym > SYMMETRY_TOL:
        raise ValueError(f"Hamiltonian must be symmetric; asymmetry is {asym!r}")
    return h


@dataclass(frozen=True)
class EvolutionCache:
    """Eigendecomposition of a real symmetric Hamiltonian, immutable and
    shareable; all propagation queries run off it."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @classmethod
    def from_hamiltonian(cls, h) -> "EvolutionCache":
        h = _require_symmetric(h)
        evals, vecs = np.linalg.eigh(h)
        evals.setflags(write=False)
        vecs.setflags(write=False)
        return cls(eigenvalues=evals, eigenvectors=vecs)

    @property
    def dimension(self) -> int:
        return int(self.eigenvalues.size)

    def propagator(self, t: float) -> np.ndarray:
        """The unitary ``V diag(exp(-i E t)) V^T``."""
        phases = np.exp(-1j * self.eigenvalues * float(t))
        return (self.eigenvectors * phases) @ self.eigenvectors.T

    def _check_states(self, src, dst) -> tuple[int, int]:
        hi = self.dimension - 1
        return check_int(src, "src", 0, hi), check_int(dst, "dst", 0, hi)

    def amplitude(self, t: float, src: int, dst: int) -> complex:
        src, dst = self._check_states(src, dst)
        weights = self.eigenvectors[dst] * self.eigenvectors[src]
        return complex(np.sum(weights * np.exp(-1j * self.eigenvalues * float(t))))

    def amplitudes(self, t_grid, src: int, dst: int) -> np.ndarray:
        """Transition amplitudes over a whole grid in one shot."""
        src, dst = self._check_states(src, dst)
        grid = np.asarray(t_grid, dtype=float)
        weights = self.eigenvectors[dst] * self.eigenvectors[src]
        return np.exp(-1j * np.outer(grid, self.eigenvalues)) @ weights


@dataclass(frozen=True)
class VerificationReport:
    """Quantitative outcome of re-checking a design by exact dynamics.

    ``fidelity_at_tau`` is the smaller of the four-level and full-star
    fidelities; ``phase_deviation`` is the distance of the four-level transfer
    amplitude from exactly +1; ``reduction_deviation`` the gap between the
    reduced and full amplitudes.  ``passed`` iff every deviation is within
    ``tolerance`` and the parity pattern is right.
    """

    spectrum_deviation: float
    fidelity_at_tau: float
    phase_deviation: float
    reduction_deviation: float
    parity_check: bool
    passed: bool
    tolerance: float


def propagate(h, t: float) -> np.ndarray:
    """Evolution operator ``exp(-i h t)`` for real symmetric ``h``; unitary
    to rounding (max-norm defect below 1e-10)."""
    return EvolutionCache.from_hamiltonian(h).propagator(t)


def transition_amplitude(h, t: float, src: int, dst: int) -> complex:
    """Matrix element ``<dst| exp(-i h t) |src>``."""
    return EvolutionCache.from_hamiltonian(h).amplitude(t, src, dst)


def lift_reduced_amplitude(spec: StarSpec, source: int, target: int, t: float) -> complex:
    """Source-to-target transition amplitude at time ``t`` computed entirely
    inside the four-level reduction.

    Whenever :func:`build_reduced` accepts the spec, this equals the amplitude
    obtained from the full (N+1)-dimensional arrowhead dynamics (to 1e-10 or
    better); the reduced subspace is exactly invariant.
    """
    h4 = reduced_matrix(build_reduced(spec, source, target))
    return EvolutionCache.from_hamiltonian(h4).amplitude(t, 2, 3)


def fidelity_trace(h, t_grid, src: int, dst: int) -> FidelityTrace:
    """Squared transition amplitude sampled over ``t_grid``; the
    eigendecomposition is done once and reused across the grid."""
    grid = np.asarray(t_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("t_grid must be a non-empty 1-d sequence")
    if grid.size > 1 and not np.all(np.diff(grid) > 0):
        raise ValueError("t_grid must be strictly increasing")
    amps = EvolutionCache.from_hamiltonian(h).amplitudes(grid, src, dst)
    return FidelityTrace(times=grid, values=np.abs(amps) ** 2)


def transfer_time_grid(tau: float, t_max: float | None = None, steps: int = 1000) -> np.ndarray:
    """Uniform grid of ``steps`` points covering about ``[0, t_max]``
    (default ``1.2 * tau``) with ``tau`` pinned onto a grid point.

    A blind uniform grid can miss the fidelity peak by half a spacing, which
    already costs ~1e-5 in sampled fidelity at typical peak curvatures;
    pinning ``tau`` keeps the sampled maximum at the true peak.  When ``tau``
    falls outside the window the grid is a plain ``linspace``.
    """
    tau = float(tau)
    steps = check_int(steps, "steps", lo=2)
    if t_max is None:
        if not tau > 0:
            raise ValueError("t_max is required when tau is not positive")
        t_max = 1.2 * tau
    t_max = float(t_max)
    if not t_max > 0:
        raise ValueError("t_max must be positive")
    if 0.0 < tau <= t_max:
        segments = max(1, round((steps - 1) * tau / t_max))
        return np.arange(steps) * (tau / segments)
    return np.linspace(0.0, t_max, steps)


def exchange_parities(evals: np.ndarray, vecs: np.ndarray, i: int, j: int,
                      degeneracy_tol: float = DEGENERACY_TOL) -> np.ndarray:
    """Exchange parity (+-1) of each eigenvector under swapping slots i and j.

    Individual eigenvectors of a degenerate eigenvalue are basis-arbitrary, so
    eigenvalues closer than ``degeneracy_tol`` (relative to the spectral
    radius) are grouped and the swap operator is re-diagonalized inside each
    group; the parities of a group are well defined even though its vectors
    are not.
    """
    evals = np.asarray(evals, dtype=float)
    vecs = np.asarray(vecs, dtype=float)
    n = evals.size
    p = exchange_operator(n, i, j)
    gap = degeneracy_tol * max(1.0, float(np.max(np.abs(evals))))
    parities = np.empty(n)
    start = 0
    for stop in range(1, n + 1):
        if stop < n and evals[stop] - evals[stop - 1] <= gap:
            continue
        block = vecs[:, start:stop]
        overlap = block.T @ p @ block
        parities[start:stop] = np.linalg.eigvalsh(overlap)
        start = stop
    return parities


def _parity_pattern_ok(cache: EvolutionCache, e_value: float) -> bool:
    """One parity -1 on the mode at eigenvalue ``e_value``, +1 elsewhere."""
    parities = exchange_parities(cache.eigenvalues, cache.eigenvectors, 2, 3)
    if float(np.max(np.abs(np.abs(parities) - 1.0))) > 1e-6:
        return False
    signs = np.sign(parities)
    if int(np.sum(signs < 0)) != 1:
        return False
    antisymmetric = int(np.argmin(parities))
    closest_to_e = int(np.argmin(np.abs(cache.eigenvalues - e_value)))
    return antisymmetric == closest_to_e


def verify_design(sol: DesignSolution, tol: float = DEFAULT_VERIFY_TOL) -> VerificationReport:
    """Re-derive everything a design promises from exact dynamics.

    Checks, all at ``tol``: the realized four-level spectrum; transfer
    fidelity at the transfer time on the four-level matrix *and* on the full
    star; the transfer amplitude being real, positive and unit; the exchange
    parity pattern (one antisymmetric mode at eigenvalue ``e``); and agreement
    between reduced and full amplitudes.  Failures are reported, not raised.
    """
    tol = float(tol)
    params = sol.params
    cache4 = EvolutionCache.from_hamiltonian(reduced_matrix(params))
    target = np.sort(np.asarray(sol.target_spectrum, dtype=float))
    spectrum_deviation = float(np.max(np.abs(cache4.eigenvalues - target)))

    tau = sol.transfer_time
    amp_reduced = cache4.amplitude(tau, 2, 3)
    h_full = build_arrowhead(sol.realized).to_dense()
    amp_full = transition_amplitude(h_full, tau, 1, 2)

    fidelity_at_tau = float(min(abs(amp_reduced) ** 2, abs(amp_full) ** 2))
    phase_deviation = float(abs(amp_reduced - 1.0))
    reduction_deviation = float(abs(amp_reduced - amp_full))
    parity_check = _parity_pattern_ok(cache4, params.e)

    passed = (
        spectrum_deviation <= tol
        and fidelity_at_tau >= 1.0 - tol
        and phase_deviation <= tol
        and reduction_deviation <= tol
        and parity_check
    )
    return VerificationReport(
        spectrum_deviation=spectrum_deviation,
        fidelity_at_tau=fidelity_at_tau,
        phase_deviation=phase_deviation,
        reduction_deviation=reduction_deviation,
        parity_check=parity_check,
        passed=passed,
        tolerance=tol,
    )
