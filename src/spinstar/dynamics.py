"""Exact unitary time evolution of real symmetric Hamiltonians.

Evolution goes through the spectral decomposition rather than a matrix
exponential: the eigenbasis of a real symmetric matrix is orthogonal, so the
propagator is unitary up to rounding and the one eigendecomposition is reused
across an entire time grid.

A whole star never needs its dense ``(N+1)**2`` matrix: :class:`StarEvolution`
groups the edges by potential (the star's background plus its sparse
exceptions) and diagonalizes only the ``(k+1)``-level bright arrowhead,
``O(k**3)`` for ``k`` distinct edge potentials (``k = 2`` for every design
file) and refused above ``DENSE_MAX_EDGES`` groups.  The dark modes
contribute in closed form.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import EnvelopeError
from .model import (
    DesignSolution,
    FidelityTrace,
    GroupedStar,
    StarSpec,
    build_grouped,
    build_reduced,
    check_int,
    check_times,
    exchange_permutation,
    reduced_matrix,
)

# Pre-condition on inputs: max-norm asymmetry allowed before refusing.
SYMMETRY_TOL = 1e-12

DEFAULT_VERIFY_TOL = 1e-9

# Relative eigenvalue gap that :func:`exchange_parities` (not verify) treats as one cluster.
DEGENERACY_TOL = 1e-8

# The longest time grid :func:`transfer_time_grid` builds.  A trace's phase
# factors are evaluated in blocks of at most 1 MiB at any length
# (:meth:`EvolutionCache.amplitudes`); its grid, amplitudes and values grow
# with it, and its CSV is written in blocks of rows.
STEPS_MAX = 10**6


def _require_symmetric(h) -> np.ndarray:
    h = np.ascontiguousarray(h, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("Hamiltonian must be a square matrix")
    asym = float(np.max(np.abs(h - h.T)))
    if asym > SYMMETRY_TOL:
        raise ValueError(f"Hamiltonian must be symmetric; asymmetry is {asym!r}")
    return h


def _check_phases(t_abs: float, e_abs: float) -> None:
    """Refuse times up to ``t_abs`` when a phase ``t * E`` with ``|E| <= e_abs``
    would overflow the float range, before any phase is formed."""
    if not math.isfinite(t_abs * e_abs):
        raise ValueError(f"times up to {t_abs!r} give phases t*E beyond the float range")


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

    @property
    def _e_abs(self) -> float:
        """The largest eigenvalue magnitude, which bounds every phase."""
        return float(np.abs(self.eigenvalues).max(initial=0.0))

    def propagator(self, t: float) -> np.ndarray:
        """The unitary ``V diag(exp(-i E t)) V^T``.  Raises ``ValueError``
        when a phase ``t * E`` would overflow the float range."""
        t = float(t)
        _check_phases(abs(t), self._e_abs)
        phases = np.exp(-1j * self.eigenvalues * t)
        return (self.eigenvectors * phases) @ self.eigenvectors.T

    def amplitude(self, t: float, src: int, dst: int) -> complex:
        """``<dst| exp(-i H t) |src>``; refused like :meth:`propagator`."""
        src, dst = _check_states(self.dimension, src, dst)
        t = float(t)
        _check_phases(abs(t), self._e_abs)
        weights = self.eigenvectors[dst] * self.eigenvectors[src]
        return complex(np.sum(weights * np.exp(-1j * self.eigenvalues * t)))

    def amplitudes(self, t_grid, src: int, dst: int) -> np.ndarray:
        """Transition amplitudes over a whole grid.

        The ``steps x dimension`` phase factors are evaluated in near-equal
        blocks of at most 1 MiB, so the temporaries stay a few MiB beyond
        the result, however long the grid.  numpy multiplies a one-row block
        as a dot product, whose rounding differs from the matrix product's;
        near-equal blocks hold more than half of a full block's rows, so
        each amplitude has the bits of the whole grid's product.

        Raises ``ValueError``, before any evaluation, when a phase
        ``t * E`` would overflow the float range.
        """
        src, dst = _check_states(self.dimension, src, dst)
        grid = np.asarray(t_grid, dtype=float).ravel()
        _check_phases(float(np.abs(grid).max(initial=0.0)), self._e_abs)
        weights = self.eigenvectors[dst] * self.eigenvectors[src]
        rows = max(1, (1 << 20) // (16 * self.dimension))
        blocks = max(1, -(-grid.size // rows))
        out = np.empty(grid.size, complex)
        for i in range(blocks):
            lo, hi = i * grid.size // blocks, (i + 1) * grid.size // blocks
            phases = np.exp(-1j * np.multiply.outer(grid[lo:hi], self.eigenvalues))
            np.matmul(phases, weights, out=out[lo:hi])
        return out


def _check_states(dimension: int, src, dst) -> tuple[int, int]:
    hi = dimension - 1
    return check_int(src, "src", 0, hi), check_int(dst, "dst", 0, hi)


@dataclass(frozen=True)
class StarEvolution:
    """Exact single-excitation dynamics of a whole star, in the basis
    (hub, edge 1, ..., edge N), without its dense matrix.

    A state ``s`` overlaps only one bright mode: the hub itself (overlap
    ``w_s = 1``) or the bright mode of its edge's group of size ``g``
    (``w_s = 1/sqrt(g)``).  So ``<t|U|s> = w_s w_t <bright_t|U|bright_s>``, plus
    ``(delta_st - 1/g) exp(-i lam t)`` when ``s`` and ``t`` share a group at
    potential ``lam``: that group's dark modes.  Queries mirror
    :class:`EvolutionCache`.
    """

    star: GroupedStar
    bright: EvolutionCache

    @classmethod
    def from_spec(cls, spec: StarSpec) -> "StarEvolution":
        star = build_grouped(spec)
        return cls(star=star, bright=EvolutionCache.from_hamiltonian(star.bright.to_dense()))

    @property
    def dimension(self) -> int:
        return self.star.edge_count + 1

    def _terms(self, src, dst) -> tuple[int, int, float, float, float]:
        """Bright modes of ``src`` and ``dst``, the inverse product of their
        overlaps, and the weight and potential of the dark modes they share
        (zero unless they lie in one group).  The bright mode of a state is
        0 for the hub and ``1 + group`` for an edge; its overlap is
        ``1/sqrt(g)`` with ``g`` the group's size (1 for the hub)."""
        src, dst = _check_states(self.dimension, src, dst)
        p, q = (self.star.group(state) + 1 if state else 0 for state in (src, dst))
        g_src, g_dst = (self.star.sizes[mode - 1] if mode else 1 for mode in (p, q))
        dark, lam = 0.0, 0.0
        if p == q and p > 0:
            dark, lam = float(src == dst) - 1.0 / g_src, self.star.bright.arm_values[p - 1]
        return p, q, math.sqrt(g_src * g_dst), dark, lam

    def amplitude(self, t: float, src: int, dst: int) -> complex:
        p, q, norm, dark, lam = self._terms(src, dst)
        t = float(t)
        _check_phases(abs(t), abs(lam))  # the dark modes' phase
        return self.bright.amplitude(t, p, q) / norm + dark * cmath.exp(-1j * lam * t)

    def amplitudes(self, t_grid, src: int, dst: int) -> np.ndarray:
        """Transition amplitudes over a whole grid in one shot; refused like
        :meth:`EvolutionCache.amplitudes`, the dark modes' phase included,
        before any evaluation."""
        p, q, norm, dark, lam = self._terms(src, dst)
        grid = np.asarray(t_grid, dtype=float).ravel()
        _check_phases(float(np.abs(grid).max(initial=0.0)), abs(lam))
        amps = self.bright.amplitudes(grid, p, q)
        amps /= norm
        amps += dark * np.exp(-1j * lam * grid)
        return amps


@dataclass(frozen=True)
class VerificationReport:
    """Quantitative outcome of re-checking a design by exact dynamics.

    ``fidelity_at_tau`` is the smaller of the four-level and full-star
    fidelities; ``phase_deviation`` is the distance of the four-level transfer
    amplitude from exactly +1; ``reduction_deviation`` the gap between the
    reduced and full amplitudes.  ``passed`` iff every deviation is within
    ``tolerance`` and the parity pattern is right.  ``eigenvalues`` are the
    four-level eigenvalues, ascending, that the spectrum was checked on.
    """

    spectrum_deviation: float
    fidelity_at_tau: float
    phase_deviation: float
    reduction_deviation: float
    parity_check: bool
    passed: bool
    tolerance: float
    eigenvalues: tuple[float, float, float, float]


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

    :func:`build_reduced` accepts the spec when the route rule holds: the
    target within ``POTENTIAL_MATCH_TOL * max(1, |e|)`` of the source and
    every bystander within ``POTENTIAL_MATCH_TOL * max(1, |d|)`` of the
    first.  Then this equals the amplitude obtained from the full
    (N+1)-dimensional arrowhead dynamics (to 1e-10 or better); the reduced
    subspace is exactly invariant.
    """
    h4 = reduced_matrix(build_reduced(spec, source, target))
    return EvolutionCache.from_hamiltonian(h4).amplitude(t, 2, 3)


def fidelity_trace(h, t_grid, src: int, dst: int) -> FidelityTrace:
    """Squared transition amplitude sampled over ``t_grid``; the
    eigendecomposition is done once and reused across the grid.  A grid
    that is empty, not finite or not strictly increasing is refused
    (:func:`check_times`, once) before any amplitude is evaluated;
    :class:`FidelityTrace` also refuses one that is not 1-d."""
    grid = np.asarray(t_grid, dtype=float)
    check_times(grid)
    amps = EvolutionCache.from_hamiltonian(h).amplitudes(grid, src, dst)
    return FidelityTrace.on_checked_grid(grid, np.abs(amps) ** 2)


def transfer_time_grid(tau: float, t_max: float | None = None, steps: int = 1000) -> np.ndarray:
    """Uniform grid of ``steps`` points covering about ``[0, t_max]``
    (default ``1.2 * tau``) with ``tau`` pinned onto a grid point.

    A blind uniform grid can miss the fidelity peak by half a spacing, which
    already costs ~1e-5 in sampled fidelity at typical peak curvatures;
    pinning ``tau`` keeps the sampled maximum at the true peak.  When ``tau``
    falls outside the window, or within its first half-spacing, the grid is
    a plain ``linspace``.  ``t_max`` must be positive and finite.  More than
    ``STEPS_MAX`` steps raise :class:`EnvelopeError` before anything is
    allocated.  The grid is finite and is checked to increase strictly once
    built, so it passes :func:`check_times` without a second pass: a window
    too narrow for its steps, whose times round to equal neighbours, raises
    ``ValueError`` naming ``t_max`` and ``steps``.
    """
    tau = float(tau)
    steps = check_int(steps, "steps", lo=2)
    if steps > STEPS_MAX:
        raise EnvelopeError(
            f"steps={steps} lies beyond the supported envelope steps <= STEPS_MAX = {STEPS_MAX}"
        )
    if t_max is None:
        if not tau > 0:
            raise ValueError("t_max is required when tau is not positive")
        t_max = 1.2 * tau
    t_max = float(t_max)
    if not 0 < t_max < math.inf:
        raise ValueError("t_max must be positive and finite")
    segments = round((steps - 1) * tau / t_max) if 0.0 < tau <= t_max else 0
    grid = np.arange(steps) * (tau / segments) if segments else np.linspace(0.0, t_max, steps)
    if not np.all(np.diff(grid) > 0):
        raise ValueError(f"t_max={t_max!r} is too small for steps={steps}: the grid's times repeat")
    return grid


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
    swapped = exchange_permutation(n, i, j)
    gap = degeneracy_tol * max(1.0, float(np.max(np.abs(evals))))
    parities = np.empty(n)
    start = 0
    for stop in range(1, n + 1):
        if stop < n and evals[stop] - evals[stop - 1] <= gap:
            continue
        block = vecs[:, start:stop]
        overlap = block[swapped].T @ block
        parities[start:stop] = np.linalg.eigvalsh(overlap)
        start = stop
    return parities


def _parity_pattern_ok(cache: EvolutionCache, e_value: float) -> bool:
    """Every parity within 1e-6 of +-1, one negative, on the mode closest to ``e_value``.
    Eigenvector v has parity v.Pv = 1 - (v[2] - v[3])**2 under the 2<->3 swap: exact,
    as the matrix commutes with the swap and a design's eigenvalue gaps are >= |e|."""
    parities = 1.0 - (cache.eigenvectors[2] - cache.eigenvectors[3]) ** 2
    closest_to_e = int(np.argmin(np.abs(cache.eigenvalues - e_value)))
    return bool(np.max(np.abs(np.abs(parities) - 1.0)) <= 1e-6 and np.sum(parities < 0) == 1
                and np.argmin(parities) == closest_to_e)


def verify_design(sol: DesignSolution, tol: float = DEFAULT_VERIFY_TOL,
                  spec: StarSpec | None = None, source: int = 1,
                  target: int = 2) -> VerificationReport:
    """Re-derive everything a design promises from exact dynamics.

    Checks, all at ``tol``: the realized four-level spectrum; transfer
    fidelity at the transfer time on the four-level matrix *and* on the full
    star; the transfer amplitude being real, positive and unit; the exchange
    parity pattern (one antisymmetric mode, at eigenvalue ``e``), read as v.Pv
    off the four-level eigenvectors; and agreement between reduced and full
    amplitudes.  Failures are reported, not raised.

    The full star is ``spec`` evolved from ``source`` to ``target``; by
    default the canonical ``sol.realized`` wired 1 -> 2.  The CLI passes a
    design file's own star and route.  It goes through
    :class:`StarEvolution`: a grouping of the star's background and
    exceptions, then an eigensolve of the hub plus one bright mode per
    distinct edge potential (at most 3x3 for a design), so no dense
    ``(N+1)**2`` matrix is built and the cost does not grow with ``N``
    (``tests/test_cli.py::test_every_command_is_constant_time_in_m`` counts
    the calls of ``verify`` at m = 10**4 and 10**6).
    A NaN, infinite or negative ``tol`` raises ``ValueError``.
    """
    tol = float(tol)
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and non-negative, got {tol!r}")
    params = sol.params
    cache4 = EvolutionCache.from_hamiltonian(reduced_matrix(params))
    wanted = np.sort(np.asarray(sol.target_spectrum, dtype=float))
    spectrum_deviation = float(np.max(np.abs(cache4.eigenvalues - wanted)))

    tau = sol.transfer_time
    amp_reduced = cache4.amplitude(tau, 2, 3)
    star = sol.realized if spec is None else spec
    amp_full = StarEvolution.from_spec(star).amplitude(tau, source, target)

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
        eigenvalues=tuple(cache4.eigenvalues.tolist()),
    )
