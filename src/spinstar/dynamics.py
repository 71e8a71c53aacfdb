"""Exact unitary time evolution of real symmetric Hamiltonians.

Evolution goes through the spectral decomposition rather than a matrix
exponential: the eigenbasis of a real symmetric matrix is orthogonal, so the
propagator is unitary up to rounding and the one eigendecomposition is reused
across an entire time grid.

A whole star never needs its dense ``(N+1)**2`` matrix: :class:`StarEvolution`
groups the edges by potential itself (the star's background plus its sparse
exceptions) and diagonalizes only the ``(k+1)``-level bright arrowhead, built
as the dense array it is solved as: ``O(k**3)`` for ``k`` distinct edge
potentials (``k = 2`` for every design file) and refused above
``DENSE_MAX_EDGES`` groups.  The dark modes contribute in closed form.

The eigensolves are LAPACK's (``np.linalg.eigh``); everything derived from
an eigensystem one value at a time runs on Python floats off its
``.tolist()``: a single amplitude (:meth:`EvolutionCache.amplitude`), the
phase bound, and :func:`verify_design`'s spectrum deviation and parity rule,
as numpy calls on a few elements cost more than their arithmetic.  Each
reproduces the numpy expression it replaces bit for bit, NaN included
(:func:`_max`, :func:`_argmin`); an amplitude sums its terms in numpy's
pairwise order (:func:`_pairwise_sum`), so a printed digit does not depend
on which computed it.  Amplitudes over a time grid
(:meth:`EvolutionCache.amplitudes`) stay numpy.
"""

from __future__ import annotations

import cmath
import math
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from operator import add
from types import MappingProxyType

import numpy as np

from .errors import EnvelopeError, ResourceLimitError
from .model import (
    DENSE_MAX_EDGES,
    DesignSolution,
    FidelityTrace,
    StarSpec,
    check_int,
    check_times,
    reduced_matrix,
)

# Pre-condition on inputs: max-norm asymmetry allowed before refusing.
SYMMETRY_TOL = 1e-12

DEFAULT_VERIFY_TOL = 1e-9

# The longest time grid :func:`transfer_time_grid` builds.  A trace's phase
# factors are evaluated in blocks of at most 1 MiB at any length
# (:meth:`EvolutionCache.amplitudes`); its grid, amplitudes and values grow
# with it, and its CSV is written in blocks of rows.
STEPS_MAX = 10**6


def _check_phases(t_abs: float, e_abs: float) -> None:
    """Refuse times up to ``t_abs`` when a phase ``t * E`` with ``|E| <= e_abs``
    would overflow the float range, before any phase is formed."""
    if not math.isfinite(t_abs * e_abs):
        raise ValueError(f"times up to {t_abs!r} give phases t*E beyond the float range")


def _max(values: list[float]) -> float:
    """``np.max(values)``: NaN if a value is NaN, else the largest.  Plain
    ``max`` keeps a NaN only when it comes first."""
    return math.nan if any(map(math.isnan, values)) else max(values)


def _argmin(values: list[float]) -> int:
    """``np.argmin(values)``: the first NaN if there is one, else the first smallest."""
    nan = list(map(math.isnan, values))
    return nan.index(True) if True in nan else values.index(min(values))


def _pairwise_sum(terms: list[complex]) -> complex:
    """``complex(np.sum(np.array(terms)))`` bit for bit, by numpy's pairwise
    summation of a contiguous complex array: fewer than 4 terms in order; up
    to 64 in four lanes of every fourth term, joined as
    ``(l0 + l1) + (l2 + l3)``, then the remaining ``n % 4`` in order; more
    than 64 as the sums of the first ``n // 8 * 4`` and of the rest.  A
    different order moves the last bit, and with it the ``.6e`` deviations
    that ``verify`` prints.  numpy adds its identity ``+0.0`` to the whole
    sum last, which turns a sum of ``-0.0`` into ``+0.0``; adding ``0j``
    where a short run starts and where the four lanes join does the same,
    and no nonzero sum depends on the sign of a zero."""
    # reduce(add), not sum(): newer Pythons' sum() compensates its rounding.
    n = len(terms)
    if n > 64:
        return _pairwise_sum(terms[:n // 8 * 4]) + _pairwise_sum(terms[n // 8 * 4:])
    if n < 4:
        return reduce(add, terms, 0j)
    l0, l1, l2, l3 = terms[:4]
    for i in range(4, n - n % 4, 4):
        l0, l1, l2, l3 = l0 + terms[i], l1 + terms[i + 1], l2 + terms[i + 2], l3 + terms[i + 3]
    return reduce(add, terms[n - n % 4:], 0j + ((l0 + l1) + (l2 + l3)))


@dataclass(frozen=True)
class EvolutionCache:
    """Eigendecomposition of a real symmetric Hamiltonian, immutable and
    shareable; all propagation queries run off it."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @classmethod
    def from_hamiltonian(cls, h) -> "EvolutionCache":
        """The eigensystem of a caller's matrix ``h``, refused unless it is
        square and symmetric within ``SYMMETRY_TOL``."""
        h = np.ascontiguousarray(h, dtype=float)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ValueError("Hamiltonian must be a square matrix")
        asym = float(np.max(np.abs(h - h.T)))
        if asym > SYMMETRY_TOL:
            raise ValueError(f"Hamiltonian must be symmetric; asymmetry is {asym!r}")
        return cls.from_symmetric(h)

    @classmethod
    def from_symmetric(cls, h: np.ndarray) -> "EvolutionCache":
        """The eigensystem of a float array that is symmetric by
        construction, its two triangles assigned from one array, as the
        package builds its own matrices: ``np.linalg.eigh`` at once, with no
        symmetry check, which would take two more arrays of its size."""
        evals, vecs = np.linalg.eigh(h)
        evals.setflags(write=False)
        vecs.setflags(write=False)
        return cls(eigenvalues=evals, eigenvectors=vecs)

    @property
    def dimension(self) -> int:
        return int(self.eigenvalues.size)

    @property
    def _e_abs(self) -> float:
        """The largest eigenvalue magnitude, which bounds every phase: NaN if
        an eigenvalue is, so that :func:`_check_phases` refuses it."""
        return _max([abs(lam) for lam in self.eigenvalues.tolist()])

    def amplitude(self, t: float, src: int, dst: int) -> complex:
        """``<dst| exp(-i H t) |src>``; refused like :meth:`amplitudes`.

        On Python floats off the rows ``dst`` and ``src``: the sum over
        modes ``k`` of ``(v[dst][k] * v[src][k]) * cmath.exp(-1j * E_k * t)``
        in numpy's pairwise order (:func:`_pairwise_sum`), which equals
        ``np.sum(v[dst] * v[src] * np.exp(-1j * E * t))`` bit for bit.
        """
        src, dst = _check_states(self.dimension, src, dst)
        t = float(t)
        _check_phases(abs(t), self._e_abs)
        rows = self.eigenvectors[dst].tolist(), self.eigenvectors[src].tolist()
        return _pairwise_sum([(a * b) * cmath.exp(-1j * lam * t)
                              for a, b, lam in zip(*rows, self.eigenvalues.tolist())])

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

    ``bright`` is the eigensystem of the arrowhead on (hub, bright mode of
    group 0, ..., group k-1): group ``i`` has ``sizes[i]`` edges at
    potential ``levels[i]``, ascending, and its bright mode couples to the
    hub with ``sqrt(sizes[i]) * coupling``.  Like the star, the edge-to-group
    map is sparse: an edge is in ``background_group`` unless it is a key of
    ``exception_groups``, a read-only ``{node: group}`` mapping.
    """

    bright: EvolutionCache
    levels: tuple[float, ...]
    sizes: tuple[int, ...]
    dimension: int
    background_group: int
    exception_groups: MappingProxyType[int, int]

    @classmethod
    def from_spec(cls, spec: StarSpec) -> "StarEvolution":
        """Group the edges of ``spec`` by exact potential value (``0.0`` and
        ``-0.0`` are one value), in ``O(e log e)`` for ``e`` exceptions: the
        background nodes are one count, however many they are.  A group of
        ``0.0`` and ``-0.0`` sits at whichever the star lists first: its
        exceptions in node order, then the background.  Then solve the
        bright arrowhead, ``O(k**3)``.

        Raises :class:`ResourceLimitError` above ``DENSE_MAX_EDGES`` distinct
        edge potentials, before anything of size ``(k+1)**2`` exists.
        """
        # Keys compare with ==, so 0.0 and -0.0 fall into one group.
        counts = Counter(value for _, value in spec.exceptions)
        rest = spec.edge_count - len(spec.exceptions)
        if rest:
            counts[spec.background] += rest
        k = len(counts)
        if k > DENSE_MAX_EDGES:
            raise ResourceLimitError(
                f"grouped star dynamics is limited to {DENSE_MAX_EDGES} distinct edge "
                f"potentials (a dense (k+1)^2 eigensolve); got k={k}"
            )
        levels = sorted(counts)
        sizes = tuple(map(counts.__getitem__, levels))
        index = dict(zip(levels, range(k)))
        h = np.diag([spec.hub, *levels])
        h[0, 1:] = h[1:, 0] = [spec.coupling * math.sqrt(g) for g in sizes]
        return cls(bright=EvolutionCache.from_symmetric(h), levels=tuple(levels), sizes=sizes,
                   dimension=spec.edge_count + 1,
                   background_group=index[spec.background] if rest else -1,
                   exception_groups=MappingProxyType(
                       {node: index[value] for node, value in spec.exceptions}))

    def _terms(self, src, dst) -> tuple[int, int, float, float, float]:
        """Bright modes of ``src`` and ``dst``, the inverse product of their
        overlaps, and the weight and potential of the dark modes they share
        (zero unless they lie in one group).  The bright mode of a state is
        0 for the hub and ``1 + group`` for an edge; its overlap is
        ``1/sqrt(g)`` with ``g`` the group's size (1 for the hub)."""
        src, dst = _check_states(self.dimension, src, dst)
        groups, background = self.exception_groups, self.background_group
        p, q = (groups.get(state, background) + 1 if state else 0 for state in (src, dst))
        g_src, g_dst = (self.sizes[mode - 1] if mode else 1 for mode in (p, q))
        dark, lam = 0.0, 0.0
        if p == q and p > 0:
            dark, lam = float(src == dst) - 1.0 / g_src, self.levels[p - 1]
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


# No command calls this; it stays public because bench/ops.py times it.
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


def _parity_pattern_ok(cache: EvolutionCache, e_value: float) -> bool:
    """Every parity within 1e-6 of +-1, one negative, on the mode closest to ``e_value``.
    Eigenvector v has parity v.Pv = 1 - (v[2] - v[3])**2 under the 2<->3 swap: exact,
    as the matrix commutes with the swap and a design's eigenvalue gaps are >= |e|.
    On Python floats off the eigenvalues and rows 2 and 3, with numpy's
    outcome for every input, NaN included: a NaN parity fails the rule, and
    a NaN eigenvalue is the closest to any ``e_value``, as ``np.argmin`` has it."""
    row2, row3 = cache.eigenvectors[2].tolist(), cache.eigenvectors[3].tolist()
    parities = [1.0 - (a - b) * (a - b) for a, b in zip(row2, row3)]
    closest_to_e = _argmin([abs(lam - e_value) for lam in cache.eigenvalues.tolist()])
    return (all(abs(abs(p) - 1.0) <= 1e-6 for p in parities)
            and sum(p < 0 for p in parities) == 1 and _argmin(parities) == closest_to_e)


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

    The two eigensolves are LAPACK's.  All that follows them runs on Python
    floats: the spectrum deviation, both amplitudes
    (:meth:`EvolutionCache.amplitude`, summed in numpy's pairwise order so
    that the printed ``.6e`` deviations keep their last digits) and the
    parity rule (:func:`_parity_pattern_ok`).  Each gives the bits of the
    numpy expression it replaces, NaN included: a NaN eigenvalue makes the
    deviation NaN, and the phase bound then refuses the transfer time.
    """
    tol = float(tol)
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and non-negative, got {tol!r}")
    params = sol.params
    cache4 = EvolutionCache.from_symmetric(reduced_matrix(params))
    evals = cache4.eigenvalues.tolist()
    spectrum_deviation = _max([abs(lam - want) for lam, want in
                               zip(evals, sorted(sol.target_spectrum))])

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
        eigenvalues=tuple(evals),
    )
