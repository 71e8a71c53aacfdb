"""Dense and numpy references for the tests: time evolution, exchange
symmetry and verification.

No command needs them.  Commands evolve a star through
``dynamics.EvolutionCache`` or ``dynamics.StarEvolution``, and
``dynamics.verify_design`` reads each parity as ``v.Pv`` off the four-level
eigenvectors (``dynamics._parity_pattern_ok``), on Python floats after its
eigensolves.  The tests check those, and the designs, against these dense
and cluster-wise definitions, and against the numpy expressions that the
Python floats must reproduce bit for bit: :func:`eigen_amplitude`,
:func:`spectrum_deviation`, :func:`parity_pattern_ok` and
:func:`verification_report`.
"""

import cmath

import numpy as np

from spinstar.dynamics import EvolutionCache, StarEvolution, VerificationReport
from spinstar.model import check_int, check_pair, reduced_matrix


def eigen_amplitude(evals, vecs, t: float, src: int, dst: int) -> complex:
    """``<dst| exp(-i h t) |src>`` off the eigensystem of ``h``, in numpy."""
    return complex(np.sum(vecs[dst] * vecs[src] * np.exp(-1j * evals * t)))


def transition_amplitude(h, t: float, src: int, dst: int) -> complex:
    """``<dst| exp(-i h t) |src>`` of a real symmetric ``h``, dense, from one
    ``numpy.linalg.eigh``."""
    return eigen_amplitude(*np.linalg.eigh(np.asarray(h, dtype=float)), t, src, dst)


def spectrum_deviation(evals, target) -> float:
    """The largest distance of the ascending ``evals`` from the sorted ``target``."""
    return float(np.max(np.abs(evals - np.sort(np.asarray(target, dtype=float)))))


def parity_pattern_ok(evals, vecs, e_value: float) -> bool:
    """The parity rule of ``dynamics._parity_pattern_ok``, in numpy."""
    parities = 1.0 - (vecs[2] - vecs[3]) ** 2
    closest_to_e = int(np.argmin(np.abs(evals - e_value)))
    return bool(np.max(np.abs(np.abs(parities) - 1.0)) <= 1e-6 and np.sum(parities < 0) == 1
                and np.argmin(parities) == closest_to_e)


def verification_report(sol, tol: float, spec, source: int, target: int) -> VerificationReport:
    """``dynamics.verify_design(sol, tol, spec, source, target)`` with every
    step after its two eigensolves in numpy; times whose phases overflow
    are not refused."""
    cache4 = EvolutionCache.from_symmetric(reduced_matrix(sol.params))
    evals, vecs = cache4.eigenvalues, cache4.eigenvectors
    tau = sol.transfer_time
    amp_reduced = eigen_amplitude(evals, vecs, tau, 2, 3)
    star = StarEvolution.from_spec(spec)
    p, q, norm, dark, lam = star._terms(source, target)
    bright = star.bright
    amp_full = (eigen_amplitude(bright.eigenvalues, bright.eigenvectors, tau, p, q) / norm
                + dark * cmath.exp(-1j * lam * tau))
    deviations = (spectrum_deviation(evals, sol.target_spectrum),
                  float(min(abs(amp_reduced) ** 2, abs(amp_full) ** 2)),
                  float(abs(amp_reduced - 1.0)), float(abs(amp_reduced - amp_full)))
    parity = parity_pattern_ok(evals, vecs, sol.params.e)
    passed = (deviations[0] <= tol and deviations[1] >= 1.0 - tol and deviations[2] <= tol
              and deviations[3] <= tol and parity)
    return VerificationReport(*deviations, parity_check=parity, passed=passed, tolerance=tol,
                              eigenvalues=tuple(evals.tolist()))


# Relative eigenvalue gap that :func:`exchange_parities` treats as one cluster.
DEGENERACY_TOL = 1e-8


def exchange_permutation(dimension: int, i: int, j: int) -> np.ndarray:
    """Indices ``0..dimension-1`` with ``i`` and ``j`` swapped: ``x[perm]``
    is ``exchange_operator(dimension, i, j) @ x`` without the dense matrix."""
    dimension = check_int(dimension, "dimension")
    i, j = check_pair(i, j, ("i", "j"), 0, dimension - 1)
    perm = np.arange(dimension)
    perm[[i, j]] = j, i
    return perm


def exchange_operator(dimension: int, i: int, j: int) -> np.ndarray:
    """Permutation matrix swapping basis vectors ``i`` and ``j``.

    Implemented as a genuine transposition, so it is self-inverse: P @ P = I.
    """
    perm = exchange_permutation(dimension, i, j)
    return np.eye(perm.size)[perm]


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
