"""Dense references for the tests: time evolution and exchange symmetry.

No command needs them.  Commands evolve a star through
``dynamics.EvolutionCache`` or ``dynamics.StarEvolution``, and
``dynamics.verify_design`` reads each parity as ``v.Pv`` off the four-level
eigenvectors (``dynamics._parity_pattern_ok``).  The tests check those, and
the designs, against these dense and cluster-wise definitions.
"""

import numpy as np

from spinstar.model import check_int, check_pair


def transition_amplitude(h, t: float, src: int, dst: int) -> complex:
    """``<dst| exp(-i h t) |src>`` of a real symmetric ``h``, dense, from one
    ``numpy.linalg.eigh``."""
    evals, vecs = np.linalg.eigh(np.asarray(h, dtype=float))
    return complex(np.sum(vecs[dst] * vecs[src] * np.exp(-1j * evals * t)))


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
