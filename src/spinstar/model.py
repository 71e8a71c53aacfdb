"""Star-network Hamiltonians and the symmetry machinery built on them.

A star is one hub spin coupled with uniform strength to ``N`` edge spins,
each node carrying its own local potential.  The same network shows up here
at three levels of resolution:

* the full spin space of ``2**(N+1)`` states (brute-force oracle only),
* the single-excitation subspace, where the Hamiltonian is an arrowhead
  matrix in the basis ``(hub, edge 1, ..., edge N)``; grouping the edges by
  potential shrinks it to a ``(k+1)``-level arrowhead for ``k`` distinct
  edge potentials, plus dark modes that never reach the hub,
* the four-level reduction ``(hub, symmetric bystander combination, source,
  target)`` that applies when source and target share a potential and all
  bystanders share another.

Per-site convention: ``|0>`` is the state annihilated by the local number
operator, so the fully unexcited network has exactly zero energy and never
acquires a phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError, SymmetryError

# Absolute tolerance used by every potential-equality precondition; inputs
# are user-specified reals, not measured data.
POTENTIAL_MATCH_TOL = 1e-12

# The full spin space exists only as an oracle; 2**(N+1) <= 2048.
FULL_SPACE_MAX_EDGES = 10

# A dense arrowhead with n arms takes 8*(n+1)**2 bytes, about 134 MB at
# n = 4096, before its O(n**3) eigendecomposition.  Refuse anything larger:
# dense star matrices above this many edges, and grouped stars above this
# many distinct edge potentials.
DENSE_MAX_EDGES = 4096


def check_int(value, name: str, lo: int | None = None, hi: int | None = None) -> int:
    """``value`` as an ``int``, after checking that it is an integer (``int``
    or ``np.integer``, never ``bool``) within ``lo..hi`` where given.

    Raises ``ValueError`` naming ``name`` otherwise.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if (lo is not None and value < lo) or (hi is not None and value > hi):
        bound = f"be at least {lo}" if hi is None else f"lie in {lo}..{hi}"
        raise ValueError(f"{name} must {bound}, got {value}")
    return value


@dataclass(frozen=True)
class StarSpec:
    """Full description of an (N+1)-spin star.

    ``potentials[0]`` is the hub energy, ``potentials[j]`` the energy of edge
    node ``j``.  ``edge_count >= 3`` because routing needs a source, a target
    and at least one bystander.
    """

    edge_count: int
    coupling: float
    potentials: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "edge_count", check_int(self.edge_count, "edge_count", lo=3))
        object.__setattr__(self, "coupling", float(self.coupling))
        if not math.isfinite(self.coupling) or self.coupling <= 0:
            raise ValueError("coupling must be positive and finite")
        pots = tuple(map(float, self.potentials))
        object.__setattr__(self, "potentials", pots)
        if len(pots) != self.edge_count + 1:
            raise ValueError(
                f"potentials must have exactly edge_count + 1 = {self.edge_count + 1} "
                f"entries, got {len(pots)}"
            )
        if not all(map(math.isfinite, pots)):
            raise ValueError("potentials must all be finite")

    @property
    def bystander_count(self) -> int:
        return self.edge_count - 2


@dataclass(frozen=True)
class ArrowheadMatrix:
    """Real symmetric matrix whose nonzeros sit on the diagonal and the first
    row/column; what the star Hamiltonian looks like with one excitation."""

    dimension: int
    hub_value: float
    arm_couplings: tuple[float, ...]
    arm_values: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "dimension", int(self.dimension))
        object.__setattr__(self, "hub_value", float(self.hub_value))
        object.__setattr__(self, "arm_couplings", tuple(map(float, self.arm_couplings)))
        object.__setattr__(self, "arm_values", tuple(map(float, self.arm_values)))
        n = self.dimension - 1
        if n < 1:
            raise ValueError("dimension must be at least 2")
        if len(self.arm_couplings) != n or len(self.arm_values) != n:
            raise ValueError(f"arm_couplings and arm_values must each have {n} entries")
        values = (self.hub_value,) + self.arm_couplings + self.arm_values
        if not all(map(math.isfinite, values)):
            raise ValueError("all entries must be finite")

    def to_dense(self) -> np.ndarray:
        """Materialize the matrix; off-arrowhead entries are exactly zero.

        Raises :class:`ResourceLimitError` above ``DENSE_MAX_EDGES`` arms.
        """
        n = self.dimension - 1
        if n > DENSE_MAX_EDGES:
            raise ResourceLimitError(
                f"dense star matrices are limited to {DENSE_MAX_EDGES} edges "
                f"(~8*(N+1)^2 bytes); got N={n}"
            )
        h = np.zeros((self.dimension, self.dimension))
        h[0, 0] = self.hub_value
        idx = np.arange(1, self.dimension)
        h[idx, idx] = self.arm_values
        h[0, 1:] = self.arm_couplings
        h[1:, 0] = self.arm_couplings
        return h


@dataclass(frozen=True)
class ReducedParams:
    """The five matrix elements of the four-level effective Hamiltonian.

    ``a`` hub potential, ``b`` coupling between hub and the symmetric
    combination of the ``m`` bystanders, ``c`` coupling between hub and
    source/target, ``d`` bystander potential, ``e`` source/target potential.
    """

    a: float
    b: float
    c: float
    d: float
    e: float
    m: int

    def __post_init__(self):
        for name in ("a", "b", "c", "d", "e"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, value)
        object.__setattr__(self, "m", check_int(self.m, "m", lo=1))
        if self.c != 0.0:
            lhs, rhs = self.b * self.b, self.m * self.c * self.c
            if abs(lhs - rhs) > 1e-12 * max(abs(lhs), abs(rhs)):
                raise ValueError(
                    f"b**2 = {lhs!r} must equal m*c**2 = {rhs!r} (renormalized coupling)"
                )


@dataclass(frozen=True)
class DesignSolution:
    """A solved transfer design plus the star network that realizes it."""

    params: ReducedParams
    eta: int
    transfer_time: float
    target_spectrum: tuple[float, float, float, float]
    root_residual: float
    realized: StarSpec

    def __post_init__(self):
        object.__setattr__(self, "eta", check_int(self.eta, "eta"))
        if self.eta < 2 or self.eta % 2 != 0:
            raise ValueError("eta must be a positive even integer")
        e = self.params.e
        if e == 0.0:
            raise ValueError("params.e must be nonzero (transfer time is pi/e)")
        object.__setattr__(self, "transfer_time", float(self.transfer_time))
        if abs(self.transfer_time - math.pi / e) > 1e-12 * abs(math.pi / e):
            raise ValueError("transfer_time must equal pi / params.e")
        spectrum = tuple(float(x) for x in self.target_spectrum)
        object.__setattr__(self, "target_spectrum", spectrum)
        if len(spectrum) != 4:
            raise ValueError("target_spectrum must have four entries")
        expected = sorted((0.0, e, self.eta * e, -self.eta * e))
        scale = max(1.0, abs(self.eta * e))
        if any(abs(x - y) > 1e-9 * scale for x, y in zip(sorted(spectrum), expected)):
            raise ValueError("target_spectrum must be {0, e, +eta*e, -eta*e}")
        object.__setattr__(self, "root_residual", float(self.root_residual))
        check_route(self.realized, self.params, 1, 2)


def check_route(spec: StarSpec, params: ReducedParams, source, target) -> tuple[int, int]:
    """Check that ``spec`` realizes ``params`` wired for ``source -> target``.

    ``spec`` must have ``m + 2`` edges and coupling ``c``, and node by node
    its potentials must match ``a`` at the hub, ``e`` at source and target
    and ``d`` elsewhere, each within ``POTENTIAL_MATCH_TOL * max(1, |wanted|)``.
    Returns the validated ``(source, target)``; raises ``ValueError``
    otherwise.
    """
    n = spec.edge_count
    if n != params.m + 2:
        raise ValueError(f"edge_count must equal m + 2 = {params.m + 2}, got {n}")
    if abs(spec.coupling - params.c) > 1e-12 * max(1.0, abs(params.c)):
        raise ValueError(f"coupling must equal c = {params.c!r}, got {spec.coupling!r}")
    source = check_int(source, "source", 1, n)
    target = check_int(target, "target", 1, n)
    if source == target:
        raise ValueError("source and target must differ")
    # In place: at m = 1e6 each per-node array is 8 MB.
    dev = np.fromiter(spec.potentials, float, n + 1)
    want = np.full(n + 1, params.d)
    want[[0, source, target]] = params.a, params.e, params.e
    dev -= want
    np.abs(dev, out=dev)
    limit = np.abs(want)
    np.maximum(limit, 1.0, out=limit)
    limit *= POTENTIAL_MATCH_TOL
    bad = np.flatnonzero(dev > limit)
    if bad.size:
        j = int(bad[0])
        raise ValueError(
            f"potentials do not realize the route (source={source}, target={target}): "
            f"node {j} carries {spec.potentials[j]!r} where {float(want[j])!r} is required"
        )
    return source, target


@dataclass(frozen=True)
class FidelityTrace:
    """Transfer fidelity sampled on a strictly increasing time grid."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.array(self.times, dtype=float)
        values = np.array(self.values, dtype=float)
        if times.ndim != 1 or values.ndim != 1 or times.size != values.size:
            raise ValueError("times and values must be 1-d sequences of equal length")
        if times.size == 0:
            raise ValueError("trace must contain at least one sample")
        if times.size > 1 and not np.all(np.diff(times) > 0):
            raise ValueError("times must be strictly increasing")
        if np.any(values < 0.0) or np.any(values > 1.0 + 1e-12):
            raise ValueError("fidelities must lie in [0, 1] up to rounding")
        times.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return int(self.times.size)


# ---------------------------------------------------------------------------
# Single-excitation subspace
# ---------------------------------------------------------------------------

def build_arrowhead(spec: StarSpec) -> ArrowheadMatrix:
    """Hamiltonian of ``spec`` restricted to single-excitation states, in the
    basis (hub, edge 1, ..., edge N)."""
    n = spec.edge_count
    return ArrowheadMatrix(
        dimension=n + 1,
        hub_value=spec.potentials[0],
        arm_couplings=(spec.coupling,) * n,
        arm_values=spec.potentials[1:],
    )


@dataclass(frozen=True)
class GroupedStar:
    """A star's single-excitation Hamiltonian with its edges grouped by equal
    potential.

    The ``g`` edges of a group at potential ``lam`` span one bright mode, the
    normalized sum of their states, which couples to the hub with
    ``sqrt(g) * coupling``, and ``g - 1`` dark modes orthogonal to it: exact
    eigenvectors at ``lam`` that never reach the hub.  ``bright`` is the
    arrowhead on (hub, bright mode of group 0, ..., group k-1), with the
    group potentials ascending; edge ``j`` lies in group ``group_of[j - 1]``
    of size ``sizes[group_of[j - 1]]``.
    """

    bright: ArrowheadMatrix
    group_of: np.ndarray
    sizes: np.ndarray


def build_grouped(spec: StarSpec) -> GroupedStar:
    """Group the edges of ``spec`` by exact potential value (``0.0`` and
    ``-0.0`` are one value), in ``O(N log N)`` in C.

    Raises :class:`ResourceLimitError` above ``DENSE_MAX_EDGES`` distinct
    edge potentials, before anything of size ``(k+1)**2`` exists.
    """
    edges = np.fromiter(spec.potentials, float, spec.edge_count + 1)[1:]
    # Not np.unique: its plain form imports numpy.ma on first use (~15 ms per
    # process) and its inverse and counts cost three to six times as much.
    ordered = np.sort(edges)
    values = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    k = values.size
    if k > DENSE_MAX_EDGES:
        raise ResourceLimitError(
            f"grouped star dynamics is limited to {DENSE_MAX_EDGES} distinct edge "
            f"potentials (a dense (k+1)^2 eigensolve); got k={k}"
        )
    group_of = np.searchsorted(values, edges)
    sizes = np.bincount(group_of, minlength=k)
    bright = ArrowheadMatrix(
        dimension=k + 1,
        hub_value=spec.potentials[0],
        arm_couplings=(spec.coupling * np.sqrt(sizes)).tolist(),
        arm_values=values.tolist(),
    )
    return GroupedStar(bright=bright, group_of=group_of, sizes=sizes)


def build_reduced(spec: StarSpec, source: int, target: int) -> ReducedParams:
    """Collapse the star onto the four-level basis for a source/target pair.

    Requires the source and target potentials to match and all remaining edge
    (bystander) potentials to match, both within ``POTENTIAL_MATCH_TOL``; the
    bystanders then act as a single renormalized node coupled with strength
    ``sqrt(m) * coupling``.
    """
    n = spec.edge_count
    source = check_int(source, "source", 1, n)
    target = check_int(target, "target", 1, n)
    if source == target:
        raise ValueError("source and target must be different nodes")
    lam = spec.potentials
    if abs(lam[source] - lam[target]) > POTENTIAL_MATCH_TOL:
        raise SymmetryError(
            f"potentials of source ({lam[source]!r}) and target ({lam[target]!r}) "
            "must match for the reduction to apply"
        )
    bystanders = np.delete(np.fromiter(lam, float, n + 1), [0, source, target])
    spread = float(bystanders.max() - bystanders.min())
    if spread > POTENTIAL_MATCH_TOL:
        raise SymmetryError(f"bystander potentials must all match; spread is {spread!r}")
    m = n - 2
    return ReducedParams(
        a=lam[0],
        b=math.sqrt(m) * spec.coupling,
        c=spec.coupling,
        d=float(bystanders[0]),
        e=lam[source],
        m=m,
    )


def reduced_matrix(params: ReducedParams) -> np.ndarray:
    """The 4x4 effective Hamiltonian in the basis (hub, bystander-symmetric,
    source, target)."""
    a, b, c, d, e = params.a, params.b, params.c, params.d, params.e
    return np.array(
        [
            [a, b, c, c],
            [b, d, 0.0, 0.0],
            [c, 0.0, e, 0.0],
            [c, 0.0, 0.0, e],
        ]
    )


# ---------------------------------------------------------------------------
# Full spin space (oracle scale)
# ---------------------------------------------------------------------------

def build_full_spin_hamiltonian(spec: StarSpec) -> np.ndarray:
    """Brute-force star Hamiltonian on all ``2**(N+1)`` spin states.

    Hopping between the hub (site 0) and each edge comes from the symmetric
    xx + yy coupling, so the total excitation number is conserved and the
    all-unexcited state is an exact null vector.
    """
    n = spec.edge_count
    if n > FULL_SPACE_MAX_EDGES:
        raise ResourceLimitError(
            f"full spin space is limited to {FULL_SPACE_MAX_EDGES} edges "
            f"(dimension 2**{FULL_SPACE_MAX_EDGES + 1}); got edge_count={n}"
        )
    sites = n + 1
    states = np.arange(2**sites)
    # Site j is bit n - j of a basis index, so the hub is the most significant.
    bits = (states[:, None] >> (n - np.arange(sites))) & 1
    h = np.zeros((states.size, states.size))
    h[states, states] = bits @ np.asarray(spec.potentials)
    for j in range(1, sites):
        # (xx + yy)/2 maps |01> <-> |10> on (hub, edge j) and kills |00>, |11>.
        flip = states[bits[:, 0] != bits[:, j]]
        h[flip, flip ^ ((1 << n) | (1 << (n - j)))] = spec.coupling
    return h


def single_excitation_indices(edge_count: int) -> np.ndarray:
    """Positions of the one-excitation basis states inside the full spin
    space, ordered (hub, edge 1, ..., edge N) to match ``build_arrowhead``."""
    n = int(edge_count)
    return np.array([1 << (n - j) for j in range(n + 1)], dtype=np.intp)


# ---------------------------------------------------------------------------
# Exchange symmetry
# ---------------------------------------------------------------------------

def exchange_permutation(dimension: int, i: int, j: int) -> np.ndarray:
    """Indices ``0..dimension-1`` with ``i`` and ``j`` swapped: ``x[perm]``
    is ``exchange_operator(dimension, i, j) @ x`` without the dense matrix."""
    dimension = int(dimension)
    i = check_int(i, "i", 0, dimension - 1)
    j = check_int(j, "j", 0, dimension - 1)
    if i == j:
        raise ValueError("i and j must differ")
    perm = np.arange(dimension)
    perm[[i, j]] = j, i
    return perm


def exchange_operator(dimension: int, i: int, j: int) -> np.ndarray:
    """Permutation matrix swapping basis vectors ``i`` and ``j``.

    Implemented as a genuine transposition, so it is self-inverse: P @ P = I.
    """
    return np.eye(int(dimension))[exchange_permutation(dimension, i, j)]


def is_exchange_symmetric(h: np.ndarray, i: int, j: int, tol: float = POTENTIAL_MATCH_TOL) -> bool:
    """True iff conjugating ``h`` by the (i, j) swap changes no entry by more
    than ``tol`` in max-norm."""
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("h must be a square matrix")
    swapped = h.copy()
    swapped[[i, j], :] = swapped[[j, i], :]
    swapped[:, [i, j]] = swapped[:, [j, i]]
    return bool(np.max(np.abs(swapped - h)) <= tol)
