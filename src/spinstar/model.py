"""Star-network Hamiltonians.

A star is one hub spin coupled with uniform strength to ``N`` edge spins,
each node carrying its own local potential.  The same network shows up here
at three levels of resolution:

* the full spin space of ``2**(N+1)`` states (brute-force oracle only),
* the single-excitation subspace, where the Hamiltonian is an arrowhead
  matrix in the basis ``(hub, edge 1, ..., edge N)``; grouping the edges by
  potential, which :class:`spinstar.dynamics.StarEvolution` does, shrinks it
  to a ``(k+1)``-level arrowhead for ``k`` distinct edge potentials, plus
  dark modes that never reach the hub,
* the four-level reduction ``(hub, symmetric bystander combination, source,
  target)`` that applies when source and target share a potential and all
  bystanders share another.

Per-site convention: ``|0>`` is the state annihilated by the local number
operator, so the fully unexcited network has exactly zero energy and never
acquires a phase.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

import numpy as np

from .errors import ResourceLimitError, SymmetryError

# Tolerance of the route rule (:func:`check_route`), relative to
# ``max(1, |wanted|)``; inputs are user-specified reals, not measured data.
POTENTIAL_MATCH_TOL = 1e-12

# The full spin space exists only as an oracle; 2**(N+1) <= 2048.
FULL_SPACE_MAX_EDGES = 10

# A dense arrowhead with n arms takes 8*(n+1)**2 bytes, about 134 MB at
# n = 4096.  Its O(n**3) eigendecomposition, np.linalg.eigh, peaks at about
# 5.2 times that (its input, a working copy, a workspace of two matrices and
# the eigenvectors; measured at n = 1024 and 2048), about 700 MB at n = 4096.
# Refuse anything larger:
# ArrowheadMatrix.to_dense above this many edges, and StarEvolution above
# this many distinct edge potentials (its bright arrowhead).
DENSE_MAX_EDGES = 4096


def check_int(value, name: str, lo: int | None = None, hi: int | None = None) -> int:
    """``value`` as an ``int``, after checking that it is an integer (``int``
    or ``np.integer``, never ``bool``, a float or a string) within ``lo..hi``
    where given.

    The one integer rule: every count, size, node and index a caller passes
    in goes through here, or through :func:`check_pair` and
    :func:`check_eta`, which build on it.  Raises ``ValueError`` naming
    ``name`` otherwise.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if (lo is not None and value < lo) or (hi is not None and value > hi):
        bound = f"be at least {lo}" if hi is None else f"lie in {lo}..{hi}"
        raise ValueError(f"{name} must {bound}, got {value}")
    return value


def check_pair(a, b, names: tuple[str, str], lo: int, hi: int) -> tuple[int, int]:
    """``(a, b)`` as two different integers in ``lo..hi``, each checked by
    :func:`check_int` under its name in ``names``: the one rule for the two
    ends of a route or a swap.  Equal ones raise ``"<a> and <b> must differ"``."""
    a, b = check_int(a, names[0], lo, hi), check_int(b, names[1], lo, hi)
    if a == b:
        raise ValueError(f"{names[0]} and {names[1]} must differ")
    return a, b


def check_eta(value) -> int:
    """``value`` as an even integer ``eta >= 2`` (:func:`check_int`, then
    the parity test): the phase ``eta * pi`` cancels only for even eta.
    Raises ``ValueError`` naming ``eta`` otherwise."""
    eta = check_int(value, "eta", lo=2)
    if eta % 2:
        raise ValueError(f"eta must be even (phase cancellation needs it), got {eta}")
    return eta


def _sparse_get(pairs: tuple, node: int, default):
    """The value paired with ``node`` in sorted ``(node, value)`` pairs, or
    ``default``; ``O(log len(pairs))``."""
    i = bisect_left(pairs, (node,))
    return pairs[i][1] if i < len(pairs) and pairs[i][0] == node else default


def _bits_equal(x: float, y: float) -> bool:
    """``x`` and ``y`` are the same float, bit for bit (both finite)."""
    # == is bit equality except between 0.0 and -0.0.
    return x == y and (x != 0.0 or math.copysign(1.0, x) == math.copysign(1.0, y))


# Up to this many nodes a Python scan beats numpy's fixed per-call cost.
_SCAN_IN_PYTHON = 64


def split_potentials(potentials) -> tuple[float, float, tuple[tuple[int, float], ...]]:
    """``(hub, background, exceptions)`` of a non-empty per-node sequence of
    floats (entry 0 the hub): the exceptions are the sorted ``(node, value)``
    pairs of the edges that differ from the background bit for bit.

    One pass, no sort.  The background is voted from a few sampled edges,
    so a star with at most two edges off a common value, as every design
    is, yields at most two exceptions.  Up to 64 nodes the scan runs in
    Python (the first of edges 1, N and 2 that more than half the edges
    share); above, one compare and one scan of an array in C (the commonest
    bit pattern of edges 1, 2, 3, N-1 and N).  A star has at least three
    edges (:class:`StarSpec`).
    """
    count = len(potentials)
    if count <= _SCAN_IN_PYTHON:
        hub, *edges = potentials
        for background in (edges[0], edges[-1], edges[1]):
            if 2 * edges.count(background) > len(edges):
                break
        return hub, background, tuple([(j, value) for j, value in enumerate(edges, 1)
                                       if not _bits_equal(value, background)])
    n = count - 1
    values = np.fromiter(potentials, float, count)
    bits = values.view(np.int64)
    positions = [1, 2, 3, n - 1, n]
    samples = bits[positions].tolist()
    common = max(samples, key=samples.count)
    background = float(values[positions[samples.index(common)]])
    nodes = (bits != common).nonzero()[0].tolist()
    if nodes and nodes[0] == 0:
        del nodes[0]
    return float(values[0]), background, tuple(zip(nodes, values[nodes].tolist()))


@dataclass(frozen=True, init=False, eq=False)
class StarSpec:
    """Full description of an (N+1)-spin star, stored sparsely.

    The hub carries ``hub``; every edge node ``j`` carries ``background``
    except the nodes listed in ``exceptions``, sorted ``(node, value)`` pairs
    whose values differ from the background bit for bit.  A designed or
    retargeted star has at most two exceptions, so it costs ``O(1)`` memory
    and everything built from it runs in ``O(1)`` whatever ``N``
    (``tests/test_sparse_star.py::test_design_and_retarget_run_in_constant_memory``
    and ``tests/test_cli.py::test_every_command_is_constant_time_in_m``).
    ``edge_count >= 3`` because routing needs a source, a target and at least
    one bystander.

    ``StarSpec(edge_count, coupling, potentials)`` takes the per-node
    sequence, a list, tuple or array but not a generator (``potentials[0]``
    the hub, ``potentials[j]`` edge ``j``), and splits it in one pass
    (:func:`split_potentials`); :meth:`sparse` takes the parts directly.
    The per-node tuple :attr:`potentials` is built on first use and cached
    (at once for stars of fewer than 64 edges).
    """

    edge_count: int
    coupling: float
    hub: float
    background: float
    exceptions: tuple[tuple[int, float], ...]

    def __init__(self, edge_count, coupling, potentials):
        n, coupling = self._check_size(edge_count, coupling)
        if len(potentials) != n + 1:
            raise ValueError(
                f"potentials must have exactly edge_count + 1 = {n + 1} "
                f"entries, got {len(potentials)}"
            )
        if n < _SCAN_IN_PYTHON:
            # A small star keeps its per-node tuple; building it later costs more.
            potentials = self.__dict__["potentials"] = tuple(map(float, potentials))
        # float() semantics per entry: the tuple above, or np.fromiter.
        self._set_parts(n, coupling, *split_potentials(potentials))

    @classmethod
    def sparse(cls, edge_count, coupling, hub, background, exceptions=()) -> "StarSpec":
        """The star with ``hub`` at the hub, ``background`` on every edge and
        the ``(node, value)`` pairs of ``exceptions`` (nodes strictly
        increasing in ``1..edge_count``) on top; ``O(len(exceptions))``, as
        ``tests/test_sparse_star.py::test_sparse_paths_scale_with_exceptions_not_m``
        counts.  Exceptions equal to the background bit for bit are dropped."""
        n, coupling = cls._check_size(edge_count, coupling)
        background = float(background)
        kept, last = [], 0
        for node, value in exceptions:
            node, value = check_int(node, "exception node", last + 1, n), float(value)
            if not _bits_equal(value, background):
                kept.append((node, value))
            last = node
        star = cls.__new__(cls)
        star._set_parts(n, coupling, float(hub), background, tuple(kept))
        return star

    @staticmethod
    def _check_size(edge_count, coupling) -> tuple[int, float]:
        n = check_int(edge_count, "edge_count", lo=3)
        coupling = float(coupling)
        if not math.isfinite(coupling) or coupling <= 0:
            raise ValueError("coupling must be positive and finite")
        return n, coupling

    def _set_parts(self, edge_count, coupling, hub, background, exceptions) -> None:
        # Every node carries the hub, the background or an exception value.
        if not (math.isfinite(hub) and math.isfinite(background)
                and all(map(math.isfinite, map(itemgetter(1), exceptions)))):
            raise ValueError("potentials must all be finite")
        self.__dict__.update(edge_count=edge_count, coupling=coupling, hub=hub,
                             background=background, exceptions=exceptions)

    @cached_property
    def potentials(self) -> tuple[float, ...]:
        """Per-node potentials ``(hub, edge 1, ..., edge N)``; ``O(N)``."""
        pots = [self.background] * (self.edge_count + 1)
        pots[0] = self.hub
        for node, value in self.exceptions:
            pots[node] = value
        return tuple(pots)

    def potential(self, node: int) -> float:
        """Potential of ``node`` (0 is the hub), in ``O(log len(exceptions))``."""
        return self.hub if node == 0 else _sparse_get(self.exceptions, node, self.background)

    def replace(self, values: dict[int, float]) -> "StarSpec":
        """This star with the edge potentials in ``values`` (node -> value)
        replaced: :meth:`sparse` of the merged exceptions, so a value equal
        to the background bit for bit drops out; ``O(len(exceptions) +
        len(values))``, as
        ``tests/test_sparse_star.py::test_sparse_paths_scale_with_exceptions_not_m``
        counts."""
        merged = dict(self.exceptions)
        for node, value in values.items():
            merged[check_int(node, "node", 1, self.edge_count)] = value
        return StarSpec.sparse(self.edge_count, self.coupling, self.hub, self.background,
                               sorted(merged.items()))

    def _parts(self) -> tuple:
        return (self.edge_count, self.coupling, self.hub, self.background, self.exceptions)

    def __eq__(self, other):
        """Equal sizes, couplings and per-node potentials (compared with
        ``==``, like tuples of floats); ``O(1)`` when the parts agree."""
        if not isinstance(other, StarSpec):
            return NotImplemented
        if self._parts() == other._parts():
            return True
        return (self.edge_count == other.edge_count and self.coupling == other.coupling
                and self.potentials == other.potentials)

    def __hash__(self):
        return hash((self.edge_count, self.coupling, self.hub))


@dataclass(frozen=True)
class ArrowheadMatrix:
    """Real symmetric matrix whose nonzeros sit on the diagonal and the first
    row/column; what the star Hamiltonian looks like with one excitation."""

    dimension: int
    hub_value: float
    arm_couplings: tuple[float, ...]
    arm_values: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "dimension", check_int(self.dimension, "dimension", lo=2))
        object.__setattr__(self, "hub_value", float(self.hub_value))
        object.__setattr__(self, "arm_couplings", tuple(map(float, self.arm_couplings)))
        object.__setattr__(self, "arm_values", tuple(map(float, self.arm_values)))
        n = self.dimension - 1
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


@dataclass(frozen=True, init=False)
class DesignSolution:
    """A solved transfer design: its matrix elements, eta and residuals,
    plus what those determine, the transfer time, the target spectrum and
    the star that realizes it.

    ``DesignSolution(params, eta, *, root_residual, transfer_time=None,
    target_spectrum=None, realized=None, spectrum_residual=None,
    lambda_residual=None)``.  :attr:`transfer_time` and
    :attr:`target_spectrum` are derived from ``e = params.e``, ``pi / e``
    and ``(0, e, eta*e, -eta*e)``, checked when passed, not stored: a value
    the caller passes, as a design file does, is checked against them
    (1e-12 and 1e-9 relative) and then dropped, so ``dataclasses.replace``
    with new ``params`` and ``eta`` derives them anew.  :attr:`realized` is
    :func:`routed_star` of ``params``, the star wired for ``1 -> 2``, built
    on first read in ``O(1)``; a star the caller passes is checked against
    ``params`` by the route rule (:func:`check_route`) and kept.  None of
    the three is a field, so none takes part in ``==``.

    ``spectrum_residual`` and ``lambda_residual`` are the design's residuals
    as :func:`~spinstar.designer.design_residuals` computes them: stored by
    the designer, or read back with the design from a file that holds them;
    ``None`` where neither gave them.  They come as a pair: one without the
    other raises ``ValueError`` naming the missing one.  Every residual
    given is a finite number ``>= 0``.  Each tolerance test passes only when
    the deviation is within the tolerance, so a NaN fails it.
    """

    params: ReducedParams
    eta: int
    root_residual: float
    spectrum_residual: float | None
    lambda_residual: float | None

    def __init__(self, params, eta, *, root_residual, transfer_time=None, target_spectrum=None,
                 realized=None, spectrum_residual=None, lambda_residual=None):
        eta, e = check_eta(eta), params.e
        if e == 0.0:
            raise ValueError("params.e must be nonzero (transfer time is pi/e)")
        self.__dict__.update(params=params, eta=eta)
        if transfer_time is not None:
            tau = self.transfer_time
            if not abs(float(transfer_time) - tau) <= 1e-12 * abs(tau):
                raise ValueError("transfer_time must equal pi / params.e")
        if target_spectrum is not None:
            target_spectrum = sorted(float(x) for x in target_spectrum)
            if len(target_spectrum) != 4:
                raise ValueError("target_spectrum must have four entries")
            tol = 1e-9 * max(1.0, abs(eta * e))
            if not all(abs(x - y) <= tol
                       for x, y in zip(target_spectrum, sorted(self.target_spectrum))):
                raise ValueError("target_spectrum must be {0, e, +eta*e, -eta*e}")
        if (spectrum_residual is None) != (lambda_residual is None):
            missing = "lambda_residual" if lambda_residual is None else "spectrum_residual"
            raise ValueError(f"{missing} is missing: the spectrum and lambda residuals are a pair")
        residuals = {"root_residual": root_residual, "spectrum_residual": spectrum_residual,
                     "lambda_residual": lambda_residual}
        for name, value in residuals.items():
            if value is not None or name == "root_residual":
                value = residuals[name] = float(value)
                if not 0.0 <= value < math.inf:
                    raise ValueError(f"{name} must be a finite number >= 0, got {value!r}")
        self.__dict__.update(residuals)
        if realized is not None:
            check_route(realized, params, 1, 2)
            self.__dict__["realized"] = realized

    @property
    def transfer_time(self) -> float:
        """``pi / e``: the time of a perfect transfer."""
        return math.pi / self.params.e

    @property
    def target_spectrum(self) -> tuple[float, float, float, float]:
        """``(0, e, eta*e, -eta*e)``: the four-level spectrum the design
        places."""
        e = self.params.e
        return (0.0, e, self.eta * e, -self.eta * e)

    @cached_property
    def realized(self) -> StarSpec:
        """The star that realizes the design wired ``1 -> 2``:
        :func:`routed_star` of ``params`` unless one was passed."""
        return routed_star(self.params)


def routed_star(params: ReducedParams) -> StarSpec:
    """The star that realizes ``params`` wired for ``1 -> 2``: ``a`` at the
    hub, ``e`` at edges 1 and 2, ``d`` on every other edge, coupling ``c``;
    ``O(1)``."""
    return StarSpec.sparse(params.m + 2, params.c, params.a, params.d,
                           ((1, params.e), (2, params.e)))


def check_route(spec: StarSpec, params: ReducedParams, source, target) -> tuple[int, int]:
    """Check that ``spec`` realizes ``params`` wired for ``source -> target``.

    ``spec`` must have ``m + 2`` edges and coupling ``c``, and node by node
    its potentials must match ``a`` at the hub, ``e`` at source and target
    and ``d`` elsewhere, each within ``POTENTIAL_MATCH_TOL * max(1, |wanted|)``;
    the smallest node that does not is named.  One pass over the hub, the
    route, the exceptions and the first bystander that carries the
    background, if one does: the background is one value however many nodes
    carry it, so this is ``O(len(spec.exceptions))``, as
    ``tests/test_sparse_star.py::test_sparse_paths_scale_with_exceptions_not_m``
    counts.  Returns the validated ``(source, target)``; raises
    ``ValueError`` otherwise.
    """
    n = spec.edge_count
    if n != params.m + 2:
        raise ValueError(f"edge_count must equal m + 2 = {params.m + 2}, got {n}")
    if abs(spec.coupling - params.c) > 1e-12 * max(1.0, abs(params.c)):
        raise ValueError(f"coupling must equal c = {params.c!r}, got {spec.coupling!r}")
    source, target = check_pair(source, target, ("source", "target"), 1, n)
    values = dict(spec.exceptions)
    values[0] = spec.hub
    values.setdefault(source, spec.background)
    values.setdefault(target, spec.background)
    j = 1
    while j in values:
        j += 1
    if j <= n:  # the first bystander that carries the background
        values[j] = spec.background
    d, wants = params.d, {0: params.a, source: params.e, target: params.e}
    bad = [j for j, value in values.items()
           if abs(value - wants.get(j, d)) > max(abs(wants.get(j, d)), 1.0) * POTENTIAL_MATCH_TOL]
    if bad:
        j = min(bad)
        raise ValueError(
            f"potentials do not realize the route (source={source}, target={target}): "
            f"node {j} carries {values[j]!r} where {wants.get(j, d)!r} is required"
        )
    return source, target


def check_times(times: np.ndarray) -> None:
    """Refuse sample times that :class:`FidelityTrace` refuses: none at all,
    a time that is not finite, or two that do not strictly increase.  A grid
    is checked by this before any amplitude is evaluated on it, so a window
    too narrow for its steps (equal neighbours) fails at once."""
    if times.size == 0:
        raise ValueError("trace must contain at least one sample")
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    if times.size > 1 and not np.all(np.diff(times) > 0):
        raise ValueError("times must be strictly increasing")


@dataclass(frozen=True)
class FidelityTrace:
    """Transfer fidelity sampled on a strictly increasing grid of finite
    times (:func:`check_times`).  Every fidelity lies in ``[0, 1]`` up to a
    rounding of ``1e-12``; a NaN time or fidelity is refused."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self._freeze(self.times, self.values, check_grid=True)

    @classmethod
    def on_checked_grid(cls, times, values) -> "FidelityTrace":
        """The trace of ``values`` on ``times``, a grid that
        :func:`check_times` has passed: every other rule is applied, the
        grid's is not applied again."""
        trace = object.__new__(cls)
        trace._freeze(times, values, check_grid=False)
        return trace

    def _freeze(self, times, values, check_grid: bool) -> None:
        times = np.array(times, dtype=float)
        values = np.array(values, dtype=float)
        if times.ndim != 1 or values.ndim != 1 or times.size != values.size:
            raise ValueError("times and values must be 1-d sequences of equal length")
        if check_grid:
            check_times(times)
        # Written so that a NaN fails it.
        if not np.all((values >= 0.0) & (values <= 1.0 + 1e-12)):
            raise ValueError("fidelities must lie in [0, 1] up to rounding")
        times.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)


# ---------------------------------------------------------------------------
# Single-excitation subspace
# ---------------------------------------------------------------------------

# No command builds the dense arrowhead, and nothing else builds an
# ArrowheadMatrix; both stay public because bench/ops.py times them.
def build_arrowhead(spec: StarSpec) -> ArrowheadMatrix:
    """Hamiltonian of ``spec`` restricted to single-excitation states, in the
    basis (hub, edge 1, ..., edge N)."""
    n = spec.edge_count
    return ArrowheadMatrix(
        dimension=n + 1,
        hub_value=spec.hub,
        arm_couplings=(spec.coupling,) * n,
        arm_values=spec.potentials[1:],
    )


def build_reduced(spec: StarSpec, source: int, target: int) -> ReducedParams:
    """Collapse the star onto the four-level basis for a source/target pair.

    Reads ``a`` off the hub, ``e`` off the source and ``d`` off the first
    bystander, then applies the route rule (:func:`check_route`): every
    other node must match its value within
    ``POTENTIAL_MATCH_TOL * max(1, |wanted|)``.  The bystanders then act as
    a single renormalized node coupled with strength ``sqrt(m) * coupling``.
    Raises :class:`SymmetryError` naming the first node that does not match.
    ``O(len(spec.exceptions))``, as
    ``tests/test_sparse_star.py::test_sparse_paths_scale_with_exceptions_not_m``
    counts.
    """
    n = spec.edge_count
    source, target = check_pair(source, target, ("source", "target"), 1, n)
    m = n - 2
    params = ReducedParams(
        a=spec.hub,
        b=math.sqrt(m) * spec.coupling,
        c=spec.coupling,
        d=spec.potential(min({1, 2, 3} - {source, target})),  # the first bystander
        e=spec.potential(source),
        m=m,
    )
    try:
        check_route(spec, params, source, target)
    except ValueError as exc:
        raise SymmetryError(f"the four-level reduction does not apply: {exc}") from exc
    return params


def reduced_matrix(params: ReducedParams) -> np.ndarray:
    """The 4x4 effective Hamiltonian in the basis (hub, bystander-symmetric,
    source, target)."""
    return np.array(reduced_entries(params.a, params.b, params.c, params.d, params.e)).reshape(4, 4)


def reduced_entries(a: float, b: float, c: float, d: float, e: float) -> tuple[float, ...]:
    """The 16 entries of :func:`reduced_matrix` of the matrix elements
    ``a, b, c, d, e``, row by row, for a caller that stacks many of them
    into one array."""
    return (a, b, c, c, b, d, 0.0, 0.0, c, 0.0, e, 0.0, c, 0.0, 0.0, e)


# ---------------------------------------------------------------------------
# Full spin space (oracle scale)
# ---------------------------------------------------------------------------

# No command uses the full spin space; it stays here, not with the test
# oracles, because the benchmark's oracle operation (bench/ops.py) reads it.
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
    n = check_int(edge_count, "edge_count", lo=0)
    return np.array([1 << (n - j) for j in range(n + 1)], dtype=np.intp)
