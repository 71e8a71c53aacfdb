"""Seeded request streams for the three benchmark workloads.

A workload is an endless sequence of rounds.  Round ``r`` is a fixed list of
chains (operations that share files, run in order), fully determined by
``(seed, workload, r)``.  Sizes come from a stratified quasi-random grid:
each round places one point in each of ``k`` equal strata of the log-size
range, and successive rounds shift the strata by a van der Corput offset, so
that any number of whole rounds covers the range evenly.  The grid is the
same for every seed, which keeps percentiles steady; the seed picks the eta
values, root policies, routes, oracle stars and the order of the chains.

Nothing here imports the program: feasibility thresholds are computed from
the design polynomial in closed form, independently of ``spinstar.designer``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("design-large", "verify-dense", "route-switch")

# Envelope, with the reason for each cap (see DESIGN.md):
DESIGN_M_MAX = 10**6          # ROADMAP envelope for m
ETA_MAX = 10**6               # ROADMAP envelope for eta
# design-large draws eta from [eta_min(m), ETA_SPAN * eta_min(m)], capped at
# ETA_MAX.  Farther out the program raises NoRealDesignError on rounding
# (ROADMAP item 4): from eta = 50 = 25 eta_min at m = 1 with the smallest
# root, and from eta/m of about 1500 at m >= 2.  Inside the span no request
# fails, so the failure count cannot differ between runs.
ETA_SPAN = 16
DENSE_M_MAX = 2000            # verify / simulate --full build a dense (N+1)^2 matrix, unguarded
ORACLE_M_MAX = 8              # full spin space 2^(N+1) with N = m + 2 <= 10
ROUTE_SIZES = (10**3, 10**4, 10**5)
SWEEP_M_RANGE = (10**3, 10**5)
LIGHT_M_MAX = 32              # companion requests that keep every command in every workload
POOL_SIZE = 8                 # small design files made at set-up for companion requests
SIM_STEPS = 1000
# Oracle sizes of one verify-dense round: every m in 1..8, with m = 5 three
# times and m = 6 twice, so that four cheaper and four dearer oracles flank
# the m = 5 class and the median lands inside it, not on a jump between two
# sizes whose costs differ threefold.
ORACLE_ROUND = (1, 2, 3, 4, 5, 5, 5, 6, 6, 7, ORACLE_M_MAX)

_PHI = (math.sqrt(5.0) - 1.0) / 2.0


# ---------------------------------------------------------------------------
# Design polynomial, written out independently of the program
# ---------------------------------------------------------------------------

def g_min(m: int, eta: int) -> tuple[float, float]:
    """Minimum over u = e^2 > 0 of the design cubic
    ``(m+2) + (3-eta^2) u + 1.5 (1-eta^2) u^2 + 0.25 (1-eta^2)^2 u^3`` and the
    sum of the magnitudes of its terms there (the scale of rounding)."""
    eta = float(eta)
    k = 1.0 - eta * eta
    x0, x2, x4, x6 = m + 2.0, 3.0 - eta * eta, 1.5 * k, 0.25 * k * k
    if eta <= 1.0:
        return x0, x0
    # stationary points solve x2 + 2 x4 u + 3 x6 u^2 = 0; the minimum is the larger root
    u = (-x4 + math.sqrt(x4 * x4 - 3.0 * x2 * x6)) / (3.0 * x6)
    terms = (x0, x2 * u, x4 * u * u, x6 * u * u * u)
    return math.fsum(terms), sum(abs(t) for t in terms)


def eta_min(m: int) -> int:
    """Smallest even eta >= 2 whose design cubic dips below zero (bisection;
    the minimum falls monotonically with eta)."""
    if g_min(m, 2)[0] < 0.0:
        return 2
    lo, hi = 1, 2  # in units of 2: lo infeasible, hi to be made feasible
    while g_min(m, 2 * hi)[0] >= 0.0:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if g_min(m, 2 * mid)[0] < 0.0:
            hi = mid
        else:
            lo = mid
    return 2 * hi


# ---------------------------------------------------------------------------
# Requests
# ---------------------------------------------------------------------------

@dataclass
class Op:
    """One operation: a CLI invocation, or the library oracle call."""

    kind: str                    # design | verify | simulate | simulate_full | retarget | sweep | oracle
    m: int
    eta: int = 0
    root: str = "smallest"
    design: str = ""             # input design file
    out: str = ""                # output file
    target: int = 0              # retarget: the new target node
    same_as: str = ""            # retarget: file the output must equal byte for byte
    rows: tuple = ()             # sweep: the bystander counts of the window
    coupling: float = 1.0        # oracle: the star to build
    potentials: tuple = ()

    def argv(self) -> list[str]:
        if self.kind == "design":
            return ["design", "--bystanders", str(self.m), "--eta", str(self.eta),
                    "--root", self.root, "--out", self.out]
        if self.kind == "verify":
            return ["verify", "--design", self.design]
        if self.kind in ("simulate", "simulate_full"):
            full = ["--full"] if self.kind == "simulate_full" else []
            return ["simulate", "--design", self.design, *full,
                    "--steps", str(SIM_STEPS), "--out", self.out]
        if self.kind == "retarget":
            return ["retarget", "--design", self.design, "--target", str(self.target),
                    "--out", self.out]
        if self.kind == "sweep":
            return ["sweep", "--m-min", str(self.rows[0]), "--m-max", str(self.rows[-1])]
        raise ValueError(f"{self.kind} is a library call, not a command")

    def describe(self) -> str:
        extra = f" eta={self.eta} root={self.root}" if self.kind == "design" else ""
        if self.kind == "sweep":
            extra = f" rows={self.rows[0]}..{self.rows[-1]}"
        if self.kind == "retarget":
            extra = f" target={self.target}"
        return f"{self.kind} m={self.m}{extra}"


@dataclass
class Chain:
    """Operations run in order; ``scratch`` files are deleted afterwards."""

    ops: list[Op] = field(default_factory=list)
    scratch: list[str] = field(default_factory=list)


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


def _vdc(n: int) -> float:
    """Base-2 van der Corput point n."""
    x, denom = 0.0, 1.0
    while n:
        denom *= 2.0
        n, bit = divmod(n, 2)
        x += bit / denom
    return x


class Workload:
    """Request stream of one workload for one seed, with files under ``work``."""

    def __init__(self, name: str, seed: int, work: str, smoke: bool = False):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
        self.name, self.seed, self.work, self.smoke = name, int(seed), work, smoke
        self._id = WORKLOADS.index(name)
        self._files = 0
        self.pool = [f"{work}/pool{i}.json" for i in range(POOL_SIZE)]
        self.pool_m = self._sizes(0, POOL_SIZE, 1, LIGHT_M_MAX)
        self.bases = {m: f"{work}/base{m}.json" for m in ROUTE_SIZES}

    # -- sampling helpers -------------------------------------------------

    def _rng(self, *key: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, self._id, *key])

    @staticmethod
    def _strata(r: int, k: int) -> list[float]:
        """k stratified points in [0, 1) for round r.  The grid is the same
        for every seed: with a seeded shift, the few sizes next to a p90 moved
        by up to a grid step between seeds, which an O(N^3) cost turned into
        a 20% swing in verify and simulate --full."""
        return [(j + _vdc(r)) / k for j in range(k)]

    def _mix(self, stream: int, r: int, k: int) -> list[float]:
        """A second, independent coordinate for the same k points (Kronecker)."""
        rotation = self._rng(2, stream).random()
        return [(rotation + (r * k + j) * _PHI) % 1.0 for j in range(k)]

    def _file(self, suffix: str = "json") -> str:
        self._files += 1
        return f"{self.work}/f{self._files}.{suffix}"

    @staticmethod
    def _design_op(m: int, v: float, eta_hi: float | None, root: str, out: str) -> Op:
        """Design request with eta log-uniform over [eta_min(m), eta_hi]
        (default 2 eta_min), rounded to an even value."""
        lo = eta_min(m)
        hi = max(lo, eta_hi if eta_hi is not None else 2 * lo)
        eta = max(lo, 2 * round(_log_uniform(v, lo, hi) / 2))
        return Op("design", m, eta=eta, root=root, out=out)

    @staticmethod
    def _sizes(r: int, k: int, lo: float, hi: float) -> list[int]:
        """Bystander counts log-uniform over [lo, hi] on the round-r grid."""
        return [max(int(lo), round(_log_uniform(u, lo, hi))) for u in Workload._strata(r, k)]

    # -- shared request shapes --------------------------------------------

    def _retarget_pair(self, src: str, m: int, rng) -> Chain:
        """Move the target of ``src`` (route 1 -> 2) and swap it back."""
        t = int(rng.integers(3, m + 3))
        moved, back = self._file(), self._file()
        return Chain(
            [Op("retarget", m, design=src, target=t, out=moved),
             Op("retarget", m, design=moved, target=2, out=back, same_as=src)],
            [moved, back],
        )

    @staticmethod
    def _oracles(ms, rng) -> list[Chain]:
        chains = []
        for m in ms:
            pots = tuple(float(x) for x in rng.uniform(-3.0, 3.0, m + 3))
            coupling = float(_log_uniform(rng.random(), 0.5, 2.0))
            chains.append(Chain([Op("oracle", m, coupling=coupling, potentials=pots)]))
        return chains

    def _light_sweeps(self, r: int, k: int) -> list[Chain]:
        """Companion sweeps: k three-row windows at m <= LIGHT_M_MAX."""
        return [Chain([Op("sweep", m, rows=(m, m + 1, m + 2))])
                for m in self._sizes(r, k, 1, LIGHT_M_MAX)]

    # -- set-up -----------------------------------------------------------

    def setup(self) -> list[Chain]:
        """Set-up requests: the small design pool every workload's companion
        requests read, the route-switch files at m in ROUTE_SIZES, and one
        request of every other kind as warm-up."""
        chains = []
        for i, (m, v) in enumerate(zip(self.pool_m, self._mix(900, 0, POOL_SIZE))):
            root = "smallest" if i % 2 == 0 else "largest"
            chains.append(Chain([self._design_op(m, v, None, root, self.pool[i])]))
        for m, path in self.bases.items():
            chains.append(Chain([Op("design", m, eta=eta_min(m), out=path)]))
        m0, f0 = self.pool_m[0], self.pool[0]
        warm = Chain([Op("verify", m0, design=f0),
                      Op("simulate", m0, design=f0, out=self._file("csv")),
                      Op("simulate_full", m0, design=f0, out=self._file("csv"))])
        warm.scratch = [op.out for op in warm.ops if op.out]
        pair = self._retarget_pair(f0, m0, self._rng(3, 0))
        chains += [warm, pair, *self._light_sweeps(0, 1)]
        chains += self._oracles((2,), self._rng(3, 1))
        return chains

    # -- rounds -----------------------------------------------------------

    def round(self, r: int) -> list[Chain]:
        rng = self._rng(4, r)
        chains = getattr(self, "_round_" + self.name.replace("-", "_"))(r, rng)
        order = rng.permutation(len(chains))
        return [chains[i] for i in order]

    def _light(self, r: int, rng, k: int, kinds: tuple[str, ...]) -> list[Chain]:
        """Companion requests on small files, so that every command runs in
        every workload; ``kinds`` names the commands the workload lacks.  With
        "design" the chain designs its own small file, otherwise it reads the
        set-up pool."""
        ms, vs = self._sizes(r, k, 1, LIGHT_M_MAX), self._mix(800, r, k)
        chains = []
        for j in range(k):
            if "design" in kinds:
                m, src = ms[j], self._file()
                root = "smallest" if (r + j) % 2 == 0 else "largest"
                chain = Chain([self._design_op(m, vs[j], None, root, src)], [src])
            else:
                i = (r * k + j) % POOL_SIZE
                m, src, chain = self.pool_m[i], self.pool[i], Chain()
            for kind in ("verify", "simulate", "simulate_full"):
                if kind in kinds:
                    out = "" if kind == "verify" else self._file("csv")
                    chain.ops.append(Op(kind, m, design=src, out=out))
                    chain.scratch += [out] if out else []
            if "retarget" in kinds:
                pair = self._retarget_pair(src, m, rng)
                chain.ops += pair.ops
                chain.scratch += pair.scratch
            chains.append(chain)
        return chains

    def _round_design_large(self, r: int, rng) -> list[Chain]:
        k = 2 if self.smoke else 12
        m_hi = 10**4 if self.smoke else DESIGN_M_MAX
        chains = []
        for j, (m, v) in enumerate(zip(self._sizes(r, k, 1, m_hi), self._mix(0, r, k))):
            out = self._file()
            root = "smallest" if (r + j) % 2 == 0 else "largest"
            eta_hi = min(ETA_MAX, ETA_SPAN * eta_min(m))
            chains.append(Chain([self._design_op(m, v, eta_hi, root, out)], [out]))
        # one-row windows, one per quarter of the log range: the cost of a row
        # grows with m, so coarser strata would let the seed move the rate
        lo, hi = (100, 1000) if self.smoke else SWEEP_M_RANGE
        k = 1 if self.smoke else 4
        for start in self._sizes(r, k, lo, hi):
            chains.append(Chain([Op("sweep", start, rows=(start,))]))
        chains += self._light(r, rng, 1 if self.smoke else 12,
                              ("verify", "simulate", "simulate_full", "retarget"))
        chains += self._oracles((1, 2, 3), rng)
        return chains

    def _round_verify_dense(self, r: int, rng) -> list[Chain]:
        k = 2 if self.smoke else 34  # three rounds already give 100 samples
        m_hi = 100 if self.smoke else DENSE_M_MAX
        chains = []
        for j, (m, v) in enumerate(zip(self._sizes(r, k, 1, m_hi), self._mix(0, r, k))):
            src = self._file()
            root = "smallest" if (r + j) % 2 == 0 else "largest"
            sims = [self._file("csv"), self._file("csv")]
            pair = self._retarget_pair(src, m, rng)
            chains.append(Chain(
                [self._design_op(m, v, None, root, src),
                 Op("verify", m, design=src),
                 Op("simulate_full", m, design=src, out=sims[0]),
                 Op("simulate", m, design=src, out=sims[1]),
                 *pair.ops],
                [src, *sims, *pair.scratch],
            ))
        chains += self._oracles((1, 2, 3, 4) if self.smoke else ORACLE_ROUND, rng)
        chains += self._light_sweeps(r, 1 if self.smoke else 60)
        return chains

    def _round_route_switch(self, r: int, rng) -> list[Chain]:
        # One chain at 10^3, two at 10^4, one at 10^5: the p50 of retarget and
        # simulate falls in the middle of the 10^4 class and the p90 inside
        # the 10^5 class, away from the class edges where a share would tip.
        sizes = (10**3, 10**4) if self.smoke else (10**3, 10**4, 10**4, 10**5)
        chains = []
        for m in sizes:
            n = m + 2
            t1 = int(rng.integers(3, n + 1))
            t2 = int(rng.integers(2, n))  # uniform over 2..n without t1
            t2 += t2 >= t1
            f1, f2, f3 = self._file(), self._file(), self._file()
            sims = [self._file("csv") for _ in range(3)]
            chains.append(Chain(
                [Op("retarget", m, design=self.bases[m], target=t1, out=f1),
                 Op("simulate", m, design=f1, out=sims[0]),
                 Op("retarget", m, design=f1, target=t2, out=f2),
                 Op("simulate", m, design=f2, out=sims[1]),
                 Op("retarget", m, design=f2, target=t1, out=f3, same_as=f1),
                 Op("simulate", m, design=f3, out=sims[2])],
                [f1, f2, f3, *sims],
            ))
        chains += self._light(r, rng, 1 if self.smoke else 12,
                              ("design", "verify", "simulate_full"))
        chains += self._oracles((1, 2, 3), rng)
        chains += self._light_sweeps(r, 1 if self.smoke else 6)
        return chains
