"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints a ``criterion NN: PASS`` line when it succeeds (run with
``pytest -v -s tests/test_acceptance.py`` to watch them); a failing criterion
shows up as the normal pytest failure for that test.
"""

import csv
import json
import math

import numpy as np
import pytest

from spinstar import (
    LARGEST,
    SMALLEST,
    DesignInput,
    RoutingState,
    StarSpec,
    build_arrowhead,
    build_full_spin_hamiltonian,
    build_reduced,
    design,
    feasibility,
    fidelity_trace,
    min_feasible_even_eta,
    reduced_matrix,
    retarget,
    single_excitation_indices,
    transfer_time_grid,
)
from spinstar.cli import execute
from spinstar.dynamics import EvolutionCache

from oracle import transition_amplitude

E_SMALL = 2.0 / math.sqrt(15.0)


def _report(number, detail):
    print(f"criterion {number:2d}: PASS  {detail}")


@pytest.fixture(scope="module")
def design_sweep():
    """50 randomized feasible (m, eta) pairs with m <= 200, each solved under
    both root policies."""
    rng = np.random.default_rng(20250810)
    designs = []
    for _ in range(50):
        m = int(rng.integers(1, 201))
        eta = min_feasible_even_eta(m) + 2 * int(rng.integers(0, 21))
        for policy in (SMALLEST, LARGEST):
            designs.append(design(DesignInput(m=m, eta=eta, root_choice=policy)))
    return designs


def _random_symmetric_spec(rng, m):
    n = m + 2
    hub, active, rest = rng.uniform(-2.0, 2.0, size=3)
    coupling = float(rng.uniform(0.2, 2.0))
    source, target = (int(x) for x in rng.choice(np.arange(1, n + 1), size=2, replace=False))
    pots = np.full(n + 1, rest)
    pots[0] = hub
    pots[source] = active
    pots[target] = active
    return StarSpec(n, coupling, tuple(pots)), source, target


def _total_sz(sites):
    """Independent kron-built total z operator (|0> is the -1 eigenstate)."""
    sz = np.array([[-1.0, 0.0], [0.0, 1.0]])
    total = np.zeros((2**sites, 2**sites))
    for k in range(sites):
        op = np.eye(1)
        for s in range(sites):
            op = np.kron(op, sz if s == k else np.eye(2))
        total += op
    return total


def test_criterion_01_known_solution_reproduced():
    sol = design(DesignInput(m=2, eta=4, root_choice=SMALLEST))
    p = sol.params
    assert abs(p.e - 0.516398) <= 1e-6
    assert abs(p.e - E_SMALL) <= 1e-12  # closed form e**2 = 4/15
    assert abs(p.a) <= 1e-9
    assert abs(p.d + p.e) <= 1e-9
    assert abs(p.b - math.sqrt(2.0)) <= 1e-15
    assert p.c == 1.0
    _report(1, f"e={p.e:.6f}, a={p.a:.1e}, d=-e, b=sqrt(2), c=1")


def test_criterion_02_spectrum_oracle(design_sweep):
    worst = 0.0
    for sol in design_sweep:
        evals = np.linalg.eigvalsh(reduced_matrix(sol.params))
        target = np.sort(np.asarray(sol.target_spectrum))
        worst = max(worst, float(np.max(np.abs(evals - target))))
    assert worst < 1e-9
    _report(2, f"{len(design_sweep)} designs, worst eigenvalue deviation {worst:.2e}")


def test_criterion_03_perfect_transfer(design_sweep):
    extended = design_sweep + [
        design(DesignInput(m=1000, eta=min_feasible_even_eta(1000), root_choice=policy))
        for policy in (SMALLEST, LARGEST)
    ]
    worst_fidelity = 1.0
    worst_imag = 0.0
    for sol in extended:
        tau = sol.transfer_time
        amp4 = transition_amplitude(reduced_matrix(sol.params), tau, 2, 3)
        hfull = build_arrowhead(sol.realized).to_dense()
        ampf = transition_amplitude(hfull, tau, 1, 2)
        worst_fidelity = min(worst_fidelity, abs(amp4) ** 2, abs(ampf) ** 2)
        assert amp4.real > 0
        worst_imag = max(worst_imag, abs(amp4.imag))
    assert worst_fidelity >= 1.0 - 1e-9
    assert worst_imag <= 1e-9
    _report(3, f"min F(tau) {worst_fidelity:.15f} incl. m=1000 stars, worst Im {worst_imag:.1e}")


def test_criterion_04_phase_cancellation(design_sweep):
    worst = 0.0
    for sol in design_sweep:
        evals = np.linalg.eigvalsh(reduced_matrix(sol.params))
        tau = sol.transfer_time
        antisym = int(np.argmin(np.abs(evals - sol.params.e)))
        for k, energy in enumerate(evals):
            phase = np.exp(-1j * energy * tau)
            expected = -1.0 if k == antisym else 1.0
            worst = max(worst, abs(phase - expected))
    assert worst < 1e-9
    _report(4, f"worst phase-factor deviation {worst:.2e}")


def test_criterion_05_reduction_equivalence():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 51))
        spec, source, target = _random_symmetric_spec(rng, m)
        t = float(rng.uniform(0.0, 20.0))
        h4 = reduced_matrix(build_reduced(spec, source, target))
        reduced = EvolutionCache.from_hamiltonian(h4).amplitude(t, 2, 3)
        full = transition_amplitude(build_arrowhead(spec).to_dense(), t, source, target)
        worst = max(worst, abs(reduced - full))
    assert worst < 1e-10

    worst_block = 0.0
    worst_comm = 0.0
    for n in (3, 4, 5):
        spec, _, _ = _random_symmetric_spec(rng, n - 2)
        h = build_full_spin_hamiltonian(spec)
        idx = single_excitation_indices(n)
        block_dev = float(np.max(np.abs(
            h[np.ix_(idx, idx)] - build_arrowhead(spec).to_dense()
        )))
        worst_block = max(worst_block, block_dev)
        assert np.all(h[:, 0] == 0.0) and np.all(h[0, :] == 0.0)  # vacuum exactly stationary
        total = _total_sz(n + 1)
        worst_comm = max(worst_comm, float(np.max(np.abs(h @ total - total @ h))))
    assert worst_block < 1e-12
    assert worst_comm < 1e-12
    _report(5, f"amplitude gap {worst:.2e}, block dev {worst_block:.1e}, "
               f"commutator {worst_comm:.1e}")


def test_criterion_06_switching():
    sol = design(DesignInput(m=2, eta=4, root_choice=SMALLEST))
    tau = sol.transfer_time
    state = RoutingState(base=sol, source=1, target=2, realized_spec=sol.realized)
    moved = retarget(state, 3)
    h = build_arrowhead(moved.realized_spec).to_dense()
    f_new = abs(transition_amplitude(h, tau, 1, 3)) ** 2
    f_old = abs(transition_amplitude(h, tau, 1, 2)) ** 2
    assert f_new >= 1.0 - 1e-9
    assert f_old < 0.999
    restored = retarget(moved, 2)
    assert restored.realized_spec.potentials == state.realized_spec.potentials
    _report(6, f"F(1->3)={f_new:.12f}, F(1->2)={f_old:.2e}, double swap exact")


def test_criterion_07_offset_invariance():
    sol = design(DesignInput(m=3, eta=6, root_choice=SMALLEST))
    grid = transfer_time_grid(sol.transfer_time, steps=500)
    base_h = build_arrowhead(sol.realized).to_dense()
    shifted_h = base_h + 7.3 * np.eye(base_h.shape[0])  # every potential, hub included
    base = fidelity_trace(base_h, grid, 1, 2)
    shifted = fidelity_trace(shifted_h, grid, 1, 2)
    gap = float(np.max(np.abs(base.values - shifted.values)))
    assert gap < 1e-12
    _report(7, f"pointwise trace gap after +7.3 offset: {gap:.2e}")


def test_criterion_08_scaling_law():
    eta_1000 = min_feasible_even_eta(1000)
    assert 1.2 * 1000 <= eta_1000 <= 1.4 * 1000
    m = 10_000
    sol = design(DesignInput(m=m, eta=min_feasible_even_eta(m), root_choice=SMALLEST))
    p = sol.params
    ratio = abs(p.a / p.d)
    assert 0.9 <= ratio <= 1.1
    assert p.a * p.d < 0
    assert 0.1 <= abs(p.a) / math.sqrt(m) <= 10.0
    assert 0.1 <= abs(p.d) / math.sqrt(m) <= 10.0
    _report(8, f"eta_min(1000)={eta_1000}, |a/d|={ratio:.4f}, "
               f"|a|/sqrt(m)={abs(p.a) / math.sqrt(m):.3f}")


def test_criterion_09_feasibility_edge():
    for m in (1, 2, 5, 50, 1000):
        report = feasibility(m, 1)
        assert not report.feasible
        assert report.g_min >= m + 2
    report = feasibility(2, 4)
    assert report.g_min < 0
    assert abs(report.e_star**2 - (6.0 + 8.0 * math.sqrt(3.0)) / 45.0) <= 1e-12
    _report(9, f"eta=1 infeasible for all m; e_star^2={report.e_star**2:.10f}")


def test_criterion_10_cli_round_trip(tmp_path, capsys):
    design_path = tmp_path / "design.json"
    trace_path = tmp_path / "trace.csv"
    assert execute(["design", "--bystanders", "2", "--eta", "4",
                    "--out", str(design_path)]) == 0
    assert execute(["verify", "--design", str(design_path)]) == 0
    assert execute(["simulate", "--design", str(design_path),
                    "--out", str(trace_path)]) == 0
    capsys.readouterr()

    with open(trace_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "fidelity"]
    data = [(float(t), float(f)) for t, f in rows[1:]]
    tau = json.loads(design_path.read_text())["tau"]
    nearest = min(range(len(data)), key=lambda i: abs(data[i][0] - tau))
    peak = max(range(len(data)), key=lambda i: data[i][1])
    assert peak == nearest
    assert data[nearest][1] >= 1.0 - 1e-6

    rerun_design = tmp_path / "design2.json"
    rerun_trace = tmp_path / "trace2.csv"
    assert execute(["design", "--bystanders", "2", "--eta", "4",
                    "--out", str(rerun_design)]) == 0
    assert execute(["simulate", "--design", str(rerun_design),
                    "--out", str(rerun_trace)]) == 0
    capsys.readouterr()
    assert rerun_design.read_bytes() == design_path.read_bytes()
    assert rerun_trace.read_bytes() == trace_path.read_bytes()
    _report(10, f"design -> verify -> simulate, F at grid point nearest tau "
                f"= {data[nearest][1]:.12f}, reruns byte-identical")
