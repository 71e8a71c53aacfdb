"""Running one benchmark operation and checking its output.

Untraced, a command goes through the public entry point
``spinstar.cli.execute(argv)`` with standard output captured in memory.
Traced, the same request is replayed as the public calls its CLI handler
makes, each wrapped in a span; the replay writes the same files and text, so
one set of checks serves both.

The checks recompute what a correct output must satisfy without trusting the
program: the four-level spectrum from the file's matrix elements, the design
polynomial's sign, byte identity after a swap back, and so on.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from spinstar import cli, designer, dynamics, model, switchboard
from spinstar.errors import InfeasibleDesignError, SpinStarError

from workloads import SIM_STEPS, Op, g_min

SPECTRUM_TOL = 1e-9      # relative to max(1, |eta e|)
FIDELITY_TOL = 1e-9
ORACLE_TOL = 1e-12
SWEEP_HEADER = "m,eta,e,a,d,tau,abs_a_over_sqrt_m,abs_d_over_sqrt_m"


@dataclass
class Outcome:
    """What an operation returned: its exit status and output."""

    rc: int
    out: str = ""
    err: str = ""
    result: object = None   # oracle: (full Hamiltonian, one-excitation indices, arrowhead)


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------

def run_untraced(op: Op) -> Outcome:
    if op.kind == "oracle":
        return _guarded(_oracle, NULL, op)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.execute(op.argv())
    return Outcome(rc, out.getvalue(), err.getvalue())


def run_traced(tracer, op: Op) -> Outcome:
    return _guarded(_REPLAY[op.kind], tracer, op)


def _guarded(fn, tracer, op: Op) -> Outcome:
    """Map errors the way ``cli.execute`` does: 2 for infeasible, else 1."""
    try:
        return fn(tracer, op)
    except InfeasibleDesignError as exc:
        return Outcome(2, err=f"infeasible: {exc}\n")
    except (ValueError, SpinStarError, OSError) as exc:
        return Outcome(1, err=f"error: {exc}\n")


class _Null:
    """Stands in for the tracer when the oracle runs untraced."""

    @contextlib.contextmanager
    def span(self, name, probe=False, m=-1):
        yield

    def count(self, name, value):
        pass


NULL = _Null()


def _probe_model(tr, sol: model.DesignSolution, spec: model.StarSpec) -> None:
    """Time the O(m) realization and validation the handler reaches only
    inside ``designer.design`` or ``cli.parse_design_document``."""
    with tr.span("model.star_spec", probe=True):
        model.StarSpec(edge_count=spec.edge_count, coupling=spec.coupling,
                       potentials=spec.potentials)
    with tr.span("model.design_solution", probe=True):
        model.DesignSolution(params=sol.params, eta=sol.eta, transfer_time=sol.transfer_time,
                             target_spectrum=sol.target_spectrum,
                             root_residual=sol.root_residual, realized=sol.realized)


def _write_design(tr, doc: dict, out: str) -> None:
    with tr.span("cli.render_design"):
        text = cli.render_design(doc)
    tr.count("cli.design_file_bytes", len(text))
    with tr.span("cli.write_output"):
        Path(out).write_text(text)


def _design(tr, op: Op) -> Outcome:
    root = designer.RootChoice.parse(op.root)
    with tr.span("designer.design", m=op.m):
        sol = designer.design(designer.DesignInput(m=op.m, eta=op.eta, root_choice=root))
    with tr.span("cli.design_document"):
        doc = cli.design_document(sol, source=1, target=2, spec=sol.realized, root_choice=root)
    _write_design(tr, doc, op.out)
    with tr.span("designer.solve_e", probe=True):
        roots = designer.solve_e(op.m, op.eta)
    with tr.span("designer.back_solve", probe=True):
        designer.back_solve(root.select(roots), op.m, op.eta)
    _probe_model(tr, sol, sol.realized)
    return Outcome(0)


def _verify(tr, op: Op) -> Outcome:
    with tr.span("cli.parse_design"):
        parsed = cli.load_design_file(op.design)
    with tr.span("dynamics.verify_design"):
        report = dynamics.verify_design(parsed.solution, tol=1e-9)
    with tr.span("cli.render_verify"):
        text = (f"verification report (tol={1e-9!r})\n"
                f"  spectrum deviation  : {report.spectrum_deviation:.6e}\n"
                f"  fidelity at tau     : {report.fidelity_at_tau:.15f}\n"
                f"  phase deviation     : {report.phase_deviation:.6e}\n"
                f"  reduction deviation : {report.reduction_deviation:.6e}\n"
                f"  parity check        : {'ok' if report.parity_check else 'FAILED'}\n"
                f"  result              : {'PASS' if report.passed else 'FAIL'}\n")
    return Outcome(0 if report.passed else 1, text)


def _simulate(tr, op: Op) -> Outcome:
    with tr.span("cli.parse_design"):
        parsed = cli.load_design_file(op.design)
    source, target = parsed.source, parsed.target
    with tr.span("dynamics.transfer_time_grid"):
        grid = dynamics.transfer_time_grid(parsed.solution.transfer_time, steps=SIM_STEPS)
    if op.kind == "simulate_full":
        n = parsed.spec.edge_count
        with tr.span("model.dense_star", m=op.m):
            h = model.build_arrowhead(parsed.spec).to_dense()
        tr.count("model.dense_star_bytes", 8 * (n + 1) ** 2)
        with tr.span("dynamics.eigh", m=op.m):
            cache = dynamics.EvolutionCache.from_hamiltonian(h)
        tr.count("dynamics.eigh_n3", (n + 1) ** 3)
        with tr.span("dynamics.amplitudes"):
            amps = cache.amplitudes(grid, source, target)
        with tr.span("model.fidelity_trace"):
            trace = model.FidelityTrace(times=grid, values=np.abs(amps) ** 2)
    else:
        with tr.span("model.build_reduced", m=op.m):
            params = model.build_reduced(parsed.spec, source, target)
            h4 = model.reduced_matrix(params)
        with tr.span("dynamics.fidelity_trace"):
            trace = dynamics.fidelity_trace(h4, grid, 2, 3)
    with tr.span("cli.render_trace"):
        text = cli.render_trace(trace)
    with tr.span("cli.write_output"):
        Path(op.out).write_text(text)
    return Outcome(0)


def _retarget(tr, op: Op) -> Outcome:
    with tr.span("cli.parse_design"):
        parsed = cli.load_design_file(op.design)
    with tr.span("switchboard.routing_state"):
        state = switchboard.RoutingState(base=parsed.solution, source=parsed.source,
                                         target=parsed.target, realized_spec=parsed.spec)
    with tr.span("switchboard.retarget"):
        moved = switchboard.retarget(state, op.target)
    with tr.span("cli.design_document"):
        doc = cli.design_document(parsed.solution, source=moved.source, target=moved.target,
                                  spec=moved.realized_spec, root_choice=parsed.root_choice)
    _write_design(tr, doc, op.out)
    _probe_model(tr, parsed.solution, moved.realized_spec)
    return Outcome(0)


def _sweep(tr, op: Op) -> Outcome:
    lines = [SWEEP_HEADER]
    for m in op.rows:
        with tr.span("designer.min_feasible_even_eta", m=m):
            eta = designer.min_feasible_even_eta(m)
        with tr.span("designer.feasibility", probe=True):
            designer.feasibility(m, eta)
        with tr.span("designer.design", m=m):
            sol = designer.design(designer.DesignInput(m=m, eta=eta, root_choice=designer.SMALLEST))
        with tr.span("cli.render_sweep_row"):
            p, scale = sol.params, math.sqrt(m)
            lines.append(f"{m},{eta},{p.e!r},{p.a!r},{p.d!r},{sol.transfer_time!r},"
                         f"{abs(p.a) / scale!r},{abs(p.d) / scale!r}")
    return Outcome(0, "\n".join(lines) + "\n")


def _oracle(tr, op: Op) -> Outcome:
    spec = model.StarSpec(edge_count=op.m + 2, coupling=op.coupling, potentials=op.potentials)
    n = spec.edge_count
    with tr.span("model.full_spin", m=op.m):
        h = model.build_full_spin_hamiltonian(spec)
    tr.count("model.full_spin_bytes", 8 * 4 ** (n + 1))
    with tr.span("model.oracle_block"):
        idx = model.single_excitation_indices(n)
        arrow = model.build_arrowhead(spec).to_dense()
    return Outcome(0, result=(h, idx, arrow))


_REPLAY = {"design": _design, "verify": _verify, "simulate": _simulate,
           "simulate_full": _simulate, "retarget": _retarget, "sweep": _sweep,
           "oracle": _oracle}


# ---------------------------------------------------------------------------
# Checking
# ---------------------------------------------------------------------------

@dataclass
class DesignFile:
    """What the checks remember about a design file they have read."""

    fields: dict          # every top-level field except the potentials
    potentials: np.ndarray


def _spectrum_error(a, b, c, d, e, eta) -> str | None:
    h = np.array([[a, b, c, c], [b, d, 0, 0], [c, 0, e, 0], [c, 0, 0, e]], dtype=float)
    got = np.linalg.eigvalsh(h)
    want = np.sort([0.0, e, eta * e, -eta * e])
    dev = float(np.max(np.abs(got - want)))
    if not dev <= SPECTRUM_TOL * max(1.0, abs(eta * e)):
        return f"spectrum misses {{0, e, +-eta e}} by {dev!r}"
    return None


def read_design(path: str, known: dict) -> DesignFile:
    if path not in known:
        doc = json.loads(Path(path).read_text())
        pots = np.asarray(doc.pop("potentials"), dtype=float)
        known[path] = DesignFile(doc, pots)
    return known[path]


def _check_design(op: Op, known: dict) -> str | None:
    f = read_design(op.out, known)
    doc, p = f.fields, f.potentials
    want = {"m": op.m, "eta": op.eta, "root_choice": op.root, "source": 1, "target": 2}
    for key, value in want.items():
        if doc.get(key) != value:
            return f"field {key!r} is {doc.get(key)!r}, expected {value!r}"
    a, b, c, d, e = (doc[k] for k in "abcde")
    if abs(b * b - op.m * c * c) > 1e-12 * max(1.0, b * b):
        return f"b**2 = {b * b!r} differs from m c**2"
    error = _spectrum_error(a, b, c, d, e, op.eta)
    if error:
        return error
    if p.size != op.m + 3 or p[0] != a or p[1] != e or p[2] != e or np.any(p[3:] != d):
        return "potentials are not (a, e, e, d, ..., d)"
    return None


def _check_retarget(op: Op, known: dict) -> str | None:
    out = Path(op.out).read_bytes()
    if op.same_as:
        if out != Path(op.same_as).read_bytes():
            return f"swap back to {op.target} is not byte-identical to {Path(op.same_as).name}"
        return None
    before, after = read_design(op.design, known), read_design(op.out, known)
    if after.fields["target"] != op.target or after.fields["source"] != before.fields["source"]:
        return f"route is {after.fields['source']}->{after.fields['target']}"
    for key, value in before.fields.items():
        if key not in ("target",) and after.fields.get(key) != value:
            return f"field {key!r} changed"
    expected = before.potentials.copy()
    old = before.fields["target"]
    expected[[old, op.target]] = expected[[op.target, old]]
    if not np.array_equal(expected, after.potentials):
        return "potentials are not the input's with the two targets swapped"
    return None


def _check_simulate(op: Op, known: dict) -> str | None:
    lines = Path(op.out).read_text().split("\n")
    if lines[0] != "t,fidelity" or lines[-1] != "" or len(lines) != SIM_STEPS + 2:
        return f"trace has the wrong shape ({len(lines) - 2} rows)"
    data = np.array([row.split(",") for row in lines[1:-1]], dtype=float)
    tau = read_design(op.design, known).fields["tau"]
    k = int(np.argmin(np.abs(data[:, 0] - tau)))
    if abs(data[k, 0] - tau) > 1e-9 * tau:
        return f"tau = {tau!r} is not on the grid (nearest {data[k, 0]!r})"
    if not data[k, 1] >= 1.0 - FIDELITY_TOL:
        return f"fidelity at tau is {data[k, 1]!r}"
    return None


def _check_verify(op: Op, stdout: str) -> str | None:
    last = stdout.strip().splitlines()[-1] if stdout.strip() else ""
    if not (last.lstrip().startswith("result") and last.endswith("PASS")):
        return f"verify did not print PASS ({last.strip()!r})"
    return None


def _check_sweep(op: Op, stdout: str) -> str | None:
    lines = stdout.split("\n")
    if lines[0] != SWEEP_HEADER or lines[-1] != "" or len(lines) != len(op.rows) + 2:
        return "sweep output has the wrong shape"
    for m, line in zip(op.rows, lines[1:-1]):
        cells = line.split(",")
        if int(cells[0]) != m:
            return f"row for m={cells[0]} where m={m} was due"
        eta = int(cells[1])
        e, a, d, tau = (float(x) for x in cells[2:6])
        value, scale = g_min(m, eta)
        if not value < 1e-9 * scale:
            return f"m={m}: eta={eta} is infeasible (g_min {value!r})"
        if eta > 2:
            value, scale = g_min(m, eta - 2)
            if not value > -1e-9 * scale:
                return f"m={m}: eta-2={eta - 2} is already feasible (g_min {value!r})"
        error = _spectrum_error(a, math.sqrt(m), 1.0, d, e, eta)
        if error:
            return f"m={m}: {error}"
        if abs(tau - math.pi / e) > 1e-12 * tau:
            return f"m={m}: tau is not pi/e"
    return None


def _check_oracle(op: Op, result) -> str | None:
    h, idx, arrow = result
    block = h[np.ix_(idx, idx)]
    dev = float(np.max(np.abs(block - arrow))) if block.shape == arrow.shape else math.inf
    if not dev < ORACLE_TOL:
        return f"one-excitation block deviates from the arrowhead by {dev!r}"
    return None


def check(op: Op, outcome: Outcome, known: dict) -> str | None:
    """None if the operation succeeded with a correct output, else why not."""
    if outcome.rc != 0:
        first = (outcome.err or outcome.out).strip().splitlines()
        return f"exit {outcome.rc}: {first[0] if first else ''}"
    try:
        if op.kind == "design":
            return _check_design(op, known)
        if op.kind == "retarget":
            return _check_retarget(op, known)
        if op.kind in ("simulate", "simulate_full"):
            return _check_simulate(op, known)
        if op.kind == "verify":
            return _check_verify(op, outcome.out)
        if op.kind == "sweep":
            return _check_sweep(op, outcome.out)
        return _check_oracle(op, outcome.result)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
