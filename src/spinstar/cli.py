"""Command-line front end.

Subcommands::

    design    solve for the local potentials given bystander count and ratio
    simulate  sample a transfer-fidelity trace to CSV
    verify    re-check a design file by exact dynamics
    sweep     tabulate minimal feasible designs across bystander counts
    retarget  redirect a design file to a new target node

Design files are JSON (schema_version 1); traces are two-column CSV with a
``t,fidelity`` header.  All numbers are written in full round-trip precision
and nothing in the output depends on the clock or on randomness, so reruns
with the same arguments are byte-identical.

Exit codes: 0 success, 1 usage or file errors, 2 infeasible design requests.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from . import designer, dynamics, model, switchboard
from .errors import InfeasibleDesignError, SpinStarError

SCHEMA_VERSION = 1


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through exceptions, so the
    command can map them to exit code 1 instead of argparse's default 2."""

    def error(self, message):
        raise _UsageError(message)


@dataclass(frozen=True)
class ParsedDesign:
    """A design file brought back to life: canonical solution plus the route
    and potentials the file is currently wired for."""

    solution: model.DesignSolution
    source: int
    target: int
    spec: model.StarSpec
    root_choice: designer.RootChoice


# ---------------------------------------------------------------------------
# Design file serialization
# ---------------------------------------------------------------------------

def design_document(sol: model.DesignSolution, source: int, target: int,
                    spec: model.StarSpec, root_choice: designer.RootChoice) -> dict:
    """JSON-ready dictionary for a design routed source -> target with the
    given realized potentials."""
    params = sol.params
    spectrum_dev, lambda_dev = designer.design_residuals(params, sol.eta, sol.target_spectrum)
    return {
        "schema_version": SCHEMA_VERSION,
        "m": params.m,
        "eta": sol.eta,
        "root_choice": str(root_choice),
        "source": int(source),
        "target": int(target),
        "a": params.a,
        "b": params.b,
        "c": params.c,
        "d": params.d,
        "e": params.e,
        "tau": sol.transfer_time,
        "spectrum": list(sol.target_spectrum),
        "coupling": spec.coupling,
        "potentials": list(spec.potentials),
        "residuals": {
            "root": sol.root_residual,
            "spectrum": spectrum_dev,
            "lambda": lambda_dev,
        },
    }


def render_design(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _field(doc: dict, name: str, kind) -> object:
    if name not in doc:
        raise ValueError(f"design file: missing field '{name}'")
    value = doc[name]
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"design file: field '{name}' must be a number, got {value!r}")
        return float(value)
    if kind is int:
        return model.check_int(value, f"design file: field '{name}'")
    if not isinstance(value, kind):
        raise ValueError(f"design file: field '{name}' has the wrong type, got {value!r}")
    return value


def parse_design_document(doc: dict) -> ParsedDesign:
    """Validate and reconstruct a design file, naming any offending field."""
    if not isinstance(doc, dict):
        raise ValueError("design file: top level must be a JSON object")
    version = _field(doc, "schema_version", int)
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"design file: field 'schema_version' must be {SCHEMA_VERSION}, got {version}"
        )
    m = _field(doc, "m", int)
    eta = _field(doc, "eta", int)
    try:
        root_choice = designer.RootChoice.parse(_field(doc, "root_choice", str))
    except ValueError as exc:
        raise ValueError(f"design file: field 'root_choice': {exc}") from exc
    a = _field(doc, "a", float)
    b = _field(doc, "b", float)
    c = _field(doc, "c", float)
    d = _field(doc, "d", float)
    e = _field(doc, "e", float)
    tau = _field(doc, "tau", float)
    spectrum = _field(doc, "spectrum", list)
    if len(spectrum) != 4 or any(
        isinstance(x, bool) or not isinstance(x, (int, float)) for x in spectrum
    ):
        raise ValueError("design file: field 'spectrum' must hold four numbers")
    coupling = _field(doc, "coupling", float)
    potentials = _field(doc, "potentials", list)
    if any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in potentials):
        raise ValueError("design file: field 'potentials' must hold numbers")
    if len(potentials) != m + 3:
        raise ValueError(
            f"design file: field 'potentials' must hold m + 3 = {m + 3} entries, "
            f"got {len(potentials)}"
        )
    residuals = _field(doc, "residuals", dict)
    if "root" not in residuals:
        raise ValueError("design file: field 'residuals' must contain 'root'")
    source = _field(doc, "source", int)
    target = _field(doc, "target", int)

    try:
        params = model.ReducedParams(a=a, b=b, c=c, d=d, e=e, m=m)
        solution = model.DesignSolution(
            params=params,
            eta=eta,
            transfer_time=tau,
            target_spectrum=tuple(float(x) for x in spectrum),
            root_residual=float(residuals["root"]),
            realized=model.StarSpec(
                edge_count=m + 2,
                coupling=c,
                potentials=(a, e, e) + (d,) * m,
            ),
        )
        spec = model.StarSpec(
            edge_count=m + 2,
            coupling=coupling,
            potentials=tuple(float(x) for x in potentials),
        )
        source, target = model.check_route(spec, params, source, target)
    except ValueError as exc:
        raise ValueError(f"design file: {exc}") from exc
    return ParsedDesign(
        solution=solution, source=source, target=target, spec=spec, root_choice=root_choice
    )


def load_design_file(path: str) -> ParsedDesign:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read design file {path!r}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"design file {path!r} is not valid JSON: {exc}") from exc
    return parse_design_document(doc)


def render_trace(trace: model.FidelityTrace) -> str:
    lines = ["t,fidelity"]
    for t, value in zip(trace.times, trace.values):
        lines.append(f"{float(t)!r},{float(value)!r}")
    return "\n".join(lines) + "\n"


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_design(ns) -> int:
    root_choice = designer.RootChoice.parse(ns.root)
    request = designer.DesignInput(m=ns.bystanders, eta=ns.eta, root_choice=root_choice)
    sol = designer.design(request)
    doc = design_document(sol, source=1, target=2, spec=sol.realized, root_choice=root_choice)
    _write_output(render_design(doc), ns.out)
    return 0


def _cmd_simulate(ns) -> int:
    parsed = load_design_file(ns.design)
    source = parsed.source if ns.source is None else ns.source
    target = parsed.target if ns.target is None else ns.target
    tau = parsed.solution.transfer_time
    grid = dynamics.transfer_time_grid(tau, t_max=ns.t_max, steps=ns.steps)
    if ns.full:
        h = model.build_arrowhead(parsed.spec).to_dense()
        trace = dynamics.fidelity_trace(h, grid, source, target)
    else:
        params = model.build_reduced(parsed.spec, source, target)
        h4 = model.reduced_matrix(params)
        trace = dynamics.fidelity_trace(h4, grid, 2, 3)
    _write_output(render_trace(trace), ns.out)
    return 0


def _cmd_verify(ns) -> int:
    parsed = load_design_file(ns.design)
    report = dynamics.verify_design(parsed.solution, tol=ns.tol)
    print(f"verification report (tol={ns.tol!r})")
    print(f"  spectrum deviation  : {report.spectrum_deviation:.6e}")
    print(f"  fidelity at tau     : {report.fidelity_at_tau:.15f}")
    print(f"  phase deviation     : {report.phase_deviation:.6e}")
    print(f"  reduction deviation : {report.reduction_deviation:.6e}")
    print(f"  parity check        : {'ok' if report.parity_check else 'FAILED'}")
    print(f"  result              : {'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


def _cmd_sweep(ns) -> int:
    if ns.m_min < 1:
        raise ValueError("--m-min must be at least 1")
    if ns.m_max < ns.m_min:
        raise ValueError("--m-max must be at least --m-min")
    print("m,eta,e,a,d,tau,abs_a_over_sqrt_m,abs_d_over_sqrt_m")
    for m in range(ns.m_min, ns.m_max + 1):
        eta = designer.min_feasible_even_eta(m)
        if ns.eta_max is not None and eta > ns.eta_max:
            print(f"m={m}: no feasible even eta up to {ns.eta_max}; skipping", file=sys.stderr)
            continue
        sol = designer.design(designer.DesignInput(m=m, eta=eta, root_choice=designer.SMALLEST))
        params = sol.params
        scale = math.sqrt(m)
        print(
            f"{m},{eta},{params.e!r},{params.a!r},{params.d!r},{sol.transfer_time!r},"
            f"{abs(params.a) / scale!r},{abs(params.d) / scale!r}"
        )
    return 0


def _cmd_retarget(ns) -> int:
    parsed = load_design_file(ns.design)
    state = switchboard.RoutingState(
        base=parsed.solution,
        source=parsed.source,
        target=parsed.target,
        realized_spec=parsed.spec,
    )
    new_state = switchboard.retarget(state, ns.target)
    doc = design_document(
        parsed.solution,
        source=new_state.source,
        target=new_state.target,
        spec=new_state.realized_spec,
        root_choice=parsed.root_choice,
    )
    _write_output(render_design(doc), ns.out)
    return 0


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spinstar",
        description="Design star networks that transfer single-excitation states "
        "between edge nodes, and verify them by exact dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="Solve a design request and emit a design file.")
    p.add_argument("--bystanders", type=int, required=True, metavar="M",
                   help="number of edge nodes that are neither source nor target")
    p.add_argument("--eta", type=int, required=True,
                   help="even spectrum ratio (the outer eigenvalue pair sits at +-eta*e)")
    p.add_argument("--root", default="smallest",
                   help="smallest | largest | index:k (default smallest)")
    p.add_argument("--out", default=None, help="output file (default: standard output)")
    p.set_defaults(handler=_cmd_design)

    p = sub.add_parser("simulate", help="Write a fidelity trace for a design file.")
    p.add_argument("--design", required=True, help="design file to simulate")
    p.add_argument("--t-max", type=float, default=None, dest="t_max",
                   help="end of the time window (default 1.2*tau)")
    p.add_argument("--steps", type=int, default=1000, help="grid points (default 1000)")
    p.add_argument("--source", type=int, default=None, help="source node (default: from file)")
    p.add_argument("--target", type=int, default=None, help="target node (default: from file)")
    p.add_argument("--full", action="store_true",
                   help="evolve the full (N+1)-dimensional star instead of the "
                   "exact four-level reduction")
    p.add_argument("--out", required=True, help="CSV output file")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("verify", help="Re-check a design file by exact dynamics.")
    p.add_argument("--design", required=True, help="design file to verify")
    p.add_argument("--tol", type=float, default=1e-9, help="tolerance (default 1e-9)")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("sweep", help="Minimal feasible designs for a range of sizes.")
    p.add_argument("--m-min", type=int, required=True, dest="m_min")
    p.add_argument("--m-max", type=int, required=True, dest="m_max")
    p.add_argument("--eta-max", type=int, default=None, dest="eta_max",
                   help="skip rows whose minimal feasible eta exceeds this")
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("retarget", help="Swap a design file onto a new target node.")
    p.add_argument("--design", required=True, help="design file to rewire")
    p.add_argument("--target", type=int, required=True, help="new target node")
    p.add_argument("--out", required=True, help="output design file")
    p.set_defaults(handler=_cmd_retarget)

    return parser


def execute(argv=None) -> int:
    """Run one invocation; returns the exit status instead of exiting."""
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse exits for --help
        return int(exc.code or 0)
    try:
        return ns.handler(ns)
    except InfeasibleDesignError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        report = exc.report
        if report is not None:
            print(f"  g_min (must be < 0)  : {report.g_min!r}", file=sys.stderr)
            print(f"  e_star               : {report.e_star!r}", file=sys.stderr)
            print(f"  asymptotic eta scale : {report.asymptotic_threshold!r}", file=sys.stderr)
        return 2
    except (ValueError, SpinStarError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(execute(sys.argv[1:]))


if __name__ == "__main__":
    main()
