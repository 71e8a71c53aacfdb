"""Command-line front end.

Subcommands::

    design    solve for the local potentials given bystander count and ratio
    simulate  sample a transfer-fidelity trace to CSV
    verify    re-check a design file's own star and route by exact dynamics
    sweep     tabulate minimal feasible designs across bystander counts
    retarget  redirect a design file to a new target node

Design files are JSON (schema_version 1); traces are two-column CSV with a
``t,fidelity`` header.  All numbers are written in full round-trip precision
and nothing in the output depends on the clock or on randomness, so reruns
with the same arguments are byte-identical.  A trace is written in blocks
of rows, each formatted by one ``%``, so its text is never held whole.

A design file spells out all ``m + 3`` potentials, but no command holds a
whole file that the commands wrote in memory.  Writing one streams blocks
of about 64 KiB, a run of background entries being one block repeated: one
``os.writev`` (POSIX) takes up to ``IOV_MAX`` copies of it.  Reading one
decodes only its header and what follows the array.  The header names the
star (``a`` at the hub, ``e`` at ``source`` and ``target``, ``d`` on every
other edge), and the file is compared, block by block, with the rendering
of that star.  Any other file is decoded whole by ``json.loads``, with the
same result.  Writing and reading a file that the commands wrote take a few
blocks of memory and at most one Python step per block.  Everything else a
command does works on the star's hub, background and exceptions and is
``O(1)`` in ``m``.  ``verify`` evolves the file's own star along the file's
own route.  Requests beyond the envelope ``m <= 10**6``, ``eta <= 1 400 000``,
``--steps <= 10**6`` are refused before any work that grows with them.

The argument parser is built once, when this module is imported, so a
caller that runs :func:`execute` many times in one process pays only for
parsing and for the command.

Exit codes: 0 success, 1 usage or file errors, 2 infeasible design requests.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from itertools import chain, repeat
from operator import itemgetter

import numpy as np

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
class ParsedDesign(switchboard.RoutingState):
    """A design file brought back to life: the routed design it holds, plus
    the root policy it was solved with.  Construction checks the route once
    (:class:`~spinstar.switchboard.RoutingState`)."""

    root_choice: designer.RootChoice

    @property
    def solution(self) -> model.DesignSolution:
        return self.base

    @property
    def spec(self) -> model.StarSpec:
        return self.realized_spec


# ---------------------------------------------------------------------------
# Design file serialization
# ---------------------------------------------------------------------------

def design_document(sol: model.DesignSolution, source: int, target: int,
                    spec: model.StarSpec, root_choice: designer.RootChoice) -> dict:
    """JSON-ready dictionary for a design routed source -> target with the
    given realized potentials, spelled out node by node (``O(N)``)."""
    doc = _document(sol, source, target, spec, root_choice)
    doc["potentials"] = list(spec.potentials)
    return doc


def _document(sol: model.DesignSolution, source: int, target: int,
              spec: model.StarSpec, root_choice: designer.RootChoice) -> dict:
    """:func:`design_document` with the star itself under ``potentials``,
    for :func:`render_design`; ``O(1)``.  The spectrum and lambda residuals
    are the solution's own, computed here only if it carries none."""
    params = sol.params
    spectrum_dev, lambda_dev = sol.spectrum_residual, sol.lambda_residual
    if spectrum_dev is None or lambda_dev is None:
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
        "potentials": spec,
        "residuals": {
            "root": sol.root_residual,
            "spectrum": spectrum_dev,
            "lambda": lambda_dev,
        },
    }


# Only a top-level key follows a newline and exactly two spaces.
_KEY = '\n  "potentials": '
_SEP = ",\n    "


# The most item texts one layout keeps, so a write's memory does not grow
# with the number of distinct exception values.
_ITEM_TEXTS_MAX = 64


class _ItemTexts(dict):
    """A list item's text, ``",\n    " + repr(x)``, for each float looked up,
    formatted once for each of the first ``_ITEM_TEXTS_MAX`` distinct values
    and every time for any other.  A zero is formatted every time:
    ``0.0 == -0.0``, so one entry would serve both."""

    def __missing__(self, value: float) -> str:
        text = _SEP + float.__repr__(value)
        if value and len(self) < _ITEM_TEXTS_MAX:
            self[value] = text
        return text


def _layout(doc: dict):
    """The design-file layout of ``doc``: an iterator of ``(text, repeat)``
    pieces whose ``text * repeat`` concatenate to ``render_design(doc)``.

    The pieces are the header through the hub's potential, each run of
    background entries followed by the exception that ends it, the last run,
    and the rest of the header.  ``O(len(exceptions))`` in Python.
    """
    star = doc["potentials"]
    if isinstance(star, model.StarSpec):
        count, hub, background, exceptions = (
            star.edge_count + 1, star.hub, star.background, star.exceptions)
    else:
        count = len(star)
        hub, background, exceptions = model.split_potentials(star)
    nodes = [0, *map(itemgetter(0), exceptions), count]
    repeats = [b - a - 1 for a, b in zip(nodes, nodes[1:])]
    texts = map(_ItemTexts().__getitem__, map(itemgetter(1), exceptions))
    run = _SEP + float.__repr__(background)
    head, tail = json.dumps({**doc, "potentials": []}, indent=2).split(_KEY + "[]")
    return chain(
        ((head + _KEY + "[\n    " + float.__repr__(hub), 1),),
        # each run of background entries, then the exception after it
        chain.from_iterable(zip(zip(repeat(run), repeats), zip(texts, repeat(1)))),
        ((run, repeats[-1]), ("\n  ]" + tail + "\n", 1)),
    )


# Design files are written, and compared when read, in blocks of about this
# many bytes, so no command holds a whole design file in memory.
_BLOCK_BYTES = 65536

# Buffers one os.writev takes (POSIX guarantees at least 16).
_IOV_MAX = max(16, os.sysconf("SC_IOV_MAX"))


def _blocks(doc: dict):
    """The bytes of the design file of ``doc`` as an iterator of
    ``(block, times)`` pairs, each block of at most about ``_BLOCK_BYTES``
    bytes; the blocks, each repeated ``times`` times, concatenate to
    ``render_design(doc).encode()``.

    A run of background entries is one block, built once, with the number of
    times it repeats.  Python work is ``O(len(exceptions))`` plus one step per
    pair.
    """
    buf, size = [], 0
    for text, count in _layout(doc):
        text = text.encode()
        width = len(text)
        if size + width * count < _BLOCK_BYTES:
            buf.append(text * count)
            size += width * count
            continue
        # Top up the pending block, then emit whole blocks of this text.
        fill = (_BLOCK_BYTES - size) // width
        buf.append(text * fill)
        yield b"".join(buf), 1
        count -= fill
        copies = max(1, _BLOCK_BYTES // width)
        if count >= copies:
            yield text * copies, count // copies
        size = width * (count % copies)
        buf = [text * (count % copies)]
    yield b"".join(buf), 1


def render_design(doc: dict) -> str:
    """``json.dumps(doc, indent=2) + "\n"``, in time linear in the output
    bytes and ``O(len(exceptions))`` in Python: the join of :func:`_blocks`.

    ``doc["potentials"]`` is a :class:`~spinstar.model.StarSpec` (what the
    commands write) or a non-empty list of finite floats, which is split into
    the same hub, background and exceptions in one pass.  The hub, the
    background and each exception are formatted once, and each run of
    background entries is one string repetition (:func:`_layout`).
    """
    return b"".join(block * times for block, times in _blocks(doc)).decode()


def _write_design(doc: dict, out: str | None) -> None:
    """Write the design file of ``doc`` to ``out`` (standard output if
    ``None``), never holding the whole file.

    To a file, each run of identical blocks is one ``os.writev`` per
    ``_IOV_MAX`` copies, and distinct blocks are written one at a time, so a
    write holds one block.  The file is created as ``open(out, "wb")``
    creates it, with the same errors.  To standard output, each distinct
    block is decoded once.
    """
    blocks = _blocks(doc)
    if out is None:
        for block, times in blocks:
            text = block.decode()
            for _ in range(times):
                sys.stdout.write(text)
        return
    fd = os.open(out, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        for block, times in blocks:
            # A short write goes on from its first unwritten byte, which may
            # lie partway into a copy.
            view, width = memoryview(block), len(block)
            done, total = 0, width * times
            while done < total:
                copy, skip = divmod(done, width)
                count = min(_IOV_MAX, times - copy)
                done += os.writev(fd, [view[skip:]] + [block] * (count - 1))
    finally:
        os.close(fd)


def _float(value, name: str) -> float:
    """``value`` as a ``float``; an integer too large for one is an error
    naming the field ``name``."""
    try:
        return float(value)
    except OverflowError as exc:
        raise ValueError(f"design file: field '{name}': {exc}") from exc


def _field(doc: dict, name: str, kind, path: str | None = None) -> object:
    """``doc[name]`` checked as ``kind``; ``path`` names a nested field in
    the error for a number too large for a float."""
    if name not in doc:
        raise ValueError(f"design file: missing field '{name}'")
    value = doc[name]
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"design file: field '{name}' must be a number, got {value!r}")
        return _float(value, path or name)
    if kind is int:
        return model.check_int(value, f"design file: field '{name}'")
    if not isinstance(value, kind):
        raise ValueError(f"design file: field '{name}' has the wrong type, got {value!r}")
    return value


def parse_design_document(doc: dict) -> ParsedDesign:
    """Validate and reconstruct a design file, naming any offending field.

    ``doc["potentials"]`` is the per-node list of a decoded file or, as for
    :func:`render_design`, a :class:`~spinstar.model.StarSpec`, whose
    per-node potentials are taken with the document's ``coupling``.
    """
    if not isinstance(doc, dict):
        raise ValueError("design file: top level must be a JSON object")
    version = _field(doc, "schema_version", int)
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"design file: field 'schema_version' must be {SCHEMA_VERSION}, got {version}"
        )
    m = _field(doc, "m", int)
    eta = _field(doc, "eta", int)
    _float(eta, "eta")  # eta stays an int, but the design forms eta * e
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
    spectrum = tuple(_float(x, "spectrum") for x in spectrum)
    coupling = _field(doc, "coupling", float)
    potentials = _field(doc, "potentials", (list, model.StarSpec))
    is_star = isinstance(potentials, model.StarSpec)
    # type(True) is bool, so booleans are refused here too.
    if not is_star and not set(map(type, potentials)) <= {int, float}:
        raise ValueError("design file: field 'potentials' must hold numbers")
    count = potentials.edge_count + 1 if is_star else len(potentials)
    if count != m + 3:
        raise ValueError(
            f"design file: field 'potentials' must hold m + 3 = {m + 3} entries, got {count}"
        )
    residuals = _field(doc, "residuals", dict)
    if "root" not in residuals:
        raise ValueError("design file: field 'residuals' must contain 'root'")
    root_residual = _field(residuals, "root", float, "residuals.root")
    source = _field(doc, "source", int)
    target = _field(doc, "target", int)

    try:
        params = model.ReducedParams(a=a, b=b, c=c, d=d, e=e, m=m)
        solution = model.DesignSolution(
            params=params,
            eta=eta,
            transfer_time=tau,
            target_spectrum=spectrum,
            root_residual=root_residual,
            realized=model.routed_star(params),
        )
        if is_star:
            spec = model.StarSpec.sparse(m + 2, coupling, potentials.hub,
                                         potentials.background, potentials.exceptions)
        else:
            try:
                spec = model.StarSpec(edge_count=m + 2, coupling=coupling, potentials=potentials)
            except OverflowError as exc:
                raise ValueError(f"field 'potentials': {exc}") from exc
        return ParsedDesign(base=solution, source=source, target=target, realized_spec=spec,
                            root_choice=root_choice)
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"design file: {exc}") from exc


class _FloatMemo(dict):
    """``parse_float`` for ``json.loads`` that converts each distinct decimal
    string once.  Equal strings give bit-identical floats, so the result is
    exactly what ``float`` gives; one memo per file keeps it bounded."""

    def __missing__(self, text: str) -> float:
        value = self[text] = float(text)
        return value


# Files shorter than this are decoded whole: below it, re-rendering the
# header (``json.dumps(indent=2)`` runs in Python) costs more than decoding
# the array.  Timed through load_design_file, both reads cost the same near
# m = 300 (8 KB), and the byte comparison wins from about m = 400.
_FAST_READ_MIN_BYTES = 8192


# A file is first read this far; its header lies inside.
_HEAD_BYTES = 4096
# Longer than what follows the array in any written file.
_TAIL_BYTES = 256


def _read_rendered(fh, size: int) -> dict | None:
    """The document of the ``size``-byte file ``fh`` (binary, at offset 0)
    with a :class:`~spinstar.model.StarSpec` under ``"potentials"``, if the
    file is exactly what the commands write for the design its header
    names; ``None`` otherwise.

    Only the header and what follows the array are decoded.  They name the
    star: ``a`` at the hub, ``e`` at ``source`` and ``target``, ``d`` on
    every other edge.  The file is then compared with :func:`_blocks` of
    that document, one read per block.  A file that matches is the
    rendering of this document, so ``json.loads`` would give the same one.
    """
    head = fh.read(_HEAD_BYTES)
    start = head.find((_KEY + "[\n").encode())
    if start < 0:
        return None
    try:
        fh.seek(max(0, size - _TAIL_BYTES))
        tail = fh.read(_TAIL_BYTES)
        end = tail.rfind(b"\n  ]")
        if end < 0:
            return None
        doc = json.loads((head[:start] + (_KEY + "[]").encode() + tail[end + 4:]).decode())
        doc["potentials"] = model.StarSpec.sparse(
            doc["m"] + 2, doc["coupling"], doc["a"], doc["d"],
            sorted(((doc["source"], doc["e"]), (doc["target"], doc["e"]))))
        fh.seek(0)
        for block, times in _blocks(doc):
            for _ in range(times):
                if fh.read(len(block)) != block:
                    return None
        return doc if fh.tell() == size else None
    except (ValueError, TypeError, KeyError, OverflowError, RecursionError, OSError):
        return None


def load_design_file(path: str) -> ParsedDesign:
    """Read, validate and reconstruct the design file at ``path``.

    A file of at least ``_FAST_READ_MIN_BYTES`` bytes that is exactly what
    the commands write for the design its header names is read by comparing
    it, block by block, with the rendering of that star
    (:func:`_read_rendered`): ``O(1)`` in Python and in memory, the rest
    byte comparisons in C.  Every other file, even one that differs from
    that rendering only in the bits of an item, is read whole and decoded
    by ``json.loads``, so both reads give the same :class:`ParsedDesign`
    and every error comes from the full decode.
    """
    try:
        with open(path, "rb", buffering=0) as fh:
            size, doc = os.fstat(fh.fileno()).st_size, None
            if size >= _FAST_READ_MIN_BYTES:
                doc = _read_rendered(fh, size)
                fh.seek(0)
            if doc is None:
                data = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read design file {path!r}: {exc}") from exc
    if doc is None:
        # One UTF-8 decode, without read_text's newline translation: JSON
        # reads "\r" as whitespace, so the document is the same.
        try:
            doc = json.loads(data.decode("utf-8"), parse_float=_FloatMemo().__getitem__)
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"design file {path!r} is not valid JSON: {exc}") from exc
    return parse_design_document(doc)


# A fidelity trace is written in blocks of at most this many rows, so a
# write holds one block of its CSV text, not the whole text.
_TRACE_ROWS = 4096


def _trace_blocks(trace: model.FidelityTrace):
    """The CSV text of ``trace`` as an iterator of strings: the header, then
    blocks of at most ``_TRACE_ROWS`` rows ``repr(t),repr(fidelity)``.

    Each block is one ``%`` over the block's times and values interleaved,
    so the Python work per row is the two ``float.__repr__`` calls.
    """
    yield "t,fidelity\n"
    times, values = trace.times, trace.values
    for start in range(0, times.size, _TRACE_ROWS):
        stop = start + _TRACE_ROWS
        cells = np.column_stack((times[start:stop], values[start:stop])).ravel().tolist()
        yield ("%r,%r\n" * (len(cells) // 2)) % tuple(cells)


def render_trace(trace: model.FidelityTrace) -> str:
    """The ``t,fidelity`` CSV text of ``trace``: the join of
    :func:`_trace_blocks`."""
    return "".join(_trace_blocks(trace))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_design(ns) -> int:
    root_choice = designer.RootChoice.parse(ns.root)
    request = designer.DesignInput(m=ns.bystanders, eta=ns.eta, root_choice=root_choice)
    sol = designer.design(request)
    doc = _document(sol, source=1, target=2, spec=sol.realized, root_choice=root_choice)
    _write_design(doc, ns.out)
    return 0


def _cmd_simulate(ns) -> int:
    parsed = load_design_file(ns.design)
    source = parsed.source if ns.source is None else ns.source
    target = parsed.target if ns.target is None else ns.target
    star = parsed.realized_spec
    grid = dynamics.transfer_time_grid(parsed.base.transfer_time, t_max=ns.t_max, steps=ns.steps)
    if ns.full:
        amps = dynamics.StarEvolution.from_spec(star).amplitudes(grid, source, target)
        trace = model.FidelityTrace(times=grid, values=np.abs(amps) ** 2)
    else:
        # On the file's own route, loading has checked the star against the
        # header's (a, b, c, d, e) by the route rule; evolve those.
        own_route = (source, target) == (parsed.source, parsed.target)
        params = parsed.base.params if own_route else model.build_reduced(star, source, target)
        h4 = model.reduced_matrix(params)
        trace = dynamics.fidelity_trace(h4, grid, 2, 3)
    # Every refusal has been raised by now, so a refused request writes no file.
    with open(ns.out, "w") as fh:
        fh.writelines(_trace_blocks(trace))
    return 0


def _cmd_verify(ns) -> int:
    parsed = load_design_file(ns.design)
    report = dynamics.verify_design(parsed.base, tol=ns.tol, spec=parsed.realized_spec,
                                    source=parsed.source, target=parsed.target)
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
    designer.check_envelope(m=ns.m_max)
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
    moved = switchboard.retarget(parsed, ns.target)
    doc = _document(moved.base, source=moved.source, target=moved.target,
                    spec=moved.realized_spec, root_choice=parsed.root_choice)
    _write_design(doc, ns.out)
    return 0


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    """A fresh ``spinstar`` parser; :func:`execute` shares one built at import."""
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


# Built once per process, at import.  Parsing keeps no state in the parser:
# each parse_args call fills a fresh namespace, ``prog`` is fixed, the help
# width is read when help is printed, and usage errors raise.
_PARSER = build_parser()


def execute(argv=None) -> int:
    """Run one invocation; returns the exit status instead of exiting.

    Uses the parser built at import, so an in-process caller pays only for
    parsing ``argv`` and for the command itself.
    """
    try:
        ns = _PARSER.parse_args(argv)
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
