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
of rows, each formatted as ``repr`` would by a fixed sequence of numpy
calls over the whole block, so its text is never held whole.

A design file spells out all ``m + 3`` potentials, but no command holds a
whole file that the commands wrote in memory.  A command's document holds
the star itself (:func:`design_document`), which :func:`render_design`
spells out.  The text before and after the array is one ``%`` each over
formats that ``json.dumps(indent=2)`` built at import, one per layout a
schema-1 file has (residuals ``root``, ``spectrum`` and ``lambda``, as the
commands write, or ``root`` alone), so no command runs the JSON encoder.
Writing a file streams blocks of about 64 KiB, a run of background entries
being one block repeated: one ``os.writev`` (POSIX) takes up to 32 copies
of it.  Reading a file of at least 2304 bytes whose header has one of those
layouts decodes only its header and what follows the array.  The header
names the star (``a`` at the hub, ``e`` at ``source`` and ``target``,
``d`` on every other edge), and the file is compared, block by block, with
the rendering of that star.  Any other file is decoded whole by
``json.loads``, with the same result.
Writing and reading a file that the commands wrote take a few blocks of
memory and at most one Python step per block.  Everything else a command
does works on the star's hub, background and exceptions and is ``O(1)`` in
``m``, as ``tests/test_cli.py::test_every_command_is_constant_time_in_m``
counts.  ``verify`` evolves the file's own star along the file's own route
and checks the file's stored residuals and root choice against its design.
``sweep`` designs its rows in blocks of 1024, each by one
:func:`designer.design_block`: two LAPACK calls per block, not per row, and
scalar arithmetic on floats for everything else, so a row builds no design
object; each row's floats are formatted by one f-string.
``design`` and ``sweep`` requests beyond the envelope ``m <= 10**6``,
``eta <= 1 400 000``, and ``--steps`` beyond ``10**6``, are refused before
any work that grows with them.  A design file, however, is read at whatever
``m`` and ``eta`` its header holds: a hand-made file beyond the envelope is
verified, simulated and retargeted like any other, and a schema-1 file of
larger ``m`` takes a larger write.  Refusing such files by name is left to
the sparse schema-2 files of ROADMAP.md item 4, which keep schema 1 at
``m <= 10**6``.

The argument parser is built once, when this module is imported, so a
caller that runs :func:`execute` many times in one process pays only for
parsing and for the command.  Arguments that open with a subcommand's name
are parsed once, by that subcommand's own parser.

Exit codes: 0 success, 1 usage or file errors, 2 infeasible design requests.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass
from itertools import chain
from types import SimpleNamespace

import numpy as np

from . import designer, dynamics, model, switchboard
from .errors import InfeasibleDesignError, SpinStarError

SCHEMA_VERSION = 1

# Rows of a sweep designed together, by one designer.design_block: one
# companion eigvals and one eigvalsh call for all of them.
_SWEEP_BLOCK = 1024


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

    # No command reads these two aliases; bench/ops.py does.
    @property
    def solution(self) -> model.DesignSolution:
        return self.base

    @property
    def spec(self) -> model.StarSpec:
        return self.realized_spec


# ---------------------------------------------------------------------------
# Design file serialization
# ---------------------------------------------------------------------------

# The design file's top-level fields with their JSON kinds, in the order the
# commands write them: the keys of _layout and of parse_design_document.
_FIELDS = {"schema_version": int, "m": int, "eta": int, "root_choice": str, "source": int,
           "target": int, "a": float, "b": float, "c": float, "d": float, "e": float,
           "tau": float, "spectrum": list, "coupling": float,
           "potentials": (list, model.StarSpec), "residuals": dict}


def design_document(sol: model.DesignSolution, source: int, target: int,
                    spec: model.StarSpec, root_choice: designer.RootChoice) -> dict:
    """JSON-ready dictionary for a design routed source -> target, with the
    realized star itself under ``potentials``; ``O(1)``.  :func:`render_design`
    spells the star out node by node.  The residuals are the solution's own,
    as they are: the designer's for a fresh design, the file's for one read
    back.  A solution that holds its spectrum and lambda residuals writes
    ``root``, ``spectrum`` and ``lambda``; one without them (they come as a
    pair), such as one read from a file written without them, writes
    ``root`` alone."""
    params, pair = sol.params, (sol.spectrum_residual, sol.lambda_residual)
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
        "residuals": {"root": sol.root_residual} if None in pair else {
            "root": sol.root_residual, "spectrum": pair[0], "lambda": pair[1]},
    }


# Only a top-level key follows a newline and exactly two spaces.
_KEY = '\n  "potentials": '
_SEP = ",\n    "


def _layout(residuals: tuple) -> tuple[tuple, tuple[str, str]]:
    """The layout of a design file whose residuals have the keys
    ``residuals``: the keys of ``_FIELDS`` followed by those, and its text
    before and after the potentials' entries as two ``%`` formats.  The
    formats are what ``json.dumps(indent=2)`` writes for those keys in
    ``_FIELDS``'s order, with ``%r`` in place of each number and ``"%s"``
    for ``root_choice``."""
    doc = dict.fromkeys(_FIELDS, "%r")
    doc.update(root_choice="%s", spectrum=["%r"] * 4, potentials=[],
               residuals=dict.fromkeys(residuals, "%r"))
    head, tail = json.dumps(doc, indent=2).replace('"%r"', "%r").split(_KEY + "[]")
    return (*doc, *residuals), (head + _KEY + "[\n    ", "\n  ]" + tail + "\n")


# Each layout a schema-1 file has: what the commands write, and files written
# before the spectrum and lambda residuals were stored.
_LAYOUTS = dict(map(_layout, (("root", "spectrum", "lambda"), ("root",))))


# Design files are written, and compared when read, in blocks of about this
# many bytes, so no command holds a whole design file in memory.
_BLOCK_BYTES = 65536

# Buffers one os.writev takes: at most the system's limit (POSIX guarantees
# at least 16), and few enough that the call's own array of them, about
# 100 bytes each, stays small beside one block.
_IOV_MAX = min(32, max(16, os.sysconf("SC_IOV_MAX")))


def _blocks(doc: dict):
    """The bytes of the design file of ``doc`` as an iterator of
    ``(block, times)`` pairs; the blocks, each repeated ``times`` times,
    concatenate to ``render_design(doc).encode()``.

    The text before and after the potentials' entries is one ``%`` each
    over the format of ``doc``'s layout (``_LAYOUTS``); a document of any
    other layout, or whose spectrum is not four values, raises ``KeyError``
    or ``TypeError``.  The hub, the background and each exception are
    formatted once.  A run of background entries long enough to fill a
    block is one block of whole entries with the number of times it
    repeats, then the rest of the run as a ``memoryview`` prefix of that
    block; everything else is gathered into one buffer, yielded once it
    reaches ``_BLOCK_BYTES``.  Python work is ``O(len(exceptions))`` plus
    one step per pair, as
    ``tests/test_sparse_star.py::test_sparse_paths_scale_with_exceptions_not_m``
    counts.
    """
    star, residuals = doc["potentials"], doc["residuals"]
    head, tail = _LAYOUTS[(*doc, *residuals)]
    *fields, spectrum, coupling, _, _ = doc.values()
    run = _SEP + float.__repr__(star.background)
    copies = _BLOCK_BYTES // len(run)
    buf = [head % (*fields, *spectrum, coupling) + float.__repr__(star.hub)]
    size, last = len(buf[0]), 0
    # each exception, then the end of the array, after the run that precedes it
    for node, text in chain(((j, _SEP + float.__repr__(value)) for j, value in star.exceptions),
                            ((star.edge_count + 1, tail % tuple(residuals.values())),)):
        times, rest = divmod(node - last - 1, copies)
        if times or size >= _BLOCK_BYTES:
            yield "".join(buf).encode(), 1
            buf, size = [], 0
        if times:
            block = run.encode() * copies
            yield block, times
            yield memoryview(block)[:len(run) * rest], 1
            rest = 0
        buf += run * rest, text
        size += len(run) * rest + len(text)
        last = node
    yield "".join(buf).encode(), 1


def render_design(doc: dict) -> str:
    """The design file of ``doc``, whose ``potentials`` is a
    :class:`~spinstar.model.StarSpec`, with the star spelled out node by
    node: ``json.dumps(doc, indent=2) + "\n"`` once ``potentials`` is
    ``list(star.potentials)``, for a ``doc`` of one of the layouts in
    ``_LAYOUTS``, whose text around the array is one ``%`` each.  Time is
    linear in the output bytes and ``O(len(exceptions))`` in Python: the
    join of :func:`_blocks`, which
    ``tests/test_sparse_star.py::test_sparse_paths_scale_with_exceptions_not_m``
    counts.
    """
    return b"".join(bytes(block) * times for block, times in _blocks(doc)).decode()


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
            text = str(block, "ascii")
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
    """``doc[name]`` checked as ``kind``; every error names the field by
    ``path`` (a nested field's, such as ``residuals.root``) or else by
    ``name``."""
    path = path or name
    if name not in doc:
        raise ValueError(f"design file: missing field '{path}'")
    value = doc[name]
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"design file: field '{path}' must be a number, got {value!r}")
        return _float(value, path)
    if kind is int:
        return model.check_int(value, f"design file: field '{path}'")
    if not isinstance(value, kind):
        raise ValueError(f"design file: field '{path}' has the wrong type, got {value!r}")
    return value


def parse_design_document(doc: dict) -> ParsedDesign:
    """Validate and reconstruct a design file, naming any offending field.

    ``schema_version`` is checked first, so a file of another schema is named
    as one.  Then every field of ``_FIELDS`` is checked for presence and
    kind, in file order, and then the rules a kind cannot express: ``eta``
    within the float range, the root choice, the spectrum's four numbers,
    the potentials' entries and count, and the residuals.  A file with
    several defects is named by the first of them in that order.

    ``doc["potentials"]`` is the per-node list of a decoded file or, as for
    :func:`render_design`, a :class:`~spinstar.model.StarSpec`, whose
    per-node potentials are taken with the document's ``coupling``: the star
    itself when its coupling is that one.  ``residuals.spectrum`` and
    ``residuals.lambda``, where the file has them, are carried into the
    solution, so a command that writes the design again writes them as read.
    They come as a pair: a file that holds one must hold the other.
    ``tau`` and ``spectrum`` are checked against the values the solution
    derives (:class:`~spinstar.model.DesignSolution`) and not kept.
    """
    if not isinstance(doc, dict):
        raise ValueError("design file: top level must be a JSON object")
    version = _field(doc, "schema_version", int)
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"design file: field 'schema_version' must be {SCHEMA_VERSION}, got {version}"
        )
    (_, m, eta, root_choice, source, target, a, b, c, d, e, tau, spectrum, coupling, potentials,
     residuals) = [_field(doc, name, kind) for name, kind in _FIELDS.items()]
    _float(eta, "eta")  # eta stays an int, but the design forms eta * e
    try:
        root_choice = designer.RootChoice.parse(root_choice)
    except ValueError as exc:
        raise ValueError(f"design file: field 'root_choice': {exc}") from exc
    # A list of JSON numbers; type(True) is bool, so booleans are refused too.
    if len(spectrum) != 4 or not set(map(type, spectrum)) <= {int, float}:
        raise ValueError("design file: field 'spectrum' must hold four numbers")
    spectrum = tuple(_float(x, "spectrum") for x in spectrum)
    is_star = isinstance(potentials, model.StarSpec)
    if not is_star and not set(map(type, potentials)) <= {int, float}:
        raise ValueError("design file: field 'potentials' must hold numbers")
    count = potentials.edge_count + 1 if is_star else len(potentials)
    if count != m + 3:
        raise ValueError(
            f"design file: field 'potentials' must hold m + 3 = {m + 3} entries, got {count}"
        )
    root_residual = _field(residuals, "root", float, "residuals.root")
    spectrum_residual = lambda_residual = None
    if "spectrum" in residuals or "lambda" in residuals:
        spectrum_residual, lambda_residual = (
            _field(residuals, key, float, f"residuals.{key}") for key in ("spectrum", "lambda"))

    try:
        solution = model.DesignSolution(
            params=model.ReducedParams(a=a, b=b, c=c, d=d, e=e, m=m),
            eta=eta,
            transfer_time=tau,
            target_spectrum=spectrum,
            root_residual=root_residual,
            spectrum_residual=spectrum_residual,
            lambda_residual=lambda_residual,
        )
        if is_star:
            spec = potentials if potentials.coupling == coupling else model.StarSpec.sparse(
                m + 2, coupling, potentials.hub, potentials.background, potentials.exceptions)
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


# Files shorter than this are decoded whole: below it, decoding the array
# costs less than the fast read's fixed cost (a header decode, one ``%`` per
# part of it and a few reads).  Timed through load_design_file, medians of
# 11 interleaved runs, both reads cost the same near m = 70 (2.3 KB): the
# fast read about 80 us at any m, the whole decode 63 us at m = 1 and 116 us
# at m = 300.
_FAST_READ_MIN_BYTES = 2304


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
    that document, one read per block; a document of no layout in
    ``_LAYOUTS`` (other keys or key order, a spectrum that is not four
    values) makes :func:`_blocks` raise, and gives ``None``.  A file that
    matches is the ``%`` rendering of the document decoded from its own
    header, so ``json.loads`` of the whole file gives that same document.
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
            width = len(block)
            for _ in range(times):
                # A read returns at most width bytes, so this is ==, but by
                # memcmp also for a memoryview, which == compares by item.
                if not fh.read(width).startswith(block):
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
    byte comparisons in C, as ``verify`` and ``retarget`` in
    ``tests/test_cli.py::test_every_command_is_constant_time_in_m`` count,
    and ``tests/test_cli.py::test_written_file_array_is_never_decoded``
    checks that only the header is decoded.  Every other file, even one
    that differs from that rendering only in the bits of an item, is read
    whole and decoded by ``json.loads``, so both reads give the same
    :class:`ParsedDesign` and every error comes from the full decode.
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
# write holds one block of its CSV text, and of the temporaries that format
# it, not the whole text.
_TRACE_ROWS = 4096

_LE64, _LE32 = np.dtype("<u8"), np.dtype("<u4")
_POW10 = 10 ** np.arange(18, dtype=np.uint64)
_COLUMN = np.arange(2 * _TRACE_ROWS) & 1


@functools.cache
def _trace_tables() -> SimpleNamespace:
    """The tables that :func:`_csv_rows` formats numbers by, built on first
    use (a few ms), so that no other command pays for them.

    Schubfach's, by ``2 * biased exponent + edge``, where ``edge`` marks a
    power of two above the subnormals: the decimal exponent ``k``, the shift
    ``h`` and, of the 126-bit ``g = floor(10**-k * 2**-r) + 1`` with
    ``2**125 <= g < 2**126``, ``g1 = g >> 63`` and the 32-bit halves of
    ``g1`` and of ``g0 = g mod 2**63``.  The constants are Giulietti's
    integer forms of ``floor(log10(2**q))``, ``floor(log10(3/4 * 2**q))``
    and ``floor(log2(10**e))``.

    The layout's, by ``e``, the exponent of a number's first digit plus 324:
    how many digits a positional number shows at least (``shown``), and
    after how many of them the point goes (``point``, 24 for none).  By
    ``2 * e + sign bit``, the text before the digits (``head``), and by
    ``2 * e + column``, the text after them (``tail``), each right-aligned
    in 8 NUL bytes.  By ``p`` in ``0..24``, 24 bytes that keep the first
    ``p`` (``keep``) and 24 bytes with a point at ``p`` (``dot``).  By
    ``c`` in ``0..9999``, ``b"%04d" % c`` (``chunks``), and, for ``c`` as
    the ``i``-th of the four 4-digit chunks that open a number's 17 digits,
    how many of those digits run up to the chunk's last nonzero one
    (``significant[i]``, 0 for ``c = 0``).
    """
    q = np.repeat(np.maximum(np.arange(2047), 1) - 1075, 2)
    k = (q * 661_971_961_083 - np.tile([0, 274_743_187_321], 2047)) >> 41
    ks = np.arange(-324, 293)
    r = (-ks * 913_124_641_741 >> 38) - 125
    g = [(10 ** max(-j, 0) << max(-s, 0)) // (10 ** max(j, 0) << max(s, 0)) + 1
         for j, s in zip(ks.tolist(), r.tolist())]
    g1, g1_lo, g1_hi, g0_lo, g0_hi = np.array(
        [[x >> 63, x >> 63 & 0xFFFFFFFF, x >> 95, x & 0xFFFFFFFF, x >> 32 & 0x7FFFFFFF] for x in g],
        dtype=np.uint64)[k + 324].T.copy()
    h = (q + (-k * 913_124_641_741 >> 38) + 2).astype(np.uint64)

    e = np.arange(-324, 309)
    positional = (e >= -4) & (e < 16)
    head, tail = [], []
    for x, pos in zip(e.tolist(), positional.tolist()):
        zeros = "0." + "0" * (-x - 1) if pos and x < 0 else ""
        head += [zeros.rjust(8, "\0"), ("-" + zeros).rjust(8, "\0")]
        tail += [(end if pos else f"e{x:+03d}{end}").rjust(8, "\0") for end in ",\n"]
    p = np.arange(25)[:, None]
    c = np.arange(10000)[:, None]
    last = 4 - np.count_nonzero(c % [10, 100, 1000, 10000] == 0, axis=1)
    return SimpleNamespace(
        k=k, h=h, g1=g1, g1_lo=g1_lo, g1_hi=g1_hi, g0_lo=g0_lo, g0_hi=g0_hi,
        shown=np.where(positional & (e >= 0), e + 2, 0),
        point=np.where(positional, np.where(e >= 0, e + 1, 24), 1),
        head=np.frombuffer("".join(head).encode(), _LE64),
        tail=np.frombuffer("".join(tail).encode(), _LE64),
        keep=np.where(np.arange(24) < p, 0xFF, 0).astype(np.uint8).view(_LE64),
        dot=np.where(np.arange(24) == p, ord("."), 0).astype(np.uint8).view(_LE64),
        chunks=(c // [1000, 100, 10, 1] % 10 + ord("0")).astype(np.uint8).view(_LE32).ravel(),
        significant=np.where(last, last + 4 * np.arange(4)[:, None], 0))


def _mulhi(a_lo, a_hi, b_lo, b_hi) -> np.ndarray:
    """The high 64 bits of ``a * b`` from the 32-bit halves of ``a < 2**63``
    and ``b < 2**60``, whose cross terms then sum below ``2**64``."""
    t = a_lo * b_lo
    t >>= 32
    t += a_lo * b_hi
    t += a_hi * b_lo
    t >>= 32
    t += a_hi * b_hi
    return t


def _shortest(x: np.ndarray, t: SimpleNamespace) -> tuple[np.ndarray, np.ndarray]:
    """The shortest decimals ``f * 10**k`` that read back as the finite,
    nonzero doubles ``x``, the nearest of them (ties to an even ``f``) where
    several are shortest: the digits of ``repr``, with ``f < 10**17``
    (uint64, possibly with trailing zeros) and ``k`` (int64).  A zero gives
    an arbitrary ``f``.

    This is R. Giulietti's Schubfach ("The Schubfach way to render doubles",
    2020), as Java's ``Double.toString`` has it, without Java's two-digit
    minimum, so a subnormal gets its shortest digits too.  The decimals that
    round to ``x = c * 2**q`` fill an interval about ``x`` whose ends are
    included when ``c`` is even.  With ``k`` from the tables, the interval
    holds at most one multiple of ``10**(k+1)``, which is the answer if
    there is one, and one or two of ``10**k``.  ``vb``, ``vbl`` and ``vbr``
    are ``x`` and the ends in units of ``10**k / 4``, each ``g * cp /
    2**127`` rounded to odd, from three products of 64 by 126 bits in
    32-bit halves (``t`` holds ``g``, :func:`_trace_tables`).  Every
    operation is on whole arrays, so a wrapping product raises no warning.
    """
    bits = x.view(np.int64)
    exponent = bits >> 52 & 0x7FF
    c = (bits & (1 << 52) - 1).view(np.uint64)
    edge = (c == 0) & (exponent > 1)
    row = exponent << 1 | edge
    c |= (exponent != 0).astype(np.uint64) << 52
    cb = c << 2
    cp = np.stack((cb, cb - 2 + edge, cb + 2))
    cp <<= t.h[row]
    lo, hi = cp & 0xFFFFFFFF, cp >> 32
    cp *= t.g1[row]
    cp >>= 1
    cp += _mulhi(t.g0_lo[row], t.g0_hi[row], lo, hi)
    v = _mulhi(t.g1_lo[row], t.g1_hi[row], lo, hi)
    del lo, hi
    v += cp >> 63
    cp <<= 1
    v |= cp != 0
    vb, vbl, vbr = v
    odd = c & 1
    vbl += odd
    vbr -= odd
    s = vb >> 2  # x in units of 10**k, rounded down
    sp = s // 10 * 10  # and to a multiple of 10**(k+1)
    upin, wpin = vbl <= sp << 2, sp + 10 << 2 <= vbr
    uin, win = vbl <= s << 2, s + 1 << 2 <= vbr
    mid = s << 2 | 2
    # s if only it lies inside, or if both do and it is nearer (ties to even)
    lower = np.where(uin != win, uin, (vb < mid) | (vb == mid) & (s & 1 == 0))
    return np.where(upin != wpin, np.where(upin, sp, sp + 10), s + ~lower), t.k[row]


def _digits(f: np.ndarray, e: np.ndarray, t: SimpleNamespace) -> np.ndarray:
    """The digits ``f`` (int64, 17 of them, ``10**16 <= f < 10**17`` or 0)
    of numbers whose first digit has the exponent ``e - 324``, as ``repr``
    spells them between the sign and the exponent: three little-endian
    words of ASCII per number, NUL after the text.  ``f`` is overwritten."""
    body = np.zeros((f.size, 3), _LE64)
    lanes = body.view(_LE32)
    # d0..d15 as four 4-digit chunks, then d16; ``shown`` digits run up to
    # the last nonzero one, and at least to one after a positional point.
    shown = t.shown[e]
    for lane, unit in enumerate((10**13, 10**9, 10**5, 10)):
        chunk = f // unit
        f -= chunk * unit
        lanes[:, lane] = t.chunks[chunk]
        np.maximum(shown, t.significant[lane][chunk], out=shown)
    body[:, 2] = f + ord("0")
    np.maximum(shown, (f != 0) * 17, out=shown)
    point = t.point[e]
    point[shown <= point] = 24  # one digit in exponent form: no point
    body &= np.take(t.keep, shown, axis=0)
    # The digits from the point on move one byte on, across words.
    front = body & np.take(t.keep, point, axis=0)
    body ^= front
    carry = body[:, :2] >> 56
    body <<= 8
    body[:, 1:] |= carry
    body |= front
    body |= np.take(t.dot, point, axis=0)
    return body


def _csv_rows(cells: np.ndarray) -> bytes:
    """The CSV rows of ``cells``, a block's times and fidelities interleaved
    (finite doubles), as ASCII: ``b"%r,%r\\n" % (t, fidelity)`` for each row.

    :func:`_shortest` gives each number's digits, normalized here to 17
    digits ``d0..d16`` and the exponent ``e`` of ``d0``.  They are laid out
    as ``repr`` does: positional when ``-4 <= e < 16``, with ``.0`` on an
    integral value, else ``d0[.d1...]e±XX`` with at least two exponent
    digits, and a sign on a negative number (``-0.0`` too).  Each number is
    five little-endian words, NUL where it has no character: the text
    before the digits, the digits with the point shifted in
    (:func:`_digits`), and the text after them, the first and last from
    tables.  Dropping the NULs leaves the rows.  Every step works on the
    whole block, the same steps for every block.
    """
    t = _trace_tables()
    zero = cells == 0
    f, k = _shortest(cells, t)
    f[zero] = 0
    width = np.searchsorted(_POW10, f, side="right")
    e = k + width + 323
    e[zero] = 324
    words = np.empty((cells.size, 5), _LE64)
    words[:, 0] = t.head[2 * e + (cells.view(np.int64) < 0)]
    words[:, 1:4] = _digits((f * _POW10[17 - width]).view(np.int64), e, t)
    words[:, 4] = t.tail[2 * e + _COLUMN[:cells.size]]
    text = words.view(np.uint8)
    return text[text != 0].tobytes()


def _trace_blocks(trace: model.FidelityTrace):
    """The CSV bytes of ``trace`` as an iterator: the header, then blocks of
    at most ``_TRACE_ROWS`` rows ``repr(t),repr(fidelity)``, each one call
    of :func:`_csv_rows`.

    The Python work per block is a fixed number of numpy calls, whatever
    its rows hold, as
    ``tests/test_cli.py::test_render_trace_makes_the_same_calls_at_any_length``
    counts.
    """
    yield b"t,fidelity\n"
    times, values = trace.times, trace.values
    for start in range(0, times.size, _TRACE_ROWS):
        stop = start + _TRACE_ROWS
        yield _csv_rows(np.column_stack((times[start:stop], values[start:stop])).ravel())


def render_trace(trace: model.FidelityTrace) -> str:
    """The ``t,fidelity`` CSV text of ``trace``, ``repr`` of each number:
    the join of :func:`_trace_blocks`, decoded."""
    return b"".join(_trace_blocks(trace)).decode("ascii")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_design(ns) -> int:
    root_choice = designer.RootChoice.parse(ns.root)
    request = designer.DesignInput(m=ns.bystanders, eta=ns.eta, root_choice=root_choice)
    sol = designer.design(request)
    doc = design_document(sol, source=1, target=2, spec=sol.realized, root_choice=root_choice)
    _write_design(doc, ns.out)
    return 0


def _cmd_simulate(ns) -> int:
    parsed = load_design_file(ns.design)
    star = parsed.realized_spec
    grid = dynamics.transfer_time_grid(parsed.base.transfer_time, t_max=ns.t_max, steps=ns.steps)
    # One route rule for both modes: two different edge nodes.
    source, target = model.check_pair(parsed.source if ns.source is None else ns.source,
                                      parsed.target if ns.target is None else ns.target,
                                      ("source", "target"), 1, star.edge_count)
    if ns.full:
        amps = dynamics.StarEvolution.from_spec(star).amplitudes(grid, source, target)
    else:
        # On the file's own route, loading has checked the star against the
        # header's (a, b, c, d, e) by the route rule; evolve those.
        own_route = (source, target) == (parsed.source, parsed.target)
        params = parsed.base.params if own_route else model.build_reduced(star, source, target)
        h4 = model.reduced_matrix(params)
        amps = dynamics.EvolutionCache.from_symmetric(h4).amplitudes(grid, 2, 3)
    # transfer_time_grid has checked the grid, before any amplitude.
    trace = model.FidelityTrace.on_checked_grid(grid, np.abs(amps) ** 2)
    # Every refusal has been raised by now, so a refused request writes no file.
    with open(ns.out, "wb") as fh:
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
    passed = report.passed and _claims_hold(parsed, ns.tol, report.eigenvalues)
    print(f"  result              : {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 1


def _claims_hold(parsed: ParsedDesign, tol: float, evals) -> bool:
    """Whether a design file's own claims hold: each stored residual lies
    within ``tol`` of its value recomputed from the design and its
    four-level eigenvalues ``evals`` (ascending), and ``e`` is the root that
    the file's ``root_choice`` picks, within 1e-12 relative.  An infeasible
    ``(m, eta)``, roots that cannot be resolved or residuals that cannot be
    computed (``e**3`` beyond the float range) is a false claim: any package
    error is; ``O(1)``."""
    sol, p = parsed.base, parsed.base.params
    try:
        e = parsed.root_choice.select(designer.solve_e(p.m, sol.eta))
        actual = designer.design_residuals(p, sol.eta, sol.target_spectrum, evals)
    except (ValueError, ArithmeticError, SpinStarError):
        return False
    stored = (sol.root_residual, sol.spectrum_residual, sol.lambda_residual)
    return abs(e - p.e) <= 1e-12 * e and all(
        claim is None or abs(claim - value) <= tol for claim, value in zip(stored, actual))


def _cmd_sweep(ns) -> int:
    m_min = model.check_int(ns.m_min, "--m-min", lo=1)
    m_max = model.check_int(ns.m_max, "--m-max", lo=m_min)
    designer.check_envelope(m=m_max)
    cap = math.inf if ns.eta_max is None else ns.eta_max
    print("m,eta,e,a,d,tau,abs_a_over_sqrt_m,abs_d_over_sqrt_m")
    for start in range(m_min, m_max + 1, _SWEEP_BLOCK):
        rows = [(m, designer.min_feasible_even_eta(m), designer.SMALLEST)
                for m in range(start, min(start + _SWEEP_BLOCK, m_max + 1))]
        # Designed when the first row is asked for; a row that fails raises
        # when its turn comes, after the rows before it are printed.
        designs = designer.design_block([row for row in rows if row[1] <= cap])
        for m, eta, _ in rows:
            if eta > cap:
                print(f"m={m}: no feasible even eta up to {ns.eta_max}; skipping", file=sys.stderr)
                continue
            (e, a, d, *_), scale = next(designs), math.sqrt(m)
            print(f"{m},{eta},{e!r},{a!r},{d!r},{math.pi / e!r},{abs(a) / scale!r},"
                  f"{abs(d) / scale!r}")
        del designs  # the block's designer goes before the next block's rows are built
    return 0


def _cmd_retarget(ns) -> int:
    parsed = load_design_file(ns.design)
    moved = switchboard.retarget(parsed, ns.target)
    doc = design_document(moved.base, source=moved.source, target=moved.target,
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
                   help="smallest | largest (default smallest); index:0 and index:1 "
                   "read as those")
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

# Each subcommand's own parser, by name, as build_parser made it.
_COMMANDS = next(action.choices for action in _PARSER._actions
                 if isinstance(action, argparse._SubParsersAction))


def execute(argv=None) -> int:
    """Run one invocation; returns the exit status instead of exiting.

    Uses the parsers built at import, so an in-process caller pays only for
    parsing ``argv`` and for the command itself.  An ``argv`` that opens
    with a subcommand's name is parsed once, by that subcommand's parser;
    the top-level parser would only hand the rest to it.  Any other ``argv``
    (``--help``, an unknown command, none) goes to the top-level parser, so
    both give the same usage errors, help and exit codes.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    command = _COMMANDS.get(argv[0]) if argv else None
    try:
        ns = command.parse_args(argv[1:]) if command else _PARSER.parse_args(argv)
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
