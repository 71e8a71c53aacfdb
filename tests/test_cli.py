"""Command-line interface: subcommand semantics, file formats, exit codes,
and byte-for-byte determinism."""

import contextlib
import csv
import io
import json
import math
import os
import stat
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from spinstar import (SMALLEST, DesignInput, NoRealDesignError, cli, design, designer,
                      dynamics, min_feasible_even_eta, model, switchboard)
from spinstar.cli import design_document, execute, render_design

E_SMALL = 2.0 / math.sqrt(15.0)


def _read_trace(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "fidelity"]
    return [(float(t), float(f)) for t, f in rows[1:]]


@pytest.fixture()
def design_file(tmp_path):
    path = tmp_path / "design.json"
    assert execute(["design", "--bystanders", "2", "--eta", "4", "--out", str(path)]) == 0
    return path


# ---------------------------------------------------------------------------
# design
# ---------------------------------------------------------------------------

def test_design_stdout_document(capsys):
    assert execute(["design", "--bystanders", "2", "--eta", "4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema_version"] == 1
    assert doc["m"] == 2 and doc["eta"] == 4
    assert abs(doc["e"] - E_SMALL) < 1e-12
    assert abs(doc["a"]) < 1e-9
    assert abs(doc["d"] + doc["e"]) < 1e-9
    assert abs(doc["b"] - math.sqrt(2.0)) < 1e-15
    assert doc["c"] == 1.0
    assert doc["source"] == 1 and doc["target"] == 2
    assert len(doc["potentials"]) == 5
    assert doc["residuals"]["root"] < 4e-10


def test_design_round_trip_preserves_values(design_file):
    # parse -> rebuild the document from the reconstructed objects -> identical
    from spinstar.cli import design_document, load_design_file

    original = json.loads(design_file.read_text())
    parsed = load_design_file(str(design_file))
    rebuilt = design_document(
        parsed.base, parsed.source, parsed.target, parsed.realized_spec, parsed.root_choice
    )
    assert _spelled_out(rebuilt) == original


def test_design_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert execute(["design", "--bystanders", "7", "--eta", "10", "--out", str(a)]) == 0
    assert execute(["design", "--bystanders", "7", "--eta", "10", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_design_infeasible_exits_2(capsys):
    assert execute(["design", "--bystanders", "1000", "--eta", "2"]) == 2
    err = capsys.readouterr().err
    assert "infeasible" in err
    assert "g_min" in err


def test_design_usage_errors_exit_1(capsys):
    assert execute(["design", "--bystanders", "2"]) == 1  # missing --eta
    assert execute(["design", "--bystanders", "2", "--eta", "3"]) == 1  # odd eta
    assert execute(["design", "--bystanders", "2", "--eta", "4", "--root", "median"]) == 1
    assert execute(["bogus"]) == 1
    capsys.readouterr()


def test_design_malformed_root_index_is_one_error_line(capsys):
    assert execute(["design", "--bystanders", "2", "--eta", "4", "--root", "index:abc"]) == 1
    assert capsys.readouterr().err == (
        "error: root choice must be 'smallest' or 'largest', got 'index:abc'\n"
    )


def test_design_root_largest(capsys):
    assert execute(["design", "--bystanders", "2", "--eta", "4", "--root", "largest"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["e"] > 0.7
    assert doc["root_choice"] == "largest"


def test_help_exits_0(capsys):
    assert execute(["--help"]) == 0
    capsys.readouterr()


# ---------------------------------------------------------------------------
# the parser shared by every call
# ---------------------------------------------------------------------------

GOLDEN = Path(__file__).parent / "data" / "golden"


def test_execute_builds_no_parser(design_file, monkeypatch, capsys):
    def refuse():
        raise AssertionError("execute built a parser")

    monkeypatch.setattr(cli, "build_parser", refuse)
    assert execute(["design", "--bystanders", "2", "--eta", "4"]) == 0
    assert execute(["verify", "--design", str(design_file)]) == 0
    capsys.readouterr()


def test_build_parser_returns_a_fresh_parser():
    first, second = cli.build_parser(), cli.build_parser()
    assert first is not second
    assert cli._PARSER not in (first, second)


_PARSE_ARGVS = [[], ["--help"], ["bogus"], ["design"], ["design", "-h"],
                ["design", "--bys", "2", "--eta", "4"], ["design", "--eta=4", "--bystanders", "2"],
                ["verify", "--design", "x", "extra"], ["sweep", "--m-min", "x", "--m-max", "2"]]


@pytest.mark.parametrize("argv", _PARSE_ARGVS, ids=lambda argv: " ".join(argv) or "no arguments")
def test_a_subcommand_parser_parses_as_the_top_level_parser_does(argv, monkeypatch, capsys):
    def handler(ns):
        seen.append({k: v for k, v in vars(ns).items() if k != "command"})
        return 0

    def refuse(args=None, namespace=None):
        raise AssertionError("the top-level parser parsed a subcommand's arguments")

    def run(direct):
        with monkeypatch.context() as patch:
            for sub in cli._COMMANDS.values():
                patch.setitem(sub._defaults, "handler", handler)
            if not direct:  # every argv through _PARSER.parse_args, as before
                patch.setattr(cli, "_COMMANDS", {})
            elif argv and argv[0] in cli._COMMANDS:
                patch.setattr(cli._PARSER, "parse_args", refuse)
            code = execute(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    seen = []
    direct = run(True)
    assert direct == run(False)
    # A parse that succeeds reaches the handler with the same namespace both ways.
    assert len(seen) == 2 * (direct == (0, "", "")) and seen[:1] == seen[1:]


def test_shared_parser_carries_nothing_from_one_call_to_the_next(tmp_path, monkeypatch, capsys):
    golden_design = str(GOLDEN / "design_m2_smallest.json")

    def run(argv, fresh=False):
        with monkeypatch.context() as patch:
            if fresh:
                patch.setattr(cli, "_PARSER", cli.build_parser())
            code = execute(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    # Each call made on the shared parser, in one process, against a fresh parser.
    help_run = run(["--help"])
    assert help_run[0] == 0 and help_run == run(["--help"], fresh=True)
    usage = run(["design", "--bystanders", "2"])
    assert usage[0] == 1 and usage == run(["design", "--bystanders", "2"], fresh=True)
    for name, fresh in (("full.csv", False), ("full_fresh.csv", True)):
        assert run(["simulate", "--design", golden_design, "--full", "--source", "3",
                    "--target", "4", "--steps", "50", "--out", str(tmp_path / name)],
                   fresh=fresh)[0] == 0
    assert (tmp_path / "full.csv").read_bytes() == (tmp_path / "full_fresh.csv").read_bytes()

    # No --full, --source or --target left behind by the calls above.
    trace = tmp_path / "trace.csv"
    assert run(["simulate", "--design", golden_design, "--steps", "50",
                "--out", str(trace)])[0] == 0
    assert trace.read_bytes() == (GOLDEN / "simulate_m2.csv").read_bytes()
    designed = tmp_path / "design.json"
    assert run(["design", "--bystanders", "2", "--eta", "4", "--out", str(designed)])[0] == 0
    assert designed.read_bytes() == (GOLDEN / "design_m2_smallest.json").read_bytes()


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_fresh_design_passes(design_file, capsys):
    assert execute(["verify", "--design", str(design_file)]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "parity check        : ok" in out


def test_verify_unreadable_file_exits_1(tmp_path, capsys):
    assert execute(["verify", "--design", str(tmp_path / "missing.json")]) == 1
    assert "missing.json" in capsys.readouterr().err


def test_verify_corrupted_field_exits_1(design_file, capsys):
    doc = json.loads(design_file.read_text())
    doc["schema_version"] = 99
    design_file.write_text(json.dumps(doc))
    assert execute(["verify", "--design", str(design_file)]) == 1
    assert "schema_version" in capsys.readouterr().err


def test_verify_inconsistent_potentials_named(design_file, capsys):
    doc = json.loads(design_file.read_text())
    doc["potentials"][1] = doc["potentials"][1] + 0.25
    design_file.write_text(json.dumps(doc))
    assert execute(["verify", "--design", str(design_file)]) == 1
    assert "potentials" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_verify_refuses_a_meaningless_tolerance(design_file, capsys, tol):
    # An infinite tolerance would pass any file, a NaN or negative one fail it.
    assert execute(["verify", "--design", str(design_file), f"--tol={tol}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: tol must be finite and non-negative")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("field, value, message", [
    ("m", 0, "design file: m must be at least 1"),
    ("a", math.nan, "design file: a must be finite"),
])
def test_verify_names_the_offending_param(design_file, capsys, field, value, message):
    doc = json.loads(design_file.read_text())
    doc[field] = value
    doc["potentials"] = doc["potentials"][: doc["m"] + 3]
    design_file.write_text(json.dumps(doc))
    assert execute(["verify", "--design", str(design_file)]) == 1
    err = capsys.readouterr().err
    assert message in err
    assert "field 'b'" not in err


def test_verify_and_retarget_accept_the_same_files(design_file, tmp_path, capsys):
    doc = json.loads(design_file.read_text())
    doc["potentials"][0] += 1e-10  # hub off by more than the 1e-12 match tolerance
    design_file.write_text(json.dumps(doc))
    assert execute(["verify", "--design", str(design_file)]) == 1
    assert "potentials" in capsys.readouterr().err
    assert execute(["retarget", "--design", str(design_file), "--target", "3",
                    "--out", str(tmp_path / "x.json")]) == 1
    assert "potentials" in capsys.readouterr().err


@pytest.mark.parametrize("root", [None, [1e-12], {"value": 1e-12}, "1e-12", True])
def test_residuals_root_must_be_a_number(design_file, tmp_path, capsys, root):
    doc = json.loads(design_file.read_text())
    doc["residuals"]["root"] = root
    design_file.write_text(json.dumps(doc))
    out = str(tmp_path / "out")
    for argv in (["verify"], ["simulate", "--out", out], ["retarget", "--target", "3", "--out", out]):
        assert execute(argv + ["--design", str(design_file)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: design file: field 'residuals.root' must be a number")
        assert err.count("\n") == 1


def test_verify_and_simulate_full_at_a_hundred_thousand_edges(tmp_path, capsys):
    # N = m + 2 = 100001 edges; the dense star matrix would take ~80 GB
    path, trace = tmp_path / "big.json", tmp_path / "big.csv"
    assert execute(["design", "--bystanders", "99999", "--eta", "140000",
                    "--out", str(path)]) == 0
    assert execute(["verify", "--design", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].endswith("PASS")
    assert execute(["simulate", "--design", str(path), "--full", "--steps", "11",
                    "--out", str(trace)]) == 0
    tau = json.loads(path.read_text())["tau"]
    samples = dict(_read_trace(trace))
    assert tau in samples and samples[tau] >= 1.0 - 1e-9


def test_simulate_full_refuses_too_many_distinct_potentials(tmp_path, capsys):
    # 5000 bystanders on distinct floats next to d, all within the 1e-12
    # relative match of d: 5001 distinct edge potentials, past the 4096 limit.
    m = 5000
    path, trace = tmp_path / "spread.json", tmp_path / "spread.csv"
    assert execute(["design", "--bystanders", str(m), "--eta",
                    str(min_feasible_even_eta(m)), "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    d = doc["d"]
    below, above = [d], [d]
    for _ in range(m // 2):
        below.append(float(np.nextafter(below[-1], -np.inf)))
        above.append(float(np.nextafter(above[-1], np.inf)))
    spread = below[:0:-1] + above[:-1]
    assert len(set(spread)) == m
    assert max(abs(x - d) for x in spread) <= 1e-12 * max(1.0, abs(d))
    doc["potentials"][3:] = spread
    path.write_text(json.dumps(doc))
    assert execute(["verify", "--design", str(path)]) == 1
    verify_err = capsys.readouterr().err
    assert execute(["simulate", "--design", str(path), "--full", "--out", str(trace)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "limited to 4096 distinct edge potentials" in err and "k=5001" in err
    assert verify_err == err


def test_verify_evolves_the_files_own_star_and_route(design_file, tmp_path, monkeypatch, capsys):
    moved = tmp_path / "moved.json"
    assert execute(["retarget", "--design", str(design_file), "--target", "4",
                    "--out", str(moved)]) == 0
    evolved = []
    amplitude = dynamics.StarEvolution.amplitude

    def spy(self, t, src, dst):
        evolved.append((self, src, dst))
        return amplitude(self, t, src, dst)

    monkeypatch.setattr(dynamics.StarEvolution, "amplitude", spy)
    assert execute(["verify", "--design", str(moved)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].endswith("PASS")
    (star, src, dst), = evolved
    assert (src, dst) == (1, 4)
    # the file's star: source and target share a group, node 2 is a bystander
    group = [star.exception_groups.get(node, star.background_group) for node in range(5)]
    assert group[1] == group[4] != group[2] == group[3]


def test_design_beyond_the_envelope_is_one_error_line(capsys):
    assert execute(["design", "--bystanders", "1000001", "--eta", "1300000"]) == 1
    assert capsys.readouterr().err == (
        "error: m=1000001 lies beyond the supported envelope m <= M_MAX = 1000000\n")
    assert execute(["design", "--bystanders", "2", "--eta", "1400002"]) == 1
    assert capsys.readouterr().err == (
        "error: eta=1400002 lies beyond the supported envelope eta <= ETA_MAX = 1400000\n")
    assert execute(["sweep", "--m-min", "999999", "--m-max", "1000001"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: m=1000001 lies beyond the supported envelope m <= M_MAX = 1000000\n")


def test_memory_error_is_one_error_line(design_file, monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(dynamics, "verify_design", exhausted)
    assert execute(["verify", "--design", str(design_file)]) == 1
    assert capsys.readouterr().err == "error: MemoryError\n"


def test_every_command_takes_a_bystander_within_the_relative_route_rule(tmp_path, capsys):
    # |d| is about 70, so a nudge of 5e-13 |d| is inside the route rule's
    # relative 1e-12 but 35 times an absolute 1e-12.
    m = 10**4
    path = tmp_path / "nudged.json"
    assert execute(["design", "--bystanders", str(m), "--eta", str(min_feasible_even_eta(m)),
                    "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    d = doc["d"]
    nudged = d + 5e-13 * abs(d)
    assert abs(d) > 60 and nudged - d > 30e-12
    doc["potentials"][5] = nudged
    path.write_text(json.dumps(doc, indent=2) + "\n")
    assert execute(["verify", "--design", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].endswith("PASS")
    for extra in ([], ["--full"]):
        assert execute(["simulate", "--design", str(path), "--steps", "50",
                        "--out", str(tmp_path / "t.csv"), *extra]) == 0
    moved = tmp_path / "moved.json"
    assert execute(["retarget", "--design", str(path), "--target", "7", "--out", str(moved)]) == 0
    assert json.loads(moved.read_text())["potentials"][5] == nudged
    assert capsys.readouterr().err == ""


def test_plain_simulate_takes_route_nodes_within_the_rule_on_both_sides_of_e(tmp_path, capsys):
    # Source and target sit 9e-13 above and below the header's e: inside the
    # route rule, so loading accepts the file, but they differ from each
    # other by more than the rule allows.  On the file's own route plain
    # simulate evolves the header's (a, b, c, d, e), which loading checked.
    doc = json.loads((GOLDEN / "design_m2_smallest.json").read_text())
    e = doc["e"]
    doc["potentials"][1:3] = [e + 9e-13, e - 9e-13]
    path, trace = tmp_path / "split.json", tmp_path / "t.csv"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    assert execute(["verify", "--design", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].endswith("PASS")
    for extra in (["--full"], []):
        assert execute(["simulate", "--design", str(path), "--steps", "50",
                        "--out", str(trace), *extra]) == 0
    assert trace.read_bytes() == (GOLDEN / "simulate_m2.csv").read_bytes()
    assert capsys.readouterr().err == ""


def test_design_residuals_are_computed_once_per_design_and_never_on_read(tmp_path, monkeypatch,
                                                                           capsys):
    # designer._residuals computes them for design_residuals and for design
    calls = []
    residuals = designer._residuals
    monkeypatch.setattr(designer, "_residuals",
                        lambda *args: calls.append(args) or residuals(*args))
    path, moved = tmp_path / "design.json", tmp_path / "moved.json"
    runs = [(["design", "--bystanders", "7", "--eta", "10", "--out", str(path)], 1),
            (["design", "--bystanders", "7", "--eta", "10"], 1),
            (["retarget", "--design", str(path), "--target", "5", "--out", str(moved)], 0),
            # the read computes none; verify's check of the file's claims, one
            (["verify", "--design", str(moved)], 1),
            (["simulate", "--design", str(moved), "--out", str(tmp_path / "t.csv")], 0),
            (["simulate", "--design", str(moved), "--full", "--out", str(tmp_path / "t.csv")], 0)]
    for argv, count in runs:
        calls.clear()
        assert execute(argv) == 0
        assert len(calls) == count, argv
    capsys.readouterr()
    assert path.read_bytes() == (GOLDEN / "design_m7_smallest.json").read_bytes()
    assert moved.read_bytes() == (GOLDEN / "retarget_m7_to5.json").read_bytes()


def test_verify_solves_the_four_level_matrix_once(tmp_path, monkeypatch, capsys):
    shapes = {"eigh": [], "eigvalsh": [], "eigvals": []}
    for name, solved in shapes.items():
        monkeypatch.setattr(np.linalg, name, lambda h, *args, _solve=getattr(np.linalg, name),
                            _solved=solved: _solved.append(np.shape(h)) or _solve(h, *args))
    # Everything after the eigensolves runs on Python floats: dynamics calls
    # none of numpy's exp, sum, sort, argmin or max.
    from_dynamics = []
    for name in ("exp", "sum", "sort", "argmin", "max"):
        def counted(*args, _call=getattr(np, name), _name=name, **kwargs):
            if sys._getframe(1).f_globals.get("__name__") == "spinstar.dynamics":
                from_dynamics.append(_name)
            return _call(*args, **kwargs)
        monkeypatch.setattr(np, name, counted)
    # m = 7: the full star's eigensolves are at most 3x3, none 4x4
    assert execute(["verify", "--design", str(GOLDEN / "retarget_m7_to5.json")]) == 0
    assert capsys.readouterr().out == (GOLDEN / "verify_m7_to5.txt").read_text()
    assert shapes["eigh"].count((4, 4)) == 1 and len(shapes["eigh"]) == 2, shapes
    # the companion eigvals of the file's claimed root
    assert len(shapes["eigvals"]) == 1 and not shapes["eigvalsh"], shapes
    assert from_dynamics == []


_NAN_REPORT_TAIL = """  fidelity at tau     : nan
  phase deviation     : nan
  reduction deviation : nan
  parity check        : FAILED
  result              : FAIL
"""


@pytest.mark.parametrize("where, index, refused", [
    # the phase bound is NaN, which refuses the transfer time
    ("eigenvalues", 3, True),
    # a NaN amplitude and parity: a report that fails
    ("eigenvectors", (2, 3), False),
], ids=["eigenvalue", "eigenvector"])
def test_verify_carries_a_nan_from_the_four_level_eigensolve(monkeypatch, capsys, where, index,
                                                             refused):
    argv = ["verify", "--design", str(GOLDEN / "design_m2_smallest.json")]
    assert execute(argv) == 0
    # the header and the spectrum deviation, which a NaN eigenvector leaves as they are
    head = "".join(capsys.readouterr().out.splitlines(keepends=True)[:2])
    # A NaN that is not the first value: max() alone would skip it.
    solve = np.linalg.eigh

    def with_nan(h, *args):
        result = solve(h, *args)
        if np.shape(h) != (4, 4):
            return result
        parts = {"eigenvalues": result[0].copy(), "eigenvectors": result[1].copy()}
        parts[where][index] = np.nan
        return parts["eigenvalues"], parts["eigenvectors"]

    monkeypatch.setattr(np.linalg, "eigh", with_nan)
    status = execute(argv)
    if refused:
        want = "", "error: times up to 6.083668013960418 give phases t*E beyond the float range\n"
    else:
        want = head + _NAN_REPORT_TAIL, ""
    assert (status, *capsys.readouterr()) == (1, *want)


def test_a_parsed_design_is_a_routing_state(design_file):
    parsed = cli.load_design_file(str(design_file))
    assert isinstance(parsed, switchboard.RoutingState)
    assert parsed.solution is parsed.base and parsed.spec is parsed.realized_spec
    moved = switchboard.retarget(parsed, 3)
    assert (moved.base, moved.source, moved.target) == (parsed.base, 1, 3)
    back = switchboard.retarget(moved, 2)
    assert back.realized_spec._parts() == parsed.realized_spec._parts()


def test_verify_detuned_but_consistent_design_fails(design_file, capsys):
    # scale e everywhere so the file is self-consistent but the dynamics are wrong
    doc = json.loads(design_file.read_text())
    e = doc["e"] * 1.01
    doc["e"] = e
    doc["tau"] = math.pi / e
    doc["spectrum"] = [0.0, e, 4 * e, -4 * e]
    doc["potentials"][1] = e
    doc["potentials"][2] = e
    design_file.write_text(json.dumps(doc))
    assert execute(["verify", "--design", str(design_file)]) == 1
    assert "FAIL" in capsys.readouterr().out


def _edited_m7(tmp_path, edit):
    """A copy of the m = 7 golden design, whose e is the smaller of its two
    roots, with ``edit`` applied to its document."""
    doc = json.loads((GOLDEN / "design_m7_smallest.json").read_text())
    edit(doc)
    path = tmp_path / "claims.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def _infeasible(doc):
    # eta = 2 has no root at m = 7; the rest stays consistent with it
    e = doc["e"]
    doc.update(eta=2, spectrum=[0.0, e, 2 * e, -2 * e])


# Edits that make a claim of the file false, each a refusal: exit 1, FAIL.
_FALSE_CLAIMS = {
    "residuals": lambda doc: doc.update(residuals={"root": 0.5, "spectrum": 0.25, "lambda": 3.0}),
    "root residual": lambda doc: doc["residuals"].update(root=1e-6),
    "largest root": lambda doc: doc.update(root_choice="largest"),
    "infeasible eta": _infeasible,
}


@pytest.mark.parametrize("case", _FALSE_CLAIMS)
def test_verify_refuses_a_file_whose_claims_are_false(tmp_path, capsys, case):
    assert execute(["verify", "--design", str(GOLDEN / "design_m7_smallest.json")]) == 0
    passed = capsys.readouterr().out
    assert execute(["verify", "--design", str(_edited_m7(tmp_path, _FALSE_CLAIMS[case]))]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert out.splitlines()[-1] == "  result              : FAIL"
    if case != "infeasible eta":  # the dynamics are the file's, so is the report
        assert out.splitlines()[:-1] == passed.splitlines()[:-1]


def test_a_file_spelling_its_root_index_1_reads_as_the_largest_root(tmp_path, capsys):
    # index:0 and index:1, older spellings of the two roots, read as those
    largest = GOLDEN / "design_m7_largest.json"
    text = largest.read_text()
    path = tmp_path / "index1.json"
    path.write_text(text.replace('"root_choice": "largest"', '"root_choice": "index:1"', 1))
    outputs = []
    for design_path in (largest, path):
        moved = tmp_path / f"moved_{design_path.name}"
        assert execute(["verify", "--design", str(design_path)]) == 0
        assert execute(["retarget", "--design", str(design_path), "--target", "5",
                        "--out", str(moved)]) == 0
        outputs.append((capsys.readouterr(), moved.read_bytes()))
    assert outputs[0] == outputs[1]
    assert '"root_choice": "largest"' in outputs[1][1].decode()


def test_verify_reports_roots_that_cannot_be_resolved_as_a_false_claim(monkeypatch, capsys):
    # A root solve that raises is one full report ending in FAIL, not half a
    # report and an error line.
    path = str(GOLDEN / "design_m7_smallest.json")
    assert execute(["verify", "--design", path]) == 0
    passed = capsys.readouterr().out

    def unresolved(m, eta):
        raise NoRealDesignError(f"the roots for m={m}, eta={eta} cannot be resolved")
    monkeypatch.setattr(designer, "solve_e", unresolved)
    assert execute(["verify", "--design", path]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert out.splitlines() == passed.splitlines()[:-1] + ["  result              : FAIL"]


def test_verify_compares_stored_residuals_within_tol(tmp_path, capsys):
    def nudge(doc):
        doc["residuals"]["spectrum"] += 5e-10
    path = _edited_m7(tmp_path, nudge)
    assert execute(["verify", "--design", str(path)]) == 0
    assert execute(["verify", "--design", str(path), "--tol", "1e-10"]) == 1
    # a file without the spectrum and lambda residuals has nothing to compare
    path = _edited_m7(tmp_path, lambda doc: doc.update(residuals={"root": 0.0}))
    assert execute(["verify", "--design", str(path)]) == 0
    out = capsys.readouterr().out
    assert [line.split()[-1] for line in out.splitlines() if "result" in line] == \
        ["PASS", "FAIL", "PASS"]


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_defaults_peak_at_tau(design_file, tmp_path):
    out = tmp_path / "trace.csv"
    assert execute(["simulate", "--design", str(design_file), "--out", str(out)]) == 0
    data = _read_trace(out)
    assert len(data) == 1000
    tau = json.loads(design_file.read_text())["tau"]
    nearest = min(range(len(data)), key=lambda i: abs(data[i][0] - tau))
    peak = max(range(len(data)), key=lambda i: data[i][1])
    assert peak == nearest
    assert data[nearest][1] >= 1.0 - 1e-6
    assert all(0.0 <= f <= 1.0 + 1e-12 for _, f in data)


def test_simulate_full_matches_reduced(design_file, tmp_path):
    reduced_out = tmp_path / "reduced.csv"
    full_out = tmp_path / "full.csv"
    args = ["simulate", "--design", str(design_file), "--steps", "200"]
    assert execute(args + ["--out", str(reduced_out)]) == 0
    assert execute(args + ["--full", "--out", str(full_out)]) == 0
    reduced = _read_trace(reduced_out)
    full = _read_trace(full_out)
    assert max(abs(a - b) for (_, a), (_, b) in zip(reduced, full)) < 1e-10


def test_simulate_deterministic_bytes(design_file, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert execute(["simulate", "--design", str(design_file), "--out", str(a)]) == 0
    assert execute(["simulate", "--design", str(design_file), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_bystander_route(design_file, tmp_path):
    # both bystanders share a potential, so they form a valid reduced pair
    out = tmp_path / "trace.csv"
    args = ["simulate", "--design", str(design_file), "--source", "3", "--target", "4",
            "--steps", "50", "--out", str(out)]
    assert execute(args) == 0
    assert len(_read_trace(out)) == 50


def test_simulate_asymmetric_route_exits_1(design_file, tmp_path, capsys):
    args = ["simulate", "--design", str(design_file), "--source", "1", "--target", "3",
            "--out", str(tmp_path / "t.csv")]
    assert execute(args) == 1
    capsys.readouterr()


@pytest.mark.parametrize("source, target, message", [
    ("0", "2", "error: source must lie in 1..4, got 0\n"),
    ("3", "5", "error: target must lie in 1..4, got 5\n"),
    ("3", "3", "error: source and target must differ\n"),
], ids=["hub", "beyond the star", "same node"])
@pytest.mark.parametrize("full", [False, True], ids=["reduced", "full"])
def test_simulate_takes_two_different_edge_nodes_in_both_modes(design_file, tmp_path, capsys,
                                                                source, target, message, full):
    out = tmp_path / "t.csv"
    assert execute(["simulate", "--design", str(design_file), "--source", source,
                    "--target", target, "--out", str(out)] + ["--full"] * full) == 1
    assert capsys.readouterr() == ("", message)
    assert not out.exists()


def test_simulate_custom_window(design_file, tmp_path):
    out = tmp_path / "trace.csv"
    args = ["simulate", "--design", str(design_file), "--t-max", "2.0", "--steps", "100",
            "--out", str(out)]
    assert execute(args) == 0
    data = _read_trace(out)
    assert len(data) == 100
    assert data[-1][0] <= 2.0 + 1e-9


def test_simulate_steps_beyond_the_envelope_is_one_error_line(design_file, tmp_path, capsys):
    out = tmp_path / "trace.csv"
    steps = dynamics.STEPS_MAX + 1
    assert execute(["simulate", "--design", str(design_file), "--steps", str(steps),
                    "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: steps={steps} lies beyond the supported envelope "
        f"steps <= STEPS_MAX = {dynamics.STEPS_MAX}\n")
    assert not out.exists()


@pytest.mark.parametrize("full", [False, True], ids=["reduced", "full"])
def test_simulate_window_whose_phases_overflow_is_one_error_line(tmp_path, capsys, recwarn,
                                                                  full):
    out = tmp_path / "trace.csv"
    argv = ["simulate", "--design", str(GOLDEN / "design_m2_smallest.json"), "--t-max", "1e308",
            "--out", str(out)]
    assert execute(argv + ["--full"] * full) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: times up to 1e+308 "), err
    assert not recwarn.list, [str(w.message) for w in recwarn.list]
    assert not out.exists()


def _simulated(design, full: bool, **window) -> model.FidelityTrace:
    """The trace that ``simulate`` of ``design`` on its own route evolves."""
    parsed = cli.load_design_file(str(design))
    grid = dynamics.transfer_time_grid(parsed.base.transfer_time, **window)
    if full:
        amps = dynamics.StarEvolution.from_spec(parsed.realized_spec).amplitudes(
            grid, parsed.source, parsed.target)
        return model.FidelityTrace(times=grid, values=np.abs(amps) ** 2)
    return dynamics.fidelity_trace(model.reduced_matrix(parsed.base.params), grid, 2, 3)


@pytest.mark.parametrize("full", [False, True], ids=["reduced", "full"])
def test_simulate_writes_every_block_of_its_trace(design_file, tmp_path, full):
    steps, out = 2 * cli._TRACE_ROWS + 1, tmp_path / "trace.csv"
    assert execute(["simulate", "--design", str(design_file), "--steps", str(steps),
                    "--out", str(out)] + ["--full"] * full) == 0
    trace = _simulated(design_file, full, steps=steps)
    text = out.read_bytes()
    assert text.count(b"\n") == steps + 1
    assert text == cli.render_trace(trace).encode()


@pytest.mark.parametrize("full", [False, True], ids=["reduced", "full"])
@pytest.mark.parametrize("t_max", ["1e-306", "1e-320", "1e300"])
def test_simulate_writes_repr_of_every_number(tmp_path, t_max, full):
    # Windows whose times are subnormal (1e-320), near the smallest normal
    # (1e-306) or have three-digit exponents (1e300).
    design, out = GOLDEN / "design_m2_smallest.json", tmp_path / "trace.csv"
    assert execute(["simulate", "--design", str(design), "--t-max", t_max,
                    "--out", str(out)] + ["--full"] * full) == 0
    trace = _simulated(design, full, t_max=float(t_max))
    assert out.read_bytes() == _repr_rows(trace.times, trace.values).encode()


@pytest.mark.parametrize("full", [False, True], ids=["reduced", "full"])
def test_simulate_refuses_a_collapsed_window_before_evaluating_it(tmp_path, capsys, monkeypatch,
                                                                 full):
    # 10**6 steps in [0, 1e-318] repeat subnormal times: one error line, no
    # trace written, and no amplitude evaluated first.
    calls, amplitudes = [], dynamics.EvolutionCache.amplitudes

    def counted(self, *args):
        calls.append(args)
        return amplitudes(self, *args)

    monkeypatch.setattr(dynamics.EvolutionCache, "amplitudes", counted)
    out = tmp_path / "trace.csv"
    argv = ["simulate", "--design", str(GOLDEN / "design_m2_smallest.json"), "--steps", "1000000",
            "--t-max", "1e-318", "--out", str(out)]
    assert execute(argv + ["--full"] * full) == 1
    assert capsys.readouterr().err == ("error: t_max=1e-318 is too small for steps=1000000: "
                                       "the grid's times repeat\n")
    assert not out.exists()
    assert not calls


@pytest.mark.parametrize("full", [False, True], ids=["reduced", "full"])
def test_simulate_checks_its_grid_once(tmp_path, monkeypatch, full):
    # Each check that a grid strictly increases is one np.diff over it.
    sizes, diff = [], np.diff

    def counted(a, *args, **kwargs):
        sizes.append(np.size(a))
        return diff(a, *args, **kwargs)

    monkeypatch.setattr(np, "diff", counted)
    out = tmp_path / "trace.csv"
    assert execute(["simulate", "--design", str(GOLDEN / "design_m2_smallest.json"),
                    "--steps", "50", "--out", str(out)] + ["--full"] * full) == 0
    assert sizes == [50]
    golden = "simulate_m2_full.csv" if full else "simulate_m2.csv"
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


def test_simulate_write_errors_are_one_error_line(design_file, tmp_path, capsys):
    missing, directory = tmp_path / "missing" / "x.csv", tmp_path / "dir"
    directory.mkdir()
    for out, error in ((missing, "[Errno 2] No such file or directory"),
                       (directory, "[Errno 21] Is a directory")):
        assert execute(["simulate", "--design", str(design_file), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {error}: {str(out)!r}\n"
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["design.json", "dir"]


# ---------------------------------------------------------------------------
# retarget
# ---------------------------------------------------------------------------

def test_retarget_swaps_and_verifies(design_file, tmp_path, capsys):
    moved = tmp_path / "moved.json"
    assert execute(["retarget", "--design", str(design_file), "--target", "3",
                    "--out", str(moved)]) == 0
    doc = json.loads(moved.read_text())
    original = json.loads(design_file.read_text())
    assert doc["target"] == 3
    assert doc["potentials"][2] == original["potentials"][3]
    assert doc["potentials"][3] == original["potentials"][2]
    assert execute(["verify", "--design", str(moved)]) == 0
    capsys.readouterr()


def test_retarget_round_trip_restores_bytes(design_file, tmp_path):
    moved = tmp_path / "moved.json"
    back = tmp_path / "back.json"
    assert execute(["retarget", "--design", str(design_file), "--target", "3",
                    "--out", str(moved)]) == 0
    assert execute(["retarget", "--design", str(moved), "--target", "2",
                    "--out", str(back)]) == 0
    assert back.read_bytes() == design_file.read_bytes()


def test_retarget_to_source_exits_1(design_file, tmp_path, capsys):
    assert execute(["retarget", "--design", str(design_file), "--target", "1",
                    "--out", str(tmp_path / "x.json")]) == 1
    capsys.readouterr()


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_table(capsys):
    assert execute(["sweep", "--m-min", "1", "--m-max", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "m,eta,e,a,d,tau,abs_a_over_sqrt_m,abs_d_over_sqrt_m"
    assert len(lines) == 4
    for line, m in zip(lines[1:], (1, 2, 3)):
        cells = line.split(",")
        assert int(cells[0]) == m
        assert int(cells[1]) % 2 == 0
        e, a, d, tau = (float(x) for x in cells[2:6])
        assert e > 0 and tau == pytest.approx(math.pi / e)
        assert abs(a) / math.sqrt(m) == pytest.approx(float(cells[6]))
        assert abs(d) / math.sqrt(m) == pytest.approx(float(cells[7]))


def test_sweep_deterministic(capsys):
    assert execute(["sweep", "--m-min", "2", "--m-max", "5"]) == 0
    first = capsys.readouterr().out
    assert execute(["sweep", "--m-min", "2", "--m-max", "5"]) == 0
    assert capsys.readouterr().out == first


def test_sweep_eta_cap_skips_rows(capsys):
    assert execute(["sweep", "--m-min", "900", "--m-max", "901", "--eta-max", "10"]) == 0
    captured = capsys.readouterr()
    assert captured.out.strip().splitlines() == ["m,eta,e,a,d,tau,abs_a_over_sqrt_m,abs_d_over_sqrt_m"]
    assert "skipping" in captured.err


def test_sweep_validation(capsys):
    assert execute(["sweep", "--m-min", "0", "--m-max", "3"]) == 1
    assert capsys.readouterr() == ("", "error: --m-min must be at least 1, got 0\n")
    assert execute(["sweep", "--m-min", "5", "--m-max", "3"]) == 1
    assert capsys.readouterr() == ("", "error: --m-max must be at least 5, got 3\n")


_SWEEP_HEADER = "m,eta,e,a,d,tau,abs_a_over_sqrt_m,abs_d_over_sqrt_m\n"


def _sweep_reference(ms, eta_max=None, eta_of=min_feasible_even_eta) -> list[str]:
    """The lines of a sweep over ``ms``, each row from its own
    ``designer.design``, with the skip lines of ``--eta-max`` in place."""
    lines = []
    for m in ms:
        eta = eta_of(m)
        if eta_max is not None and eta > eta_max:
            lines.append(f"m={m}: no feasible even eta up to {eta_max}; skipping\n")
            continue
        sol = design(DesignInput(m=m, eta=eta, root_choice=SMALLEST))
        p, scale = sol.params, math.sqrt(m)
        lines.append(f"{m},{eta},{p.e!r},{p.a!r},{p.d!r},{sol.transfer_time!r},"
                     f"{abs(p.a) / scale!r},{abs(p.d) / scale!r}\n")
    return lines


def _sweep_one_stream(ms, *extra):
    """Exit status and the text of a sweep over ``ms`` with standard output
    and standard error written to one stream."""
    both = io.StringIO()
    with contextlib.redirect_stdout(both), contextlib.redirect_stderr(both):
        status = execute(["sweep", "--m-min", str(ms[0]), "--m-max", str(ms[-1]), *extra])
    return status, both.getvalue()


@pytest.mark.parametrize("start", [1, designer.M_MAX - 2 * cli._SWEEP_BLOCK])
def test_sweep_blocks_equal_row_by_row_designs(capsys, start):
    # two full blocks and one row, from m = 1 or up to m = 10**6
    ms = range(start, start + 2 * cli._SWEEP_BLOCK + 1)
    assert execute(["sweep", "--m-min", str(ms[0]), "--m-max", str(ms[-1])]) == 0
    out = capsys.readouterr().out
    assert out.splitlines(keepends=True) == [_SWEEP_HEADER, *_sweep_reference(ms)]


def test_sweep_skip_lines_keep_their_place_among_rows(monkeypatch, capsys):
    # m = 5, 6 and 700 are lifted over the cap inside the first block; from
    # about m = 1800 on, every row lies over it, into the third block.
    ms, eta_max, lifted = range(1, 2101), min_feasible_even_eta(1800) - 1, {5, 6, 700}
    minimal = designer.min_feasible_even_eta

    def eta_of(m):
        return 2 * eta_max if m in lifted else minimal(m)

    monkeypatch.setattr(designer, "min_feasible_even_eta", eta_of)
    lines = _sweep_reference(ms, eta_max, eta_of)
    skips = [line for line in lines if line.startswith("m=")]
    rows = [line for line in lines if not line.startswith("m=")]
    assert [line.startswith("m=") for line in lines[1024:1026]] == [False, False]
    assert lines[-1].startswith("m=2100:") and 3 < len(skips) < 400
    assert _sweep_one_stream(ms, "--eta-max", str(eta_max)) == (0, _SWEEP_HEADER + "".join(lines))
    assert execute(["sweep", "--m-min", "1", "--m-max", "2100", "--eta-max", str(eta_max)]) == 0
    assert capsys.readouterr() == (_SWEEP_HEADER + "".join(rows), "".join(skips))


def _odd_eta_at_500(monkeypatch):
    minimal = designer.min_feasible_even_eta
    monkeypatch.setattr(designer, "min_feasible_even_eta", lambda m: 501 if m == 500 else minimal(m))


def _no_root_at_500(monkeypatch):
    # the cubic of m bystanders has x0 = m + 2
    is_root = designer._is_root
    monkeypatch.setattr(designer, "_is_root", lambda x, u: x[0] != 502.0 and is_root(x, u))


def _spectrum_missed_at_500(monkeypatch):
    # the reduced matrix of m bystanders has b = sqrt(m) at (0, 1)
    eigvalsh = np.linalg.eigvalsh

    def shifted(matrices):
        evals = eigvalsh(matrices)
        evals[matrices[:, 0, 1] == math.sqrt(500)] += 1.0
        return evals

    monkeypatch.setattr(np.linalg, "eigvalsh", shifted)


@pytest.mark.parametrize("fail_row_500", [
    pytest.param(_odd_eta_at_500, id="request_check"),
    pytest.param(_no_root_at_500, id="root_rule"),
    pytest.param(_spectrum_missed_at_500, id="spectrum_guard"),
])
def test_a_sweep_row_that_fails_mid_block_ends_the_sweep(monkeypatch, capsys, fail_row_500):
    # Row m = 500 of the window 1..block + 50 fails in each stage of the
    # block designer (the checks of its request, the root rule, the spectrum
    # guard): rows 1..499, then the error line that design gives for that
    # request, exit status 1.
    fail_row_500(monkeypatch)
    eta = designer.min_feasible_even_eta(500)
    assert execute(["design", "--bystanders", "500", "--eta", str(eta)]) == 1
    error = capsys.readouterr().err
    assert error.startswith("error: ") and error.count("\n") == 1
    expected = _SWEEP_HEADER + "".join(_sweep_reference(range(1, 500)))
    assert _sweep_one_stream(range(1, cli._SWEEP_BLOCK + 51)) == (1, expected + error)


def test_an_infeasible_sweep_row_mid_block_is_exit_status_2(monkeypatch, capsys):
    minimal = designer.min_feasible_even_eta
    monkeypatch.setattr(designer, "min_feasible_even_eta", lambda m: 2 if m == 500 else minimal(m))
    assert execute(["design", "--bystanders", "500", "--eta", "2"]) == 2
    infeasible = capsys.readouterr().err
    assert len(infeasible.splitlines()) == 4
    expected = _SWEEP_HEADER + "".join(_sweep_reference(range(1, 500)))
    assert _sweep_one_stream(range(1, 800)) == (2, expected + infeasible)


@pytest.mark.parametrize("rows, blocks", [(1, 1), (3, 1), (cli._SWEEP_BLOCK, 1),
                                          (cli._SWEEP_BLOCK + 1, 2)])
def test_sweep_solves_each_block_with_one_eigvals_and_one_eigvalsh(monkeypatch, capsys,
                                                                   rows, blocks):
    calls = []
    for name in ("eigvals", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, lambda a, *args, _name=name,
                            _solve=getattr(np.linalg, name): calls.append(_name) or _solve(a, *args))
    assert execute(["sweep", "--m-min", "1", "--m-max", str(rows)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == rows + 1
    assert calls == ["eigvals", "eigvalsh"] * blocks


def test_a_sweep_row_builds_no_design_object(monkeypatch, capsys):
    # A row is floats from its checked (m, eta) to its printed line: no
    # request, matrix elements or solution is built, and its integers are
    # checked three times (m in min_feasible_even_eta, m and eta as a
    # request's), besides --m-min and --m-max once per sweep.
    calls = []
    for cls, method in ((designer.DesignInput, "__post_init__"),
                        (model.ReducedParams, "__post_init__"),
                        (model.DesignSolution, "__init__")):
        monkeypatch.setattr(cls, method, lambda self, *args, _name=cls.__name__,
                            _method=getattr(cls, method), **kwargs:
                            calls.append(_name) or _method(self, *args, **kwargs))
    checks = []
    check_int = model.check_int
    for module in (model, designer):
        monkeypatch.setattr(module, "check_int", lambda *args, **kwargs:
                            checks.append(args[1]) or check_int(*args, **kwargs))
    rows = cli._SWEEP_BLOCK + 3
    assert execute(["sweep", "--m-min", "1", "--m-max", str(rows)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == rows + 1
    assert calls == []
    assert len(checks) <= 3 * rows + 2, len(checks) / rows
    # The spies count: design builds each object once.
    design(DesignInput(m=7, eta=10))
    assert sorted(calls) == ["DesignInput", "DesignSolution", "ReducedParams"]


@settings(deadline=None, derandomize=True, max_examples=60)
@given(start=st.one_of(st.integers(1, 100), st.integers(1, designer.M_MAX)),
       rows=st.integers(1, 4))
def test_a_sweep_row_has_the_bits_of_its_design(start, rows):
    # e, a, d, tau, |a|/sqrt(m), |d|/sqrt(m) of each row, bit for bit, are
    # those of design's solution for its (m, minimal even eta)
    start = min(start, designer.M_MAX - rows + 1)
    ms = range(start, start + rows)
    status, text = _sweep_one_stream(ms)
    lines = text.splitlines()
    assert status == 0 and lines[0] + "\n" == _SWEEP_HEADER and len(lines) == rows + 1
    for m, line in zip(ms, lines[1:]):
        eta = min_feasible_even_eta(m)
        sol = design(DesignInput(m=m, eta=eta))
        p, scale = sol.params, math.sqrt(m)
        cells = line.split(",")
        assert cells[:2] == [str(m), str(eta)]
        assert [float(cell).hex() for cell in cells[2:]] == [
            value.hex() for value in (p.e, p.a, p.d, sol.transfer_time, abs(p.a) / scale,
                                      abs(p.d) / scale)]


def test_the_root_rule_runs_twice_per_design_and_per_sweep_row(monkeypatch, capsys):
    # Once on each polished root; the potentials of the chosen root are its
    # closed forms, with no third test.
    calls = []
    is_root = designer._is_root
    monkeypatch.setattr(designer, "_is_root", lambda poly, u: calls.append(u) or is_root(poly, u))
    for m, root in ((1, SMALLEST), (10**6, designer.LARGEST)):
        calls.clear()
        design(DesignInput(m=m, eta=min_feasible_even_eta(m), root_choice=root))
        assert len(calls) == 2, m
    calls.clear()
    rows = cli._SWEEP_BLOCK + 3
    assert execute(["sweep", "--m-min", "1", "--m-max", str(rows)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == rows + 1
    assert len(calls) == 2 * rows


def _run_every_command(m, tmp_path, capsys):
    """Run design, verify, simulate, simulate --full, retarget and a sweep
    of one block and three rows on a design at ``m``, yielding each argv
    after its run."""
    path, trace = str(tmp_path / "design.json"), str(tmp_path / "t.csv")
    rows = cli._SWEEP_BLOCK + 3
    runs = [["design", "--bystanders", str(m), "--eta", str(min_feasible_even_eta(m)),
             "--out", path],
            ["verify", "--design", path],
            ["simulate", "--design", path, "--steps", "10", "--out", trace],
            ["simulate", "--design", path, "--steps", "10", "--full", "--out", trace],
            ["retarget", "--design", path, "--target", "3", "--out", str(tmp_path / "r.json")],
            ["sweep", "--m-min", "1", "--m-max", str(rows)]]
    for argv in runs:
        assert execute(argv) == 0
        yield argv
    assert len(capsys.readouterr().out.splitlines()) == 7 + rows + 1  # verify, then sweep


@pytest.mark.parametrize("m", [7, 10**4])
def test_only_design_builds_the_routed_star(m, tmp_path, monkeypatch, capsys):
    # A solution builds its star on first read of realized: design writes
    # it; a sweep row prints numbers, and a file read brings its own star.
    calls = []
    routed_star = model.routed_star
    monkeypatch.setattr(model, "routed_star",
                        lambda params: calls.append(params.m) or routed_star(params))
    for argv, count in zip(_run_every_command(m, tmp_path, capsys), (1, 0, 0, 0, 0, 0)):
        assert len(calls) == count, argv
        calls.clear()


@pytest.mark.parametrize("m", [7, 10**4])
def test_no_command_builds_an_arrowhead_matrix(m, tmp_path, monkeypatch, capsys):
    # verify and simulate --full solve the star's bright arrowhead as the
    # dense array it is; ArrowheadMatrix serves the benchmark's timing only.
    calls = []
    check = model.ArrowheadMatrix.__post_init__
    monkeypatch.setattr(model.ArrowheadMatrix, "__post_init__",
                        lambda self: calls.append(self.dimension) or check(self))
    for argv in _run_every_command(m, tmp_path, capsys):
        assert calls == [], argv


def test_sweep_memory_is_set_by_the_block_not_the_window(monkeypatch):
    import gc
    import tracemalloc

    # Blocks of 256 rows keep the traced windows short.  The interpreter's
    # free lists keep freed objects, and tracemalloc counts those allocated
    # while it traces.  So the first window, of 8 blocks, is traced too: it
    # fills the free lists with traced objects, and the windows after it
    # count only what their blocks hold, whatever ran earlier in the
    # process.  The collector is off while windows are traced, so its
    # timing does not move a peak (and memory held in reference cycles
    # would grow with the window).  Each block's designer is released before
    # the next block's rows are built, so eight blocks peak where one does.
    monkeypatch.setattr(cli, "_SWEEP_BLOCK", 256)
    peaks = []
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        gc.disable()
        tracemalloc.start()
        try:
            for blocks in (8, 1, 8):
                start = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                assert execute(["sweep", "--m-min", "1", "--m-max", str(256 * blocks)]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1] - start)
        finally:
            tracemalloc.stop()
            gc.enable()
    one, eight = peaks[1:]  # the first traced window only warms up
    assert abs(eight - one) <= 0.08 * one, peaks


def _without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


# Each edit of a valid design document, and the refusal its file must give.
_FILE_REFUSALS = {
    "not an object": (lambda doc: [doc], "top level must be a JSON object"),
    "missing field": (lambda doc: _without(doc, "tau"), "missing field 'tau'"),
    "wrong type": (lambda doc: {**doc, "spectrum": {}},
                   "field 'spectrum' has the wrong type, got {}"),
    "root choice": (lambda doc: {**doc, "root_choice": "median"},
                    "field 'root_choice': root choice must be 'smallest' or 'largest', "
                    "got 'median'"),
    "root index past the roots": (lambda doc: {**doc, "root_choice": "index:2"},
                                  "field 'root_choice': root choice must be 'smallest' or "
                                  "'largest', got 'index:2'"),
    "three spectrum entries": (lambda doc: {**doc, "spectrum": doc["spectrum"][:3]},
                               "field 'spectrum' must hold four numbers"),
    "string in spectrum": (lambda doc: {**doc, "spectrum": ["0.0"] + doc["spectrum"][1:]},
                           "field 'spectrum' must hold four numbers"),
    "no residuals.root": (lambda doc: {**doc, "residuals": _without(doc["residuals"], "root")},
                          "missing field 'residuals.root'"),
    "odd eta": (lambda doc: {**doc, "eta": 5},
                "eta must be even (phase cancellation needs it), got 5"),
    "e = 0": (lambda doc: {**doc, "e": 0.0}, "params.e must be nonzero (transfer time is pi/e)"),
    "tau off pi/e": (lambda doc: {**doc, "tau": doc["tau"] * (1.0 + 1e-9)},
                     "transfer_time must equal pi / params.e"),
    "spectrum off": (lambda doc: {**doc, "spectrum": [x * (1.0 + 1e-6) for x in doc["spectrum"]]},
                     "target_spectrum must be {0, e, +eta*e, -eta*e}"),
    "NaN tau": (lambda doc: {**doc, "tau": math.nan}, "transfer_time must equal pi / params.e"),
    "NaN in spectrum": (lambda doc: {**doc, "spectrum": doc["spectrum"][:3] + [math.nan]},
                        "target_spectrum must be {0, e, +eta*e, -eta*e}"),
    "NaN residuals.root": (lambda doc: {**doc, "residuals": {**doc["residuals"], "root": math.nan}},
                           "root_residual must be a finite number >= 0, got nan"),
    "infinite residuals.spectrum": (
        lambda doc: {**doc, "residuals": {**doc["residuals"], "spectrum": math.inf}},
        "spectrum_residual must be a finite number >= 0, got inf"),
    "negative residuals.lambda": (
        lambda doc: {**doc, "residuals": {**doc["residuals"], "lambda": -1e-300}},
        "lambda_residual must be a finite number >= 0, got -1e-300"),
    "string residuals.spectrum": (
        lambda doc: {**doc, "residuals": {**doc["residuals"], "spectrum": "0"}},
        "field 'residuals.spectrum' must be a number, got '0'"),
    "lone residuals.spectrum": (
        lambda doc: {**doc, "residuals": _without(doc["residuals"], "lambda")},
        "missing field 'residuals.lambda'"),
    "lone residuals.lambda": (
        lambda doc: {**doc, "residuals": _without(doc["residuals"], "spectrum")},
        "missing field 'residuals.spectrum'"),
}


@pytest.mark.parametrize("case", list(_FILE_REFUSALS))
@pytest.mark.parametrize("command", ["verify", "simulate", "retarget"])
def test_every_design_file_refusal_is_one_error_line(design_file, tmp_path, capsys, case,
                                                     command):
    edit, message = _FILE_REFUSALS[case]
    design_file.write_text(json.dumps(edit(json.loads(design_file.read_text()))))
    out = tmp_path / "out"
    argv = {"verify": ["verify"], "simulate": ["simulate", "--out", str(out)],
            "retarget": ["retarget", "--target", "3", "--out", str(out)]}[command]
    assert execute(argv + ["--design", str(design_file)]) == 1
    assert capsys.readouterr() == ("", f"error: design file: {message}\n")
    assert not out.exists()


# Edits with two defects: the schema is named first, then every field's
# presence and kind in file order, then what a kind cannot express.
_TWO_DEFECTS = {
    "schema and a missing m": (lambda doc: {**_without(doc, "m"), "schema_version": 2},
                               "field 'schema_version' must be 1, got 2"),
    "short spectrum and a string coupling": (
        lambda doc: {**doc, "spectrum": doc["spectrum"][:3], "coupling": "1"},
        "field 'coupling' must be a number, got '1'"),
    "bad tau and a float source": (lambda doc: {**doc, "tau": "x", "source": 0.5},
                                   "field 'source' must be an integer, got 0.5"),
    "no target and no a": (lambda doc: _without(_without(doc, "a"), "target"),
                           "missing field 'target'"),
    "odd eta and a string m": (lambda doc: {**doc, "eta": 5, "m": "7"},
                               "field 'm' must be an integer, got '7'"),
}


@pytest.mark.parametrize("case", list(_TWO_DEFECTS))
def test_two_defect_files_are_named_by_the_first_in_file_order(case):
    edit, message = _TWO_DEFECTS[case]
    doc = edit(json.loads((GOLDEN / "design_m7_smallest.json").read_text()))
    with pytest.raises(ValueError) as info:
        cli.parse_design_document(doc)
    assert str(info.value) == f"design file: {message}"


# ---------------------------------------------------------------------------
# design file encoding
# ---------------------------------------------------------------------------

_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
                1.7976931348623157e308, 0.1, -1.0 / 3.0]
_FLOATS = st.one_of(st.sampled_from(_EDGE_FLOATS),
                    st.floats(allow_nan=False, allow_infinity=False))
# A star has at least three edges, so at least four potentials.
_RUNS = st.lists(st.tuples(_FLOATS, st.integers(1, 300)), min_size=1, max_size=8).map(
    lambda runs: [x for x, count in runs for _ in range(count)]).filter(lambda p: len(p) >= 4)
_ALL_DISTINCT = st.lists(_FLOATS, min_size=4, max_size=400, unique_by=float.hex)


def _spelled_out(doc):
    """``doc`` with its star under ``potentials`` spelled out node by node,
    as the reference encoder ``json.dumps`` takes it."""
    return {**doc, "potentials": list(doc["potentials"].potentials)}


def _star_document(doc):
    """``doc`` (a decoded design file) with its per-node potentials as a
    star, as ``render_design`` takes it."""
    pots = doc["potentials"]
    return {**doc, "potentials": model.StarSpec(len(pots) - 1, doc["coupling"], pots)}


@settings(deadline=None)
@given(potentials=st.one_of(_RUNS, _ALL_DISTINCT, st.lists(_FLOATS, min_size=4, max_size=50)))
@example(potentials=[0.0, -0.0, 5e-324, 1e308, -1e308, -0.0] + [0.5] * 1000 + [0.0])
def test_render_design_matches_reference_encoder(potentials):
    sol = design(DesignInput(m=2, eta=4))
    doc = {**design_document(sol, 1, 2, sol.realized, SMALLEST), "potentials": potentials}
    assert render_design(_star_document(doc)) == json.dumps(doc, indent=2) + "\n"


_HEADER_FLOATS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1e-05, 1e16, 1e22]),
                           st.floats(allow_nan=False, allow_infinity=False))


@settings(deadline=None)
@given(data=st.data(), m=st.integers(1, 10**6), eta=st.integers(1, 700_000).map(lambda k: 2 * k),
       root=st.one_of(st.sampled_from(["smallest", "largest"]),
                      st.integers(0, 2).map("index:{}".format)),
       residuals=st.sampled_from([("root", "spectrum", "lambda"), ("root",)]))
def test_render_design_header_matches_reference_encoder(data, m, eta, root, residuals):
    def number():
        return data.draw(_HEADER_FLOATS)
    ends = data.draw(st.lists(st.integers(1, m + 2), min_size=2, max_size=2))
    doc = {"schema_version": 1, "m": m, "eta": eta, "root_choice": root,
           "source": ends[0], "target": ends[1], "a": number(), "b": number(), "c": number(),
           "d": number(), "e": number(), "tau": number(),
           "spectrum": [number() for _ in range(4)], "coupling": number(),
           "potentials": model.StarSpec.sparse(5, 1.0, number(), number(),
                                               ((1, number()), (2, number()))),
           "residuals": {key: number() for key in residuals}}
    assert render_design(doc) == json.dumps(_spelled_out(doc), indent=2) + "\n"


def test_load_design_file_decodes_floats_exactly(tmp_path, monkeypatch):
    rng = np.random.default_rng(11)
    values = rng.integers(-(2**63), 2**63 - 1, size=2000, dtype=np.int64).view(float).tolist()
    texts = [fmt.format(x) for x in values if math.isfinite(x)
             for fmt in ("{!r}", "{:.17e}", "{:.6g}")]
    texts += ["0.1", "0.10", "1e-1", "0.0", "-0.0", "5e-324", "2.4703282292062328e-324",
              "1.7976931348623157e308", "1e400", "-1e400", "2", "-0"]
    text = "[" + ", ".join(texts * 2) + "]"  # repeats go through the memo
    path = tmp_path / "floats.json"
    path.write_text(text)
    monkeypatch.setattr(cli, "parse_design_document", lambda doc: doc)
    decoded = cli.load_design_file(str(path))
    reference = json.loads(text)
    assert [type(x) for x in decoded] == [type(x) for x in reference]
    assert [x.hex() if isinstance(x, float) else x for x in decoded] == \
        [x.hex() if isinstance(x, float) else x for x in reference]


@pytest.mark.parametrize("e", [1e-105, 1e-110, 1e105])
def test_retarget_copies_residuals_it_could_not_compute(tmp_path, capsys, e):
    # A file without the spectrum and lambda residuals, whose lambda residual
    # would be infinite (e = 1e-105) or whose e**3 leaves the float range:
    # retarget copies the root residual alone, and a swap back restores it.
    doc = json.loads((GOLDEN / "design_m7_smallest.json").read_text())
    eta = doc["eta"]
    doc.update(e=e, tau=math.pi / e, spectrum=[0.0, e, eta * e, -eta * e], residuals={"root": 0.0})
    doc["potentials"][1:3] = [e, e]
    path, out, back = tmp_path / "tiny.json", tmp_path / "out.json", tmp_path / "back.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    assert execute(["retarget", "--design", str(path), "--target", "5", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["residuals"] == {"root": 0.0}
    assert execute(["retarget", "--design", str(out), "--target", "2", "--out", str(back)]) == 0
    assert back.read_bytes() == path.read_bytes()
    assert capsys.readouterr() == ("", "")
    # verify at a tolerance every check passes: the claims fail, no traceback
    assert execute(["verify", "--design", str(path), "--tol", "100"]) == 1
    assert capsys.readouterr().out.endswith("result              : FAIL\n")


def test_retarget_round_trip_keeps_signed_zeros(design_file, tmp_path):
    doc = json.loads(design_file.read_text())
    doc["d"] = 0.0
    doc["potentials"][3:] = [0.0, -0.0]
    design_file.write_text(json.dumps(doc))
    parsed = cli.load_design_file(str(design_file))
    doc = design_document(parsed.base, parsed.source, parsed.target, parsed.realized_spec,
                          parsed.root_choice)  # the residuals as read
    design_file.write_text(json.dumps(_spelled_out(doc), indent=2) + "\n")
    moved, back = tmp_path / "moved.json", tmp_path / "back.json"
    assert execute(["retarget", "--design", str(design_file), "--target", "4",
                    "--out", str(moved)]) == 0
    text = moved.read_text()
    assert json.loads(text)["potentials"][2:4] == [-0.0, 0.0]
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
    assert execute(["retarget", "--design", str(moved), "--target", "2",
                    "--out", str(back)]) == 0
    assert back.read_bytes() == design_file.read_bytes()


def test_large_design_file_bytes_match_reference_encoder(tmp_path):
    m = 100_000
    eta = min_feasible_even_eta(m)
    path, moved, back = tmp_path / "big.json", tmp_path / "moved.json", tmp_path / "back.json"
    assert execute(["design", "--bystanders", str(m), "--eta", str(eta), "--out", str(path)]) == 0
    sol = design(DesignInput(m=m, eta=eta))
    assert path.read_text() == json.dumps(
        _spelled_out(design_document(sol, 1, 2, sol.realized, SMALLEST)), indent=2) + "\n"
    assert execute(["retarget", "--design", str(path), "--target", "77777",
                    "--out", str(moved)]) == 0
    assert execute(["retarget", "--design", str(moved), "--target", "2",
                    "--out", str(back)]) == 0
    assert back.read_bytes() == path.read_bytes()


def test_design_file_line_endings_do_not_matter(tmp_path, capsys):
    crlf = tmp_path / "crlf.json"
    crlf.write_bytes((GOLDEN / "design_m2_smallest.json").read_bytes().replace(b"\n", b"\r\n"))
    assert execute(["verify", "--design", str(crlf)]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / "verify_m2.txt").read_bytes()


@pytest.mark.parametrize("command", ["verify", "simulate", "retarget"])
@pytest.mark.parametrize("field", ["a", "tau", "coupling", "eta", "spectrum", "residuals.root",
                                   "potentials"])
def test_huge_integer_in_a_numeric_field_is_one_error_line(design_file, tmp_path, capsys,
                                                           field, command):
    doc = json.loads(design_file.read_text())
    if field == "residuals.root":
        doc["residuals"]["root"] = 10**400
    elif field in ("spectrum", "potentials"):
        doc[field][1] = 10**400
    else:
        doc[field] = 10**400
    design_file.write_text(json.dumps(doc, indent=2) + "\n")
    argv = {"verify": ["verify"], "simulate": ["simulate", "--out", str(tmp_path / "t.csv")],
            "retarget": ["retarget", "--target", "3", "--out", str(tmp_path / "r.json")]}[command]
    assert execute(argv + ["--design", str(design_file)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: design file: "), err
    assert f"field '{field}'" in err, err


@pytest.mark.parametrize("head, body", [
    (b"\xff", None), (b"\xef\xbb\xbf", None), (b"[" * 100_000, b"]" * 100_000),
    (b'{"a": ' + b"1" * 5000, b"}"),
], ids=["not-utf8", "bom", "nested", "5000-digit integer"])
def test_undecodable_design_file_is_one_error_line(tmp_path, capsys, head, body):
    path = tmp_path / "design.json"
    path.write_bytes(head + (body or (GOLDEN / "design_m2_smallest.json").read_bytes()))
    for argv in (["verify"], ["simulate", "--out", str(tmp_path / "t.csv")],
                 ["retarget", "--target", "3", "--out", str(tmp_path / "r.json")]):
        assert execute(argv + ["--design", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: design file ")
        assert "is not valid JSON" in err


def _repr_rows(times, values) -> str:
    """The CSV text of a trace, row by row with ``repr``."""
    rows = (f"{t!r},{v!r}\n" for t, v in zip(np.asarray(times, float).tolist(),
                                             np.asarray(values, float).tolist()))
    return "t,fidelity\n" + "".join(rows)


def _columns(cells) -> SimpleNamespace:
    """A trace-like pair of columns holding any finite doubles, which a
    FidelityTrace would refuse as times or fidelities; the CSV writer reads
    only ``times`` and ``values``."""
    cells = np.asarray(cells, float).reshape(-1, 2)
    return SimpleNamespace(times=cells[:, 0], values=cells[:, 1])


def _format_edges() -> list[float]:
    """Doubles at every edge of the shortest-digit layout: signed zeros, the
    largest subnormal and the largest double, every power of two (subnormal
    and normal) and every power of ten with their neighbours (the switches
    to exponent notation at 1e-5, 1e-4 and 1e16 among them, three-digit
    exponents too), and fidelities up to ``1 + 1e-12``."""
    edges = [0.0, 2.2250738585072009e-308, 1.7976931348623157e308, 1.0 + 1e-12,
             math.nextafter(1.0 + 1e-12, 0.0), 0.1 + 0.2, 1.0 / 3.0]
    for centre in [math.ldexp(1.0, q) for q in range(-1074, 1024)] + \
            [float(f"1e{p}") for p in range(-323, 309)]:
        edges += [math.nextafter(centre, 0.0), centre, math.nextafter(centre, math.inf)]
    return edges + [-x for x in edges]


_FORMAT_EDGES = _format_edges()
_FINITE = st.sampled_from(_FORMAT_EDGES) | st.floats(allow_nan=False, allow_infinity=False)


@settings(deadline=None)
@given(cells=st.lists(st.tuples(_FINITE, _FINITE), min_size=1, max_size=60))
def test_render_trace_matches_row_by_row_repr(cells):
    trace = _columns(cells)
    assert cli.render_trace(trace) == _repr_rows(trace.times, trace.values)


def test_render_trace_matches_repr_at_every_layout_edge():
    edges = np.array(_FORMAT_EDGES)
    for cells in (edges, edges[::-1]):  # an even count: each number in both columns
        trace = _columns(cells)
        assert cli.render_trace(trace) == _repr_rows(trace.times, trace.values)


def test_render_trace_matches_repr_on_random_bit_patterns():
    bits = np.frombuffer(np.random.default_rng(26).bytes(8 * 2**18), np.uint64)
    cells = bits.view(float)[np.isfinite(bits.view(float))]
    trace = _columns(cells[:cells.size // 2 * 2])
    assert len(trace.times) > 10**5 > cli._TRACE_ROWS
    assert cli.render_trace(trace) == _repr_rows(trace.times, trace.values)


def _render_trace_calls(trace) -> tuple[int, int]:
    """Python function calls and C calls that rendering ``trace`` makes."""
    counts = [0, 0]

    def profile(frame, event, arg):
        if event in ("call", "c_call"):
            counts[event == "c_call"] += 1

    sys.setprofile(profile)
    try:
        cli.render_trace(trace)
    finally:
        sys.setprofile(None)
    return counts[0], counts[1]


def test_render_trace_makes_the_same_calls_at_any_length():
    # One block of any length and contents costs the same fixed sequence of
    # numpy calls: no Python work per row or per number is left.
    cli.render_trace(model.FidelityTrace(times=[0.0], values=[0.0]))  # tables built
    rng = np.random.default_rng(7)
    counts = set()
    for n in (10, 1000, cli._TRACE_ROWS):
        steps = np.arange(n)
        smooth = model.FidelityTrace(times=steps / 7, values=np.sin(steps * 0.7) ** 2)
        rough = model.FidelityTrace(times=np.cumsum(rng.exponential(1e-310, n)) - 1e-300,
                                    values=rng.random(n) ** 40)
        counts |= {_render_trace_calls(smooth), _render_trace_calls(rough)}
    assert len(counts) == 1, counts


_R = cli._TRACE_ROWS


@pytest.mark.parametrize("n", [1, _R - 1, _R, _R + 1, 2 * _R + 1])
def test_render_trace_matches_row_by_row_repr_at_the_block_edges(n):
    steps = np.arange(n)
    trace = model.FidelityTrace(times=steps / 7, values=np.sin(steps * 0.7) ** 2)
    rows = [f"{t!r},{v!r}" for t, v in zip(trace.times.tolist(), trace.values.tolist())]
    assert cli.render_trace(trace) == "\n".join(["t,fidelity", *rows]) + "\n"
    assert sum(1 for _ in cli._trace_blocks(trace)) == 1 + -(-n // _R)


def test_writing_a_trace_holds_one_block(design_file, tmp_path, monkeypatch):
    import tracemalloc

    n, out = 2 * 10**5, tmp_path / "trace.csv"
    steps = np.arange(n)
    trace = model.FidelityTrace(times=steps / 7, values=np.sin(steps * 0.7) ** 2)
    # The formatting tables are built once per process, on first use; they
    # are no part of a block.
    cli.render_trace(model.FidelityTrace(times=[0.0], values=[0.0]))
    tracemalloc.start()
    try:
        with open(out, "wb") as fh:
            fh.writelines(cli._trace_blocks(trace))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.stat().st_size > 4 * 2**20
    assert out.read_bytes() == cli.render_trace(trace).encode()
    assert peak < 2 * 2**20, peak

    # simulate writes its trace the same way: from the moment its blocks are
    # first asked for, the write holds one block.
    growth, blocks = [], cli._trace_blocks

    def measured(trace):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        yield from blocks(trace)
        growth.append(tracemalloc.get_traced_memory()[1] - start)

    monkeypatch.setattr(cli, "_trace_blocks", measured)
    tracemalloc.start()
    try:
        assert execute(["simulate", "--design", str(design_file), "--steps", str(n),
                        "--out", str(out)]) == 0
    finally:
        tracemalloc.stop()
    assert out.stat().st_size > 4 * 2**20
    assert len(growth) == 1 and growth[0] < 2 * 2**20, growth


# ---------------------------------------------------------------------------
# reading written files without decoding the array
# ---------------------------------------------------------------------------

# m = 60 and 80 give files on either side of _FAST_READ_MIN_BYTES (2304 B),
# m = 300 and 320 files of about 8 KB;
# m = 2700 with the smallest root and m = 2800 files on either side of one
# 64 KiB block.
_SIZES = (60, 80, 300, 320, 2700, 2800, 100_000)
_BASES = [(m, kind) for m in _SIZES for kind in ("smallest", "largest", "zeros")]


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """Paths of design files as the commands write them, keyed by
    ``(m, root)``, and a work directory.  ``(m, "zeros")`` is a design whose
    hub and background are -0.0 (header ``a = d = -0.0``), rendered as the
    commands render it."""
    work = tmp_path_factory.mktemp("written")
    files = {}
    for m in _SIZES:
        eta = min_feasible_even_eta(m) + 2
        for root in ("smallest", "largest"):
            path = work / f"design_{m}_{root}.json"
            assert execute(["design", "--bystanders", str(m), "--eta", str(eta),
                            "--root", root, "--out", str(path)]) == 0
            files[m, root] = path
        doc = json.loads(files[m, "smallest"].read_bytes())
        star = model.StarSpec.sparse(m + 2, 1.0, -0.0, -0.0, ((1, doc["e"]), (2, doc["e"])))
        doc.update(a=-0.0, d=-0.0, potentials=star)
        doc["residuals"] = {"root": 0.0}
        files[m, "zeros"] = work / f"design_{m}_zeros.json"
        files[m, "zeros"].write_text(render_design(doc))
    return files, work


def _bits(parsed):
    """Everything a read reconstructs, floats as hex so that 0.0 and -0.0
    differ.  Equal parts mean equal per-node potentials, bit for bit."""
    def hexes(*values):
        return tuple(x.hex() if isinstance(x, float) else x for x in values)
    spec, sol = parsed.realized_spec, parsed.base
    p = sol.params
    return (hexes(spec.edge_count, spec.coupling, spec.hub, spec.background),
            tuple(hexes(*pair) for pair in spec.exceptions),
            hexes(p.a, p.b, p.c, p.d, p.e, p.m, sol.eta, sol.transfer_time,
                  sol.root_residual, *sol.target_spectrum),
            sol.realized._parts(), parsed.source, parsed.target, parsed.root_choice)


def _read_rendered(path):
    with open(path, "rb") as fh:
        return cli._read_rendered(fh, path.stat().st_size)


def _outcomes(path):
    """``load_design_file`` of ``path`` by the fast read and by ``json.loads``:
    what each reconstructs, or the error line ``execute`` would print."""
    outcomes = []
    saved = cli._FAST_READ_MIN_BYTES
    for limit in (0, math.inf):
        cli._FAST_READ_MIN_BYTES = limit
        try:
            outcomes.append(_bits(cli.load_design_file(str(path))))
        except ValueError as exc:
            outcomes.append(f"error: {exc}")
        finally:
            cli._FAST_READ_MIN_BYTES = saved
    return outcomes


@settings(deadline=None, max_examples=20)
@given(base=st.sampled_from(_BASES),
       moves=st.lists(st.sampled_from(["3", "N", "any", "back"]), max_size=4), data=st.data())
def test_fast_read_of_written_files_matches_the_full_decode(written, base, moves, data):
    files, work = written
    m, root = base
    path = files[base]
    if root != "zeros":
        # Standard output carries the same blocks as --out: the rendering.
        eta = min_feasible_even_eta(m) + 2
        sol = design(DesignInput(m=m, eta=eta, root_choice=designer.RootChoice.parse(root)))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert execute(["design", "--bystanders", str(m), "--eta", str(eta),
                            "--root", root]) == 0
        rendered = render_design(design_document(sol, 1, 2, sol.realized, root))
        assert path.read_bytes() == out.getvalue().encode() == rendered.encode()
    targets = [2]
    for step, move in enumerate(["stay", *moves], 1):
        assert _read_rendered(path) is not None
        fast, slow = _outcomes(path)
        assert isinstance(fast, tuple) and fast == slow
        new = {"stay": targets[-1], "3": 3, "N": m + 2, "back": targets[-2:][0],
               "any": data.draw(st.integers(2, m + 2)) if move == "any" else None}[move]
        targets.append(new)
        moved = work / f"chain_{step}.json"
        assert execute(["retarget", "--design", str(path), "--target", str(new),
                        "--out", str(moved)]) == 0
        parsed = cli.load_design_file(str(path))
        state = switchboard.retarget(parsed, new)
        assert moved.read_bytes() == render_design(design_document(
            state.base, state.source, state.target, state.realized_spec,
            parsed.root_choice)).encode()
        path = moved
    assert _read_rendered(path) is not None
    fast, slow = _outcomes(path)
    assert fast == slow and fast[-2] == targets[-1]


def _mutate(text: str, kind: str, node: int) -> str:
    lines = text.split("\n")
    first = lines.index('  "potentials": [') + 1  # line of the hub
    last = lines.index("  ],", first)  # line after the last item
    i = first + node % (last - first - 1)  # an item line with a comma after it
    item = lines[i]
    if kind == "trailing zero":
        lines[i] = item[:-1] + "0,"
    elif kind == "space":
        lines[i] = item + " "
    elif kind in ("true", "2", "NaN"):
        lines[i] = "    " + kind + ","
    elif kind == "third exception":  # on a bystander: node 4 or later, before node N
        i = max(i, first + 4)
        lines[i] = "    " + repr(math.nextafter(float(lines[i][:-1]), math.inf)) + ","
    elif kind == "route item one ulp off e":  # at the source or the target
        key = ('  "source": ', '  "target": ')[node % 2]
        i = first + int(next(line for line in lines if line.startswith(key))[len(key):-1])
        item = lines[i].rstrip(",")
        lines[i] = "    " + repr(math.nextafter(float(item), math.inf)) + lines[i][len(item):]
    elif kind == "one item too many":
        lines.insert(i, item)
    elif kind == "one item too few":
        del lines[i]
    elif kind == "duplicate key":
        lines[last + 1:last + 1] = lines[first - 1:last + 1]
    elif kind in ("m + 1", "m - 1"):
        j = next(j for j, line in enumerate(lines) if line.startswith('  "m": '))
        lines[j] = f'  "m": {int(lines[j][7:-1]) + (1 if kind == "m + 1" else -1)},'
    elif kind == "space at the end":
        lines[-1] += " "
    elif kind == "last byte":
        return text[:-1] + "x"
    elif kind == "truncated":
        return text[:len(text) // 2]
    elif kind == "trailing bytes":
        return text + "{}"
    elif kind == "crlf":
        return "\r\n".join(lines)
    elif kind == "compact":
        return json.dumps(json.loads(text), separators=(",", ":"))
    return "\n".join(lines)


_MUTATIONS = ["trailing zero", "space", "crlf", "compact", "true", "2", "NaN", "third exception",
              "route item one ulp off e", "one item too many", "one item too few", "duplicate key", "m + 1", "m - 1",
              "space at the end", "last byte", "truncated", "trailing bytes"]


@pytest.mark.parametrize("kind", _MUTATIONS)
@settings(deadline=None, max_examples=4,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(base=st.sampled_from(_BASES),
       node=st.integers(0, 10**6), target=st.sampled_from([2, 3, "N"]))
def test_mutated_files_read_as_the_full_decode_reads_them(written, kind, base, node, target):
    files, work = written
    m, _ = base
    path = work / f"mutated_{kind}.json"
    path.write_bytes(files[base].read_bytes())
    if target != 2:
        assert execute(["retarget", "--design", str(path), "--target",
                        str(m + 2 if target == "N" else target), "--out", str(path)]) == 0
    path.write_bytes(_mutate(path.read_text(), kind, node).encode())
    assert _read_rendered(path) is None
    fast, slow = _outcomes(path)
    assert fast == slow


@pytest.mark.parametrize("m", [80, 2800])
@pytest.mark.parametrize("edit", ["residuals root and spectrum", "tau moved first",
                                  "extra key", "three-number spectrum"])
def test_headers_of_no_layout_are_decoded_whole(written, m, edit, tmp_path):
    files, _ = written
    doc = json.loads(files[m, "smallest"].read_text())
    if edit == "residuals root and spectrum":
        del doc["residuals"]["lambda"]
    elif edit == "tau moved first":
        doc = {"tau": doc.pop("tau"), **doc}
    elif edit == "extra key":
        doc["note"] = "kept"
    else:
        doc["spectrum"] = doc["spectrum"][:3]
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    assert _read_rendered(path) is None
    fast, slow = _outcomes(path)
    assert fast == slow


def test_no_command_runs_the_json_encoder(written, tmp_path, monkeypatch, capsys):
    files, _ = written

    def commands():
        """Each command on files that design writes at m = 7 and 10**4 and
        on zeros files, with what it printed and wrote."""
        outcomes = []
        def run(*argv):
            out = tmp_path / "out"
            out.unlink(missing_ok=True)
            status = execute([a.replace("{out}", str(out)) for a in argv])
            outcomes.append((argv, status, capsys.readouterr(),
                             out.read_bytes() if out.exists() else None))
        paths = [files[60, "zeros"], files[2800, "zeros"]]
        for m in (7, 10**4):
            eta = str(min_feasible_even_eta(m))
            run("design", "--bystanders", str(m), "--eta", eta)
            paths.append(tmp_path / f"design_{m}.json")
            assert execute(["design", "--bystanders", str(m), "--eta", eta,
                            "--out", str(paths[-1])]) == 0
        for path in map(str, paths):
            run("retarget", "--design", path, "--target", "3", "--out", "{out}")
            run("verify", "--design", path)
            run("simulate", "--design", path, "--steps", "50", "--out", "{out}")
            run("simulate", "--design", path, "--steps", "50", "--full", "--out", "{out}")
        return outcomes

    def refuse(*args, **kwargs):
        raise AssertionError("the JSON encoder ran")
    with monkeypatch.context() as patch:
        patch.setattr(json, "dumps", refuse)
        patch.setattr(json.encoder, "_make_iterencode", refuse)
        without = commands()
    assert without == commands()
    assert all(outcome[2].err == "" for outcome in without)


@pytest.mark.parametrize("m", _SIZES)
def test_items_that_differ_from_the_header_only_in_sign_are_decoded_whole(written, m):
    files, work = written
    text = files[m, "zeros"].read_text()
    plus = text.replace('\n  "a": -0.0,', '\n  "a": 0.0,').replace('\n  "d": -0.0,', '\n  "d": 0.0,')
    assert len(plus) == len(text) - 2
    path = work / f"plus_zeros_{m}.json"
    path.write_text(plus)
    assert _read_rendered(path) is None
    fast, slow = _outcomes(path)
    assert isinstance(fast, tuple) and fast == slow
    hub, background = fast[0][2:]
    assert hub == background == (-0.0).hex()  # the items', not the header's


def test_unreadable_design_path_is_one_error_line(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    for path, error in ((missing, "[Errno 2] No such file or directory"),
                        (tmp_path, "[Errno 21] Is a directory")):
        for argv in (["verify"], ["simulate", "--out", str(tmp_path / "t.csv")],
                     ["retarget", "--target", "3", "--out", str(tmp_path / "r.json")]):
            assert execute(argv + ["--design", str(path)]) == 1
            assert capsys.readouterr().err == (
                f"error: cannot read design file {str(path)!r}: {error}: {str(path)!r}\n")


def test_parse_design_document_takes_a_star_as_render_design_does(design_file):
    doc = json.loads(design_file.read_text())
    parsed = cli.parse_design_document(doc)
    parts = parsed.realized_spec._parts()[2:]
    star = model.StarSpec.sparse(4, 2.0, *parts)  # coupling from the doc
    assert _bits(cli.parse_design_document({**doc, "potentials": star})) == _bits(parsed)
    same = model.StarSpec.sparse(4, 1.0, *parts)  # the doc's coupling: kept
    assert cli.parse_design_document({**doc, "potentials": same}).realized_spec is same
    bigger = model.StarSpec.sparse(5, 1.0, *parts)
    with pytest.raises(ValueError) as from_list:
        cli.parse_design_document({**doc, "potentials": list(bigger.potentials)})
    with pytest.raises(ValueError, match="must hold m \\+ 3 = 5 entries, got 6") as from_star:
        cli.parse_design_document({**doc, "potentials": bigger})
    assert str(from_star.value) == str(from_list.value)


def _residual_hexes(path):
    return {key: value.hex() for key, value in json.loads(path.read_text())["residuals"].items()}


@pytest.mark.parametrize("m", _SIZES)
def test_retarget_copies_the_files_residuals(written, m, tmp_path):
    files, _ = written
    # Residuals no design gives, so a recomputation would show.
    doc = json.loads(files[m, "smallest"].read_text())
    doc["residuals"] = {"root": 5e-324, "spectrum": 1.2345678901234567e-300, "lambda": 0.0}
    odd = tmp_path / "odd.json"
    odd.write_text(render_design(_star_document(doc)))
    # A file without residuals.spectrum and residuals.lambda stays without them.
    for path in (files[m, "smallest"], files[m, "largest"], odd, files[m, "zeros"]):
        moved, back = tmp_path / "moved.json", tmp_path / "back.json"
        assert execute(["retarget", "--design", str(path), "--target", "3",
                        "--out", str(moved)]) == 0
        assert _residual_hexes(moved) == _residual_hexes(path)
        assert execute(["retarget", "--design", str(moved), "--target", "2",
                        "--out", str(back)]) == 0
        assert back.read_bytes() == path.read_bytes()
    assert _residual_hexes(moved) == {"root": (0.0).hex()}


def test_written_file_array_is_never_decoded(tmp_path, monkeypatch, capsys):
    m = 100_000
    path, moved = tmp_path / "design.json", tmp_path / "moved.json"
    assert execute(["design", "--bystanders", str(m), "--eta", str(min_feasible_even_eta(m)),
                    "--out", str(path)]) == 0
    decoded = []
    loads = json.loads
    monkeypatch.setattr(cli.json, "loads", lambda s, **kw: decoded.append(len(s)) or loads(s, **kw))
    assert execute(["retarget", "--design", str(path), "--target", "77777",
                    "--out", str(moved)]) == 0
    assert execute(["verify", "--design", str(moved)]) == 0
    assert "PASS" in capsys.readouterr().out
    assert len(decoded) == 2 and max(decoded) < 4096
    size = len(moved.read_bytes())
    for limit, whole in ((size, False), (size + 1, True)):
        monkeypatch.setattr(cli, "_FAST_READ_MIN_BYTES", limit)
        decoded.clear()
        assert cli.load_design_file(str(moved)).target == 77777
        assert (decoded == [size]) if whole else max(decoded) < 4096


# ---------------------------------------------------------------------------
# design files stream through blocks
# ---------------------------------------------------------------------------

def test_no_command_holds_a_whole_design_file_in_memory(tmp_path, capsys):
    import tracemalloc

    m, eta = 10**6, 1_299_040
    path, moved = tmp_path / "design.json", tmp_path / "moved.json"
    # An exception every 100 nodes, each a distinct value: about 370 distinct
    # blocks, which a writer that batched blocks would hold together.
    sol = design(DesignInput(m=m, eta=eta))
    a, d, e = sol.params.a, sol.params.d, sol.params.e
    exceptions = [(1, e), (2, e)] + [(node, d + node / 2**30)
                                     for node in range(50, m + 2, 100)]
    assert len({value for _, value in exceptions}) == len(exceptions) - 1
    spread = design_document(sol, 1, 2, model.StarSpec.sparse(m + 2, 1.0, a, d, exceptions),
                             SMALLEST)
    assert sum(1 for _ in cli._blocks(spread)) > 300
    runs = {
        "design": lambda: execute(["design", "--bystanders", str(m), "--eta", str(eta),
                                   "--out", str(path)]),
        "retarget": lambda: execute(["retarget", "--design", str(path), "--target", "777777",
                                     "--out", str(moved)]),
        "load": lambda: cli.load_design_file(str(moved)),
        "spread": lambda: cli._write_design(spread, str(tmp_path / "spread.json")),
    }
    assert execute(["design", "--bystanders", "2", "--eta", "4"]) == 0  # warm up
    peaks = {}
    for name, run in runs.items():
        tracemalloc.start()
        try:
            run()
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    capsys.readouterr()
    assert cli.load_design_file(str(moved)).target == 777777
    assert path.stat().st_size > 20 * 2**20
    assert (tmp_path / "spread.json").read_text() == render_design(spread)
    assert max(peaks.values()) < 2**20, peaks


def test_background_runs_are_written_as_few_repeated_blocks():
    # A design at m = 10**6 is the header with the hub and the route, one run
    # of a block repeated, the run's remainder as a prefix of that block, and
    # the rest; its retarget to 777777 splits the run in two.  Each repeated
    # block holds as many whole entries as fit.
    m, eta = 10**6, 1_299_040
    sol = design(DesignInput(m=m, eta=eta))
    fresh = switchboard.RoutingState(sol, 1, 2, sol.realized)
    moved = switchboard.retarget(fresh, 777777)
    run = (",\n    " + repr(sol.params.d)).encode()
    for state, pairs in ((fresh, 4), (moved, 7)):
        doc = design_document(state.base, state.source, state.target, state.realized_spec,
                              SMALLEST)
        blocks = list(cli._blocks(doc))
        assert len(blocks) == pairs
        assert all(len(block) >= cli._BLOCK_BYTES - len(run)
                   for block, times in blocks if times > 1)
        assert sum(len(block) * times for block, times in blocks) == \
            len(render_design(doc).encode())


def test_short_writes_still_give_the_rendered_bytes(tmp_path, monkeypatch):
    calls = []

    def short_writev(fd, buffers):  # writes at most 1000 bytes
        calls.append(len(buffers))
        head = b""
        for buf in buffers:
            head += bytes(buf[:1000 - len(head)])
            if len(head) == 1000:
                break
        return os.write(fd, head)

    monkeypatch.setattr(cli.os, "writev", short_writev)
    m, target = 100_000, 77777
    eta = min_feasible_even_eta(m)
    path, moved = tmp_path / "design.json", tmp_path / "moved.json"
    assert execute(["design", "--bystanders", str(m), "--eta", str(eta), "--out", str(path)]) == 0
    sol = design(DesignInput(m=m, eta=eta))
    assert path.read_text() == render_design(design_document(sol, 1, 2, sol.realized, SMALLEST))
    assert execute(["retarget", "--design", str(path), "--target", str(target),
                    "--out", str(moved)]) == 0
    state = switchboard.retarget(cli.load_design_file(str(path)), target)
    assert moved.read_text() == render_design(
        design_document(state.base, 1, target, state.realized_spec, SMALLEST))
    # every call was cut short, and runs went out as many copies per call
    assert len(calls) > (path.stat().st_size + moved.stat().st_size) // 1000
    assert max(calls) > 1


def test_design_out_file_mode_is_what_open_wb_gives(tmp_path):
    out, reference = tmp_path / "design.json", tmp_path / "reference"
    umask = os.umask(0o027)
    try:
        assert execute(["design", "--bystanders", "2", "--eta", "4", "--out", str(out)]) == 0
        with open(reference, "wb"):
            pass
    finally:
        os.umask(umask)
    assert out.stat().st_mode == reference.stat().st_mode
    assert stat.S_IMODE(out.stat().st_mode) == 0o640


def test_design_write_errors_are_one_error_line(tmp_path, capsys):
    missing, directory = tmp_path / "missing" / "x.json", tmp_path / "dir"
    directory.mkdir()
    for out, error in ((missing, "[Errno 2] No such file or directory"),
                       (directory, "[Errno 21] Is a directory")):
        assert execute(["design", "--bystanders", "2", "--eta", "4", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {error}: {str(out)!r}\n"
    assert [p.name for p in tmp_path.rglob("*")] == ["dir"]


# ---------------------------------------------------------------------------
# every command is O(1) in m, by counting
# ---------------------------------------------------------------------------

def _counted(argv):
    """``execute(argv)`` run twice: once under ``sys.setprofile``, counting
    the calls into ``spinstar`` code (function entries and generator
    resumes) and the C calls, once under ``tracemalloc`` for its peak."""
    import sys
    import tracemalloc

    package = os.path.dirname(cli.__file__)
    counts = [0, 0]

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(package):
            counts[0] += 1
        elif event == "c_call":
            counts[1] += 1

    sys.setprofile(profile)
    try:
        status = execute(argv)
    finally:
        sys.setprofile(None)
    assert status == 0, argv
    tracemalloc.start()
    try:
        assert execute(argv) == 0, argv
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return counts[0], counts[1], peak


def test_every_command_is_constant_time_in_m(tmp_path, capsys):
    design_path, moved, trace = (str(tmp_path / name) for name in ("d.json", "r.json", "t.csv"))
    commands = {  # each command with the number of design files it reads or writes
        "design": (["design", "--bystanders", "{m}", "--eta", "1299040", "--out", design_path], 1),
        "retarget": (["retarget", "--design", design_path, "--target", "3", "--out", moved], 2),
        "verify": (["verify", "--design", design_path], 1),
        "simulate": (["simulate", "--design", design_path, "--steps", "100", "--out", trace], 1),
        "simulate --full": (["simulate", "--design", design_path, "--steps", "100", "--full",
                             "--out", trace], 1),
    }
    counts, blocks = {}, {}
    for m in (10**4, 10**6):
        argvs = {name: [str(m) if a == "{m}" else a for a in argv]
                 for name, (argv, _) in commands.items()}
        for argv in argvs.values():  # warm up
            assert execute(argv) == 0
        for name, argv in argvs.items():
            counts[name, m] = _counted(argv)
        blocks[m] = -(-os.path.getsize(design_path) // cli._BLOCK_BYTES)
    capsys.readouterr()
    assert blocks[10**6] > 300
    for name, (_, files) in commands.items():
        (calls, c_calls, peak), (calls6, c_calls6, peak6) = counts[name, 10**4], counts[name, 10**6]
        assert calls6 == calls, name
        # a read is two C calls per block (the read and its length); runs of
        # identical blocks go out in a few os.writev calls
        assert c_calls6 - c_calls <= 2 * files * (blocks[10**6] - blocks[10**4]), name
        # The last run of background entries, m modulo the entries in one
        # block, is written and compared as a view of the repeated block, so
        # no buffer grows with m.  One float per node is 8 MB at m = 10**6.
        assert abs(peak6 - peak) <= 8192, (name, peak, peak6)
