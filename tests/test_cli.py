"""Command-line interface: subcommand semantics, file formats, exit codes,
and byte-for-byte determinism."""

import csv
import json
import math

import pytest

from spinstar import dynamics
from spinstar.cli import execute

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
        parsed.solution, parsed.source, parsed.target, parsed.spec, parsed.root_choice
    )
    assert rebuilt == original


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


def test_design_root_largest(capsys):
    assert execute(["design", "--bystanders", "2", "--eta", "4", "--root", "largest"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["e"] > 0.7
    assert doc["root_choice"] == "largest"


def test_help_exits_0(capsys):
    assert execute(["--help"]) == 0
    capsys.readouterr()


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


def test_verify_refuses_dense_star_above_limit(tmp_path, capsys):
    # N = m + 2 = 100001 edges: one past the dense-matrix limit (~80 GB)
    path = tmp_path / "big.json"
    assert execute(["design", "--bystanders", "99999", "--eta", "140000",
                    "--out", str(path)]) == 0
    assert execute(["verify", "--design", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "limited to 100000 edges" in err


def test_memory_error_is_one_error_line(design_file, monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(dynamics, "verify_design", exhausted)
    assert execute(["verify", "--design", str(design_file)]) == 1
    assert capsys.readouterr().err == "error: MemoryError\n"


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


def test_simulate_custom_window(design_file, tmp_path):
    out = tmp_path / "trace.csv"
    args = ["simulate", "--design", str(design_file), "--t-max", "2.0", "--steps", "100",
            "--out", str(out)]
    assert execute(args) == 0
    data = _read_trace(out)
    assert len(data) == 100
    assert data[-1][0] <= 2.0 + 1e-9


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
    assert execute(["sweep", "--m-min", "5", "--m-max", "3"]) == 1
    capsys.readouterr()
