"""CLI outputs pinned byte for byte against files committed under
``tests/data/golden/``.

Each step runs one ``spinstar`` command; ``{out}`` in its arguments is the
step's output file, and ``{name}`` names the output of an earlier step.  A
step without ``{out}`` records its standard output.  The outputs of the
largest supported design, about 20 MB a file, are pinned by their SHA-256
digests in ``m1000000.sha256`` (``sha256sum`` format) instead.  The bits
of the design roots over a grid of ``(m, eta)`` are pinned the same way, in
``solve_e.sha256``, and the 10 000 rows of ``sweep --m-min 1 --m-max 10000``
in ``sweep_1_10000.sha256``.  To regenerate the files after a deliberate output
change, run ``python tests/test_golden.py``.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import pytest

from spinstar.cli import execute
from spinstar.designer import ETA_MAX, min_feasible_even_eta, solve_e

GOLDEN = Path(__file__).parent / "data" / "golden"
DIGESTS = GOLDEN / "m1000000.sha256"
ROOT_DIGEST = GOLDEN / "solve_e.sha256"
SWEEP_DIGEST = GOLDEN / "sweep_1_10000.sha256"

STEPS = [
    *[
        (f"design_m{m}_{root}.json",
         ["design", "--bystanders", str(m), "--eta", str(eta), "--root", root, "--out", "{out}"])
        for m, eta in ((1, 2), (2, 4), (7, 10))
        for root in ("smallest", "largest")
    ],
    ("retarget_m7_to5.json",
     ["retarget", "--design", "{design_m7_smallest.json}", "--target", "5", "--out", "{out}"]),
    ("retarget_m7_to5_back.json",
     ["retarget", "--design", "{retarget_m7_to5.json}", "--target", "2", "--out", "{out}"]),
    ("verify_m2.txt", ["verify", "--design", "{design_m2_smallest.json}"]),
    ("verify_m7_to5.txt", ["verify", "--design", "{retarget_m7_to5.json}"]),
    ("sweep_1_12.csv", ["sweep", "--m-min", "1", "--m-max", "12"]),
    ("sweep_999990_1000000.csv", ["sweep", "--m-min", "999990", "--m-max", "1000000"]),
    ("simulate_m2.csv",
     ["simulate", "--design", "{design_m2_smallest.json}", "--steps", "50", "--out", "{out}"]),
    ("simulate_m2_full.csv",
     ["simulate", "--design", "{design_m2_smallest.json}", "--steps", "50", "--full",
      "--out", "{out}"]),
]


def _largest_steps(root: str) -> list:
    """Design m = 10**6 at its smallest feasible eta with ``root``, move its
    target to 777777, then verify and simulate the moved file."""
    design, moved = f"design_m1000000_{root}.json", f"m1000000_{root}_to777777"
    return [
        (design, ["design", "--bystanders", "1000000", "--eta", "1299040", "--root", root,
                  "--out", "{out}"]),
        (f"retarget_{moved}.json",
         ["retarget", "--design", f"{{{design}}}", "--target", "777777", "--out", "{out}"]),
        (f"verify_{moved}.txt", ["verify", "--design", f"{{retarget_{moved}.json}}"]),
        (f"simulate_{moved}.csv",
         ["simulate", "--design", f"{{retarget_{moved}.json}}", "--steps", "100",
          "--out", "{out}"]),
        (f"simulate_{moved}_full.csv",
         ["simulate", "--design", f"{{retarget_{moved}.json}}", "--steps", "100", "--full",
          "--out", "{out}"]),
    ]


DIGEST_STEPS = _largest_steps("smallest") + _largest_steps("largest")

SWEEP_STEPS = [("sweep_1_10000.csv", ["sweep", "--m-min", "1", "--m-max", "10000"])]


def run_steps(workdir: Path, steps: list = STEPS) -> dict[str, Path]:
    """Run ``steps`` in ``workdir``; returns each output's path by name."""
    paths = {name: workdir / name for name, _ in steps}
    for name, argv in steps:
        args = [str(paths[name if a == "{out}" else a[1:-1]]) if a[:1] == "{" else a
                for a in argv]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert execute(args) == 0, name
        if "{out}" not in argv:
            paths[name].write_bytes(stdout.getvalue().encode())
    return paths


def sha256sum(paths: dict[str, Path]) -> str:
    """``sha256sum``'s output for the files ``paths``, under their names."""
    return "".join(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {name}\n"
                   for name, path in paths.items())


def solve_e_grid() -> str:
    """``sha256sum``'s line for the text ``m eta e0 e1`` (roots in
    ``float.hex``), one line per pair: every m <= 2000 at its smallest
    feasible even eta and the next, and every m <= 50 at the 20 largest even
    eta <= ETA_MAX."""
    pairs = [(m, eta) for m in range(1, 2001)
             for eta in (min_feasible_even_eta(m), min_feasible_even_eta(m) + 2)]
    pairs += [(m, ETA_MAX - 2 * k) for m in range(1, 51) for k in range(20)]
    text = "".join(f"{m} {eta} {' '.join(e.hex() for e in solve_e(m, eta))}\n"
                   for m, eta in pairs)
    return f"{hashlib.sha256(text.encode()).hexdigest()}  solve_e_grid.txt\n"


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return run_steps(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", [name for name, _ in STEPS])
def test_cli_output_matches_golden_bytes(outputs, name):
    assert outputs[name].read_bytes() == (GOLDEN / name).read_bytes()


def test_largest_design_outputs_match_golden_digests(tmp_path):
    assert sha256sum(run_steps(tmp_path, DIGEST_STEPS)) == DIGESTS.read_text()


def test_design_roots_match_golden_digest():
    assert solve_e_grid() == ROOT_DIGEST.read_text()


def test_long_sweep_matches_golden_digest(tmp_path):
    assert sha256sum(run_steps(tmp_path, SWEEP_STEPS)) == SWEEP_DIGEST.read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    run_steps(GOLDEN)
    with tempfile.TemporaryDirectory() as workdir:
        DIGESTS.write_text(sha256sum(run_steps(Path(workdir), DIGEST_STEPS)))
        SWEEP_DIGEST.write_text(sha256sum(run_steps(Path(workdir), SWEEP_STEPS)))
    ROOT_DIGEST.write_text(solve_e_grid())
    sys.stdout.write(f"wrote {len(STEPS)} files, {DIGESTS.name}, {ROOT_DIGEST.name} and "
                     f"{SWEEP_DIGEST.name} to {GOLDEN}\n")
