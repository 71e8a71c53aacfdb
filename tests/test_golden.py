"""CLI outputs pinned byte for byte against files committed under
``tests/data/golden/``.

Each step runs one ``spinstar`` command; ``{out}`` in its arguments is the
step's output file, and ``{name}`` names the output of an earlier step.  A
step without ``{out}`` records its standard output.  To regenerate the files
after a deliberate output change, run ``python tests/test_golden.py``.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from spinstar.cli import execute

GOLDEN = Path(__file__).parent / "data" / "golden"

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


def run_steps(workdir: Path) -> dict[str, bytes]:
    """Run every step in ``workdir``; returns each output's bytes by name."""
    paths = {name: str(workdir / name) for name, _ in STEPS}
    outputs = {}
    for name, argv in STEPS:
        writes = "{out}" in argv
        args = [paths[name if a == "{out}" else a[1:-1]] if a[:1] == "{" else a for a in argv]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert execute(args) == 0, name
        if writes:
            outputs[name] = Path(paths[name]).read_bytes()
        else:
            Path(paths[name]).write_text(stdout.getvalue())
            outputs[name] = stdout.getvalue().encode()
    return outputs


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return run_steps(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", [name for name, _ in STEPS])
def test_cli_output_matches_golden_bytes(outputs, name):
    assert outputs[name] == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name, data in run_steps(GOLDEN).items():
        (GOLDEN / name).write_bytes(data)
    sys.stdout.write(f"wrote {len(STEPS)} files to {GOLDEN}\n")
