"""Smoke test of the benchmark harness: it runs every workload briefly,
untraced and traced, and emits every metric BENCHMARK.json names, each with
its unit, plus the attempted and failed operation counts.  No timing gate."""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def test_smoke_emits_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=600, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] > result["failed"] >= 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            for metric in spec[group]:
                emitted = result["metrics"][f"{workload}:{metric['name']}"]
                assert emitted["unit"] == metric["unit"]
                assert isinstance(emitted["value"], float)
            for count in ("ops_attempted", "ops_failed"):
                assert any(line.startswith(f"{workload} trace={trace} {count} ")
                           for line in lines)
