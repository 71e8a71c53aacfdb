"""spinstar benchmark: one closed-loop client, one process, one workload.

Usage, from the root of a checkout::

    python3 bench/run.py --workload design-large --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --smoke        # every workload briefly, both modes

Each operation is one call of the public entry point
``spinstar.cli.execute(argv)`` (or, for the full-spin-space oracle, one
library call), timed alone at a reference speed; its output is then checked
independently.  The loop runs the number of whole rounds of the workload that
comes closest to ``--seconds``.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` spends half the time untraced, replays the same rounds traced,
and prints the per-layer metrics.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  DESIGN.md explains the workloads, the metrics and the size
envelope.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

# One BLAS/OpenMP thread, fixed before numpy loads: with two OpenBLAS threads
# on a 2-core machine small eigensolves stall for tens of milliseconds.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
P90_MIN_SAMPLES = 100
KINDS = ("design", "verify", "simulate", "simulate_full", "retarget", "sweep", "oracle")
E2E_UNITS = {
    "setup_s": "s", "design_ms_p50": "ms", "design_ms_p90": "ms",
    "verify_ms_p50": "ms", "verify_ms_p90": "ms",
    "simulate_ms_p50": "ms", "simulate_ms_p90": "ms",
    "simulate_full_ms_p50": "ms", "simulate_full_ms_p90": "ms",
    "retarget_ms_p50": "ms", "retarget_ms_p90": "ms",
    "sweep_rows_per_s": "rows/s", "oracle_ms_p50": "ms",
    "ops_per_s": "ops/s", "peak_rss_mib": "MiB",
}


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


if not (SRC / "spinstar" / "__init__.py").is_file():
    _fail(f"no spinstar sources at {SRC}; run from the root of a spinstar checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import ops  # noqa: E402
import spinstar  # noqa: E402
from tracing import Tracer, per_layer_metrics  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

if Path(spinstar.__file__).resolve().parent != SRC / "spinstar":
    _fail(f"imported spinstar from {spinstar.__file__}, not from {SRC}")

# Latencies are reported at a reference speed.  On the shared 2-core host this
# benchmark was built on, a fixed loop runs anywhere from 1x to 2x slower from
# one second to the next, which moved raw run medians by 20-40%.  A short fixed
# probe (interpreter loop, JSON round trip, 4x4 eigensolves: the mix the
# commands spend their time in) is timed right before and right after every
# operation, and the operation's wall time is scaled by PROBE_REF_S / (mean
# probe time): the time it would have taken at the speed where the probe takes
# PROBE_REF_S.  Raw wall-clock percentiles are printed on the "#" lines.
PROBE_REF_S = 0.6e-3
_PROBE_MATRIX = np.array([[1.0, 0.5, 0.2, 0.1], [0.5, 2.0, 0.0, 0.3],
                          [0.2, 0.0, 3.0, 0.0], [0.1, 0.3, 0.0, 4.0]])


def speed_probe() -> float:
    """Seconds a fixed piece of work takes right now."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(2500):
        acc += math.sqrt(i + 1.0) * 1.0000001
    json.loads(json.dumps([float(i) for i in range(500)]))
    for _ in range(8):
        np.linalg.eigvalsh(_PROBE_MATRIX)
    return time.perf_counter() - start


def timed(fn):
    """Run ``fn()``; returns its result, the wall seconds, and the seconds at
    the reference speed."""
    before = speed_probe()
    start = time.perf_counter()
    result = fn()
    seconds = time.perf_counter() - start
    return result, seconds, seconds * 2.0 * PROBE_REF_S / (before + speed_probe())


@dataclass
class Tally:
    """Outcomes of the operations of one pass."""

    latency: dict = field(default_factory=lambda: {k: [] for k in KINDS})  # reference seconds
    wall: dict = field(default_factory=lambda: {k: [] for k in KINDS})     # wall seconds
    attempted: int = 0
    wrong: int = 0            # exit 0 but the output failed its check
    failures: list = field(default_factory=list)
    op_seconds: float = 0.0
    sweep_rows: int = 0
    sweep_seconds: float = 0.0

    def add(self, op, wall: float, seconds: float, rc: int, error: str | None) -> None:
        """Record one operation; ``seconds`` is its time at the reference speed."""
        self.attempted += 1
        self.op_seconds += seconds
        if op.kind == "sweep":
            self.sweep_seconds += seconds
        if error is None:
            self.latency[op.kind].append(seconds)
            self.wall[op.kind].append(wall)
            self.sweep_rows += len(op.rows)
        else:
            self.wrong += rc == 0
            self.failures.append(f"{op.describe()}: {error}")

    @property
    def succeeded(self) -> int:
        return self.attempted - len(self.failures)


def _run(op, tracer, round_index: int):
    try:
        if tracer is None:
            return ops.run_untraced(op)
        with tracer.request(op.kind, round_index, op.m):
            return ops.run_traced(tracer, op)
    except Exception:  # an uncaught error is a failed operation, not a crash
        return ops.Outcome(-1, err=traceback.format_exc(limit=-1).strip().splitlines()[-1])


def _run_chains(chains, known: dict, tally: Tally, tracer, round_index: int) -> None:
    for chain in chains:
        for op in chain.ops:
            outcome, wall, seconds = timed(lambda: _run(op, tracer, round_index))
            if tracer is not None:
                tracer.scale.append(seconds / wall)
            tally.add(op, wall, seconds, outcome.rc, ops.check(op, outcome, known))
        for path in chain.scratch:
            known.pop(path, None)
            Path(path).unlink(missing_ok=True)


def _import_seconds() -> float:
    """Import time of the package in a fresh interpreter, as a CLI user pays
    it, at the reference speed."""
    code = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
            "import spinstar.cli; print(time.perf_counter() - t)")
    done, wall, seconds = timed(lambda: subprocess.run(
        [sys.executable, "-c", code, str(SRC)], capture_output=True, text=True,
        timeout=120, check=True, cwd=ROOT))
    return float(done.stdout.strip()) * seconds / wall


def setup(name: str, seed: int, scratch: str, smoke: bool, tracer=None):
    """Generate the inputs and run the set-up requests; returns the workload,
    what the checks learned about its files, and the set-up seconds at the
    reference speed."""
    (workload, chains), _, generate = timed(lambda: _generate(name, seed, scratch, smoke))
    known: dict = {}
    tally = Tally()
    _run_chains(chains, known, tally, tracer, -1)
    if tally.failures:
        _fail("set-up failed: " + "; ".join(tally.failures))
    return workload, known, generate + tally.op_seconds


def _generate(name: str, seed: int, scratch: str, smoke: bool):
    workload = Workload(name, seed, tempfile.mkdtemp(dir=scratch), smoke)
    return workload, workload.setup()


def timed_pass(workload, known, seconds: float, tracer=None, rounds: int | None = None):
    """The number of whole rounds whose total time comes closest to
    ``seconds`` (at least one), or exactly ``rounds``."""
    tally, r, start = Tally(), 0, time.perf_counter()
    while True:
        _run_chains(workload.round(r), known, tally, tracer, r)
        r += 1
        elapsed = time.perf_counter() - start
        if rounds is not None and r >= rounds:
            break
        if rounds is None and elapsed + elapsed / r / 2 >= seconds:
            break
    return tally, r


def quantile_ms(seconds: list[float], q: float) -> float:
    """Harrell-Davis estimate of quantile q, in ms: a Beta(q(n+1), (1-q)(n+1))
    weighted mean of all order statistics.  It averages the few samples near
    the quantile instead of picking one, which steadies a p90 that rests on
    ten or so long operations."""
    x = np.sort(np.asarray(seconds))
    n = x.size
    if n == 0:
        return float("nan")
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    steps = 64 * n
    t = (np.arange(steps) + 0.5) / steps
    log_pdf = (a - 1.0) * np.log(t) + (b - 1.0) * np.log1p(-t)
    cdf = np.concatenate(([0.0], np.cumsum(np.exp(log_pdf - log_pdf.max()))))
    weights = np.diff(cdf[::64] / cdf[-1])
    return float(weights @ x) * 1e3


def end_to_end(tally: Tally, setup_s: float) -> dict[str, float]:
    lat = tally.latency
    out = {"setup_s": setup_s}
    for kind in ("design", "verify", "simulate", "simulate_full", "retarget"):
        out[f"{kind}_ms_p50"] = quantile_ms(lat[kind], 0.5)
        out[f"{kind}_ms_p90"] = quantile_ms(lat[kind], 0.9)
    out["sweep_rows_per_s"] = tally.sweep_rows / tally.sweep_seconds if tally.sweep_seconds else 0.0
    out["oracle_ms_p50"] = quantile_ms(lat["oracle"], 0.5)
    out["ops_per_s"] = tally.succeeded / tally.op_seconds
    out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def environment() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"env python={platform.python_version()} numpy={np.__version__} "
            f"blas={blas.get('name')}-{blas.get('version')} blas_threads={BLAS_THREADS} "
            f"nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))}")


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool, scratch: str):
    """One benchmark run; returns (metrics as {name: (value, unit)}, tally)."""
    if not trace:
        setups = []
        for _ in range(1 if smoke else SETUP_REPEATS):
            import_s = _import_seconds()
            workload, known, setup_seconds = setup(name, seed, scratch, smoke)
            setups.append(import_s + setup_seconds)
        tally, rounds = timed_pass(workload, known, seconds)
        metrics = {k: (v, E2E_UNITS[k]) for k, v in end_to_end(tally, statistics.median(setups)).items()}
        print(f"# {rounds} rounds; set-ups {', '.join(f'{s:.3f}' for s in setups)} s")
        for kind in KINDS:
            n = len(tally.latency[kind])
            note = "" if n >= P90_MIN_SAMPLES or kind in ("sweep", "oracle") else "  (p90 on < 100)"
            print(f"# {kind:14s} ok {n:5d}  wall-clock p50 {quantile_ms(tally.wall[kind], 0.5):.4g} ms"
                  f"  p90 {quantile_ms(tally.wall[kind], 0.9):.4g} ms{note}")
        return metrics, tally

    tracer = Tracer()
    workload, known, _ = setup(name, seed, scratch, smoke, tracer)
    plain, rounds = timed_pass(workload, known, seconds / 2)
    first_request = len(tracer.request_round)
    traced, _ = timed_pass(workload, known, 0, tracer, rounds)
    traced_seconds = traced.op_seconds - tracer.probe_seconds(first_request)
    metrics = per_layer_metrics(tracer, rounds)
    overhead = 1.0 - (traced.succeeded / traced_seconds) / (plain.succeeded / plain.op_seconds)
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(str(out_dir / f"spans-{name}-seed{seed}.json"))
    print(f"# {rounds} rounds untraced, then the same {rounds} traced; "
          f"{len(tracer.spans)} spans in {out_dir.name}/")
    plain.attempted += traced.attempted
    plain.wrong += traced.wrong
    plain.failures += traced.failures
    return metrics, plain


def _json_value(v: float):
    return v if v == v else None  # NaN (no successful sample) becomes null


def report(tag: str, metrics: dict, tally: Tally) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{tag}metric {name} {value!r} {unit}")
    print(f"{tag}ops_attempted {tally.attempted}")
    print(f"{tag}ops_failed {len(tally.failures)}")
    for line in tally.failures[:200]:
        print(f"{tag}failure {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload for one short round, untraced and traced")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    scratch_root = ROOT / ".bench_tmp"
    scratch_root.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(dir=scratch_root)
    print(environment())
    try:
        if args.smoke:
            result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
            for name in WORKLOADS:
                for trace in (False, True):
                    metrics, tally = run_workload(name, args.seed, 0, trace, True, scratch)
                    report(f"{name} trace={int(trace)} ", metrics, tally)
                    result["correct"] &= tally.wrong == 0
                    result["attempted"] += tally.attempted
                    result["failed"] += len(tally.failures)
                    for key, (value, unit) in metrics.items():
                        result["metrics"][f"{name}:{key}"] = {"value": _json_value(value),
                                                             "unit": unit}
        else:
            print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
                  f"trace={args.trace}")
            metrics, tally = run_workload(args.workload, args.seed, args.seconds,
                                          bool(args.trace), False, scratch)
            report("", metrics, tally)
            result = {"correct": tally.wrong == 0, "attempted": tally.attempted,
                      "failed": len(tally.failures),
                      "metrics": {k: {"value": _json_value(v), "unit": u}
                                  for k, (v, u) in metrics.items()}}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
