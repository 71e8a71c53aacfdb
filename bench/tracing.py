"""In-memory spans for the traced run, and the per-layer metrics made from them.

A span is one call into a public function of a ``spinstar`` module, recorded
from the benchmark's side of the call: name (``<module>.<what>``), start, end,
parent span and request.  Probe spans time a public function the CLI handler
reaches only indirectly (for example ``designer.solve_e`` inside
``designer.design``); they are extra work the benchmark adds, so they are left
out of self time and of the traced throughput.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

LAYERS = ("cli", "designer", "model", "dynamics", "switchboard")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int        # index of the parent span, -1 for a request's root
    request: int
    probe: bool = False
    m: int = -1


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    request_round: list[int] = field(default_factory=list)   # round of each request, -1 in set-up
    counts: dict = field(default_factory=dict)                # (name, round) -> total
    scale: list[float] = field(default_factory=list)          # reference/wall factor per request
    _stack: list[int] = field(default_factory=list)

    @contextmanager
    def request(self, kind: str, round_index: int, m: int):
        self.request_round.append(round_index)
        with self.span("request." + kind, m=m):
            yield

    @contextmanager
    def span(self, name: str, probe: bool = False, m: int = -1):
        span = Span(name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1,
                    len(self.request_round) - 1, probe, m)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: int) -> None:
        key = (name, self.request_round[-1])
        self.counts[key] = self.counts.get(key, 0) + value

    def seconds(self, span: Span) -> float:
        """Span duration at the reference speed of its request."""
        return (span.end - span.start) * self.scale[span.request]

    def probe_seconds(self, first_request: int) -> float:
        return sum(self.seconds(s) for s in self.spans if s.probe and s.request >= first_request)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": [asdict(s) for s in self.spans],
                       "request_round": self.request_round}, fh)


def _median(values: list[float], scale: float) -> float:
    return statistics.median(values) * scale if values else float("nan")


def per_layer_metrics(tracer: Tracer, rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run.

    Durations are at the reference speed of their request (see run.py).
    Latencies are medians over every span of that name, set-up included (the
    set-up is what reaches size classes a workload's rounds do not).  Counts
    are totals over round 0, which a seed fixes exactly.  Self times are
    per-round means over the timed rounds.
    """
    by_name: dict[str, list[Span]] = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)

    def ms(name, scale=1e3, where=lambda s: True):
        return _median([tracer.seconds(s) for s in by_name.get(name, []) if where(s)], scale)

    def round0(name):
        return float(tracer.counts.get((name, 0), 0))

    out = {
        "cli.parse_design_ms": (ms("cli.parse_design"), "ms"),
        "cli.design_document_ms": (ms("cli.design_document"), "ms"),
        "cli.render_design_ms": (ms("cli.render_design"), "ms"),
        "cli.design_file_bytes": (round0("cli.design_file_bytes"), "bytes"),
        "cli.render_trace_ms": (ms("cli.render_trace"), "ms"),
        "designer.solve_e_us": (ms("designer.solve_e", 1e6), "us"),
        "designer.back_solve_us": (ms("designer.back_solve", 1e6), "us"),
        "designer.design_ms.small": (ms("designer.design", where=lambda s: s.m <= 10**3), "ms"),
        "designer.design_ms.large": (ms("designer.design", where=lambda s: s.m >= 10**5), "ms"),
        "designer.min_feasible_even_eta_ms": (ms("designer.min_feasible_even_eta"), "ms"),
        "designer.feasibility_us": (ms("designer.feasibility", 1e6), "us"),
        "model.star_spec_ms": (ms("model.star_spec"), "ms"),
        "model.design_solution_ms": (ms("model.design_solution"), "ms"),
        "model.build_reduced_ms": (ms("model.build_reduced"), "ms"),
        "model.dense_star_ms": (ms("model.dense_star"), "ms"),
        "model.dense_star_bytes": (round0("model.dense_star_bytes"), "bytes"),
        "model.full_spin_ms": (ms("model.full_spin"), "ms"),
        "model.full_spin_bytes": (round0("model.full_spin_bytes"), "bytes"),
        "dynamics.eigh_ms": (ms("dynamics.eigh"), "ms"),
        "dynamics.eigh_n3": (round0("dynamics.eigh_n3"), "count"),
        "dynamics.amplitudes_ms": (ms("dynamics.amplitudes"), "ms"),
        "dynamics.verify_design_ms": (ms("dynamics.verify_design"), "ms"),
        "dynamics.fidelity_trace_ms.reduced": (ms("dynamics.fidelity_trace"), "ms"),
        "switchboard.routing_state_ms": (ms("switchboard.routing_state"), "ms"),
        "switchboard.retarget_ms": (ms("switchboard.retarget"), "ms"),
    }

    child_time = [0.0] * len(tracer.spans)
    for s in tracer.spans:
        if s.parent >= 0 and not s.probe:
            child_time[s.parent] += tracer.seconds(s)
    self_time = dict.fromkeys(LAYERS, 0.0)
    for i, s in enumerate(tracer.spans):
        layer = s.name.split(".", 1)[0]
        if layer in self_time and not s.probe and tracer.request_round[s.request] >= 0:
            self_time[layer] += tracer.seconds(s) - child_time[i]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (self_time[layer] / max(rounds, 1), "s")
    return out
